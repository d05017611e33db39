"""Forward and rejection sampling from a Bayesian network.

Forward sampling is used throughout the test suite (to generate ground-truth
data with known parameters) and by the benchmark harness to create synthetic
failed-device populations when the behavioural circuit simulator is not
involved.

Sampling is vectorised: whole batches are drawn as integer state arrays with
row-indexed CPT lookups (one inverse-CDF draw per node over the entire
batch), instead of per-sample Python dict loops.  The same compiled-table
machinery backs the likelihood-weighting and Gibbs engines.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.bayesnet.codec import EvidenceCodec
from repro.bayesnet.network import BayesianNetwork
from repro.exceptions import InferenceError
from repro.utils.rng import ensure_rng


class CompiledNode:
    """Per-node tables flattened for batched sampling.

    Attributes
    ----------
    table_t:
        The CPT transposed to ``(parent_configurations, cardinality)`` so a
        batch of configuration columns gathers a batch of distributions in
        one fancy-indexing call.
    parents / strides:
        Parent names and the mixed-radix strides that turn a batch of parent
        state arrays into configuration column indices (last parent varies
        fastest, matching ``TabularCPD.parent_configuration_index``).
    """

    __slots__ = ("name", "cardinality", "table_t", "cumulative", "parents", "strides")

    def __init__(self, name: str, cardinality: int, table: np.ndarray,
                 parents: list[str], parent_cardinalities: list[int]) -> None:
        self.name = name
        self.cardinality = cardinality
        self.table_t = np.ascontiguousarray(table.T)
        self.cumulative = np.cumsum(self.table_t, axis=1)
        strides = []
        stride = 1
        for card in reversed(parent_cardinalities):
            strides.append(stride)
            stride *= card
        self.parents = parents
        self.strides = list(reversed(strides))

    def columns(self, states: Mapping[str, np.ndarray], count: int) -> np.ndarray:
        """Return the CPT column index per batch row for the parent states."""
        if not self.parents:
            return np.zeros(count, dtype=np.intp)
        columns = states[self.parents[0]] * self.strides[0]
        for parent, stride in zip(self.parents[1:], self.strides[1:]):
            columns = columns + states[parent] * stride
        return columns

    def draw(self, columns: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sample one state per batch row from the given columns."""
        cumulative = self.cumulative[columns]
        uniforms = rng.random(len(columns))
        states = (cumulative < uniforms[:, None]).sum(axis=1)
        return np.minimum(states, self.cardinality - 1).astype(np.intp)


def cpd_signature(network: BayesianNetwork) -> tuple:
    """Version snapshot of the network's CPD set.

    ``add_cpd`` bumps the network's ``cpd_version`` counter, so comparing
    signatures detects parameter updates between queries without touching
    the CPD objects themselves — this runs on every cached query, so it
    must stay O(1).  (In-place mutation of a CPD's table array is not
    detectable and remains unsupported, as before.)
    """
    return (id(network), network.cpd_version)


def compile_network(network: BayesianNetwork) -> dict[str, CompiledNode]:
    """Return flattened per-node sampling tables for ``network``."""
    compiled = {}
    for node in network.nodes:
        cpd = network.get_cpd(node)
        compiled[node] = CompiledNode(node, cpd.cardinality, cpd.table,
                                      list(cpd.parents),
                                      list(cpd.parent_cardinalities))
    return compiled


class CompiledSampler:
    """Base for samplers that keep compiled CPT tables in sync with the network.

    The tables are recompiled whenever a CPD object on the network is
    replaced (the public ``add_cpd`` mutation path), so samplers never draw
    from stale parameters; subclasses call :meth:`_refresh_tables` at every
    sampling entry point and may override :meth:`_recompile` to rebuild
    derived state of their own.
    """

    network: BayesianNetwork

    def _init_compiled(self, network: BayesianNetwork) -> None:
        self.network = network
        self._compiled = compile_network(network)
        self._cpd_ids = cpd_signature(network)

    def _refresh_tables(self) -> None:
        signature = cpd_signature(self.network)
        if signature != self._cpd_ids:
            self._recompile()
            self._cpd_ids = signature

    def _recompile(self) -> None:
        self._compiled = compile_network(self.network)


class ForwardSampler(CompiledSampler):
    """Ancestral (forward) sampler for a discrete Bayesian network.

    Parameters
    ----------
    network:
        A fully specified network.
    seed:
        Seed or generator for reproducible sampling.
    """

    def __init__(self, network: BayesianNetwork,
                 seed: int | np.random.Generator | None = None) -> None:
        network.check_model()
        self._init_compiled(network)
        self._rng = ensure_rng(seed)
        self._order = network.graph.topological_sort()

    # ------------------------------------------------------------ batched core
    def sample_states(self, count: int) -> dict[str, np.ndarray]:
        """Draw ``count`` assignments as ``{variable: int state array}``."""
        if count < 0:
            raise InferenceError("sample count must be non-negative")
        self._refresh_tables()
        states: dict[str, np.ndarray] = {}
        for node in self._order:
            compiled = self._compiled[node]
            columns = compiled.columns(states, count)
            states[node] = compiled.draw(columns, self._rng)
        return states

    def _to_records(self, states: Mapping[str, np.ndarray], count: int,
                    as_names: bool) -> list[dict[str, str | int]]:
        if as_names:
            named = {node: [self.network.state_names(node)[i]
                            for i in states[node]]
                     for node in self._order}
            return [{node: named[node][row] for node in self._order}
                    for row in range(count)]
        return [{node: int(states[node][row]) for node in self._order}
                for row in range(count)]

    # -------------------------------------------------------------- public API
    def sample_one(self, *, as_names: bool = True) -> dict[str, str | int]:
        """Draw a single full assignment of all network variables."""
        return self.sample(1, as_names=as_names)[0]

    def sample(self, count: int, *, as_names: bool = True
               ) -> list[dict[str, str | int]]:
        """Draw ``count`` independent full assignments."""
        states = self.sample_states(count)
        return self._to_records(states, count, as_names)

    def rejection_sample(self, count: int, evidence: Mapping[str, str | int],
                         *, as_names: bool = True, max_attempts: int = 1_000_000
                         ) -> list[dict[str, str | int]]:
        """Draw ``count`` samples consistent with ``evidence`` by rejection.

        Raises
        ------
        InferenceError
            If ``max_attempts`` forward samples do not yield enough accepted
            samples (evidence too unlikely for rejection sampling).
        """
        evidence_indices = EvidenceCodec.of(self.network).encode(
            evidence, InferenceError)
        accepted: list[dict[str, str | int]] = []
        attempts = 0
        while len(accepted) < count and attempts < max_attempts:
            batch = min(max(4 * count, 64), max_attempts - attempts)
            attempts += batch
            states = self.sample_states(batch)
            match = np.ones(batch, dtype=bool)
            for variable, index in evidence_indices.items():
                match &= states[variable] == index
            rows = np.flatnonzero(match)[:count - len(accepted)]
            if len(rows):
                kept = {node: states[node][rows] for node in self._order}
                accepted.extend(self._to_records(kept, len(rows), as_names))
        if len(accepted) < count:
            raise InferenceError(
                f"rejection sampling accepted only {len(accepted)} of {count} "
                f"requested samples after {max_attempts} attempts")
        return accepted

def sample_dataset(network: BayesianNetwork, count: int,
                   seed: int | np.random.Generator | None = None,
                   missing_fraction: float = 0.0,
                   missing_value: object = None) -> list[dict[str, object]]:
    """Sample ``count`` cases, optionally hiding a fraction of the entries.

    A hidden entry is replaced by ``missing_value`` (``None`` by default),
    which is the convention the EM learner and the Dlog2BBN case generator
    use for "block state unknown for this device".
    """
    if not 0.0 <= missing_fraction <= 1.0:
        raise InferenceError("missing_fraction must be in [0, 1]")
    rng = ensure_rng(seed)
    sampler = ForwardSampler(network, seed=rng)
    samples = sampler.sample(count)
    if missing_fraction <= 0.0:
        return [dict(sample) for sample in samples]
    order = sampler._order
    hidden = rng.random((count, len(order))) < missing_fraction
    cases: list[dict[str, object]] = []
    for row, sample in enumerate(samples):
        cases.append({variable: (missing_value if hidden[row, column] else
                                 sample[variable])
                      for column, variable in enumerate(order)})
    return cases
