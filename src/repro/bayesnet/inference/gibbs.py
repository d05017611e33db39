"""Approximate inference by Gibbs sampling.

Gibbs sampling resamples each non-evidence variable from its full conditional
given the current state of its Markov blanket.  It is included as a second
approximate engine for the inference-engine comparison benchmark and as a
cross-check of the exact engines on larger synthetic networks.

The implementation is vectorised: ``chains`` independent chains advance in
lock-step, and each per-node resampling step computes the full conditionals
of every chain at once with row-indexed CPT gathers (no per-sample Python
loops).  Retained samples are drawn round-robin across the chains after each
chain's burn-in, which also improves mixing over a single long chain.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.bayesnet.codec import Evidence, EvidenceCodec
from repro.bayesnet.factor import DiscreteFactor
from repro.bayesnet.network import BayesianNetwork
from repro.bayesnet.sampling import CompiledSampler
from repro.exceptions import ImpossibleEvidenceError, InferenceError
from repro.utils.rng import ensure_rng


class GibbsSampling(CompiledSampler):
    """Gibbs-sampling inference over a discrete Bayesian network.

    Parameters
    ----------
    network:
        A fully specified network.
    num_samples:
        Number of retained samples per query (after burn-in and thinning),
        pooled across all chains.
    burn_in:
        Number of initial sweeps discarded (per chain).
    thin:
        Keep one sample every ``thin`` sweeps.
    chains:
        Number of chains advanced in lock-step; the vectorisation batch size.
    seed:
        Seed or generator for reproducible sampling.
    """

    def __init__(self, network: BayesianNetwork, num_samples: int = 2000,
                 burn_in: int = 200, thin: int = 2,
                 chains: int = 16,
                 seed: int | np.random.Generator | None = None) -> None:
        network.check_model()
        if num_samples < 1:
            raise InferenceError("num_samples must be at least 1")
        if burn_in < 0 or thin < 1:
            raise InferenceError("burn_in must be >= 0 and thin >= 1")
        if chains < 1:
            raise InferenceError("chains must be at least 1")
        self._init_compiled(network)
        self.num_samples = int(num_samples)
        # Every query retains num_samples sweeps: its effective sample size.
        self.last_effective_sample_size = float(self.num_samples)
        self.burn_in = int(burn_in)
        self.thin = int(thin)
        self.chains = min(int(chains), self.num_samples)
        self._rng = ensure_rng(seed)
        self._order = network.graph.topological_sort()
        self._build_child_strides()

    def _build_child_strides(self) -> None:
        # Per node: its children with the stride of this node inside each
        # child's parent-configuration index, for vectorised conditionals.
        self._child_strides: dict[str, list[tuple[str, int]]] = {}
        for node in self._order:
            entries = []
            for child in self.network.children(node):
                child_cpd = self.network.get_cpd(child)
                position = child_cpd.parents.index(node)
                entries.append((child, self._compiled[child].strides[position]))
            self._child_strides[node] = entries

    def _recompile(self) -> None:
        super()._recompile()
        self._build_child_strides()

    # ---------------------------------------------------------- vectorised core
    def _initial_states(self, evidence: Mapping[str, int],
                        count: int) -> dict[str, np.ndarray]:
        """Forward-sample ``count`` chains with the evidence clamped."""
        states: dict[str, np.ndarray] = {}
        for node in self._order:
            compiled = self._compiled[node]
            if node in evidence:
                states[node] = np.full(count, evidence[node], dtype=np.intp)
                continue
            columns = compiled.columns(states, count)
            states[node] = compiled.draw(columns, self._rng)
        return states

    def _conditionals(self, node: str,
                      states: Mapping[str, np.ndarray]) -> np.ndarray:
        """Return the unnormalised full conditionals, one row per chain."""
        compiled = self._compiled[node]
        count = len(next(iter(states.values())))
        columns = compiled.columns(states, count)
        probabilities = compiled.table_t[columns].copy()
        candidates = np.arange(compiled.cardinality, dtype=np.intp)
        for child, stride in self._child_strides[node]:
            child_compiled = self._compiled[child]
            base = child_compiled.columns(states, count) - states[node] * stride
            child_columns = base[:, None] + candidates[None, :] * stride
            probabilities *= child_compiled.table_t[
                child_columns, states[child][:, None]]
        return probabilities

    def _resample_node(self, node: str, states: dict[str, np.ndarray],
                       evidence: Mapping[str, int]) -> None:
        probabilities = self._conditionals(node, states)
        totals = probabilities.sum(axis=1)
        dead = np.flatnonzero(totals <= 0)
        if len(dead):
            # Those chains reached a configuration inconsistent with the
            # evidence; restart them from fresh forward samples.
            fresh = self._initial_states(evidence, len(dead))
            for variable in self._order:
                states[variable][dead] = fresh[variable]
            probabilities[dead] = self._conditionals(
                node, {v: s[dead] for v, s in states.items()})
            totals = probabilities.sum(axis=1)
            if np.any(totals <= 0):
                raise ImpossibleEvidenceError(
                    f"cannot resample {node!r}: all conditional "
                    "probabilities are zero; the evidence is (nearly) "
                    "impossible under the model", evidence=dict(evidence))
        if not np.all(np.isfinite(totals)):
            raise InferenceError(
                f"non-finite conditional mass while resampling {node!r}; "
                "the network contains corrupted (NaN/inf) CPD entries")
        cumulative = np.cumsum(probabilities, axis=1)
        uniforms = self._rng.random(len(totals)) * totals
        drawn = (cumulative < uniforms[:, None]).sum(axis=1)
        states[node] = np.minimum(drawn, probabilities.shape[1] - 1).astype(np.intp)

    def _has_feasible_chain(self, states: Mapping[str, np.ndarray],
                            count: int) -> bool:
        """Return whether any chain starts at nonzero clamped joint probability.

        A deterministic-zero evidence factor need not touch any free node's
        Markov blanket, so the per-node conditional check alone cannot see
        global impossibility; the clamped joint probability of the
        forward-sampled chains is the tell.  Consumes no RNG.
        """
        joint = np.ones(count, dtype=float)
        for node in self._order:
            compiled = self._compiled[node]
            columns = compiled.columns(states, count)
            joint *= compiled.table_t[columns, states[node]]
        if not np.all(np.isfinite(joint)):
            raise InferenceError(
                "non-finite chain probability; the network contains "
                "corrupted (NaN/inf) CPD entries")
        return bool(np.any(joint > 0.0))

    def sample_states(self, evidence: Evidence | None = None
                      ) -> dict[str, np.ndarray]:
        """Return retained samples as ``{variable: int state array}``.

        The arrays have length ``num_samples``; retained sweeps contribute
        one sample per chain (round-robin) after each chain's burn-in.
        """
        return self._sample_states(evidence or {}, ())

    def _sample_states(self, evidence: Evidence, query: Sequence[str]
                       ) -> dict[str, np.ndarray]:
        """:meth:`sample_states` after the codec checks ``query`` too."""
        self._refresh_tables()
        evidence_indices = EvidenceCodec.of(self.network).encode(
            evidence, InferenceError, query)
        chains = self.chains
        states = self._initial_states(evidence_indices, chains)
        # Truly-impossible evidence keeps every redraw at joint probability
        # zero; possible-but-unlucky starts are fixed by a redraw almost
        # surely.  Valid first draws consume no extra RNG.
        for _ in range(5):
            if self._has_feasible_chain(states, chains):
                break
            states = self._initial_states(evidence_indices, chains)
        else:
            raise ImpossibleEvidenceError(
                "every initial chain has zero probability under the clamped "
                "evidence; the evidence is impossible under the model",
                evidence=dict(evidence))
        free = [node for node in self._order if node not in evidence_indices]
        kept: dict[str, list[np.ndarray]] = {node: [] for node in self._order}
        retained = 0
        sweep = 0
        while retained < self.num_samples:
            for node in free:
                self._resample_node(node, states, evidence_indices)
            if sweep >= self.burn_in and (sweep - self.burn_in) % self.thin == 0:
                take = min(chains, self.num_samples - retained)
                for node in self._order:
                    kept[node].append(states[node][:take].copy())
                retained += take
            sweep += 1
        return {node: np.concatenate(kept[node]) for node in self._order}

    def sample(self, evidence: Evidence | None = None) -> list[dict[str, int]]:
        """Return retained Gibbs samples as state-index assignments."""
        states = self.sample_states(evidence)
        return [{node: int(states[node][row]) for node in self._order}
                for row in range(self.num_samples)]

    # ----------------------------------------------------------------- queries
    def query(self, variables: Sequence[str],
              evidence: Evidence | None = None) -> DiscreteFactor:
        """Return an estimate of the posterior factor of ``variables``."""
        variables = list(variables)
        if not variables:
            raise InferenceError("query requires at least one variable")
        states = self._sample_states(evidence or {}, variables)
        cards = [self.network.cardinality(v) for v in variables]
        names = {v: self.network.state_names(v) for v in variables}
        indices = states[variables[0]]
        for variable, card in zip(variables[1:], cards[1:]):
            indices = indices * card + states[variable]
        flat = np.bincount(indices, minlength=int(np.prod(cards))).astype(float)
        counts = flat.reshape(cards)
        return DiscreteFactor(variables, cards, counts / counts.sum(), names)

    def posterior(self, variable: str,
                  evidence: Evidence | None = None) -> dict[str, float]:
        """Return ``P(variable | evidence)`` as ``{state: probability}``."""
        return self.query([variable], evidence).to_distribution()

    def posteriors(self, variables: Iterable[str],
                   evidence: Evidence | None = None) -> dict[str, dict[str, float]]:
        """Return the marginal posterior estimate of each variable."""
        variables = list(variables)
        states = self._sample_states(evidence or {}, variables)
        result: dict[str, dict[str, float]] = {}
        for variable in variables:
            card = self.network.cardinality(variable)
            counts = np.bincount(states[variable], minlength=card).astype(float)
            names = self.network.state_names(variable)
            total = counts.sum()
            result[variable] = {name: float(count / total)
                                for name, count in zip(names, counts)}
        return result
