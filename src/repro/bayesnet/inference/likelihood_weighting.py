"""Approximate inference by likelihood weighting.

Likelihood weighting forward-samples the non-evidence variables in
topological order and weights each sample by the likelihood of the evidence
under the sampled parents.  It is used in the benchmark harness to compare
cheap approximate posteriors against the exact engines on the voltage
regulator network.

The sampler is vectorised: all ``num_samples`` particles advance through the
topological order together as integer state arrays, with the per-node CPT
lookups and the evidence weights computed by row-indexed numpy gathers.
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


class LikelihoodWeighting(CompiledSampler):
    """Likelihood-weighted sampling inference.

    Parameters
    ----------
    network:
        A fully specified network.
    num_samples:
        Number of weighted samples drawn per query.
    seed:
        Seed or generator for reproducible sampling.
    """

    def __init__(self, network: BayesianNetwork, num_samples: int = 5000,
                 seed: int | np.random.Generator | None = None) -> None:
        network.check_model()
        if num_samples < 1:
            raise InferenceError("num_samples must be at least 1")
        self._init_compiled(network)
        self.num_samples = int(num_samples)
        self._rng = ensure_rng(seed)
        self._topological_order = network.graph.topological_sort()
        #: Effective sample size of the most recent query's weight population,
        #: ``(sum w)^2 / sum w^2``; serving layers read it as a confidence
        #: signal on degraded (sampled) posteriors.
        self.last_effective_sample_size: float | None = None

    def _finish_weights(self, weights: np.ndarray,
                        evidence: Mapping) -> float:
        """Validate the weight population and record its effective size."""
        total_weight = float(weights.sum())
        if not np.isfinite(total_weight):
            raise InferenceError(
                f"non-finite sample weights (sum {total_weight!r}); the "
                "network contains corrupted (NaN/inf) CPD entries")
        if total_weight <= 0:
            self.last_effective_sample_size = 0.0
            raise ImpossibleEvidenceError(
                "all samples received zero weight; the evidence is (nearly) "
                "impossible under the model or num_samples is too small",
                evidence=dict(evidence))
        self.last_effective_sample_size = float(
            total_weight ** 2 / float((weights ** 2).sum()))
        return total_weight

    def _sample_batch(self, evidence: Mapping[str, int]
                      ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Draw the whole particle population in one vectorised pass.

        Returns ``({variable: int state array}, weight array)``.
        """
        self._refresh_tables()
        count = self.num_samples
        states: dict[str, np.ndarray] = {}
        weights = np.ones(count, dtype=float)
        for node in self._topological_order:
            compiled = self._compiled[node]
            columns = compiled.columns(states, count)
            if node in evidence:
                index = evidence[node]
                states[node] = np.full(count, index, dtype=np.intp)
                weights *= compiled.table_t[columns, index]
            else:
                states[node] = compiled.draw(columns, self._rng)
        return states, weights

    def query(self, variables: Sequence[str],
              evidence: Evidence | None = None) -> DiscreteFactor:
        """Return an estimate of the posterior factor of ``variables``."""
        variables = list(variables)
        if not variables:
            raise InferenceError("query requires at least one variable")
        evidence = dict(evidence or {})
        evidence_indices = EvidenceCodec.of(self.network).encode(
            evidence, InferenceError, variables)

        cards = [self.network.cardinality(v) for v in variables]
        names = {v: self.network.state_names(v) for v in variables}
        states, weights = self._sample_batch(evidence_indices)
        total_weight = self._finish_weights(weights, evidence)
        flat = np.zeros(int(np.prod(cards)), dtype=float)
        indices = states[variables[0]]
        for variable, card in zip(variables[1:], cards[1:]):
            indices = indices * card + states[variable]
        np.add.at(flat, indices, weights)
        counts = flat.reshape(cards)
        return DiscreteFactor(variables, cards, counts / total_weight, names)

    def posterior(self, variable: str,
                  evidence: Evidence | None = None) -> dict[str, float]:
        """Return ``P(variable | evidence)`` as ``{state: probability}``."""
        return self.query([variable], evidence).to_distribution()

    def posteriors(self, variables: Iterable[str],
                   evidence: Evidence | None = None) -> dict[str, dict[str, float]]:
        """Return the marginals of several variables from one shared sample set."""
        variables = list(variables)
        evidence = dict(evidence or {})
        evidence_indices = EvidenceCodec.of(self.network).encode(
            evidence, InferenceError, variables)
        states, weights = self._sample_batch(evidence_indices)
        total_weight = self._finish_weights(weights, evidence)
        result: dict[str, dict[str, float]] = {}
        for variable in variables:
            card = self.network.cardinality(variable)
            counts = np.bincount(states[variable], weights=weights,
                                 minlength=card)
            names = self.network.state_names(variable)
            result[variable] = {name: float(count / total_weight)
                                for name, count in zip(names, counts)}
        return result

    def map_query(self, variables: Sequence[str],
                  evidence: Evidence | None = None) -> dict[str, str]:
        """Return the (estimated) most probable joint assignment of ``variables``."""
        return self.query(variables, evidence).argmax()
