"""Maximum-likelihood parameter estimation from fully observed cases."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.bayesnet.codec import EvidenceCodec
from repro.bayesnet.cpd import TabularCPD
from repro.bayesnet.learning.case_matrix import CaseMatrix
from repro.bayesnet.network import BayesianNetwork
from repro.exceptions import LearningError

Case = Mapping[str, object]


class MaximumLikelihoodEstimator:
    """Estimate CPTs by relative frequency counting.

    Parameters
    ----------
    structure:
        A network whose graph defines the parent sets.  Existing CPDs are
        used only to obtain cardinalities and state names; they are replaced
        by the learned CPDs in :meth:`fit`.
    cardinalities / state_names:
        Required when ``structure`` has no CPDs attached.
    """

    def __init__(self, structure: BayesianNetwork,
                 cardinalities: Mapping[str, int] | None = None,
                 state_names: Mapping[str, Sequence[str]] | None = None) -> None:
        self.structure = structure
        self._cardinalities, self._state_names = resolve_schema(
            structure, cardinalities, state_names)
        self._codec = EvidenceCodec(self._state_names)

    # ----------------------------------------------------------------- fitting
    def state_counts(self, cases: Sequence[Case] | CaseMatrix,
                     node: str) -> np.ndarray:
        """Return the (child_card, parent_configs) count matrix for ``node``.

        ``cases`` may be dict-based rows or a :class:`CaseMatrix`; the matrix
        path counts the whole population in one ``np.bincount`` pass over
        ravelled (child, parent-configuration) indices and is pinned to the
        row path by the columnar equivalence suite.
        """
        parents = self.structure.parents(node)
        child_card = self._cardinalities[node]
        parent_cards = [self._cardinalities[p] for p in parents]
        columns = math.prod(parent_cards) if parents else 1
        if isinstance(cases, CaseMatrix):
            # Counts are a pure function of (matrix, node, schema), and the
            # ablation/serving pattern fits several priors against the same
            # population — memoise on the matrix.  Callers must not mutate
            # the returned array (both estimators derive fresh tables).
            key = (node, tuple(parents), tuple(self._state_names[node]),
                   tuple(tuple(self._state_names[p]) for p in parents))
            cache = cases.__dict__.setdefault("_state_counts_cache", {})
            counts = cache.get(key)
            if counts is not None:
                return counts
            child = cases.encode_for(node, self._state_names[node])
            valid = child >= 0
            column = np.zeros(len(cases), dtype=np.int64)
            for parent, card in zip(parents, parent_cards):
                codes = cases.encode_for(parent, self._state_names[parent])
                valid &= codes >= 0
                column = column * card + np.where(codes >= 0, codes, 0)
            flat = child[valid].astype(np.int64) * columns + column[valid]
            counts = np.bincount(flat, minlength=child_card * columns) \
                .reshape(child_card, columns).astype(float)
            cache[key] = counts
            return counts
        return family_counts(cases, node, parents, self._cardinalities,
                             self._codec)

    def estimate_cpd(self, cases: Sequence[Case] | CaseMatrix,
                     node: str) -> TabularCPD:
        """Return the MLE CPD of ``node`` (uniform where a configuration was never seen)."""
        parents = self.structure.parents(node)
        counts = self.state_counts(cases, node)
        column_sums = counts.sum(axis=0)
        table = np.where(column_sums > 0,
                         counts / np.where(column_sums > 0, column_sums, 1.0),
                         1.0 / counts.shape[0])
        names = {node: self._state_names[node]}
        names.update({p: self._state_names[p] for p in parents})
        # Columns are normalised by construction; skip re-validation.
        return TabularCPD._from_trusted(
            node, self._cardinalities[node], table, list(parents),
            [self._cardinalities[p] for p in parents], names)

    def fit(self, cases: Sequence[Case] | CaseMatrix) -> BayesianNetwork:
        """Return a copy of the structure with MLE CPDs learned from ``cases``."""
        if len(cases) == 0:
            raise LearningError("cannot learn parameters from an empty case list")
        learned = BayesianNetwork(nodes=self.structure.nodes)
        for parent, child in self.structure.edges:
            learned.add_edge(parent, child)
        for node in learned.nodes:
            learned.add_cpd(self.estimate_cpd(cases, node))
        learned.check_model()
        return learned


# --------------------------------------------------------------------- helpers
def family_counts(cases: Sequence[Case], node: str, parents: Sequence[str],
                  cardinalities: Mapping[str, int],
                  codec: EvidenceCodec) -> np.ndarray:
    """Count the dict cases that observe ``node`` and all its ``parents``.

    Returns the ``(child_card, parent_configs)`` count matrix; ``codec``
    reads every cell (``None`` is missing, a bad value raises
    :class:`LearningError`).
    """
    parent_cards = [cardinalities[parent] for parent in parents]
    counts = np.zeros((cardinalities[node], math.prod(parent_cards)))
    for case in cases:
        row = codec.code(node, case.get(node), LearningError)
        if row is None:
            continue
        column = 0
        for parent, card in zip(parents, parent_cards):
            index = codec.code(parent, case.get(parent), LearningError)
            if index is None:
                break
            column = column * card + index
        else:
            counts[row, column] += 1.0
    return counts


def resolve_schema(structure: BayesianNetwork,
                   cardinalities: Mapping[str, int] | None,
                   state_names: Mapping[str, Sequence[str]] | None
                   ) -> tuple[dict[str, int], dict[str, list[str]]]:
    """Resolve per-variable cardinalities and state names.

    Priority: explicit arguments, then CPDs already attached to the structure.
    """
    resolved_cards: dict[str, int] = {}
    resolved_names: dict[str, list[str]] = {}
    for node in structure.nodes:
        if cardinalities and node in cardinalities:
            resolved_cards[node] = int(cardinalities[node])
            names = list(state_names[node]) if state_names and node in state_names \
                else [str(i) for i in range(resolved_cards[node])]
            resolved_names[node] = names
            continue
        try:
            cpd = structure.get_cpd(node)
        except Exception as exc:
            raise LearningError(
                f"no cardinality available for node {node!r}: supply "
                "cardinalities/state_names or attach prior CPDs") from exc
        resolved_cards[node] = cpd.cardinality
        resolved_names[node] = list(cpd.state_names[node])
    return resolved_cards, resolved_names
