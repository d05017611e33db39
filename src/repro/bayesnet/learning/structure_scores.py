"""Structure scores (BIC, BDeu) and a greedy hill-climbing structure search.

The paper obtains its structure from design knowledge (the block dependency
diagram), not from data.  Structure learning is included as an *extension*:
the ablation benchmarks compare the expert structure against a data-driven
one, which quantifies how much the designer's knowledge is worth.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from repro.bayesnet.codec import EvidenceCodec
from repro.bayesnet.learning.mle import family_counts
from repro.bayesnet.network import BayesianNetwork
from repro.exceptions import LearningError

Case = Mapping[str, object]


def bic_score(cases: Sequence[Case], node: str, parents: Sequence[str],
              cardinalities: Mapping[str, int],
              state_names: Mapping[str, Sequence[str]]) -> float:
    """Return the BIC family score of ``node`` with parent set ``parents``."""
    counts = family_counts(cases, node, parents, cardinalities,
                           EvidenceCodec(state_names))
    sample_size = counts.sum()
    if sample_size == 0:
        return 0.0
    column_sums = counts.sum(axis=0)
    log_likelihood = 0.0
    for row in range(counts.shape[0]):
        for column in range(counts.shape[1]):
            count = counts[row, column]
            if count > 0:
                log_likelihood += count * np.log(count / column_sums[column])
    free_parameters = (counts.shape[0] - 1) * counts.shape[1]
    return float(log_likelihood - 0.5 * np.log(sample_size) * free_parameters)


def bdeu_score(cases: Sequence[Case], node: str, parents: Sequence[str],
               cardinalities: Mapping[str, int],
               state_names: Mapping[str, Sequence[str]],
               equivalent_sample_size: float = 10.0) -> float:
    """Return the BDeu family score of ``node`` with parent set ``parents``."""
    if equivalent_sample_size <= 0:
        raise LearningError("equivalent_sample_size must be positive")
    counts = family_counts(cases, node, parents, cardinalities,
                           EvidenceCodec(state_names))
    child_card, columns = counts.shape
    alpha_column = equivalent_sample_size / columns
    alpha_cell = alpha_column / child_card
    score = 0.0
    for column in range(columns):
        column_count = counts[:, column].sum()
        score += gammaln(alpha_column) - gammaln(alpha_column + column_count)
        for row in range(child_card):
            score += gammaln(alpha_cell + counts[row, column]) - gammaln(alpha_cell)
    return float(score)


def network_score(network: BayesianNetwork, cases: Sequence[Case],
                  cardinalities: Mapping[str, int],
                  state_names: Mapping[str, Sequence[str]],
                  score: str = "bic") -> float:
    """Return the decomposable structure score of a whole network."""
    total = 0.0
    for node in network.nodes:
        parents = network.parents(node)
        if score == "bic":
            total += bic_score(cases, node, parents, cardinalities, state_names)
        elif score == "bdeu":
            total += bdeu_score(cases, node, parents, cardinalities, state_names)
        else:
            raise LearningError(f"unknown score {score!r}; use 'bic' or 'bdeu'")
    return total


class HillClimbSearch:
    """Greedy structure search over edge additions, deletions and reversals.

    Parameters
    ----------
    cardinalities / state_names:
        Variable schema (all variables that may appear in the structure).
    score:
        ``"bic"`` or ``"bdeu"``.
    max_parents:
        Upper bound on the number of parents per node (keeps CPTs small).
    max_iterations:
        Maximum number of greedy moves.
    """

    def __init__(self, cardinalities: Mapping[str, int],
                 state_names: Mapping[str, Sequence[str]] | None = None,
                 score: str = "bic", max_parents: int = 3,
                 max_iterations: int = 200) -> None:
        self.cardinalities = dict(cardinalities)
        self.state_names = {
            node: list(state_names[node]) if state_names and node in state_names
            else [str(i) for i in range(card)]
            for node, card in self.cardinalities.items()}
        self.score = score
        self.max_parents = int(max_parents)
        self.max_iterations = int(max_iterations)

    def _family_score(self, cases: Sequence[Case], node: str,
                      parents: Sequence[str]) -> float:
        if self.score == "bic":
            return bic_score(cases, node, parents, self.cardinalities, self.state_names)
        return bdeu_score(cases, node, parents, self.cardinalities, self.state_names)

    def fit(self, cases: Sequence[Case],
            start: BayesianNetwork | None = None) -> BayesianNetwork:
        """Return the structure found by greedy hill climbing from ``start``."""
        cases = list(cases)
        if not cases:
            raise LearningError("cannot search structure on an empty case list")
        nodes = list(self.cardinalities)
        current = start.copy() if start is not None else BayesianNetwork(nodes=nodes)
        for node in nodes:
            current.add_node(node)
        family_scores = {node: self._family_score(cases, node, current.parents(node))
                         for node in nodes}

        for _ in range(self.max_iterations):
            best_delta = 0.0
            best_move = None
            for parent in nodes:
                for child in nodes:
                    if parent == child:
                        continue
                    if current.graph.has_edge(parent, child):
                        # Consider deleting the edge.
                        new_parents = [p for p in current.parents(child) if p != parent]
                        delta = (self._family_score(cases, child, new_parents)
                                 - family_scores[child])
                        if delta > best_delta:
                            best_delta, best_move = delta, ("remove", parent, child)
                    else:
                        # Consider adding the edge (if acyclic and within fan-in).
                        if len(current.parents(child)) >= self.max_parents:
                            continue
                        if parent in current.graph.descendants(child):
                            continue
                        new_parents = current.parents(child) + [parent]
                        delta = (self._family_score(cases, child, new_parents)
                                 - family_scores[child])
                        if delta > best_delta:
                            best_delta, best_move = delta, ("add", parent, child)
            if best_move is None:
                break
            action, parent, child = best_move
            if action == "add":
                current.add_edge(parent, child)
            else:
                current.graph.remove_edge(parent, child)
            family_scores[child] = self._family_score(cases, child,
                                                      current.parents(child))
        return current
