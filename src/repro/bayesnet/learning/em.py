"""Expectation–Maximisation parameter learning for partially observed cases.

In the paper's setting the controllable and observable blocks of every failed
device are measured, but the internal ("NOT CONTROL/OBSERVE") blocks never
are — their states are latent in every learning case.  EM handles exactly
this: the E step computes the expected sufficient statistics of the hidden
blocks with exact inference, the M step re-estimates the CPTs (optionally
against the designer's Dirichlet prior), and the loop repeats until the
log-likelihood stops improving.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.bayesnet.codec import EvidenceCodec
from repro.bayesnet.cpd import TabularCPD
from repro.bayesnet.inference.variable_elimination import VariableElimination
from repro.bayesnet.learning.case_matrix import CaseMatrix
from repro.bayesnet.learning.mle import resolve_schema
from repro.bayesnet.network import BayesianNetwork
from repro.exceptions import LearningError

Case = Mapping[str, object]


class ExpectationMaximization:
    """EM parameter learning with exact E steps.

    Parameters
    ----------
    structure:
        Network defining the parent sets.
    initial_network:
        Optional starting point (e.g. the designer-estimate network).  When
        omitted the structure's own CPDs are used; if it has none, uniform
        CPDs are constructed from ``cardinalities``.
    prior_network / equivalent_sample_size:
        Optional Dirichlet prior applied in every M step (MAP-EM).  The prior
        mean is the prior network's CPTs; ``equivalent_sample_size`` is the
        total pseudo-count weight per node.
    max_iterations / tolerance:
        Stopping criteria on the number of iterations and on the improvement
        of the observed-data log-likelihood.
    """

    def __init__(self, structure: BayesianNetwork,
                 initial_network: BayesianNetwork | None = None,
                 prior_network: BayesianNetwork | None = None,
                 equivalent_sample_size: float = 10.0,
                 cardinalities: Mapping[str, int] | None = None,
                 state_names: Mapping[str, Sequence[str]] | None = None,
                 max_iterations: int = 50,
                 tolerance: float = 1e-4) -> None:
        if max_iterations < 1:
            raise LearningError("max_iterations must be at least 1")
        if tolerance <= 0:
            raise LearningError("tolerance must be positive")
        self.structure = structure
        self.prior_network = prior_network
        self.equivalent_sample_size = float(equivalent_sample_size)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self._cardinalities, self._state_names = resolve_schema(
            structure, cardinalities, state_names)
        self._codec = EvidenceCodec(self._state_names)
        if initial_network is not None:
            self._initial = initial_network.copy()
        else:
            try:
                structure.check_model()
                self._initial = structure.copy()
            except Exception:
                self._initial = structure.with_uniform_cpds(
                    self._cardinalities, self._state_names)
        self.log_likelihood_trace: list[float] = []

    # ----------------------------------------------------------------- E step
    def _expected_counts(self, network: BayesianNetwork,
                         cases: Sequence[Case]) -> dict[str, np.ndarray]:
        """Return expected family counts for every node."""
        engine = VariableElimination(network)
        counts: dict[str, np.ndarray] = {}
        for node in network.nodes:
            parents = network.parents(node)
            child_card = self._cardinalities[node]
            parent_cards = [self._cardinalities[p] for p in parents]
            columns = int(np.prod(parent_cards)) if parents else 1
            counts[node] = np.zeros((child_card, columns), dtype=float)

        # Many ATE cases are identical once discretised (same condition set,
        # same response pattern); group them and weight each unique evidence
        # configuration by its multiplicity so the E step runs once per
        # distinct configuration instead of once per case.
        if isinstance(cases, CaseMatrix):
            grouped = self._group_matrix(network, cases)
        else:
            grouped = {}
            for case in cases:
                key = self._codec.key(
                    {variable: value for variable, value in case.items()
                     if value is not None and variable in network.graph},
                    LearningError)
                evidence, multiplicity = grouped.get(key, (dict(key), 0))
                grouped[key] = (evidence, multiplicity + 1)

        log_likelihood = 0.0
        for evidence, multiplicity in grouped.values():
            probability = engine.probability_of_evidence(evidence) if evidence else 1.0
            if probability <= 0:
                # Impossible case under the current parameters; skip it but
                # penalise the log-likelihood so convergence still reflects it.
                log_likelihood += -1e6 * multiplicity
                continue
            log_likelihood += float(np.log(probability)) * multiplicity
            for node in network.nodes:
                parents = network.parents(node)
                family = [node] + parents
                hidden = [v for v in family if v not in evidence]
                parent_cards = [self._cardinalities[p] for p in parents]
                if hidden:
                    joint = engine.query(hidden, evidence)
                else:
                    joint = None
                self._accumulate_family_counts(
                    counts[node], node, parents, parent_cards, evidence, joint,
                    weight=multiplicity)
        self.log_likelihood_trace.append(log_likelihood)
        return counts

    def _group_matrix(self, network: BayesianNetwork, matrix: CaseMatrix
                      ) -> dict[tuple, tuple[dict[str, int], int]]:
        """Group the rows of a case matrix by unique evidence configuration.

        One ``np.unique`` over the schema-aligned code rows replaces the
        per-case dict building of the row path; the resulting evidence
        dicts (variable -> state index, missing codes dropped) are identical
        to those the row path would produce.
        """
        variables = [v for v in matrix.variables if v in network.graph]
        if not variables:
            return {(): ({}, len(matrix))} if len(matrix) else {}
        aligned = np.stack([matrix.encode_for(v, self._state_names[v])
                            for v in variables], axis=1)
        rows, counts = np.unique(aligned, axis=0, return_counts=True)
        grouped: dict[tuple, tuple[dict[str, int], int]] = {}
        for row, multiplicity in zip(rows, counts):
            evidence = {variable: int(code)
                        for variable, code in zip(variables, row) if code >= 0}
            key = tuple(sorted(evidence.items()))
            if key in grouped:
                grouped[key] = (grouped[key][0],
                                grouped[key][1] + int(multiplicity))
            else:
                grouped[key] = (evidence, int(multiplicity))
        return grouped

    def _accumulate_family_counts(self, counts: np.ndarray, node: str,
                                  parents: list[str], parent_cards: list[int],
                                  evidence: Mapping[str, int], joint,
                                  weight: float = 1.0) -> None:
        """Add one case's (expected) contribution to the family count matrix."""
        family = [node] + parents
        hidden = [v for v in family if v not in evidence]
        if not hidden:
            row = evidence[node]
            column = 0
            for parent, card in zip(parents, parent_cards):
                column = column * card + evidence[parent]
            counts[row, column] += weight
            return
        # Enumerate joint states of the hidden family members weighted by the
        # posterior factor returned by the E-step query.
        hidden_cards = [self._cardinalities[v] for v in hidden]
        for flat in range(int(np.prod(hidden_cards))):
            indices = np.unravel_index(flat, hidden_cards)
            assignment = dict(evidence)
            for variable, index in zip(hidden, indices):
                assignment[variable] = int(index)
            posterior_mass = joint.get({v: int(i) for v, i in zip(hidden, indices)})
            if posterior_mass <= 0:
                continue
            row = assignment[node]
            column = 0
            for parent, card in zip(parents, parent_cards):
                column = column * card + assignment[parent]
            counts[row, column] += posterior_mass * weight

    # ----------------------------------------------------------------- M step
    def _maximize(self, counts: Mapping[str, np.ndarray]) -> BayesianNetwork:
        learned = BayesianNetwork(nodes=self.structure.nodes)
        for parent, child in self.structure.edges:
            learned.add_edge(parent, child)
        for node in learned.nodes:
            parents = learned.parents(node)
            parent_cards = [self._cardinalities[p] for p in parents]
            matrix = counts[node].copy()
            if self.prior_network is not None:
                prior_cpd = self.prior_network.get_cpd(node)
                columns = matrix.shape[1]
                matrix += prior_cpd.table * (self.equivalent_sample_size / columns)
            column_sums = matrix.sum(axis=0)
            table = np.empty_like(matrix)
            for column, total in enumerate(column_sums):
                if total > 0:
                    table[:, column] = matrix[:, column] / total
                else:
                    table[:, column] = 1.0 / matrix.shape[0]
            names = {node: self._state_names[node]}
            names.update({p: self._state_names[p] for p in parents})
            learned.add_cpd(TabularCPD(node, self._cardinalities[node], table,
                                       parents, parent_cards, names))
        learned.check_model()
        return learned

    # -------------------------------------------------------------------- fit
    def fit(self, cases: Sequence[Case] | CaseMatrix) -> BayesianNetwork:
        """Run EM on ``cases`` and return the learned network."""
        if not isinstance(cases, CaseMatrix):
            cases = list(cases)
        if len(cases) == 0:
            raise LearningError("cannot run EM on an empty case list")
        current = self._initial.copy()
        self.log_likelihood_trace = []
        previous_log_likelihood = -np.inf
        for _ in range(self.max_iterations):
            counts = self._expected_counts(current, cases)
            current = self._maximize(counts)
            log_likelihood = self.log_likelihood_trace[-1]
            if abs(log_likelihood - previous_log_likelihood) < self.tolerance:
                break
            previous_log_likelihood = log_likelihood
        return current
