"""Tests for parameter learning: MLE, Bayesian estimation and EM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesnet import (
    BayesianEstimator,
    BayesianNetwork,
    CaseMatrix,
    ExpectationMaximization,
    MaximumLikelihoodEstimator,
    TabularCPD,
)
from repro.bayesnet.learning.structure_scores import (
    HillClimbSearch,
    bdeu_score,
    bic_score,
    network_score,
)
from repro.bayesnet.sampling import sample_dataset
from repro.exceptions import LearningError


class TestMaximumLikelihood:
    def test_recovers_parameters_from_samples(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 4000, seed=10)
        learned = MaximumLikelihoodEstimator(sprinkler_network).fit(cases)
        original = sprinkler_network.get_cpd("rain").table
        estimate = learned.get_cpd("rain").table
        assert np.allclose(original, estimate, atol=0.05)

    def test_unseen_configuration_is_uniform(self, sprinkler_network):
        cases = [{"cloudy": "0", "sprinkler": "0", "rain": "0", "wet": "0"}]
        learned = MaximumLikelihoodEstimator(sprinkler_network).fit(cases)
        # Parent configuration (sprinkler=1, rain=1) never observed.
        column = learned.get_cpd("wet").table[:, 3]
        assert np.allclose(column, 0.5)

    def test_missing_values_are_skipped(self, sprinkler_network):
        cases = [{"cloudy": "0", "sprinkler": None, "rain": "0", "wet": "0"},
                 {"cloudy": "1", "sprinkler": "1", "rain": "1", "wet": "1"}]
        learned = MaximumLikelihoodEstimator(sprinkler_network).fit(cases)
        learned.check_model()

    def test_empty_cases_raise(self, sprinkler_network):
        with pytest.raises(LearningError):
            MaximumLikelihoodEstimator(sprinkler_network).fit([])

    def test_unknown_state_raises(self, sprinkler_network):
        with pytest.raises(LearningError):
            MaximumLikelihoodEstimator(sprinkler_network).fit(
                [{"cloudy": "maybe", "sprinkler": "0", "rain": "0", "wet": "0"}])

    def test_integers_are_indices_under_numeric_labels(self):
        """``0`` is the state at index 0 (labelled "1"), not the label "0",
        in the dict-row counter and in ``CaseMatrix.from_cases`` alike."""
        names = {"a": ["1", "0"]}
        cases = [{"a": 0}, {"a": np.int64(0)}, {"a": "0"}]
        assert CaseMatrix.from_cases(cases, names).codes[:, 0].tolist() \
            == [0, 0, 1]
        structure = BayesianNetwork(nodes=["a"])
        estimator = MaximumLikelihoodEstimator(structure, {"a": 2}, names)
        for form in (cases, CaseMatrix.from_cases(cases, names)):
            assert np.allclose(estimator.fit(form).get_cpd("a").table[:, 0],
                               [2 / 3, 1 / 3])


class TestBayesianEstimator:
    def test_prior_pulls_towards_prior_network(self, sprinkler_network):
        # A single observed case with a huge prior weight stays near the prior.
        cases = [{"cloudy": "0", "sprinkler": "1", "rain": "1", "wet": "0"}]
        estimator = BayesianEstimator(sprinkler_network,
                                      prior_network=sprinkler_network,
                                      equivalent_sample_size=1000)
        learned = estimator.fit(cases)
        assert np.allclose(learned.get_cpd("rain").table,
                           sprinkler_network.get_cpd("rain").table, atol=0.02)

    def test_uniform_prior_smooths(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 50, seed=11)
        learned = BayesianEstimator(sprinkler_network,
                                    equivalent_sample_size=5).fit(cases)
        assert np.all(learned.get_cpd("wet").table > 0)

    def test_invalid_equivalent_sample_size(self, sprinkler_network):
        with pytest.raises(LearningError):
            BayesianEstimator(sprinkler_network, equivalent_sample_size=0)


class TestExpectationMaximization:
    def test_improves_likelihood_with_missing_data(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 300, seed=12,
                               missing_fraction=0.25)
        structure = BayesianNetwork(nodes=sprinkler_network.nodes)
        for parent, child in sprinkler_network.edges:
            structure.add_edge(parent, child)
        learner = ExpectationMaximization(
            structure,
            cardinalities={n: 2 for n in structure.nodes},
            max_iterations=8)
        learner.fit(cases)
        trace = learner.log_likelihood_trace
        assert len(trace) >= 2
        assert trace[-1] >= trace[0] - 1e-6

    def test_fully_observed_em_matches_mle(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 500, seed=13)
        mle = MaximumLikelihoodEstimator(sprinkler_network).fit(cases)
        em = ExpectationMaximization(sprinkler_network, max_iterations=2).fit(cases)
        assert np.allclose(mle.get_cpd("rain").table,
                           em.get_cpd("rain").table, atol=1e-6)

    def test_hidden_variable_recovery_shape(self, sprinkler_network):
        # Hide "rain" completely; EM must still return a valid model.
        cases = sample_dataset(sprinkler_network, 200, seed=14)
        for case in cases:
            case["rain"] = None
        learned = ExpectationMaximization(sprinkler_network,
                                          max_iterations=3).fit(cases)
        learned.check_model()

    def test_empty_cases_raise(self, sprinkler_network):
        with pytest.raises(LearningError):
            ExpectationMaximization(sprinkler_network).fit([])

    @pytest.mark.parametrize("as_matrix", [False, True],
                             ids=["rows", "matrix"])
    def test_e_step_conditions_on_numeric_labels(self, as_matrix):
        """Where labels spell integers out of index order, the E step
        conditions on the observed state, not on the label its code spells."""
        network = BayesianNetwork([("h", "o")])
        network.add_cpds(
            TabularCPD("h", 2, [[0.5], [0.5]]),
            TabularCPD("o", 2, [[0.9, 0.2], [0.1, 0.8]], ["h"], [2],
                       state_names={"h": ["0", "1"], "o": ["1", "2"]}))
        cases = [{"o": "2"}] * 4
        if as_matrix:
            cases = CaseMatrix.from_cases(cases, {"o": ["1", "2"]})
        learner = ExpectationMaximization(network, max_iterations=1)
        learned = learner.fit(cases)
        # P(h | o="2") is (0.5 * 0.1, 0.5 * 0.8) / 0.45.
        assert np.allclose(learned.get_cpd("h").table[:, 0], [1 / 9, 8 / 9])
        assert np.isclose(learner.log_likelihood_trace[0], 4 * np.log(0.45))


class TestStructureScores:
    def test_true_parent_scores_higher_than_none(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 1500, seed=15)
        cards = {n: 2 for n in sprinkler_network.nodes}
        names = {n: ["0", "1"] for n in sprinkler_network.nodes}
        with_parent = bic_score(cases, "rain", ["cloudy"], cards, names)
        without_parent = bic_score(cases, "rain", [], cards, names)
        assert with_parent > without_parent

    def test_bdeu_finite(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 200, seed=16)
        cards = {n: 2 for n in sprinkler_network.nodes}
        names = {n: ["0", "1"] for n in sprinkler_network.nodes}
        score = bdeu_score(cases, "wet", ["sprinkler", "rain"], cards, names)
        assert np.isfinite(score)

    def test_network_score_decomposes(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 300, seed=17)
        cards = {n: 2 for n in sprinkler_network.nodes}
        names = {n: ["0", "1"] for n in sprinkler_network.nodes}
        total = network_score(sprinkler_network, cases, cards, names, score="bic")
        parts = sum(bic_score(cases, node, sprinkler_network.parents(node),
                              cards, names)
                    for node in sprinkler_network.nodes)
        assert np.isclose(total, parts)

    def test_hill_climb_finds_edges(self, sprinkler_network):
        cases = sample_dataset(sprinkler_network, 1500, seed=18)
        cards = {n: 2 for n in sprinkler_network.nodes}
        search = HillClimbSearch(cards, max_parents=2, max_iterations=50)
        found = search.fit(cases)
        # The wet node strongly depends on sprinkler and rain; hill climbing
        # must connect it to at least one of them (direction may flip).
        connected = {frozenset(edge) for edge in found.edges}
        assert (frozenset(("sprinkler", "wet")) in connected
                or frozenset(("rain", "wet")) in connected)
