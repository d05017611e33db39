"""Exact-inference tests: variable elimination and junction tree vs brute force."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesnet import BayesianNetwork, JunctionTree, TabularCPD, VariableElimination
from repro.bayesnet.inference import (
    GibbsSampling,
    LikelihoodWeighting,
    min_degree_order,
    min_fill_order,
    min_weight_order,
)
from repro.exceptions import InferenceError


def brute_force_posterior(network, variable, evidence):
    joint = network.joint_distribution().reduce(evidence).normalize()
    other = [v for v in joint.variables if v != variable]
    return joint.marginalize(other).to_distribution()


EVIDENCE_SETS = [
    {},
    {"wet": "1"},
    {"wet": "1", "sprinkler": "0"},
    {"cloudy": "1", "wet": "0"},
]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("evidence", EVIDENCE_SETS)
    def test_variable_elimination_matches(self, sprinkler_network, evidence):
        engine = VariableElimination(sprinkler_network)
        for variable in sprinkler_network.nodes:
            if variable in evidence:
                continue
            expected = brute_force_posterior(sprinkler_network, variable, evidence)
            actual = engine.posterior(variable, evidence)
            for state in expected:
                assert np.isclose(actual[state], expected[state], atol=1e-9)

    @pytest.mark.parametrize("evidence", EVIDENCE_SETS)
    def test_junction_tree_matches(self, sprinkler_network, evidence):
        engine = JunctionTree(sprinkler_network)
        for variable in sprinkler_network.nodes:
            if variable in evidence:
                continue
            expected = brute_force_posterior(sprinkler_network, variable, evidence)
            actual = engine.posterior(variable, evidence)
            for state in expected:
                assert np.isclose(actual[state], expected[state], atol=1e-9)

    def test_engines_agree_on_regulator(self, regulator_built_model):
        network = regulator_built_model.network
        evidence = {"vp1": "2", "vp2": "2", "reg1": "0", "reg2": "1"}
        ve = VariableElimination(network)
        jt = JunctionTree(network)
        for variable in ("hcbg", "warnvpst", "enb13", "lcbg"):
            left = ve.posterior(variable, evidence)
            right = jt.posterior(variable, evidence)
            for state in left:
                assert np.isclose(left[state], right[state], atol=1e-8)

    def test_probability_of_evidence_agrees(self, sprinkler_network):
        evidence = {"wet": "1", "rain": "0"}
        ve = VariableElimination(sprinkler_network)
        jt = JunctionTree(sprinkler_network)
        joint = sprinkler_network.joint_distribution().reduce(evidence)
        assert np.isclose(ve.probability_of_evidence(evidence), joint.values.sum())
        assert np.isclose(jt.probability_of_evidence(evidence), joint.values.sum())


#: Every engine's all-marginals entry point, called as
#: ``(network, query variable, evidence)``; the batch has no query.
ENGINE_CALLS = {
    "ve.posteriors": lambda network, query, evidence: VariableElimination(
        network).posteriors([query], evidence),
    "ve.posteriors_batch": lambda network, query, evidence:
        VariableElimination(network).posteriors_batch([{}, evidence]),
    "jt.posteriors": lambda network, query, evidence: JunctionTree(
        network).posteriors([query], evidence),
    "lw.posteriors": lambda network, query, evidence: LikelihoodWeighting(
        network, num_samples=200, seed=0).posteriors([query], evidence),
    "gibbs.posteriors": lambda network, query, evidence: GibbsSampling(
        network, num_samples=40, burn_in=5, seed=0).posteriors(
            [query], evidence),
}
QUERY_CALLS = {name: call for name, call in ENGINE_CALLS.items()
               if name != "ve.posteriors_batch"}


def numeric_network() -> BayesianNetwork:
    """``a -> b`` whose state labels spell integers out of index order."""
    names = {"a": ["1", "0"], "b": ["1", "2", "3"]}
    network = BayesianNetwork([("a", "b")])
    network.add_cpds(
        TabularCPD("a", 2, [[0.3], [0.7]], state_names=names),
        TabularCPD("b", 3, [[0.6, 0.1], [0.3, 0.2], [0.1, 0.7]], ["a"], [2],
                   state_names=names))
    return network


BAD_EVIDENCE = {
    "int-7": {"rain": 7},
    "int-minus-1": {"rain": -1},
    "np-int-7": {"rain": np.int64(7)},
    "np-int-minus-1": {"rain": np.int64(-1)},
    "bogus-label": {"rain": "bogus"},
    "unknown-variable": {"drizzle": "1"},
}


class TestEvidenceChecksAgree:
    """Every engine reads evidence through one codec and refuses the same
    bad entries with the same error type."""

    @pytest.mark.parametrize("evidence", list(BAD_EVIDENCE.values()),
                             ids=list(BAD_EVIDENCE))
    @pytest.mark.parametrize("call", list(ENGINE_CALLS.values()),
                             ids=list(ENGINE_CALLS))
    def test_bad_entry_raises_inference_error(self, sprinkler_network, call,
                                              evidence):
        with pytest.raises(InferenceError):
            call(sprinkler_network, "wet", evidence)

    @pytest.mark.parametrize("call", list(QUERY_CALLS.values()),
                             ids=list(QUERY_CALLS))
    def test_query_variable_given_as_evidence_raises(self, sprinkler_network,
                                                     call):
        with pytest.raises(InferenceError):
            call(sprinkler_network, "wet", {"wet": "1"})

    @pytest.mark.parametrize("call", list(ENGINE_CALLS.values()),
                             ids=list(ENGINE_CALLS))
    def test_integer_is_the_state_at_its_index(self, call):
        """An integer is read as an index even where labels spell other
        integers: ``0`` is the state labelled "1" and ``1`` the one
        labelled "0"."""
        network = numeric_network()
        answers = [call(network, "b", {"a": label}) for label in ("1", "0")]
        assert answers[0] != answers[1]
        for index, expected in enumerate(answers):
            assert call(network, "b", {"a": index}) == expected
            assert call(network, "b", {"a": np.int64(index)}) == expected

    def test_replaced_cpd_labels_are_read_at_once(self, sprinkler_network):
        """The network's codec is rebuilt when a CPD is replaced."""
        engine = VariableElimination(sprinkler_network)
        before = engine.posteriors(["rain"], {"wet": "1"})
        wet = sprinkler_network.get_cpd("wet").copy()
        wet.state_names = {**wet.state_names, "wet": ["dry", "soaked"]}
        sprinkler_network.add_cpd(wet)
        with pytest.raises(InferenceError):
            engine.posteriors(["rain"], {"wet": "1"})
        assert engine.posteriors(["rain"], {"wet": "soaked"}) == before


class TestQueryInterface:
    def test_joint_query(self, sprinkler_network):
        joint = VariableElimination(sprinkler_network).query(["sprinkler", "rain"],
                                                             {"wet": "1"})
        assert np.isclose(joint.values.sum(), 1.0)
        assert set(joint.variables) == {"sprinkler", "rain"}

    def test_map_query(self, sprinkler_network):
        assignment = VariableElimination(sprinkler_network).map_query(
            ["rain"], {"wet": "1", "sprinkler": "0"})
        assert assignment == {"rain": "1"}

    def test_unknown_variable_raises(self, sprinkler_network):
        with pytest.raises(InferenceError):
            VariableElimination(sprinkler_network).posterior("nope")

    def test_unknown_evidence_state_raises(self, sprinkler_network):
        with pytest.raises(InferenceError):
            VariableElimination(sprinkler_network).posterior("rain", {"wet": "soggy"})

    def test_query_and_evidence_overlap_raises(self, sprinkler_network):
        with pytest.raises(InferenceError):
            VariableElimination(sprinkler_network).query(["wet"], {"wet": "1"})

    def test_empty_query_raises(self, sprinkler_network):
        with pytest.raises(InferenceError):
            VariableElimination(sprinkler_network).query([])

    def test_impossible_evidence_raises(self):
        network = BayesianNetwork([("a", "b")])
        network.add_cpds(
            TabularCPD("a", 2, [[1.0], [0.0]]),
            TabularCPD("b", 2, [[1.0, 0.5], [0.0, 0.5]], ["a"], [2]))
        with pytest.raises(InferenceError):
            VariableElimination(network).posterior("a", {"b": "1"})


class TestEliminationOrders:
    def test_orders_cover_requested_nodes(self, sprinkler_network):
        for heuristic in (min_fill_order, min_degree_order, min_weight_order):
            order = heuristic(sprinkler_network, ["cloudy", "rain"])
            assert sorted(order) == ["cloudy", "rain"]

    def test_full_order_covers_all_nodes(self, sprinkler_network):
        order = min_fill_order(sprinkler_network)
        assert sorted(order) == sorted(sprinkler_network.nodes)


class TestJunctionTreeStructure:
    def test_cliques_cover_families(self, sprinkler_network):
        tree = JunctionTree(sprinkler_network)
        for cpd in sprinkler_network.cpds:
            family = set(cpd.parents) | {cpd.variable}
            assert any(family <= clique for clique in tree.cliques)

    def test_tree_width_reported(self, regulator_built_model):
        tree = JunctionTree(regulator_built_model.network)
        assert tree.tree_width >= 1
