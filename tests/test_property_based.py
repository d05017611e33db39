"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.bayesnet import BayesianNetwork, TabularCPD, VariableElimination
from repro.bayesnet.factor import DiscreteFactor
from repro.core.states import StateDefinition, StateTable
from repro.utils.validation import check_probability_vector


# ------------------------------------------------------------------ strategies
@st.composite
def factors(draw, prefix: str = "v"):
    """Random small factors over up to three variables."""
    num_vars = draw(st.integers(min_value=1, max_value=3))
    names = [f"{prefix}{i}" for i in range(num_vars)]
    cards = [draw(st.integers(min_value=2, max_value=3)) for _ in names]
    size = int(np.prod(cards))
    values = draw(st.lists(st.floats(min_value=0.01, max_value=10.0),
                           min_size=size, max_size=size))
    return DiscreteFactor(names, cards, np.array(values))


@st.composite
def chain_networks(draw):
    """Random-parameter three-node chain networks a -> b -> c."""
    def column(card):
        raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                            min_size=card, max_size=card))
        total = sum(raw)
        return [value / total for value in raw]

    network = BayesianNetwork([("a", "b"), ("b", "c")])
    network.add_cpd(TabularCPD("a", 2, np.array(column(2)).reshape(2, 1)))
    network.add_cpd(TabularCPD("b", 2, np.array([column(2), column(2)]).T,
                               ["a"], [2]))
    network.add_cpd(TabularCPD("c", 2, np.array([column(2), column(2)]).T,
                               ["b"], [2]))
    return network


# ---------------------------------------------------------------------- factors
class TestFactorProperties:
    @given(factors())
    def test_normalize_sums_to_one(self, factor):
        assert np.isclose(factor.normalize().values.sum(), 1.0)

    @given(factors())
    def test_marginalizing_everything_equals_total(self, factor):
        total = factor.marginalize(list(factor.variables))
        assert np.isclose(float(total.values), factor.values.sum())

    @given(factors(), factors(prefix="w"))
    def test_product_is_commutative(self, left, right):
        # Distinct name prefixes avoid sharing a variable with conflicting
        # cardinalities, which the product correctly rejects.
        assert left.product(right).is_close_to(right.product(left))

    @given(factors())
    def test_product_with_identity_preserves_values(self, factor):
        identity = DiscreteFactor([], [], np.array(1.0))
        assert factor.product(identity).is_close_to(factor)

    @given(factors())
    def test_reduce_then_marginalize_consistency(self, factor):
        variable = factor.variables[0]
        # Summing the reduced slices over all states equals marginalising.
        slices = [factor.reduce({variable: index}).values
                  for index in range(factor.cardinality(variable))]
        assert np.allclose(np.sum(slices, axis=0),
                           factor.marginalize([variable]).values)


# --------------------------------------------------------------------- networks
class TestInferenceProperties:
    @given(chain_networks(), st.sampled_from(["0", "1"]))
    def test_posterior_is_probability_vector(self, network, evidence_state):
        engine = VariableElimination(network)
        posterior = engine.posterior("a", {"c": evidence_state})
        check_probability_vector(list(posterior.values()))

    @given(chain_networks())
    def test_marginal_consistency_with_joint(self, network):
        engine = VariableElimination(network)
        joint = network.joint_distribution()
        for node in network.nodes:
            expected = joint.marginalize(
                [v for v in joint.variables if v != node]).to_distribution()
            actual = engine.posterior(node)
            for state, probability in expected.items():
                assert np.isclose(actual[state], probability, atol=1e-9)

    @given(chain_networks())
    def test_evidence_probabilities_sum_to_one(self, network):
        engine = VariableElimination(network)
        total = sum(engine.probability_of_evidence({"c": state})
                    for state in ("0", "1"))
        assert np.isclose(total, 1.0)


# ----------------------------------------------------------------------- states
class TestStateTableProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=3,
                    max_size=6, unique=True),
           st.floats(min_value=-5.0, max_value=25.0))
    def test_classify_always_returns_a_defined_label(self, boundaries, value):
        boundaries = sorted(boundaries)
        states = [StateDefinition(str(i), low, high)
                  for i, (low, high) in enumerate(zip(boundaries, boundaries[1:]))]
        table = StateTable("x", states)
        assert table.classify(value) in table.labels

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.1, max_value=5.0))
    def test_values_inside_a_window_classify_to_it(self, lower, width):
        table = StateTable("x", [
            StateDefinition("inside", lower, lower + width),
            StateDefinition("above", lower + width, lower + 2 * width + 1.0),
        ])
        midpoint = lower + width / 2
        assert table.classify(midpoint) == "inside"
