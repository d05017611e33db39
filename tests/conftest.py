"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.ate import PopulationGenerator
from repro.ate.programs import (
    HYPOTHETICAL_CONDITION_SETS,
    REGULATOR_CONDITION_SETS,
    build_functional_program,
)
from repro.bayesnet import BayesianNetwork, TabularCPD
from repro.circuits import BehavioralSimulator, build_hypothetical_circuit, build_voltage_regulator
from repro.core import DiagnosisEngine, Dlog2BBN
from repro.core.behavioral_prior import SimulationPriorBuilder

#: Hypothesis profiles.  Tier-1 is deterministic: every run draws the same
#: examples from a seed derived from each test.  ``fuzz`` draws ten times as
#: many from random seeds (``--hypothesis-profile fuzz``).
settings.register_profile("tier1", max_examples=40, deadline=None,
                          derandomize=True, database=None)
settings.register_profile("fuzz", max_examples=400, deadline=None)


def pytest_configure(config):
    settings.load_profile(config.getoption("--hypothesis-profile") or "tier1")


@pytest.fixture
def sprinkler_network() -> BayesianNetwork:
    """The classic four-node rain/sprinkler/wet-grass network."""
    network = BayesianNetwork([("cloudy", "sprinkler"), ("cloudy", "rain"),
                               ("sprinkler", "wet"), ("rain", "wet")])
    network.add_cpds(
        TabularCPD("cloudy", 2, [[0.5], [0.5]]),
        TabularCPD("sprinkler", 2, [[0.5, 0.9], [0.5, 0.1]], ["cloudy"], [2]),
        TabularCPD("rain", 2, [[0.8, 0.2], [0.2, 0.8]], ["cloudy"], [2]),
        TabularCPD("wet", 2,
                   [[1.0, 0.1, 0.1, 0.01], [0.0, 0.9, 0.9, 0.99]],
                   ["sprinkler", "rain"], [2, 2]),
    )
    return network


@pytest.fixture(scope="session")
def hypothetical_circuit():
    """The Fig. 1 four-block hypothetical circuit bundle."""
    return build_hypothetical_circuit()


@pytest.fixture(scope="session")
def regulator_circuit():
    """The industrial voltage-regulator circuit bundle."""
    return build_voltage_regulator()


@pytest.fixture(scope="session")
def regulator_program(regulator_circuit):
    """The no-stop-on-fail functional test program of the regulator."""
    return build_functional_program("vr_functional", regulator_circuit.model,
                                    REGULATOR_CONDITION_SETS)


@pytest.fixture(scope="session")
def hypothetical_program(hypothetical_circuit):
    """The functional test program of the hypothetical circuit."""
    return build_functional_program("hypo_functional", hypothetical_circuit.model,
                                    HYPOTHETICAL_CONDITION_SETS)


@pytest.fixture(scope="session")
def regulator_prior(regulator_circuit):
    """Simulation-derived designer-prior network for the regulator."""
    builder = SimulationPriorBuilder(
        regulator_circuit.netlist, regulator_circuit.model,
        [cs.conditions for cs in REGULATOR_CONDITION_SETS],
        fault_probability=regulator_circuit.designer_fault_probabilities,
        process_variation=regulator_circuit.process_variation,
        samples=2000, seed=7)
    return builder.build()


@pytest.fixture(scope="session")
def regulator_built_model(regulator_circuit, regulator_prior):
    """A built (prior-only) BBN circuit model of the regulator."""
    builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
    return builder.build(prior_network=regulator_prior)


@pytest.fixture(scope="session")
def regulator_engine(regulator_built_model):
    """A diagnosis engine bound to the prior-only regulator model."""
    return DiagnosisEngine(regulator_built_model)


@pytest.fixture(scope="session")
def regulator_population(regulator_circuit, regulator_program):
    """A small failed-device population of the regulator (20 devices)."""
    simulator = BehavioralSimulator(
        regulator_circuit.netlist,
        process_variation=regulator_circuit.process_variation, seed=31)
    generator = PopulationGenerator(
        simulator, regulator_program, regulator_circuit.fault_universe,
        regulator_circuit.block_weights, seed=32)
    return generator.generate(failed_count=20, passing_count=5)
