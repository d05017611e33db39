"""The batched designer prior against the device-by-device draw it replaced.

:meth:`SimulationPriorBuilder.simulate_case_matrix` draws every device's
faults, fault modes, process-variation multipliers and noise as whole
arrays, so its random stream differs from drawing one device at a time.
What must not differ is the distribution: the scalar draw is kept here as
the oracle, and both are compared on each block's rate of each fault mode
and on each variable's state frequencies under each condition set.
"""

from __future__ import annotations

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.ate.programs import REGULATOR_CONDITION_SETS
from repro.circuits import BehavioralSimulator
from repro.circuits.behavioral import SimulationPlan
from repro.circuits.components import FAULT_MODE_CODES
from repro.circuits.faults import BlockFault
from repro.core import behavioral_prior
from repro.core.behavioral_prior import SimulationPriorBuilder
from repro.exceptions import CircuitError

SAMPLES = 2000
#: Agreement bound, in standard errors of the two-sample difference of two
#: proportions.  Fixed before any run; with a few hundred comparisons a
#: false alarm at 5 standard errors has a chance of about 1e-4.
BOUND = 5.0


def make_builder(circuit, seed: int) -> SimulationPriorBuilder:
    return SimulationPriorBuilder(
        circuit.netlist, circuit.model,
        [conditions.conditions for conditions in REGULATOR_CONDITION_SETS],
        fault_probability=circuit.designer_fault_probabilities,
        process_variation=circuit.process_variation, samples=SAMPLES,
        seed=seed)


def scalar_draw(builder: SimulationPriorBuilder, seed: int):
    """Draw the builder's population one device at a time (the oracle).

    Per device: each non-controllable block fails with its designer
    probability and then takes a uniformly drawn fault mode; the device's
    process-variation multipliers are drawn; the circuit is run under the
    device's condition set with measurement noise; every net is
    discretised.  Returns the ``{(block, mode): count}`` fault tally and
    the ``(devices, variables)`` state codes.
    """
    rng = np.random.default_rng(seed)
    simulator = BehavioralSimulator(
        builder.netlist,
        measurement_noise=builder._simulator.measurement_noise,
        process_variation=builder._simulator.process_variation, seed=rng)
    model = builder.model
    variables = list(model.variable_names)
    faults_seen: Counter = Counter()
    voltages = np.empty((builder.samples, len(variables)))
    sets = builder.condition_sets
    for index in range(builder.samples):
        conditions = sets[index % len(sets)]
        faults = {}
        for variable in variables:
            if model.variable(variable).is_controllable:
                continue
            if rng.random() < builder.fault_probability_of(variable):
                mode = builder.fault_modes[
                    int(rng.integers(len(builder.fault_modes)))]
                faults[variable] = BlockFault(variable, mode)
                faults_seen[variable, mode.value] += 1
        multipliers = simulator.sample_device()
        result = simulator.run(conditions, faults, multipliers)
        voltages[index] = [result.voltage(variable) for variable in variables]
    codes = np.stack([model.state_table(variable).classify_indices(
        voltages[:, column]) for column, variable in enumerate(variables)],
        axis=1)
    return faults_seen, codes


def batched_draw(builder: SimulationPriorBuilder):
    """Run ``simulate_case_matrix``, tallying the faults it simulates."""
    planes = []
    evaluate = SimulationPlan.evaluate

    def spy(plan, conditions, count, modes, *rest):
        planes.append(modes)
        return evaluate(plan, conditions, count, modes, *rest)

    with mock.patch.object(SimulationPlan, "evaluate", spy):
        matrix = builder.simulate_case_matrix()
    modes = np.concatenate(planes)
    names = {code: name for name, code in FAULT_MODE_CODES.items()}
    plan = builder._simulator.plan
    faults_seen: Counter = Counter()
    for variable in builder.model.variable_names:
        column = modes[:, plan.column[variable]]
        for code, count in zip(*np.unique(column[column > 0],
                                          return_counts=True)):
            faults_seen[variable, names[int(code)]] += int(count)
    return faults_seen, matrix.codes


def assert_same_rate(count_a: int, total_a: int, count_b: int, total_b: int,
                     what: str) -> None:
    pooled = (count_a + count_b) / (total_a + total_b)
    error = math.sqrt(pooled * (1 - pooled) * (1 / total_a + 1 / total_b))
    difference = abs(count_a / total_a - count_b / total_b)
    assert difference <= BOUND * error, (
        f"{what}: {count_a}/{total_a} against {count_b}/{total_b}")


@pytest.fixture(scope="module")
def draws(regulator_circuit):
    scalar = scalar_draw(make_builder(regulator_circuit, 0), seed=101)
    batched = batched_draw(make_builder(regulator_circuit, 202))
    return make_builder(regulator_circuit, 0), scalar, batched


def test_each_block_fails_in_each_mode_at_the_scalar_rate(draws):
    builder, (scalar_faults, _), (batched_faults, _) = draws
    for variable in builder.model.variable_names:
        for mode in builder.fault_modes:
            key = (variable, mode.value)
            assert_same_rate(scalar_faults[key], SAMPLES,
                             batched_faults[key], SAMPLES, str(key))
    assert sum(batched_faults.values()) > 0


def test_state_frequencies_match_under_each_condition_set(draws):
    builder, (_, scalar_codes), (_, batched_codes) = draws
    sets = len(builder.condition_sets)
    for offset in range(sets):
        scalar_rows = scalar_codes[offset::sets]
        batched_rows = batched_codes[offset::sets]
        for column, variable in enumerate(builder.model.variable_names):
            states = builder.model.state_table(variable).cardinality
            scalar_counts = np.bincount(scalar_rows[:, column],
                                        minlength=states)
            batched_counts = np.bincount(batched_rows[:, column],
                                         minlength=states)
            for state in range(states):
                assert_same_rate(
                    int(scalar_counts[state]), len(scalar_rows),
                    int(batched_counts[state]), len(batched_rows),
                    f"{variable}={state} under condition set {offset}")


def test_a_fixed_seed_reproduces_the_prior(regulator_circuit):
    first = make_builder(regulator_circuit, 7).simulate_case_matrix()
    second = make_builder(regulator_circuit, 7).simulate_case_matrix()
    assert np.array_equal(first.codes, second.codes)


def test_a_fault_mode_without_simulator_code_raises(regulator_circuit):
    codes = {name: code for name, code in FAULT_MODE_CODES.items()
             if name != "degraded"}
    with mock.patch.object(behavioral_prior, "FAULT_MODE_CODES", codes):
        with pytest.raises(CircuitError, match="degraded"):
            make_builder(regulator_circuit, 7).simulate_case_matrix()
