"""The array simulation pipeline against the scalar oracle.

The simulate→test→discretise→case path runs on arrays only.  With the same
seeds (and explicit multipliers, drawn once and handed to both sides) it
must reproduce :mod:`circuit_oracle`, which walks one device, one operating
point and one block at a time, to 1e-12 on every fault mode, with and
without noise; populations are deterministic under a fixed seed, and
masked-fault re-draws keep their retry semantics.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import circuit_oracle as oracle
from repro.ate import ATETester, PopulationGenerator
from repro.bayesnet import VariableElimination
from repro.circuits import (
    BehavioralSimulator,
    BlockFault,
    FaultMode,
    ProcessVariation,
)
from repro.circuits.components import BehaviouralBlock
from repro.core import CaseGenerator
from repro.exceptions import ATEError, CircuitError

#: Measurement noise with and without which the two paths must agree.
NOISES = [0.0, 0.01]


def make_simulator(circuit, seed, noise=0.01):
    return BehavioralSimulator(circuit.netlist, measurement_noise=noise,
                               process_variation=circuit.process_variation,
                               seed=seed)


def all_mode_faults(circuit):
    """One fault map per device covering every mode plus a healthy device."""
    blocks = circuit.fault_universe.faultable_blocks
    fault_maps = [None]
    for index, mode in enumerate(FaultMode):
        block = blocks[index % len(blocks)]
        severity = 0.6 if mode in (FaultMode.DEGRADED, FaultMode.DRIFT) else 1.0
        fault_maps.append({block: BlockFault(block, mode, severity)})
    return fault_maps


def per_device(circuit, multipliers):
    """The ``(devices, blocks)`` multiplier array as per-device mappings."""
    names = circuit.netlist.block_names
    return [dict(zip(names, row)) for row in multipliers]


class TestSimulatorAgainstOracle:
    def test_the_oracle_reaches_no_array_code(self):
        """An oracle that called the array path would check it against itself."""
        tree = ast.parse(Path(oracle.__file__).read_text())
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        array_code = {"run_program", "sample_devices", "plan", "SimulationPlan",
                      "BehavioralSimulator", "ATETester", "PopulationGenerator"}
        assert sorted(name for name in names
                      if name.endswith("_batch") or name in array_code) == []

    @pytest.mark.parametrize("noise", NOISES)
    def test_one_condition(self, regulator_circuit, noise):
        fault_maps = all_mode_faults(regulator_circuit)
        multipliers = make_simulator(regulator_circuit, 3).sample_devices(
            len(fault_maps))
        conditions = regulator_circuit.nominal_conditions
        simulator = make_simulator(regulator_circuit, seed=5, noise=noise)
        voltages = simulator.run_program([conditions], fault_maps,
                                         multipliers)[0]
        rng = np.random.default_rng(5)
        for device, (faults, device_multipliers) in enumerate(
                zip(fault_maps, per_device(regulator_circuit, multipliers))):
            expected = oracle.simulate(regulator_circuit.netlist, conditions,
                                       faults, device_multipliers, rng, noise)
            got = {name: voltages[device, column]
                   for name, column in simulator.plan.column.items()}
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("wide", [False, True])
    def test_sample_devices_matches_the_per_device_draw(self, regulator_circuit,
                                                        wide):
        # The wide spread makes the clip bind and mixes in zero-sigma blocks.
        variation = (ProcessVariation(default_sigma=0.3, clip=0.2,
                                      per_block_sigma={"vp1": 0.0, "lcbg": 0.0})
                     if wide else regulator_circuit.process_variation)
        simulator = BehavioralSimulator(regulator_circuit.netlist,
                                        process_variation=variation, seed=7)
        multipliers = simulator.sample_devices(10)
        rng = np.random.default_rng(7)
        names = regulator_circuit.netlist.block_names
        for row in per_device(regulator_circuit, multipliers):
            expected = oracle.sample_multipliers(variation, names, rng)
            assert row == pytest.approx(expected, abs=1e-12)
        assert np.isclose(multipliers, 1.2).any() == wide

    def test_custom_block_needs_only_nominal_output_batch(self):
        """A block class implements one array method; faults come for free."""
        from repro.circuits import BlockNetlist, SupplyInput

        class Doubler(BehaviouralBlock):
            def __init__(self, name, driver):
                super().__init__(name, inputs=[driver], vmax=20.0)
                self.driver = driver

            def nominal_output_batch(self, inputs, size):
                return 2.0 * inputs[self.driver] + 0.25

        netlist = BlockNetlist("custom")
        netlist.add_blocks([SupplyInput("vin", default=1.0, vmax=20.0),
                            Doubler("out", "vin")])
        simulator = BehavioralSimulator(netlist, measurement_noise=0.0, seed=9)
        faults = [None, {"out": BlockFault("out", FaultMode.DEGRADED, 0.5)},
                  {"out": BlockFault("out", FaultMode.STUCK_HIGH)}]
        voltages = simulator.run_program([{"vin": 3.0}], faults)[0]
        out = voltages[:, simulator.plan.column["out"]]
        assert out.tolist() == pytest.approx([6.25, 6.25 * 0.65, 20.0],
                                             abs=1e-12)
        with pytest.raises(NotImplementedError, match="nominal_output_batch"):
            BehaviouralBlock("bare", inputs=["vin"]).evaluate_batch(
                {"vin": np.ones(1)}, size=1)


class TestTesterAgainstOracle:
    @pytest.mark.parametrize("noise", NOISES)
    def test_full_program(self, regulator_circuit, regulator_program, noise):
        fault_maps = all_mode_faults(regulator_circuit)
        count = len(fault_maps)
        multipliers = make_simulator(regulator_circuit, 13).sample_devices(count)
        device_ids = [f"EQ-{index}" for index in range(count)]
        tester = ATETester(make_simulator(regulator_circuit, seed=17,
                                          noise=noise), regulator_program)
        results = tester.test_devices(device_ids, fault_maps, multipliers)

        rng = np.random.default_rng(17)
        for result, device_id, faults, device_multipliers in zip(
                results, device_ids, fault_maps,
                per_device(regulator_circuit, multipliers)):
            expected = oracle.walk_program(
                regulator_circuit.netlist, regulator_program, faults,
                device_multipliers, rng, noise)
            assert result.device_id == device_id
            assert result.faults == dict(faults or {})
            assert len(result.measurements) == len(regulator_program)
            for got, test, (value, passed) in zip(
                    result.measurements, regulator_program, expected):
                assert got.test_number == test.number
                assert got.block == test.measured_block
                assert got.value == pytest.approx(value, abs=1e-12)
                assert got.passed == passed
                assert dict(got.conditions) == dict(test.conditions)
            assert result.failed == (not all(passed for _, passed in expected))

    def test_mismatched_fault_count_rejected(self, regulator_circuit,
                                             regulator_program):
        simulator = make_simulator(regulator_circuit, seed=23)
        tester = ATETester(simulator, regulator_program)
        with pytest.raises(ATEError):
            tester.test_devices(["A", "B"], [None])

    def test_fault_filed_under_another_block_rejected(self,
                                                      regulator_circuit,
                                                      regulator_program):
        """A fault map is ``{fault.block: fault}``: a fault filed under
        another block's name would be simulated on the key but recorded
        under its own block, so it is refused before any device runs."""
        tester = ATETester(make_simulator(regulator_circuit, seed=23),
                           regulator_program)
        with pytest.raises(CircuitError, match="filed under 'reg1'"):
            tester.test_devices(
                ["X"], [{"reg1": BlockFault("hcbg", FaultMode.DEAD)}])
        (result,) = tester.test_devices(
            ["X"], [{"hcbg": BlockFault("hcbg", FaultMode.DEAD)}])
        assert set(result.faults) == {"hcbg"}


class TestPopulationSemantics:
    def test_generate_is_deterministic(self, regulator_circuit,
                                       regulator_program):
        populations = []
        for _ in range(2):
            simulator = make_simulator(regulator_circuit, seed=29)
            generator = PopulationGenerator(
                simulator, regulator_program, regulator_circuit.fault_universe,
                regulator_circuit.block_weights, seed=31)
            populations.append(generator.generate(failed_count=15,
                                                  passing_count=5))
        first, second = populations
        assert first.device_ids == second.device_ids
        assert {d: f.label for d, f in first.ground_truth.items()} == \
            {d: f.label for d, f in second.ground_truth.items()}
        for left, right in zip(first.results, second.results):
            values_left = [m.value for m in left.measurements]
            values_right = [m.value for m in right.measurements]
            assert values_left == pytest.approx(values_right, abs=0.0)

    def test_masked_fault_redraw_parity(self, regulator_circuit,
                                        regulator_program):
        """Re-draw semantics: every accepted failed device observably fails."""
        simulator = make_simulator(regulator_circuit, seed=37)
        generator = PopulationGenerator(
            simulator, regulator_program, regulator_circuit.fault_universe,
            regulator_circuit.block_weights, seed=41)
        population = generator.generate(failed_count=40)
        assert len(population) == 40
        assert len(population.ground_truth) == 40
        # With 20 attempts per device a masked fault surviving is vanishingly
        # rare on this circuit; every device must fail at least one test and
        # carry exactly the ground-truth fault.
        for result in population.results:
            assert result.failed
            fault = population.ground_truth[result.device_id]
            assert result.faults == {fault.block: fault}

    def test_redraw_disabled_keeps_first_draw(self, regulator_circuit,
                                              regulator_program):
        simulator = make_simulator(regulator_circuit, seed=43)
        generator = PopulationGenerator(
            simulator, regulator_program, regulator_circuit.fault_universe,
            regulator_circuit.block_weights, seed=47)
        population = generator.generate(failed_count=30,
                                        require_observable_failure=False)
        # Without re-draws the device ids are exactly the first 30 draws.
        assert population.device_ids == [f"DEV-{i:05d}" for i in range(1, 31)]


class TestCaseGenerationEquivalence:
    def test_cases_from_results_matches_per_device(self, regulator_circuit,
                                                   regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        batched = generator.cases_from_results(regulator_population.results)
        scalar = []
        for result in regulator_population.results:
            scalar.extend(generator.cases_from_device_result(result))
        assert batched == scalar

    def test_only_failing_devices_filter(self, regulator_circuit,
                                         regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        batched = generator.cases_from_results(regulator_population.results,
                                               only_failing_devices=True)
        scalar = []
        for result in regulator_population.results:
            if result.failed:
                scalar.extend(generator.cases_from_device_result(result))
        assert batched == scalar

    def test_classify_array_matches_scalar(self, regulator_circuit):
        discretizer = regulator_circuit.model.discretizer()
        rng = np.random.default_rng(53)
        for variable in discretizer.variables:
            table = discretizer.table(variable)
            edges = [limit for state in table.states
                     for limit in (state.lower, state.upper)]
            values = np.concatenate([
                rng.uniform(-2.0, 30.0, size=200), np.array(edges)])
            batched = discretizer.classify_array(variable, values)
            assert batched == [discretizer.classify(variable, float(value))
                               for value in values]

    def test_classify_array_hypothetical(self, hypothetical_circuit):
        discretizer = hypothetical_circuit.model.discretizer()
        values = np.linspace(-1.0, 22.0, 113)
        for variable in discretizer.variables:
            assert discretizer.classify_array(variable, values) == [
                discretizer.classify(variable, float(value)) for value in values]


class TestEliminationOrderMemoisation:
    def test_heuristic_runs_once_per_free_set(self, regulator_built_model):
        calls = []

        def counting_heuristic(network, to_eliminate):
            from repro.bayesnet.inference.elimination_order import min_fill_order
            calls.append(frozenset(to_eliminate))
            return min_fill_order(network, to_eliminate)

        engine = VariableElimination(regulator_built_model.network,
                                     elimination_order=counting_heuristic)
        internal = regulator_built_model.description.internal_variables
        evidence_a = {"reg1": "0", "reg2": "1"}
        evidence_b = {"reg1": "2", "reg2": "0"}  # same free-variable set
        engine.posteriors(internal, evidence_a)
        engine.posteriors(internal, evidence_b)
        assert len(calls) == 1
        engine.posteriors(internal, {"reg1": "0", "reg3": "1"})
        assert len(calls) == 2

    def test_forward_only_probability_matches_full_sweep(
            self, regulator_built_model):
        engine = VariableElimination(regulator_built_model.network)
        evidence = {"reg1": "0", "reg2": "1", "sw": "1"}
        forward = engine.probability_of_evidence(evidence)
        fresh = VariableElimination(regulator_built_model.network)
        fresh.posteriors(["lcbg"], evidence)  # populates the full-sweep cache
        assert forward == pytest.approx(fresh.probability_of_evidence(evidence),
                                        rel=1e-12)
