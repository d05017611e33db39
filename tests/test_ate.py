"""Tests for the ATE substrate: specs, programs, tester, datalogs and populations."""

from __future__ import annotations

import pytest

from repro.ate import (
    ATETester,
    DatalogRecord,
    DeviceDatalog,
    PopulationGenerator,
    SpecificationTest,
    TestLimit,
    TestProgram,
    parse_datalog,
    write_datalog,
)
from repro.ate.programs import REGULATOR_CONDITION_SETS, build_functional_program
from repro.circuits import BehavioralSimulator, BlockFault, FaultMode
from repro.exceptions import ATEError, DatalogError


class TestSpecAndProgram:
    def test_limit_validation(self):
        with pytest.raises(ATEError):
            TestLimit(5.0, 4.0)

    def test_limit_passes_and_margin(self):
        limit = TestLimit(4.75, 5.25)
        assert limit.passes(5.0)
        assert not limit.passes(5.5)
        assert limit.margin(5.5) == pytest.approx(-0.25)
        assert limit.margin(4.8) == pytest.approx(0.05)

    def test_specification_test_validation(self):
        with pytest.raises(ATEError):
            SpecificationTest(-1, "t", "reg1", {}, TestLimit(0, 1))
        with pytest.raises(ATEError):
            SpecificationTest(1, "", "reg1", {}, TestLimit(0, 1))

    def test_program_rejects_duplicate_numbers(self):
        program = TestProgram("p")
        program.add_test(SpecificationTest(1, "a", "reg1", {}, TestLimit(0, 1)))
        with pytest.raises(ATEError):
            program.add_test(SpecificationTest(1, "b", "reg2", {}, TestLimit(0, 1)))

    def test_program_lookups(self, regulator_program):
        assert len(regulator_program) == 25
        test = regulator_program.test_by_name("reg1_nominal")
        assert regulator_program.test_by_number(test.number) is test
        assert "reg1" in regulator_program.measured_blocks()
        assert "vp1" in regulator_program.controlled_blocks()
        assert len(regulator_program.tests_measuring("reg1")) == 5

    def test_unknown_lookups_raise(self, regulator_program):
        with pytest.raises(ATEError):
            regulator_program.test_by_number(99999)
        with pytest.raises(ATEError):
            regulator_program.test_by_name("nope")

    def test_build_functional_program_validates_variables(self, regulator_circuit):
        from repro.ate.programs import ConditionSet
        bad = ConditionSet("x", {"not_a_block": 1.0}, {"reg1": "1"})
        with pytest.raises(ATEError):
            build_functional_program("p", regulator_circuit.model, [bad])

    def test_limits_come_from_expected_state(self, regulator_circuit,
                                              regulator_program):
        test = regulator_program.test_by_name("reg2_nominal")
        state = regulator_circuit.model.state_table("reg2").state("1")
        assert test.limit.lower == pytest.approx(state.lower)
        assert test.limit.upper == pytest.approx(state.upper)


class TestTester:
    def test_golden_device_passes(self, regulator_circuit, regulator_program):
        simulator = BehavioralSimulator(
            regulator_circuit.netlist,
            process_variation=regulator_circuit.process_variation, seed=21)
        tester = ATETester(simulator, regulator_program)
        result, = tester.test_devices(["GOLD"])
        assert not result.failed

    def test_faulty_device_fails(self, regulator_circuit, regulator_program):
        simulator = BehavioralSimulator(
            regulator_circuit.netlist,
            process_variation=regulator_circuit.process_variation, seed=22)
        tester = ATETester(simulator, regulator_program)
        fault = BlockFault("hcbg", FaultMode.DEAD)
        result, = tester.test_devices(["BAD"], [{"hcbg": fault}])
        assert result.failed
        assert any(m.block == "reg1" for m in result.failing_measurements())

    def test_unknown_measured_block_rejected(self, regulator_circuit):
        simulator = BehavioralSimulator(regulator_circuit.netlist, seed=24)
        program = TestProgram("bad")
        program.add_test(SpecificationTest(1, "x", "not_a_block", {}, TestLimit(0, 1)))
        with pytest.raises(ATEError):
            ATETester(simulator, program)


class TestDatalog:
    def test_record_round_trip(self):
        record = DatalogRecord("DEV-1", 100, "reg1_nominal", "reg1", 8.5,
                               8.0, 9.0, True, {"vp1": 13.5, "vp2": 8.0})
        parsed = DatalogRecord.from_line(record.to_line())
        assert parsed.device_id == "DEV-1"
        assert parsed.value == pytest.approx(8.5)
        assert parsed.conditions["vp1"] == pytest.approx(13.5)
        assert parsed.passed

    def test_malformed_line_raises(self):
        with pytest.raises(DatalogError):
            DatalogRecord.from_line("DEVICE=DEV-1|TEST=abc")

    def test_device_datalog_rejects_foreign_records(self):
        datalog = DeviceDatalog("DEV-1")
        foreign = DatalogRecord("DEV-2", 1, "t", "reg1", 1.0, 0.0, 2.0, True, {})
        with pytest.raises(DatalogError):
            datalog.add(foreign)

    def test_file_round_trip(self, tmp_path, regulator_circuit, regulator_program):
        simulator = BehavioralSimulator(regulator_circuit.netlist, seed=25)
        tester = ATETester(simulator, regulator_program)
        result, = tester.test_devices(
            ["DEV-7"], [{"reg1": BlockFault("reg1", FaultMode.DEAD)}])
        path = write_datalog([result.to_datalog()], tmp_path / "log.txt")
        parsed = parse_datalog(path)
        assert len(parsed) == 1
        assert parsed[0].device_id == "DEV-7"
        assert len(parsed[0]) == len(regulator_program)
        assert parsed[0].failed
        assert "reg1:dead" in parsed[0].metadata["injected_faults"]

    def test_parse_missing_file(self, tmp_path):
        with pytest.raises(DatalogError):
            parse_datalog(tmp_path / "nope.txt")


class TestPopulation:
    def test_population_counts_and_ground_truth(self, regulator_population):
        assert len(regulator_population) == 25
        assert len(regulator_population.ground_truth) == 20
        assert len(regulator_population.passing_results) >= 1

    def test_failed_devices_fail_a_test(self, regulator_population):
        for device_id, fault in regulator_population.ground_truth.items():
            result = regulator_population.result_for(device_id)
            assert fault.block in result.faults

    def test_result_for_unknown_device(self, regulator_population):
        with pytest.raises(ATEError):
            regulator_population.result_for("missing")

    def test_generate_for_fault(self, regulator_circuit, regulator_program):
        simulator = BehavioralSimulator(
            regulator_circuit.netlist,
            process_variation=regulator_circuit.process_variation, seed=26)
        generator = PopulationGenerator(simulator, regulator_program,
                                        regulator_circuit.fault_universe, seed=27)
        fault = BlockFault("enb13", FaultMode.DEAD)
        population = generator.generate_for_fault(fault, 4)
        assert len(population) == 4
        assert all(f.block == "enb13"
                   for f in population.ground_truth.values())

    def test_negative_counts_rejected(self, regulator_circuit, regulator_program):
        simulator = BehavioralSimulator(regulator_circuit.netlist, seed=28)
        generator = PopulationGenerator(simulator, regulator_program,
                                        regulator_circuit.fault_universe, seed=29)
        with pytest.raises(ATEError):
            generator.generate(failed_count=-1)
