"""End-to-end integration tests: simulate -> test -> datalog -> learn -> diagnose."""

from __future__ import annotations

import pytest

from repro.ate import ATETester, PopulationGenerator, parse_datalog, write_datalog
from repro.ate.programs import HYPOTHETICAL_CONDITION_SETS, build_functional_program
from repro.circuits import BehavioralSimulator, BlockFault, FaultMode
from repro.core import CaseGenerator, DiagnosisEngine, DiagnosisMetrics, Dlog2BBN
from repro.core.behavioral_prior import SimulationPriorBuilder


class TestHypotheticalEndToEnd:
    """The Fig. 1 circuit: the whole pipeline on the paper's teaching example."""

    @pytest.fixture(scope="class")
    def built(self, hypothetical_circuit, hypothetical_program):
        simulator = BehavioralSimulator(hypothetical_circuit.netlist, seed=41)
        generator = PopulationGenerator(simulator, hypothetical_program,
                                        hypothetical_circuit.fault_universe,
                                        seed=42)
        population = generator.generate(failed_count=40, passing_count=10)
        builder = Dlog2BBN(hypothetical_circuit.model,
                           hypothetical_circuit.healthy_states)
        prior = SimulationPriorBuilder(
            hypothetical_circuit.netlist, hypothetical_circuit.model,
            [cs.conditions for cs in HYPOTHETICAL_CONDITION_SETS],
            fault_probability=0.15, samples=1000, seed=43).build()
        cases = builder.case_generator().cases_from_results(population.results)
        return builder.build(cases, method="bayes", prior_network=prior,
                             equivalent_sample_size=20)

    def test_block3_fault_is_diagnosed(self, hypothetical_circuit, built):
        # Block-3 dead: Block-2 still operational, Block-4 dead.
        engine = DiagnosisEngine(built)
        diagnosis = engine.diagnose_evidence(
            {"block1": "2", "block2": "1", "block4": "0"})
        assert diagnosis.top_candidate() == "block3"

    def test_block4_fault_not_blamed_on_block3(self, hypothetical_circuit, built):
        # When Block-4 alone is dead, Block-3 cannot be ruled out (it is not
        # observable) but the CPTs learned from the population should rank
        # block3 and block4 as the only plausible candidates.
        engine = DiagnosisEngine(built)
        diagnosis = engine.diagnose_evidence(
            {"block1": "2", "block2": "1", "block4": "0"})
        assert set(candidate for candidate, _ in diagnosis.ranked_candidates[:1]) <= {
            "block3", "block4"}


class TestRegulatorEndToEnd:
    def test_datalog_round_trip_preserves_diagnosis(self, tmp_path,
                                                    regulator_circuit,
                                                    regulator_program,
                                                    regulator_engine):
        simulator = BehavioralSimulator(
            regulator_circuit.netlist,
            process_variation=regulator_circuit.process_variation, seed=51)
        tester = ATETester(simulator, regulator_program)
        fault = BlockFault("enb13", FaultMode.DEAD)
        result, = tester.test_devices(["RET-1"], [{"enb13": fault}])
        assert result.failed

        # Route the device through the ASCII datalog (the Dlog2BBN path).
        path = write_datalog([result.to_datalog()], tmp_path / "returns.log")
        datalog = parse_datalog(path)[0]
        generator = CaseGenerator(regulator_circuit.model)
        cases = generator.cases_from_datalog(datalog)
        failing_case = next(case for case in cases if case.failed)
        diagnosis = regulator_engine.diagnose_evidence(failing_case.observed())
        assert "enb13" in diagnosis.suspects

    def test_injected_fault_population_metrics(self, regulator_circuit,
                                               regulator_population,
                                               regulator_engine):
        generator = CaseGenerator(regulator_circuit.model)
        internal = set(regulator_circuit.model.internal_variables)
        metrics = DiagnosisMetrics()
        for result in regulator_population.failing_results:
            if metrics.total >= 10:
                break
            true_block = regulator_population.ground_truth[result.device_id].block
            if true_block not in internal:
                # Faults in observable blocks are read straight off the ATE
                # response; block-level diagnosis ranks the internal blocks.
                continue
            cases = generator.cases_from_device_result(result)
            failing = [case for case in cases if case.failed]
            if not failing:
                continue
            diagnosis = regulator_engine.diagnose_evidence(failing[0].observed())
            metrics.record(diagnosis, true_block)
        summary = metrics.summary()
        assert summary["devices"] > 0
        # This integration test checks the pipeline end to end on a handful
        # of devices; the statistical quality bars (against the chance level
        # of 8 internal candidates) live in the accuracy benchmark.
        assert 1.0 <= summary["mean_rank"] <= 8.0
        assert 0.0 <= summary["suspect_recall"] <= 1.0

    def test_quickstart_docstring_flow(self, regulator_circuit, regulator_prior):
        # The module-level quickstart (repro.__init__) must keep working.
        builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
        built = builder.build(prior_network=regulator_prior)
        engine = DiagnosisEngine(built)
        from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
        diagnosis = engine.diagnose(PAPER_DIAGNOSTIC_CASES[1])
        assert diagnosis.suspects == ["enb13"]
