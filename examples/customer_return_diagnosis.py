"""Customer-return diagnosis through the ATE datalog path.

Scenario from the paper's introduction: a defective automotive product comes
back from the field and the business line has ten calendar days to report the
cause.  This example walks the full flow for a single return:

1. the return is re-tested on the ATE with the no-stop-on-fail functional
   program, producing an ASCII datalog (here the "silicon" is the behavioural
   simulator with a hidden injected fault),
2. Dlog2BBN converts the datalog into discretised cases,
3. the BBN circuit model diagnoses the failing condition and prints the
   ranked suspect functional blocks — step one of the paper's two-step flow.

Run with::

    python examples/customer_return_diagnosis.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.ate import ATETester, parse_datalog, write_datalog
from repro.ate.programs import REGULATOR_CONDITION_SETS, build_functional_program
from repro.circuits import BehavioralSimulator, BlockFault, FaultMode, build_voltage_regulator
from repro.core import CaseGenerator, DiagnosisEngine, Dlog2BBN
from repro.core.behavioral_prior import SimulationPriorBuilder
from repro.utils.tables import format_table

#: The hidden defect of the returned product (unknown to the diagnosis flow).
HIDDEN_FAULT = BlockFault("enb13", FaultMode.DEAD)


def build_engine(circuit) -> DiagnosisEngine:
    """Build the BBN circuit model from designer knowledge only."""
    prior = SimulationPriorBuilder(
        circuit.netlist, circuit.model,
        [cs.conditions for cs in REGULATOR_CONDITION_SETS],
        fault_probability=circuit.designer_fault_probabilities,
        process_variation=circuit.process_variation,
        samples=3000, seed=7).build()
    builder = Dlog2BBN(circuit.model, circuit.healthy_states)
    return DiagnosisEngine(builder.build(prior_network=prior))


def main() -> None:
    circuit = build_voltage_regulator()
    program = build_functional_program("vr_functional", circuit.model,
                                       REGULATOR_CONDITION_SETS)

    # --- re-test the customer return on the ATE and keep the datalog --------
    simulator = BehavioralSimulator(circuit.netlist,
                                    process_variation=circuit.process_variation,
                                    seed=77)
    tester = ATETester(simulator, program)
    # One device is a population of one.
    result = tester.test_devices(["RETURN-0042"],
                                 [{HIDDEN_FAULT.block: HIDDEN_FAULT}])[0]
    datalog_path = Path(tempfile.gettempdir()) / "return_0042.log"
    write_datalog([result.to_datalog()], datalog_path)
    print(f"Re-tested RETURN-0042: {'FAIL' if result.failed else 'PASS'}; "
          f"datalog written to {datalog_path}")
    failing = result.failing_measurements()
    print(format_table(
        ["Test", "Block", "Measured (V)", "Limits (V)"],
        [[m.test_name, m.block, f"{m.value:.3f}", f"[{m.lower:g}, {m.upper:g}]"]
         for m in failing],
        title="Failing specification tests"))

    # --- Dlog2BBN: datalog -> cases -> evidence ------------------------------
    engine = build_engine(circuit)
    generator = CaseGenerator(circuit.model)
    cases = generator.cases_from_datalogs(parse_datalog(datalog_path))
    failing_cases = [case for case in cases if case.failed]
    print(f"\nGenerated {len(cases)} cases from the datalog "
          f"({len(failing_cases)} with specification failures).")

    # --- block-level diagnosis ----------------------------------------------
    diagnosis = engine.diagnose_evidence(failing_cases[0].observed(),
                                         name="RETURN-0042")
    print(format_table(
        ["Internal block", "P(not healthy)"],
        [[block, f"{probability:.3f}"]
         for block, probability in diagnosis.ranked_candidates],
        title="Ranked internal candidates"))
    print(f"\nDeduced suspect functional block(s): {diagnosis.suspects}")
    print(f"Hidden defect actually injected:      ['{HIDDEN_FAULT.block}']")


if __name__ == "__main__":
    main()
