"""Quickstart: diagnose the paper's five voltage-regulator cases.

Builds the industrial multiple-output voltage regulator, derives the designer
prior from behavioural simulation, fine-tunes the CPTs on a synthetic
70-failed-device population (the stand-in for the paper's customer returns)
and diagnoses the five Table VI case studies.  The closing sections show
the production path: the batched population pipeline (thousands of devices
simulated, tested and converted to learning cases per second), the engine's
fallback chain on noisy records, the supervised worker-pool service that
shards a population across processes with crash isolation, deadlines and
backpressure, and the versioned model registry that hot-swaps re-trained
models into running workers.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.ate import DeviceResultStore, PopulationGenerator
from repro.ate.programs import REGULATOR_CONDITION_SETS, build_functional_program
from repro.circuits import BehavioralSimulator, build_voltage_regulator
from repro.core import DiagnosisEngine, Dlog2BBN, FallbackPolicy
from repro.core.behavioral_prior import SimulationPriorBuilder
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES, PAPER_EXPECTED_SUSPECTS
from repro.core.report import case_summary_table
from repro.serving import DiagnosisService, ServiceConfig


def main() -> None:
    # 1. The circuit: behavioural netlist + BBN circuit-model description.
    circuit = build_voltage_regulator()
    program = build_functional_program("vr_functional", circuit.model,
                                       REGULATOR_CONDITION_SETS)

    # 2. Designer prior: what the product designer's simulation says.
    prior = SimulationPriorBuilder(
        circuit.netlist, circuit.model,
        [cs.conditions for cs in REGULATOR_CONDITION_SETS],
        fault_probability=circuit.designer_fault_probabilities,
        process_variation=circuit.process_variation,
        samples=3000, seed=7).build()

    # 3. Fine-tuning data: a no-stop-on-fail test of 70 failed devices.
    simulator = BehavioralSimulator(circuit.netlist,
                                    process_variation=circuit.process_variation,
                                    seed=11)
    generator = PopulationGenerator(simulator, program, circuit.fault_universe,
                                    circuit.block_weights, seed=12)
    population = generator.generate(failed_count=70)

    # 4. Dlog2BBN: cases from the ATE data, CPTs fine-tuned against the prior.
    builder = Dlog2BBN(circuit.model, circuit.healthy_states)
    cases = builder.case_generator().cases_from_results(population.results)
    built = builder.build(cases, method="bayes", prior_network=prior,
                          equivalent_sample_size=200)
    print(f"Built BBN circuit model from {built.training_case_count} learning cases "
          f"({len(population)} failed devices).")

    # 5. Diagnostic mode: the five Table VI case studies.
    engine = DiagnosisEngine(built)
    diagnoses = engine.diagnose_batch(PAPER_DIAGNOSTIC_CASES)
    print()
    print(case_summary_table(PAPER_DIAGNOSTIC_CASES, diagnoses))
    print()
    for diagnosis in diagnoses:
        expected = ", ".join(PAPER_EXPECTED_SUSPECTS[diagnosis.case_name])
        print(f"{diagnosis.case_name}: deduced suspects = {diagnosis.suspects} "
              f"(paper: {expected})")

    # 6. Batched population generation: the whole simulate -> test ->
    #    discretise -> case path runs as population-at-a-time array kernels.
    #    `generate` samples every fault up-front, measures all devices per
    #    specification test through the batch simulator (re-drawing only the
    #    masked-fault rows) and `cases_from_results` discretises whole
    #    measurement columns at once.
    print()
    start = time.perf_counter()
    big_population = generator.generate(failed_count=1000, passing_count=200)
    generated = time.perf_counter() - start
    start = time.perf_counter()
    big_cases = builder.case_generator().cases_from_results(
        big_population.results)
    converted = time.perf_counter() - start
    print(f"Batched pipeline: {len(big_population)} devices "
          f"({len(big_population.failing_results)} failing) generated in "
          f"{generated * 1e3:.0f} ms "
          f"({len(big_population) / generated:,.0f} devices/s), "
          f"{len(big_cases)} learning cases in {converted * 1e3:.0f} ms "
          f"({len(big_cases) / converted:,.0f} cases/s).")

    # 7. Robust serving: real returned-device logs are noisy.  An engine
    #    with a fallback chain validates evidence up front, falls back from
    #    exact to approximate inference, and isolates per-case failures so
    #    one poisoned record cannot kill a population sweep.
    robust = DiagnosisEngine(
        built,
        FallbackPolicy(chain=("ve", "lw", "gibbs"), num_samples=2000,
                       seed=0))
    noisy_batch = [
        PAPER_DIAGNOSTIC_CASES[0].evidence(),      # clean record
        {"vp1": "99", "bogus_pin": "1"},           # corrupted datalog row
        PAPER_DIAGNOSTIC_CASES[1].evidence(),      # clean record
    ]
    results = robust.diagnose_batch(
        noisy_batch, names=["device-001", "device-002", "device-003"],
        on_error="collect")
    print()
    print("Robust batch over a noisy population (on_error='collect'):")
    for result in results:
        if result.ok:
            provenance = result.provenance
            flags = "degraded" if provenance.degraded else "healthy"
            ess = ("" if provenance.effective_sample_size is None else
                   f", ess={provenance.effective_sample_size:.0f}")
            print(f"  {result.case_name}: suspects={result.suspects} "
                  f"[engine={provenance.engine}, {flags}, "
                  f"wall={provenance.wall_time * 1e3:.1f}ms{ess}]")
        else:
            print(f"  {result.case_name}: FAILED ({result.error_type}) "
                  f"{result.message.splitlines()[0]}")

    # 8. Serving a population: the worker-pool service shards a batch
    #    across supervised worker processes (each hosting its own engine
    #    on the service's fallback chain).  Worker crashes are isolated and
    #    retried, a per-request deadline is checked between each worker's
    #    pipeline stages (and a worker that overruns it is reaped), a
    #    bounded queue applies backpressure, and `stats()` exposes a
    #    structured health snapshot.  Use it whenever one process is not
    #    enough — or when it must not be trusted to stay alive.
    population_evidence = [case.observed() for case in big_cases[:200]]
    service_policy = FallbackPolicy(chain=("ve", "lw"), num_samples=2000,
                                    seed=0, on_invalid_evidence="sanitize")
    config = ServiceConfig(num_workers=2, chunk_size=16,
                           max_pending_cases=10_000,
                           overload_policy="block")
    print()
    start = time.perf_counter()
    with DiagnosisService(built, service_policy, config) as service:
        served = service.diagnose_batch(population_evidence,
                                        deadline=120.0, timeout=300.0)
        stats = service.stats()
    elapsed = time.perf_counter() - start
    succeeded = sum(1 for result in served if result.ok)
    print(f"Diagnosis service: {len(served)} devices on "
          f"{stats.workers} workers in {elapsed:.2f}s "
          f"({len(served) / elapsed:,.0f} devices/s): "
          f"{succeeded} diagnosed, {len(served) - succeeded} structured "
          f"failures, {stats.respawns} respawns, {stats.shed} shed.")
    print(f"  chunk latency p50={stats.chunk_latency_p50 * 1e3:.1f}ms "
          f"p99={stats.chunk_latency_p99 * 1e3:.1f}ms; "
          f"queue={stats.queue_depth}, in-flight={stats.in_flight} "
          f"after drain.")

    # 9. Training at scale: the columnar data path.  The batched tester
    #    already produced the population as a `DeviceResultStore` — two
    #    `(tests, devices)` planes plus test metadata — so learning never
    #    needs per-device row objects.  The store round-trips through
    #    `save`/`load` as memory-mapped `.npy` planes (opening an ATE-scale
    #    population costs only its metadata), `case_matrix` discretises
    #    whole measurement columns into an integer-coded `CaseMatrix`, and
    #    the estimators count every CPT with one `np.bincount` pass over
    #    the matrix.  The columnar equivalence suite pins this path to the
    #    row-based one at exact-count / 1e-12-CPT parity.
    print()
    store = big_population.to_store()
    with tempfile.TemporaryDirectory() as scratch:
        saved = store.save(Path(scratch) / "population")
        loaded = DeviceResultStore.load(saved)     # memory-mapped planes
        start = time.perf_counter()
        matrix = builder.case_generator().case_matrix(loaded)
        encoded = time.perf_counter() - start
        start = time.perf_counter()
        tuned = builder.build(matrix, method="bayes", prior_network=prior,
                              equivalent_sample_size=200)
        fitted = time.perf_counter() - start
    print(f"Training at scale: {loaded.device_count} devices "
          f"({loaded.test_count} tests/device) reloaded via mmap, "
          f"{len(matrix)} cases encoded in {encoded * 1e3:.0f} ms, "
          f"CPTs fine-tuned in {fitted * 1e3:.0f} ms "
          f"({len(matrix) / fitted:,.0f} cases/s).")
    scaled_engine = DiagnosisEngine(tuned)
    scaled = scaled_engine.diagnose_batch(PAPER_DIAGNOSTIC_CASES)
    agreeing = sum(1 for before, after in zip(diagnoses, scaled)
                   if before.suspects == after.suspects)
    print(f"  paper-case suspects after the scaled fit: {agreeing}/"
          f"{len(scaled)} match the 70-device model.")

    # 10. Hot reload.  `persist_dir` is the home of a versioned
    #     `ModelRegistry`: `publish_model` validates a re-trained model
    #     (structure, CPT sums, and the prior marginals of variable
    #     elimination against the junction tree), commits it atomically,
    #     and every running worker hot-swaps to it between chunks — no
    #     restart, and a bad candidate is rejected before anything is
    #     renamed.  A service started later on the same directory serves
    #     the registry's model.
    print()
    config = ServiceConfig(num_workers=2, chunk_size=2)
    with tempfile.TemporaryDirectory() as state:
        with DiagnosisService(built, FallbackPolicy(), config,
                              persist_dir=state,
                              reload_poll_interval=0.0) as service:
            service.diagnose_batch(PAPER_DIAGNOSTIC_CASES, timeout=120)
            version = service.publish_model(tuned)   # hot-swap, validated
            service.diagnose_batch(PAPER_DIAGNOSTIC_CASES, timeout=120)
            reloads = service.stats().model_reloads
    print(f"Model registry: published model v{version} hot-swapped into "
          f"{reloads} worker(s) between chunks, without a restart.")


if __name__ == "__main__":
    main()
