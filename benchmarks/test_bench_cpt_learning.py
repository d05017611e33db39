"""CPT-learning throughput on the columnar path — cases/s at ATE scale.

The array-native pipeline exists so that fine-tuning CPTs on a production
population is bounded by ``np.bincount`` rather than per-case Python loops.
This benchmark measures fit throughput at 1k/10k/100k devices (the 100k tier
is the ATE-scale target of ROADMAP item on batched learning), asserts the
columnar estimator beats the row-based one by at least 5x on identical
cases, and smoke-tests two memory ceilings: learning from a memory-mapped
100k-device store must stay under ~2x the raw array payload in resident
memory — i.e. no hidden row materialisation — and reading a 2,000-device
datalog lot may add at most 16 MB.

Populations above 1k devices are tiled from a real simulated 1k-device
population: the estimator's cost depends only on the plane shapes, and
tiling keeps the benchmark setup seconds-fast instead of half a minute of
simulation per run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ate import DeviceResultStore, PopulationGenerator
from repro.ate.datalog import write_datalog
from repro.bayesnet import BayesianEstimator, CaseMatrix
from repro.circuits import BehavioralSimulator
from repro.core import CaseGenerator, Dlog2BBN
from repro.utils.tables import format_table

BASE_DEVICES = 1_000
SIZES = {"1k": 1_000, "10k": 10_000, "100k": 100_000}


@pytest.fixture(scope="module")
def base_population(regulator_circuit, regulator_program):
    simulator = BehavioralSimulator(
        regulator_circuit.netlist,
        process_variation=regulator_circuit.process_variation, seed=41)
    generator = PopulationGenerator(
        simulator, regulator_program, regulator_circuit.fault_universe,
        regulator_circuit.block_weights, seed=42)
    return generator.generate(failed_count=BASE_DEVICES)


@pytest.fixture(scope="module")
def model_builder(regulator_circuit):
    return Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)


@pytest.fixture(scope="module")
def structure(model_builder, regulator_circuit):
    return model_builder.build_structure().with_uniform_cpds(
        regulator_circuit.model.cardinalities(),
        regulator_circuit.model.state_names())


def tiled_store(store: DeviceResultStore, devices: int) -> DeviceResultStore:
    """Tile a store's device columns up to ``devices`` (ids kept unique)."""
    repeats = -(-devices // store.device_count)
    values = np.tile(store.values, (1, repeats))[:, :devices]
    passed = np.tile(store.passed, (1, repeats))[:, :devices]
    device_ids = [f"{device_id}-r{repeat}"
                  for repeat in range(repeats)
                  for device_id in store.device_ids][:devices]
    fault_index = np.concatenate(
        [store.fault_index + repeat * store.device_count
         for repeat in range(repeats)])
    keep = fault_index < devices
    return DeviceResultStore(
        device_ids, values, passed, store.test_numbers, store.test_names,
        store.blocks, store.lowers, store.uppers, store.conditions,
        fault_index[keep],
        np.tile(store.fault_blocks, repeats)[keep],
        np.tile(store.fault_modes, repeats)[keep],
        np.tile(store.fault_severities, repeats)[keep])


def fresh_matrix(matrix: CaseMatrix) -> CaseMatrix:
    """Re-wrap the code planes so per-matrix memo caches start cold."""
    return CaseMatrix(matrix.variables, matrix.codes, matrix.state_names)


@pytest.mark.parametrize("size", list(SIZES), ids=list(SIZES))
def test_bench_cpt_learning(benchmark, size, base_population, model_builder,
                            structure, regulator_prior):
    store = tiled_store(base_population.to_store(), SIZES[size])
    matrix = model_builder.case_generator().case_matrix(store)
    estimator = BayesianEstimator(structure, prior_network=regulator_prior,
                                  equivalent_sample_size=200)

    learned = benchmark(lambda: estimator.fit(fresh_matrix(matrix)))

    if benchmark.stats is not None:
        median = benchmark.stats.stats.median
        cases_per_second = len(matrix) / median
        benchmark.extra_info["cases"] = len(matrix)
        benchmark.extra_info["cases_per_second"] = round(cases_per_second)
        print()
        print(format_table(
            ["Devices", "Cases", "Median fit (ms)", "Cases / s"],
            [[SIZES[size], len(matrix), f"{median * 1e3:.2f}",
              f"{cases_per_second:,.0f}"]],
            title="Columnar CPT learning throughput"))
    assert set(learned.nodes) == set(structure.nodes)


def test_columnar_fit_at_least_5x_faster_than_rows(base_population,
                                                   model_builder, structure,
                                                   regulator_prior):
    """Acceptance: batched estimation ≥5x over the row path, same cases."""
    generator = model_builder.case_generator()
    matrix = generator.case_matrix(base_population.to_store())
    rows = CaseGenerator.as_learning_cases(
        generator.cases_from_results(base_population.results))
    estimator = BayesianEstimator(structure, prior_network=regulator_prior,
                                  equivalent_sample_size=200)

    def best_of(fit_input_factory, rounds=3):
        timings = []
        for _ in range(rounds):
            fit_input = fit_input_factory()
            start = time.perf_counter()
            estimator.fit(fit_input)
            timings.append(time.perf_counter() - start)
        return min(timings)

    row_time = best_of(lambda: rows)
    columnar_time = best_of(lambda: fresh_matrix(matrix))
    speedup = row_time / columnar_time
    print(f"\nrow fit {row_time * 1e3:.1f} ms, columnar fit "
          f"{columnar_time * 1e3:.2f} ms ({speedup:.1f}x, {len(matrix)} cases)")
    assert speedup >= 5.0


_MEMORY_PROBE = """
import ctypes, json, sys

# Opt out of transparent huge pages (PR_SET_THP_DISABLE): khugepaged can
# round every mapping up to 2 MB pages depending on prior system activity,
# inflating the peak by ~30% run-to-run.  This probe measures the
# workload, not kernel page policy.
try:
    ctypes.CDLL(None, use_errno=True).prctl(41, 1, 0, 0, 0)
except Exception:
    pass

from repro.ate import DeviceResultStore
from repro.bayesnet import BayesianEstimator
from repro.circuits import build_voltage_regulator
from repro.core import Dlog2BBN


def status(field):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024


store = DeviceResultStore.load(sys.argv[1])
circuit = build_voltage_regulator()
builder = Dlog2BBN(circuit.model, circuit.healthy_states)
structure = builder.build_structure().with_uniform_cpds(
    circuit.model.cardinalities(), circuit.model.state_names())
baseline = status("VmRSS")
matrix = builder.case_generator().case_matrix(store)
estimator = BayesianEstimator(structure, equivalent_sample_size=200)
estimator.fit(matrix)
payload = store.values.nbytes + store.passed.nbytes + matrix.codes.nbytes
print(json.dumps({"peak_minus_baseline": status("VmHWM") - baseline,
                  "payload": payload}))
"""


def test_cpt_learning_memory_ceiling(base_population, tmp_path):
    """Peak RSS of a 100k-device fit stays under ~2x the raw array payload.

    The fit runs in a subprocess, which reports the peak of its own
    address space (``VmHWM``) over its resident set after the imports and
    the (memory-mapped) store open, so the measured delta is the cost of
    case encoding plus estimation.  Its ``ru_maxrss`` would not do: Linux
    carries that across ``exec`` from the forking process, here the test
    runner.  2x raw payload leaves room for the code planes and count
    buffers but rules out any per-case row materialisation — materialised
    ``DeviceResult`` rows at this scale would cost upwards of a gigabyte.

    A fixed 64 MB allowance absorbs kernel-side RSS noise (readahead,
    page-cache and huge-page interactions shift the identical child
    workload by tens of MB depending on prior system activity — e.g. when
    the whole test suite ran first); it is far below the failure mode this
    smoke is guarding against.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("requires /proc for baseline RSS sampling")
    store = tiled_store(base_population.to_store(), SIZES["100k"])
    saved = store.save(tmp_path / "store")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    # Pin allocator/threading knobs so the RSS reading is about the
    # workload, not about malloc arenas or BLAS thread-pool stacks.
    env["MALLOC_ARENA_MAX"] = "2"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"

    noise_allowance = 64e6
    delta = ceiling = None
    for _ in range(3):  # retry: peak-RSS readings are noisy
        probe = subprocess.run(
            [sys.executable, "-c", _MEMORY_PROBE, str(saved)],
            capture_output=True, text=True, env=env, timeout=300)
        assert probe.returncode == 0, probe.stderr
        report = json.loads(probe.stdout)
        delta = report["peak_minus_baseline"]
        ceiling = 2.0 * report["payload"] + noise_allowance
        print(f"\npeak RSS delta {delta / 1e6:.1f} MB over a "
              f"{report['payload'] / 1e6:.1f} MB payload "
              f"(ceiling {ceiling / 1e6:.1f} MB)")
        if delta < ceiling:
            break
    assert delta < ceiling


_INGEST_PROBE = """
import ctypes, json, sys

try:  # PR_SET_THP_DISABLE, as in the fit probe above
    ctypes.CDLL(None, use_errno=True).prctl(41, 1, 0, 0, 0)
except Exception:
    pass

# The reader imports these on first use; keep them out of the reading.
import repro.ate.store, repro.circuits.faults  # noqa: E401
from repro.ate.datalog import read_columnar


def status(field):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024


baseline = status("VmRSS")
store = read_columnar(sys.argv[1])
print(json.dumps({"peak_minus_baseline": status("VmHWM") - baseline,
                  "records": store.device_count * store.test_count}))
"""


def test_datalog_ingest_memory_ceiling(base_population, tmp_path):
    """Reading a 2,000-device datalog lot raises peak RSS by at most 16 MB.

    ``read_columnar`` reads the file in fixed-size chunks of whole lines,
    so its working set does not grow with the lot: the finished planes of
    a 2,000-device lot are under 0.5 MB.  A reader that holds the whole
    8.6 MB file, or per-line arrays over all of it, at once needs 50 MB
    or more here.  The read runs in a subprocess, which reports the
    peak of its own address space (``VmHWM``) over its resident set after
    the imports.  Its ``ru_maxrss`` would not do: Linux carries that
    across ``exec`` from the forking process, here the test runner.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("requires /proc for baseline RSS sampling")
    store = tiled_store(base_population.to_store(), 2_000)
    lot = write_datalog(store.to_datalogs(), tmp_path / "lot.dlog")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env["MALLOC_ARENA_MAX"] = "2"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"

    ceiling = 16e6
    delta = None
    for _ in range(3):  # retry: peak-RSS readings are noisy
        probe = subprocess.run(
            [sys.executable, "-c", _INGEST_PROBE, str(lot)],
            capture_output=True, text=True, env=env, timeout=300)
        assert probe.returncode == 0, probe.stderr
        report = json.loads(probe.stdout)
        assert report["records"] == 2_000 * store.test_count
        delta = report["peak_minus_baseline"]
        print(f"\ningest peak RSS delta {delta / 1e6:.1f} MB "
              f"(ceiling {ceiling / 1e6:.0f} MB)")
        if delta <= ceiling:
            break
    assert delta <= ceiling
