"""Durable-cache serving — warm-vs-cold latency across service restarts.

The persistence layer's performance claim is simple: a diagnosis served
once should never be computed again, not by another worker and not after a
restart.  This benchmark pushes a distinct-evidence workload through a
persisted :class:`~repro.serving.DiagnosisService`, restarts the service on
the same ``persist_dir``, and measures the warm pass against the cold one.
The timed kernel is the warm (restarted, cache-backed) batch.

Asserted promises (the ISSUE acceptance criteria):

* the restarted service answers >= 90% of its lookups from the durable
  cache,
* the warm pass is measurably faster than the cold pass (a wall-clock
  ratio of two short passes, asserted only under ``--benchmark-only``), and
* warm posteriors are bit-identical to the cold ones — the cache returns
  computed results, never approximations of them.
"""

from __future__ import annotations

import time

from repro.core import Dlog2BBN, FallbackPolicy
from repro.serving import DiagnosisService, ServiceConfig

#: Cases pushed through the cold and warm services.
WORKLOAD = 120
#: Required durable hit rate of the restarted service.
MIN_HIT_RATE = 0.9
#: The warm pass must beat the cold pass by at least this factor.
MIN_WARM_SPEEDUP = 1.2


def _workload(regulator_circuit, failed_population):
    """Distinct-evidence cases: one per failed device/condition, capped."""
    builder = Dlog2BBN(regulator_circuit.model,
                       regulator_circuit.healthy_states)
    labeled = builder.case_generator().cases_from_results(
        failed_population.results)
    evidence = [case.observed() for case in labeled][:WORKLOAD]
    names = [f"persist-{index:04d}" for index in range(len(evidence))]
    return evidence, names


def test_bench_persist_warm_restart(benchmark, request, built_model,
                                    regulator_circuit, failed_population,
                                    tmp_path_factory):
    evidence, names = _workload(regulator_circuit, failed_population)
    policy = FallbackPolicy()
    config = ServiceConfig(num_workers=2, chunk_size=16)
    persist_dir = tmp_path_factory.mktemp("persist")

    # Cold pass: every posterior is computed and durably committed.
    with DiagnosisService(built_model, policy, config,
                          persist_dir=persist_dir) as service:
        start = time.perf_counter()
        cold_results = service.diagnose_batch(evidence, names=names,
                                              timeout=600)
        cold_elapsed = time.perf_counter() - start
        cold_stats = service.stats()

    # Warm pass: a *restarted* service on the same directory.
    with DiagnosisService(built_model, policy, config,
                          persist_dir=persist_dir) as service:
        start = time.perf_counter()
        warm_results = service.diagnose_batch(evidence, names=names,
                                              timeout=600)
        warm_elapsed = time.perf_counter() - start
        warm_stats = service.stats()
        # The snapshot kernel: steady-state cache-backed serving.
        benchmark(service.diagnose_batch, evidence, names=names, timeout=600)

    n = len(evidence)
    lookups = warm_stats.cache_hits + warm_stats.cache_misses
    hit_rate = warm_stats.cache_hits / lookups if lookups else 0.0
    print()
    print(f"Durable-cache restart ({n} distinct cases, 2 workers):")
    print(f"  cold pass: {cold_elapsed:.3f}s ({n / cold_elapsed:7.1f} "
          f"devices/s, {cold_stats.cache_misses} durable misses)")
    print(f"  warm pass: {warm_elapsed:.3f}s ({n / warm_elapsed:7.1f} "
          f"devices/s, {warm_stats.cache_hits}/{lookups} durable hits)")
    print(f"  restart hit rate: {hit_rate * 100.0:.1f}%  "
          f"speedup: {cold_elapsed / warm_elapsed:.2f}x")

    # Promise 1: the restart actually reuses the durable state.
    assert lookups >= n
    assert hit_rate >= MIN_HIT_RATE, (
        f"restarted service hit rate {hit_rate:.2%} below the "
        f"{MIN_HIT_RATE:.0%} floor")

    # Promise 2: warm serving is measurably faster than recomputation.
    if request.config.getoption("benchmark_only"):
        assert warm_elapsed * MIN_WARM_SPEEDUP <= cold_elapsed, (
            f"warm pass ({warm_elapsed:.3f}s) is not {MIN_WARM_SPEEDUP}x "
            f"faster than the cold pass ({cold_elapsed:.3f}s)")
    else:
        print(f"  [warm-vs-cold assertion runs under --benchmark-only; "
              f"measured {cold_elapsed / warm_elapsed:.2f}x]")

    # Promise 3: cached results are the computed results, bit for bit.
    assert all(result.ok for result in cold_results + warm_results)
    for cold, warm in zip(cold_results, warm_results):
        assert warm.posteriors == cold.posteriors
