"""Robust serving overhead — the fallback wrapper must be near-free when healthy.

The robustness layer (evidence validation, provenance annotation, fallback
bookkeeping) wraps every diagnosis on the service path, so its healthy-path
cost is pure overhead on the Table VI kernel.  The timed kernel is the five
diagnostic queries through :class:`RobustDiagnosisEngine` with the default
policy; a paired measurement against the plain :class:`DiagnosisEngine`
asserts the wrapper stays within the <5% budget (plus a millisecond of
absolute tolerance — the kernel is ~6 ms, so the timer's noise floor
matters).
"""

from __future__ import annotations

import time

from repro.core import DiagnosisEngine, FallbackPolicy, RobustDiagnosisEngine
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES

#: Interleaved timing rounds per engine; min-of-rounds is the noise floor.
ROUNDS = 9
#: Relative overhead budget for the robustness wrapper.
OVERHEAD_BUDGET = 0.05
#: Absolute slack for scheduler/timer jitter on a millisecond-scale kernel.
ABSOLUTE_SLACK_S = 0.001


def _min_runtime(target) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        target()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_robust_serving_overhead(benchmark, built_model):
    robust = RobustDiagnosisEngine(built_model, FallbackPolicy())
    plain = DiagnosisEngine(built_model)

    diagnoses = benchmark(robust.diagnose_batch, PAPER_DIAGNOSTIC_CASES)

    # The wrapper changes provenance, never answers: suspect-for-suspect
    # identical to the plain engine on the healthy path.
    reference = plain.diagnose_batch(PAPER_DIAGNOSTIC_CASES)
    for ours, theirs in zip(diagnoses, reference):
        assert ours.suspects == theirs.suspects
        assert ours.posteriors == theirs.posteriors
        assert ours.provenance is not None
        assert not ours.provenance.degraded

    # Paired overhead measurement on warmed engines (both have served the
    # five cases once by now, so caches are in the same state).
    plain_floor = _min_runtime(
        lambda: plain.diagnose_batch(PAPER_DIAGNOSTIC_CASES))
    robust_floor = _min_runtime(
        lambda: robust.diagnose_batch(PAPER_DIAGNOSTIC_CASES))
    budget = plain_floor * (1.0 + OVERHEAD_BUDGET) + ABSOLUTE_SLACK_S

    print()
    print("Robust serving overhead on the Table VI kernel:")
    print(f"  plain  DiagnosisEngine        min of {ROUNDS}: {plain_floor:.6f}s")
    print(f"  RobustDiagnosisEngine         min of {ROUNDS}: {robust_floor:.6f}s")
    print(f"  overhead: {(robust_floor / plain_floor - 1.0) * 100.0:+.2f}% "
          f"(budget {OVERHEAD_BUDGET * 100.0:.0f}% + {ABSOLUTE_SLACK_S * 1e3:.0f}ms)")

    assert robust_floor <= budget, (
        f"robustness wrapper overhead {robust_floor:.6f}s exceeds budget "
        f"{budget:.6f}s ({plain_floor:.6f}s plain)")
