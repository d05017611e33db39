"""Fallback-chain overhead — the default chain must be near-free when healthy.

Every diagnosis on the service path runs under the default
:class:`FallbackPolicy` (``ve -> lw -> gibbs``), so the cost of carrying a
fallback chain on the healthy path is pure overhead on the Table VI
kernel.  The timed kernel is the five diagnostic queries through a
:class:`DiagnosisEngine` on the default chain's healthy path; a paired
measurement against a chain of one (``DiagnosisEngine(built_model)``)
asserts the chain stays within the <5% budget (plus a millisecond of
absolute tolerance — the kernel is ~6 ms, so the timer's noise floor
matters).
"""

from __future__ import annotations

import time

from repro.core import DiagnosisEngine, FallbackPolicy
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES

#: Interleaved timing rounds per engine; min-of-rounds is the noise floor.
ROUNDS = 9
#: Relative overhead budget for the default chain's healthy path.
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
    robust = DiagnosisEngine(built_model, FallbackPolicy())
    plain = DiagnosisEngine(built_model)

    diagnoses = benchmark(robust.diagnose_batch, PAPER_DIAGNOSTIC_CASES)

    # The chain changes provenance, never answers: suspect-for-suspect
    # identical to a chain of one on the healthy path.
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
    print("Default-chain overhead on the Table VI kernel:")
    print(f"  chain of one  (ve)            min of {ROUNDS}: {plain_floor:.6f}s")
    print(f"  default chain (ve, lw, gibbs) min of {ROUNDS}: {robust_floor:.6f}s")
    print(f"  overhead: {(robust_floor / plain_floor - 1.0) * 100.0:+.2f}% "
          f"(budget {OVERHEAD_BUDGET * 100.0:.0f}% + {ABSOLUTE_SLACK_S * 1e3:.0f}ms)")

    assert robust_floor <= budget, (
        f"default-chain overhead {robust_floor:.6f}s exceeds budget "
        f"{budget:.6f}s ({plain_floor:.6f}s plain)")
