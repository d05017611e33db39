"""Testing utilities for the repro stack.

:mod:`repro.testing.chaos` is the fault-injection harness used by the
robustness test suite to prove the serving layer's fallback chain and
partial-batch isolation under injected failures.
"""

from repro.testing.chaos import (
    ChaosError,
    FaultInjector,
    WorkerChaos,
    corrupt_cpd_table,
    flip_byte,
    is_poison_case,
    poison_case,
    truncate_tail,
    truncated_evidence,
)

__all__ = [
    "ChaosError",
    "FaultInjector",
    "WorkerChaos",
    "corrupt_cpd_table",
    "flip_byte",
    "is_poison_case",
    "poison_case",
    "truncate_tail",
    "truncated_evidence",
]
