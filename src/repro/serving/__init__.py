"""Supervised parallel diagnosis serving.

The public surface is :class:`DiagnosisService` (a worker-pool front end
for ``diagnose_batch`` with crash isolation, deadlines, backpressure and
circuit breaking), its :class:`ServiceConfig`, and the
:class:`ServiceStats` health snapshot.
"""

from repro.serving.breaker import CircuitBreaker
from repro.serving.service import DiagnosisService, ServiceConfig, ServiceFuture
from repro.serving.stats import LatencyWindow, ServiceStats
from repro.serving.worker import WorkerPayload, worker_main

__all__ = [
    "CircuitBreaker",
    "DiagnosisService",
    "LatencyWindow",
    "ServiceConfig",
    "ServiceFuture",
    "ServiceStats",
    "WorkerPayload",
    "worker_main",
]
