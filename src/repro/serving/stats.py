"""Service observability: latency percentiles and the health snapshot.

Degradation must be observable, not silent: every supervisor decision
(respawn, retry, shed, quarantine) increments a counter, chunk latencies
feed a bounded reservoir, and :meth:`DiagnosisService.stats
<repro.serving.service.DiagnosisService.stats>` freezes the whole picture
into one immutable :class:`ServiceStats` a dashboard or log line can
consume as JSON.
"""

from __future__ import annotations

import dataclasses
from collections import deque


class LatencyWindow:
    """A bounded reservoir of recent latencies with percentile reads.

    Keeps the newest ``maxlen`` samples (enough for stable p50/p99 on a
    serving window) in O(1) per record; percentile reads sort a copy, which
    is fine at snapshot frequency.
    """

    def __init__(self, maxlen: int = 2048) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float | None:
        """Return the ``q``-th percentile (0..100), ``None`` when empty."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        position = (q / 100.0) * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclasses.dataclass(frozen=True)
class ServiceStats:
    """A consistent point-in-time snapshot of service health.

    Attributes
    ----------
    workers:
        Configured pool size.
    workers_alive:
        Workers with a live process (busy, idle, quarantined or probing).
    workers_quarantined:
        Workers currently held out of dispatch by their circuit breaker.
    queue_depth:
        Cases submitted but not yet dispatched to a worker.
    in_flight:
        Cases currently executing on workers.
    submitted / completed / failed:
        Lifetime case counters; ``failed`` counts structured
        ``DiagnosisFailure`` slots (including crash-retry exhaustion and
        deadline expiries), never lost slots.
    shed:
        Submissions rejected by the backpressure policy (whole requests).
    chunk_retries:
        Chunks re-queued after a worker crash or hang.
    respawns:
        Worker processes restarted by the supervisor.
    probes:
        Reinstatement probes sent to quarantined workers.
    chunk_latency_p50 / chunk_latency_p99:
        Percentiles over recent chunk wall times in seconds (``None``
        before any chunk completed).
    uptime:
        Seconds since the service started.
    model_reloads:
        Hot model swaps workers performed after a registry publish.
    """

    workers: int
    workers_alive: int
    workers_quarantined: int
    queue_depth: int
    in_flight: int
    submitted: int
    completed: int
    failed: int
    shed: int
    chunk_retries: int
    respawns: int
    probes: int
    chunk_latency_p50: float | None
    chunk_latency_p99: float | None
    uptime: float
    model_reloads: int = 0

    def to_dict(self) -> dict:
        """Return a JSON-safe dict of the snapshot."""
        return dataclasses.asdict(self)
