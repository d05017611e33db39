"""Supervised parallel diagnosis service over a multiprocessing worker pool.

:class:`DiagnosisService` shards ``diagnose_batch`` workloads into chunks
(:func:`~repro.core.diagnosis.chunk_slices`) and runs them on a pool of
worker processes, each hosting its own
:class:`~repro.core.diagnosis.DiagnosisEngine` under the service's
:class:`~repro.core.diagnosis.FallbackPolicy`, which answers a chunk in one
sweep and replies with planes.  The supervisor thread owns every
robustness guarantee the pool needs to survive real traffic:

* **Crash isolation** — a worker death (segfault, OOM-kill, injected
  ``SIGKILL``) is detected through its process sentinel; only its in-flight
  chunk is lost.  A lost multi-case chunk is requeued as single-case
  chunks, so one poisonous case is isolated after one crash instead of
  failing its neighbours; its chunk is retried on a healthy worker until
  the retry budget is spent, at which point its slot gets a structured
  :class:`~repro.core.diagnosis.DiagnosisFailure` (``WorkerCrashError``).
* **Bounded respawn** — dead workers are restarted up to
  ``max_respawns_per_worker`` times; a slot that keeps dying goes dark
  instead of crash-looping, and if the whole pool dies every outstanding
  case is failed structurally — submitted work is never stranded.
* **Deadlines: stage checks plus reaping** — a per-request ``deadline``
  flows from :meth:`DiagnosisService.submit` into each chunk's dispatch
  budget, which the worker's diagnosis pipeline checks at its stage
  boundaries; queued chunks whose request expired fail fast without ever
  occupying a worker.  Nothing in a worker is interrupted: the hard bound
  is reaping a worker still busy at its budget plus ``deadline_grace``,
  which stops the work with the process.
* **Backpressure** — the submission queue is bounded
  (``max_pending_cases``).  ``overload_policy="reject"`` sheds load
  immediately with :class:`~repro.exceptions.ServiceOverloadedError`;
  ``"block"`` waits up to ``submit_timeout`` for capacity before shedding.
* **Circuit breaking** — each worker slot carries a
  :class:`~repro.serving.breaker.CircuitBreaker`; repeated crashes/hangs
  quarantine the slot, a cheap probe reinstates it, and probe failures back
  off exponentially.
* **Graceful drain** — ``shutdown(drain=True)`` stops intake, finishes
  every queued and in-flight chunk, then stops the workers;
  ``drain=False`` fails outstanding slots structurally and kills the pool.
  Either way every submitted case's future completes.

Health is a first-class output: :meth:`DiagnosisService.stats` returns a
:class:`~repro.serving.stats.ServiceStats` snapshot (queue depth,
in-flight, workers alive/quarantined, retries, shed requests, chunk
latency percentiles) so degradation is observable, not silent.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from collections.abc import Mapping, Sequence
from multiprocessing import connection as mp_connection

from repro.core.diagnosis import (
    Diagnosis,
    DiagnosisFailure,
    DiagnosticCase,
    FallbackPolicy,
    chunk_slices,
)
from repro.core.model_builder import BuiltModel
from repro.exceptions import (
    DeadlineExceededError,
    DiagnosisError,
    ServiceOverloadedError,
    ServiceShutdownError,
    ServingError,
    WorkerCrashError,
)
from repro.serving.breaker import CircuitBreaker
from repro.serving.stats import LatencyWindow, ServiceStats
from repro.serving.worker import WorkerPayload, worker_main

#: Load-shedding policies for a full submission queue.
OVERLOAD_POLICIES = ("reject", "block")


def _default_workers() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the diagnosis service.

    Attributes
    ----------
    num_workers:
        Worker processes in the pool; defaults to the CPUs this process
        may run on.
    chunk_size:
        The most cases one chunk holds (see ``chunk_slices``).  Larger
        chunks amortise the sweep's fixed cost; smaller ones bound
        head-of-line blocking and spread a request over more workers.
    max_pending_cases:
        Bound on cases submitted but not yet dispatched — the backpressure
        valve.
    overload_policy:
        ``"reject"`` (shed immediately) or ``"block"`` (wait up to
        ``submit_timeout`` for queue capacity, then shed).
    submit_timeout:
        Blocking-submit patience in seconds.
    chunk_timeout:
        Absolute per-chunk wall limit for hang detection; a worker past it
        is killed and its chunk retried.  ``None`` disables (deadline-less
        requests then have no hang reaping).
    deadline_grace:
        Extra seconds past a request's remaining budget before an
        in-flight chunk's worker is reaped (lets the worker return its
        structured per-case deadline failures itself in the common case).
    max_chunk_retries:
        Crash/hang retries for a single-case chunk before its slot fails
        structurally.  (A lost multi-case chunk is split into single-case
        chunks, which does not consume this budget.)
    max_respawns_per_worker:
        Lifetime process restarts per worker slot before it goes dark.
    breaker_threshold / breaker_cooldown / breaker_max_cooldown:
        Circuit-breaker settings per worker slot (consecutive failures to
        quarantine; probe cooldown, with exponential backoff cap).
    probe_timeout:
        Seconds a reinstatement probe may take before the slot is killed
        and re-quarantined.
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); ``None`` picks ``fork`` where available (fast,
        engine inherited) falling back to ``spawn``.
    chaos:
        Testing-only: a :class:`~repro.testing.chaos.WorkerChaos` applied
        to every worker, or a mapping ``{worker_index: WorkerChaos}``.
    """

    num_workers: int | None = None
    chunk_size: int = 256
    max_pending_cases: int = 10_000
    overload_policy: str = "block"
    submit_timeout: float = 30.0
    chunk_timeout: float | None = 60.0
    deadline_grace: float = 0.5
    max_chunk_retries: int = 3
    max_respawns_per_worker: int = 8
    breaker_threshold: int = 3
    breaker_cooldown: float = 0.5
    breaker_max_cooldown: float = 30.0
    probe_timeout: float = 10.0
    start_method: str | None = None
    chaos: object | None = None

    def __post_init__(self) -> None:
        if self.num_workers is not None and self.num_workers < 1:
            raise ServingError(
                f"num_workers must be >= 1, got {self.num_workers}")
        if self.chunk_size < 1:
            raise ServingError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_pending_cases < 1:
            raise ServingError(
                f"max_pending_cases must be >= 1, got {self.max_pending_cases}")
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ServingError(
                f"unknown overload_policy {self.overload_policy!r}; "
                f"use one of {OVERLOAD_POLICIES}")
        if self.submit_timeout < 0:
            raise ServingError(
                f"submit_timeout must be >= 0, got {self.submit_timeout}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ServingError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}")
        if self.deadline_grace < 0:
            raise ServingError(
                f"deadline_grace must be >= 0, got {self.deadline_grace}")
        if self.max_chunk_retries < 0:
            raise ServingError(
                f"max_chunk_retries must be >= 0, got {self.max_chunk_retries}")
        if self.max_respawns_per_worker < 0:
            raise ServingError(
                "max_respawns_per_worker must be >= 0, got "
                f"{self.max_respawns_per_worker}")

    def resolved_workers(self) -> int:
        return self.num_workers or _default_workers()

    def chaos_for(self, index: int):
        if self.chaos is None:
            return None
        if isinstance(self.chaos, Mapping):
            return self.chaos.get(index)
        return self.chaos


class ServiceFuture:
    """Completion handle for one submitted batch.

    ``result()`` always returns one ``Diagnosis | DiagnosisFailure`` per
    submitted slot, in submission order — service-level problems (crash
    budget spent, deadline expiry, forced shutdown) appear as structured
    failures in their slots, never as lost entries.
    """

    def __init__(self, size: int) -> None:
        self._event = threading.Event()
        self._results: list[Diagnosis | DiagnosisFailure] | None = None
        self.size = size

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None,
               ) -> list[Diagnosis | DiagnosisFailure]:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"batch of {self.size} case(s) not complete after {timeout}s")
        return self._results  # type: ignore[return-value]

    def _complete(self, results: list) -> None:
        self._results = results
        self._event.set()


class _Request:
    """One submitted batch: slot accounting + its future."""

    __slots__ = ("results", "remaining", "deadline_end", "future")

    def __init__(self, size: int, deadline_end: float | None) -> None:
        self.results: list = [None] * size
        self.remaining = size
        self.deadline_end = deadline_end
        self.future = ServiceFuture(size)


class _Chunk:
    """A dispatchable shard of a request."""

    __slots__ = ("chunk_id", "request", "pairs", "attempts")

    def __init__(self, chunk_id: int, request: _Request,
                 pairs: list[tuple[int, DiagnosticCase]],
                 attempts: int = 0) -> None:
        self.chunk_id = chunk_id
        self.request = request
        self.pairs = pairs
        self.attempts = attempts


class _Worker:
    """Supervisor-side handle of one worker slot."""

    __slots__ = ("index", "generation", "process", "conn", "state", "chunk",
                 "reap_at", "probe_id", "probe_deadline", "breaker",
                 "respawns")

    def __init__(self, index: int, breaker: CircuitBreaker) -> None:
        self.index = index
        self.generation = 0
        self.process = None
        self.conn = None
        self.state = "starting"  # starting | idle | busy | probing | dead
        self.chunk: _Chunk | None = None
        self.reap_at: float | None = None
        self.probe_id: int | None = None
        self.probe_deadline: float | None = None
        self.breaker = breaker
        self.respawns = 0

    @property
    def alive(self) -> bool:
        return self.state != "dead"


class DiagnosisService:
    """Parallel, supervised ``diagnose_batch`` over a worker pool.

    Parameters
    ----------
    built_model:
        The :class:`~repro.core.model_builder.BuiltModel` every worker's
        engine is built from (pickled to workers under ``spawn``).
    policy:
        The :class:`~repro.core.diagnosis.FallbackPolicy` of every worker's
        :class:`~repro.core.diagnosis.DiagnosisEngine`; ``None`` is
        ``FallbackPolicy()``, the ``ve -> lw -> gibbs`` chain.
    config:
        The :class:`ServiceConfig`.
    abnormal_threshold / ambiguous_threshold:
        Candidate-deduction thresholds, as on
        :class:`~repro.core.diagnosis.DiagnosisEngine`.
    persist_dir:
        Optional home of the :class:`~repro.persist.ModelRegistry`, under
        ``<persist_dir>/models``.  When set, every worker watches the
        registry — a :meth:`publish_model` call hot-swaps every worker's
        engine between chunks, no restart — and a published registry
        model takes precedence over ``built_model``.
    reload_poll_interval:
        Seconds between a worker's registry version-stamp polls.

    Use as a context manager for deterministic drain-and-stop::

        with DiagnosisService(built, config=ServiceConfig(num_workers=4)) as svc:
            results = svc.diagnose_batch(cases, deadline=30.0)
    """

    def __init__(self, built_model: BuiltModel,
                 policy: FallbackPolicy | None = None,
                 config: ServiceConfig | None = None, *,
                 abnormal_threshold: float = 0.5,
                 ambiguous_threshold: float = 0.4,
                 persist_dir: str | os.PathLike | None = None,
                 reload_poll_interval: float = 0.5) -> None:
        self.built_model = built_model
        self.model = built_model.description
        self.policy = policy or FallbackPolicy()
        self.config = config or ServiceConfig()
        self._abnormal = abnormal_threshold
        self._ambiguous = ambiguous_threshold
        self.persist_dir = None if persist_dir is None else str(persist_dir)
        self._reload_poll_interval = float(reload_poll_interval)

        method = self.config.start_method
        if method is None:
            method = "fork" \
                if "fork" in multiprocessing.get_all_start_methods() \
                else "spawn"
        self._ctx = multiprocessing.get_context(method)

        self._lock = threading.Lock()
        self._capacity = threading.Condition(self._lock)
        self._queue: deque[_Chunk] = deque()
        self._pending_cases = 0
        self._in_flight_cases = 0
        self._deadline_requests = 0
        self._chunk_ids = itertools.count(1)
        self._probe_ids = itertools.count(1)

        self._workers: list[_Worker] = []
        self._started = False
        self._draining = False
        self._abort = False
        self._stopped = False
        self._pool_dead = False

        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._retries = 0
        self._respawns = 0
        self._probes = 0
        self._latency = LatencyWindow()
        self._model_reloads = 0
        self._start_time = time.monotonic()

        self._wakeup_r, self._wakeup_w = os.pipe()
        os.set_blocking(self._wakeup_w, False)
        self._supervisor = threading.Thread(
            target=self._supervise, name="diagnosis-supervisor", daemon=True)
        self.start()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the pool and the supervisor thread (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.config.resolved_workers()):
                worker = _Worker(index, CircuitBreaker(
                    self.config.breaker_threshold,
                    self.config.breaker_cooldown,
                    self.config.breaker_max_cooldown))
                self._spawn_process(worker)
                self._workers.append(worker)
        self._supervisor.start()

    def __enter__(self) -> "DiagnosisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=exc_info[0] is None)

    def _spawn_process(self, worker: _Worker) -> None:
        """(Re)start the process behind a worker slot.  Caller holds lock."""
        payload = WorkerPayload(
            built_model=self.built_model, policy=self.policy,
            abnormal_threshold=self._abnormal,
            ambiguous_threshold=self._ambiguous,
            worker_index=worker.index, generation=worker.generation,
            chaos=self.config.chaos_for(worker.index),
            persist_dir=self.persist_dir,
            reload_poll_interval=self._reload_poll_interval)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(child_conn, payload), daemon=True,
            name=f"diagnosis-worker-{worker.index}.{worker.generation}")
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.state = "starting"
        worker.chunk = None
        worker.reap_at = None
        worker.probe_id = None
        worker.probe_deadline = None

    # ---------------------------------------------------------------- intake
    def submit(self, cases: Sequence[DiagnosticCase | Mapping[str, str]],
               names: Sequence[str] | None = None,
               deadline: float | None = None) -> ServiceFuture:
        """Queue a batch for diagnosis; returns a :class:`ServiceFuture`.

        ``cases`` may mix :class:`~repro.core.diagnosis.DiagnosticCase`
        instances and raw evidence mappings (named via ``names`` /
        ``case-<i>``).  ``deadline`` is a wall-clock budget in seconds for
        the whole request; it propagates into every attempt made on its
        behalf.  Raises :class:`~repro.exceptions.ServiceOverloadedError`
        under backpressure shedding and
        :class:`~repro.exceptions.ServiceShutdownError` once draining or
        stopped.
        """
        if deadline is not None and deadline <= 0:
            raise DiagnosisError(
                f"deadline must be positive, got {deadline}")
        normalized = self._normalize(cases, names)
        with self._capacity:
            self._check_intake_open()
            if normalized and not self._reserve_capacity(len(normalized)):
                self._shed += 1
                raise ServiceOverloadedError(
                    f"submission of {len(normalized)} case(s) shed: "
                    f"{self._pending_cases} case(s) already pending against "
                    f"a bound of {self.config.max_pending_cases}",
                    pending=self._pending_cases,
                    limit=self.config.max_pending_cases)
            deadline_end = None if deadline is None \
                else time.monotonic() + deadline
            request = _Request(len(normalized), deadline_end)
            if not normalized:
                request.future._complete([])
                return request.future
            if deadline_end is not None:
                self._deadline_requests += 1
            for piece in chunk_slices(len(normalized),
                                      self.config.chunk_size):
                pairs = [(slot, normalized[slot])
                         for slot in range(piece.start, piece.stop)]
                self._queue.append(_Chunk(next(self._chunk_ids), request,
                                          pairs))
            self._pending_cases += len(normalized)
            self._submitted += len(normalized)
        self._wake()
        return request.future

    def diagnose_batch(self, cases: Sequence[DiagnosticCase | Mapping[str, str]],
                       names: Sequence[str] | None = None,
                       deadline: float | None = None,
                       timeout: float | None = None,
                       ) -> list[Diagnosis | DiagnosisFailure]:
        """Submit and wait: the synchronous batch entry point.

        Always runs with ``collect`` semantics — every slot returns a
        :class:`~repro.core.diagnosis.Diagnosis` or a structured
        :class:`~repro.core.diagnosis.DiagnosisFailure`.
        """
        return self.submit(cases, names=names,
                           deadline=deadline).result(timeout)

    def _normalize(self, cases, names) -> list[DiagnosticCase]:
        """Name every slot as a :class:`DiagnosticCase` for the workers.

        A raw mapping rides untouched as a one-section case, so the worker's
        codec reads exactly what the caller sent.
        """
        cases = list(cases)
        if names is not None and len(names) != len(cases):
            raise DiagnosisError(
                f"got {len(names)} names for {len(cases)} cases")
        return [case if isinstance(case, DiagnosticCase) else DiagnosticCase(
                    name=names[index] if names is not None
                    else f"case-{index}",
                    controllable_states={}, observable_states=dict(case))
                for index, case in enumerate(cases)]

    def _check_intake_open(self) -> None:
        if self._draining or self._stopped:
            raise ServiceShutdownError(
                "the diagnosis service is shutting down")
        if self._pool_dead:
            raise ServingError(
                "every worker slot is dead (respawn budgets exhausted); "
                "the service cannot accept work")

    def _reserve_capacity(self, count: int) -> bool:
        """Backpressure valve.  Caller holds the lock; True when admitted."""
        limit = self.config.max_pending_cases
        if self._pending_cases + count <= limit:
            return True
        if self.config.overload_policy == "reject":
            return False
        patience_end = time.monotonic() + self.config.submit_timeout
        while self._pending_cases + count > limit:
            remaining = patience_end - time.monotonic()
            if remaining <= 0:
                return False
            self._capacity.wait(remaining)
            self._check_intake_open()
        return True

    # ------------------------------------------------------------ monitoring
    def stats(self) -> ServiceStats:
        """Return a consistent :class:`ServiceStats` snapshot."""
        with self._lock:
            return ServiceStats(
                workers=len(self._workers),
                workers_alive=sum(1 for w in self._workers if w.alive),
                workers_quarantined=sum(
                    1 for w in self._workers
                    if w.alive and w.breaker.quarantined),
                queue_depth=self._pending_cases,
                in_flight=self._in_flight_cases,
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                shed=self._shed,
                chunk_retries=self._retries,
                respawns=self._respawns,
                probes=self._probes,
                chunk_latency_p50=self._latency.percentile(50.0),
                chunk_latency_p99=self._latency.percentile(99.0),
                uptime=time.monotonic() - self._start_time,
                model_reloads=self._model_reloads)

    def publish_model(self, built_model: BuiltModel, *,
                      validate: bool = True) -> int:
        """Publish a model to this service's registry; returns its version.

        Requires ``persist_dir``.  The publish runs the full validation
        gate (:class:`~repro.persist.ModelRegistry`); once the version
        stamp flips, every worker hot-swaps at its next between-chunk poll
        — in-flight chunks finish on the old model, no case is dropped.
        """
        if self.persist_dir is None:
            raise ServingError(
                "publish_model requires the service to be constructed "
                "with persist_dir=...")
        from pathlib import Path

        from repro.persist import ModelRegistry
        with ModelRegistry(Path(self.persist_dir) / "models") as registry:
            return registry.publish(built_model, validate=validate)

    # -------------------------------------------------------------- shutdown
    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop the service.

        ``drain=True`` finishes every queued and in-flight case first;
        ``drain=False`` fails outstanding slots with structured
        ``ServiceShutdownError`` failures and kills the pool.  Every
        submitted case's future completes either way.
        """
        with self._capacity:
            if self._stopped and not self._supervisor.is_alive():
                return
            self._draining = True
            if not drain:
                self._abort = True
            self._capacity.notify_all()
        self._wake()
        self._supervisor.join(timeout)

    def _wake(self) -> None:
        try:
            os.write(self._wakeup_w, b"x")
        except (BlockingIOError, OSError):
            pass

    # ------------------------------------------------------------ supervisor
    def _supervise(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                if self._abort:
                    self._fail_outstanding("service shut down before "
                                           "completion (drain=False)")
                self._expire_queued(now)
                self._dispatch(now)
                self._send_probes(now)
                if self._finished():
                    break
                waiters, conn_map, sentinel_map = self._build_waiters()
                timeout = self._next_timeout(now)
            ready = mp_connection.wait(waiters, timeout)
            with self._lock:
                now = time.monotonic()
                if self._wakeup_r in ready:
                    self._drain_wakeup()
                for item in ready:
                    worker = conn_map.get(id(item))
                    if worker is not None and worker.conn is item:
                        self._drain_conn(worker, now)
                for item in ready:
                    worker = sentinel_map.get(item)
                    if worker is not None and worker.alive \
                            and worker.process is not None \
                            and worker.process.sentinel == item \
                            and not worker.process.is_alive():
                        self._on_worker_death(worker, "crashed", now)
                self._reap_overdue(now)
        self._stop_workers()

    def _build_waiters(self):
        waiters: list = [self._wakeup_r]
        conn_map: dict[int, _Worker] = {}
        sentinel_map: dict = {}
        for worker in self._workers:
            if not worker.alive or worker.process is None:
                continue
            waiters.append(worker.conn)
            conn_map[id(worker.conn)] = worker
            waiters.append(worker.process.sentinel)
            sentinel_map[worker.process.sentinel] = worker
        return waiters, conn_map, sentinel_map

    def _drain_wakeup(self) -> None:
        try:
            os.set_blocking(self._wakeup_r, False)
            while os.read(self._wakeup_r, 4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _next_timeout(self, now: float) -> float | None:
        deadlines = []
        for worker in self._workers:
            if worker.state == "busy" and worker.reap_at is not None:
                deadlines.append(worker.reap_at)
            if worker.state == "probing" \
                    and worker.probe_deadline is not None:
                deadlines.append(worker.probe_deadline)
            if worker.alive:
                transition = worker.breaker.next_transition()
                if transition is not None:
                    deadlines.append(transition)
        if self._deadline_requests:
            for chunk in self._queue:
                if chunk.request.deadline_end is not None:
                    deadlines.append(chunk.request.deadline_end)
        if self._draining and not deadlines:
            return 0.1
        if not deadlines:
            return None
        return max(0.005, min(deadlines) - now)

    def _finished(self) -> bool:
        if not self._draining:
            return False
        busy = any(worker.state in ("busy", "probing")
                   for worker in self._workers)
        return not self._queue and not busy

    # ---------------------------------------------------------- worker events
    def _drain_conn(self, worker: _Worker, now: float) -> None:
        # A message can retire or respawn the worker (a "fatal" one does),
        # which closes or replaces this connection: stop draining then.
        conn = worker.conn
        try:
            while worker.conn is conn and conn.poll():
                self._handle_message(worker, conn.recv(), now)
        except (EOFError, OSError):
            self._on_worker_death(worker, "pipe closed", now)

    def _handle_message(self, worker: _Worker, message, now: float) -> None:
        kind = message[0]
        if kind == "ready":
            if worker.state == "starting":
                worker.state = "idle"
            self._dispatch(now)
        elif kind == "done":
            self._complete_chunk(worker, message, now)
        elif kind == "probe-ok":
            if worker.state == "probing" and worker.probe_id == message[1]:
                worker.breaker.record_success()
                worker.state = "idle"
                worker.probe_id = None
                worker.probe_deadline = None
                self._dispatch(now)
        elif kind == "fatal":
            self._on_worker_death(worker, f"engine build failed:\n{message[1]}",
                                  now)

    def _complete_chunk(self, worker: _Worker, message, now: float) -> None:
        _, chunk_id, reply, elapsed, reloads = message
        chunk = worker.chunk
        if chunk is None or chunk.chunk_id != chunk_id:
            return  # stale (should not happen: one pipe per process)
        worker.chunk = None
        worker.reap_at = None
        worker.state = "idle"
        worker.breaker.record_success()
        self._latency.record(elapsed)
        self._model_reloads += reloads
        self._in_flight_cases -= len(chunk.pairs)
        # Dispatch first: the worker's next sweep overlaps this decode.
        self._dispatch(now)
        for slot, result in _views(reply):
            self._write_slot(chunk.request, slot, result)

    def _on_worker_death(self, worker: _Worker, reason: str,
                         now: float) -> None:
        if not worker.alive or worker.process is None:
            return
        # Salvage anything the worker managed to send before dying.
        try:
            while worker.conn.poll():
                message = worker.conn.recv()
                if message[0] == "done":
                    self._complete_chunk(worker, message, now)
        except (EOFError, OSError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        process = worker.process
        if process.is_alive():
            process.kill()
        process.join(5.0)
        worker.breaker.record_failure(now)
        chunk = worker.chunk
        worker.chunk = None
        worker.reap_at = None
        worker.probe_id = None
        worker.probe_deadline = None
        if chunk is not None:
            self._in_flight_cases -= len(chunk.pairs)
            self._requeue_crashed(chunk, reason, worker.index)
        if worker.respawns < self.config.max_respawns_per_worker:
            worker.respawns += 1
            worker.generation += 1
            self._respawns += 1
            self._spawn_process(worker)
        else:
            worker.state = "dead"
            worker.process = None
            worker.conn = None
            if not any(w.alive for w in self._workers):
                self._pool_dead = True
                self._fail_outstanding(
                    "every worker slot is dead (respawn budgets exhausted)")
        self._dispatch(now)

    def _requeue_crashed(self, chunk: _Chunk, reason: str,
                         worker_index: int) -> None:
        """Crash-retry policy: split multi-case chunks into singles, budget
        singles; a poison case costs ``max_chunk_retries + 2`` crashes."""
        self._retries += 1
        request = chunk.request
        if request.deadline_end is not None \
                and time.monotonic() >= request.deadline_end:
            self._fail_chunk(chunk, DeadlineExceededError(
                "request deadline expired while retrying a chunk lost to a "
                f"worker failure ({reason})"))
            return
        if len(chunk.pairs) > 1:
            self._queue.extendleft(
                _Chunk(next(self._chunk_ids), request, [pair], chunk.attempts)
                for pair in reversed(chunk.pairs))
            self._pending_cases += len(chunk.pairs)
            return
        if chunk.attempts >= self.config.max_chunk_retries:
            self._fail_chunk(chunk, WorkerCrashError(
                f"case lost to worker {worker_index} ({reason}) and retry "
                f"budget of {self.config.max_chunk_retries} is spent",
                attempts=chunk.attempts + 1))
            return
        chunk.attempts += 1
        self._queue.appendleft(chunk)
        self._pending_cases += len(chunk.pairs)

    def _reap_overdue(self, now: float) -> None:
        for worker in self._workers:
            if worker.state == "busy" and worker.reap_at is not None \
                    and now >= worker.reap_at:
                self._on_worker_death(worker, "hang (chunk overdue)", now)
            elif worker.state == "probing" \
                    and worker.probe_deadline is not None \
                    and now >= worker.probe_deadline:
                self._on_worker_death(worker, "probe timeout", now)

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, now: float) -> None:
        while self._queue:
            worker = next(
                (w for w in self._workers
                 if w.state == "idle" and w.breaker.allows_dispatch()),
                None)
            if worker is None:
                return
            chunk = self._queue.popleft()
            request = chunk.request
            budget = None
            if request.deadline_end is not None:
                budget = request.deadline_end - now
                if budget <= 0:
                    self._pending_cases -= len(chunk.pairs)
                    self._capacity.notify_all()
                    self._fail_chunk(chunk, DeadlineExceededError(
                        "request deadline expired before the case reached "
                        "a worker", remaining=budget), queued=False)
                    continue
            try:
                worker.conn.send(("chunk", chunk.chunk_id, chunk.pairs,
                                  budget))
            except (OSError, BrokenPipeError, ValueError):
                self._queue.appendleft(chunk)
                self._on_worker_death(worker, "pipe broken at dispatch", now)
                continue
            worker.state = "busy"
            worker.chunk = chunk
            deadlines = []
            if self.config.chunk_timeout is not None:
                deadlines.append(self.config.chunk_timeout)
            if budget is not None:
                deadlines.append(budget + self.config.deadline_grace)
            worker.reap_at = now + min(deadlines) if deadlines else None
            self._pending_cases -= len(chunk.pairs)
            self._in_flight_cases += len(chunk.pairs)
            self._capacity.notify_all()

    def _send_probes(self, now: float) -> None:
        for worker in self._workers:
            if worker.state == "idle" and worker.breaker.probe_due(now):
                worker.probe_id = next(self._probe_ids)
                try:
                    worker.conn.send(("probe", worker.probe_id))
                except (OSError, BrokenPipeError, ValueError):
                    self._on_worker_death(worker, "pipe broken at probe", now)
                    continue
                worker.breaker.begin_probe()
                worker.state = "probing"
                worker.probe_deadline = now + self.config.probe_timeout
                self._probes += 1

    def _expire_queued(self, now: float) -> None:
        if not self._deadline_requests:
            return
        kept: deque[_Chunk] = deque()
        expired: list[_Chunk] = []
        for chunk in self._queue:
            end = chunk.request.deadline_end
            (expired if end is not None and now >= end else kept).append(chunk)
        if expired:
            self._queue = kept
            for chunk in expired:
                self._pending_cases -= len(chunk.pairs)
                self._fail_chunk(chunk, DeadlineExceededError(
                    "request deadline expired before the case reached a "
                    "worker"), queued=False)
            self._capacity.notify_all()

    # ------------------------------------------------------------ accounting
    def _write_slot(self, request: _Request, slot: int, result) -> None:
        if request.results[slot] is not None:
            return  # defensive: a slot is only ever written once
        request.results[slot] = result
        request.remaining -= 1
        if getattr(result, "ok", False):
            self._completed += 1
        else:
            self._failed += 1
        if request.remaining == 0:
            if request.deadline_end is not None:
                self._deadline_requests -= 1
            request.future._complete(request.results)

    def _fail_chunk(self, chunk: _Chunk, error: Exception,
                    queued: bool = True) -> None:
        for slot, case in chunk.pairs:
            self._write_slot(chunk.request, slot,
                             DiagnosisFailure.from_exception(
                                 case.name, case.raw_evidence(), error))

    def _fail_outstanding(self, message: str) -> None:
        """Fail every queued and in-flight slot structurally (abort path)."""
        error = ServiceShutdownError(message)
        while self._queue:
            chunk = self._queue.popleft()
            self._pending_cases -= len(chunk.pairs)
            self._fail_chunk(chunk, error)
        for worker in self._workers:
            if worker.state == "busy" and worker.chunk is not None:
                chunk = worker.chunk
                worker.chunk = None
                worker.state = "idle"
                worker.reap_at = None
                self._in_flight_cases -= len(chunk.pairs)
                self._fail_chunk(chunk, error)
        self._capacity.notify_all()

    def _stop_workers(self) -> None:
        with self._lock:
            self._stopped = True
            workers = list(self._workers)
        for worker in workers:
            if not worker.alive or worker.process is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for worker in workers:
            if not worker.alive or worker.process is None:
                continue
            worker.process.join(2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.state = "dead"
        for descriptor in (self._wakeup_r, self._wakeup_w):
            try:
                os.close(descriptor)
            except OSError:
                pass


def _views(reply) -> list:
    """A ``done`` reply as ``[(slot, result)]``: each answered slot a view
    of its row of the read-only matrix, in the worker's layout, owning its
    evidence dict and suspect list, and its provenance once read."""
    planes, results = reply
    if planes is None:
        return results
    layout, slots, names, evidence, matrix, orders, chosen, provenances, \
        which = planes
    matrix.flags.writeable = False
    internal = layout.internal
    for slot, name, admitted, row, order, mask, index in zip(
            slots, names, evidence, matrix, orders.tolist(), chosen.tolist(),
            which):
        results.append((slot, Diagnosis._of_row(
            layout, row, order, [internal[i] for i in order if mask[i]],
            name, admitted, provenances[index])))
    return results
