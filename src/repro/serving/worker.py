"""The worker-process side of the diagnosis service.

Each worker hosts its own :class:`~repro.core.robust.RobustDiagnosisEngine`
(engines are deliberately not shared across processes: evidence caches,
sampler states and lazily built fallback engines are all per-process) and
runs a small message loop over a duplex pipe:

parent -> worker
    ``("chunk", chunk_id, [(slot, DiagnosticCase), ...], budget)`` — run a
    chunk; ``budget`` is the remaining request wall-clock budget in seconds
    at dispatch (``None`` for no deadline).
    ``("probe", probe_id)`` — circuit-breaker reinstatement probe.
    ``("stop",)`` — graceful exit.

worker -> parent
    ``("ready", pid, compile_ms)`` once the engine is built (and, for
    compiled policies, warm-compiled — the compile cost is reported here
    instead of silently inflating the first chunk's latency),
    ``("done", chunk_id, [(slot, Diagnosis | DiagnosisFailure), ...],
    elapsed, compiled_queries, persist_deltas)`` per chunk
    (``persist_deltas`` is a counter-delta dict — cache hits/misses,
    quarantined records, model reloads — or ``None`` without
    ``persist_dir``), ``("probe-ok", probe_id)`` per probe, and
    ``("fatal", message)`` if the engine cannot even be constructed.

With a ``persist_dir``, each worker opens the *shared* durable cache
(posteriors + compiled programs survive crashes and restarts) and the
model registry.  The registry is authoritative: when it holds a published
model, the worker serves that instead of the payload's, and between chunks
it polls the version stamp (throttled) — a bump hot-swaps a freshly built
engine without dropping the chunk stream.

A chunk without a request budget is one ``diagnose_batch(on_error=
"collect")`` call on the engine: one batched primary sweep for the chunk,
the fallback chain only for the slots it could not answer (see
:mod:`repro.core.robust`).  A budgeted chunk runs case by case, draining
the budget.  ``WorkerChaos.on_case`` runs for every case before its
diagnosis either way.

Every per-case failure inside a healthy worker is converted to a structured
:class:`~repro.core.diagnosis.DiagnosisFailure` *here*, so the only way a
chunk comes back incomplete is the process dying — exactly the condition
the supervisor detects via the process sentinel.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import traceback

from repro.core.diagnosis import Diagnosis, DiagnosisFailure, DiagnosticCase
from repro.core.model_builder import BuiltModel
from repro.core.robust import FallbackPolicy, RobustDiagnosisEngine


@dataclasses.dataclass(frozen=True)
class WorkerPayload:
    """Everything a worker process needs to build its engine.

    Picklable: shipped to the child under the ``spawn`` start method,
    inherited for free under ``fork``.  ``chaos`` is a
    :class:`~repro.testing.chaos.WorkerChaos` plan (testing only) and
    ``generation`` counts respawns of this worker slot, so chaos plans can
    disarm themselves after the first incarnation.
    """

    built_model: BuiltModel
    policy: FallbackPolicy
    abnormal_threshold: float = 0.5
    ambiguous_threshold: float = 0.4
    worker_index: int = 0
    generation: int = 0
    chaos: object | None = None
    persist_dir: str | None = None
    reload_poll_interval: float = 0.5


class _PersistRuntime:
    """Worker-side handle on the shared durable state.

    Owns the worker's :class:`~repro.persist.PosteriorCache` and
    :class:`~repro.persist.ModelRegistry` instances, throttles the
    between-chunk version poll, and accumulates counter totals across hot
    engine swaps so the supervisor receives clean per-chunk deltas.
    """

    def __init__(self, persist_dir: str, poll_interval: float) -> None:
        from pathlib import Path

        from repro.persist import ModelRegistry, PosteriorCache
        base = Path(persist_dir)
        self.cache = PosteriorCache(base / "cache")
        self.registry = ModelRegistry(base / "models")
        self.poll_interval = max(float(poll_interval), 0.0)
        self.model_version = 0
        self.reloads = 0
        self._last_poll = float("-inf")
        self._base_hits = 0
        self._base_misses = 0
        self._reported: dict[str, int] = {}

    def resolve_model(self, fallback: BuiltModel) -> BuiltModel:
        """The registry's published model wins over the shipped payload."""
        from repro.exceptions import ModelRegistryError
        try:
            version, model = self.registry.load()
        except ModelRegistryError:
            logging.getLogger("repro.serving").warning(
                "model registry unreadable; serving the payload model",
                exc_info=True)
            return fallback
        if model is None:
            return fallback
        self.model_version = version
        return model

    def poll_reload(self) -> BuiltModel | None:
        """Between-chunk version check; returns a new model on a bump.

        Throttled to ``poll_interval`` so the stamp read never shows up in
        chunk latency.  A corrupt or half-published registry is *not* a
        reason to stop serving: the worker keeps its current model and
        retries at the next poll.
        """
        from repro.exceptions import ModelRegistryError
        now = time.monotonic()
        if now - self._last_poll < self.poll_interval:
            return None
        self._last_poll = now
        try:
            version = self.registry.current_version()
            if version <= self.model_version:
                return None
            model = self.registry.load_version(version)
        except ModelRegistryError:
            logging.getLogger("repro.serving").warning(
                "model registry poll failed; keeping version %d",
                self.model_version, exc_info=True)
            return None
        self.model_version = version
        self.reloads += 1
        return model

    def note_engine_swap(self, old_engine: RobustDiagnosisEngine) -> None:
        """Fold a retired engine's counters into the running totals."""
        self._base_hits += old_engine.cache_hits
        self._base_misses += old_engine.cache_misses

    def deltas(self, engine: RobustDiagnosisEngine) -> dict[str, int]:
        """Counter movement since the last report (sent per chunk)."""
        totals = {
            "cache_hits": self._base_hits + engine.cache_hits,
            "cache_misses": self._base_misses + engine.cache_misses,
            "cache_quarantined": self.cache.quarantined,
            "model_reloads": self.reloads,
        }
        deltas = {key: value - self._reported.get(key, 0)
                  for key, value in totals.items()}
        self._reported = totals
        return deltas


def _build_engine(payload: WorkerPayload, model: BuiltModel,
                  persist: _PersistRuntime | None) -> RobustDiagnosisEngine:
    return RobustDiagnosisEngine(
        model, payload.policy,
        abnormal_threshold=payload.abnormal_threshold,
        ambiguous_threshold=payload.ambiguous_threshold,
        posterior_cache=None if persist is None else persist.cache)


def worker_main(conn, payload: WorkerPayload) -> None:
    """Run the worker message loop until ``stop`` or parent death."""
    import os

    try:
        persist = None
        if payload.persist_dir is not None:
            persist = _PersistRuntime(payload.persist_dir,
                                      payload.reload_poll_interval)
        model = payload.built_model if persist is None \
            else persist.resolve_model(payload.built_model)
        engine = _build_engine(payload, model, persist)
        compile_ms = 0.0
        if getattr(payload.policy, "compiled", False):
            # Pay the one-time program trace here, before the worker
            # reports ready, so the first chunk's latency is pure query
            # cost.  The cost is logged once per worker and reported to the
            # supervisor for the service-wide ``ServiceStats.compile_ms``
            # counter.
            compile_ms = engine.warm_compile()
            logging.getLogger("repro.serving").info(
                "worker %d compiled inference programs in %.1f ms",
                payload.worker_index, compile_ms)
    except Exception:  # noqa: BLE001 - reported to the supervisor
        try:
            conn.send(("fatal", traceback.format_exc()))
        finally:
            conn.close()
        return

    chaos = payload.chaos
    chunk_number = 0
    try:
        conn.send(("ready", os.getpid(), compile_ms))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone; die quietly
            kind = message[0]
            if kind == "stop":
                break
            if kind == "probe":
                conn.send(("probe-ok", message[1]))
                continue
            _, chunk_id, pairs, budget = message
            chunk_number += 1
            if chaos is not None:
                chaos.on_chunk(chunk_number, payload.generation)
            if persist is not None:
                fresh = persist.poll_reload()
                if fresh is not None:
                    # Hot swap: a fresh engine drops every stale evidence
                    # and program cache with it, and the new model's
                    # content fingerprint re-keys the durable cache.
                    persist.note_engine_swap(engine)
                    engine = _build_engine(payload, fresh, persist)
                    if getattr(payload.policy, "compiled", False):
                        engine.warm_compile()
            started = time.perf_counter()
            queries_before = engine.compiled_query_count
            results = _run_chunk(engine, pairs, budget, chaos)
            conn.send(("done", chunk_id, results,
                       time.perf_counter() - started,
                       engine.compiled_query_count - queries_before,
                       None if persist is None else persist.deltas(engine)))
    except (EOFError, OSError, BrokenPipeError):
        pass
    finally:
        conn.close()


def _run_chunk(engine: RobustDiagnosisEngine, pairs, budget, chaos):
    """Diagnose every ``(slot, case)`` pair, never letting one escape.

    A deadline-free chunk is one batched ``diagnose_batch``.  A budgeted
    chunk keeps the per-case loop, sharing the remaining request budget
    across its cases via the engine's draining-deadline closure, so a
    request deadline set at the service API bounds every attempt down in
    the fallback chain.
    """
    if budget is None:
        if chaos is not None:
            for _, case in pairs:
                chaos.on_case(case)
        results = engine.diagnose_batch([case for _, case in pairs],
                                        on_error="collect")
        return [(slot, result) for (slot, _), result in zip(pairs, results)]
    diagnose = engine._deadline_diagnose(budget)
    results = []
    for slot, case in pairs:
        if chaos is not None:
            chaos.on_case(case)
        results.append((slot, _diagnose_collect(diagnose, case)))
    return results


def _diagnose_collect(diagnose, case: DiagnosticCase,
                      ) -> Diagnosis | DiagnosisFailure:
    """Run one case, converting any failure into a structured record."""
    try:
        return diagnose(case)
    except Exception as error:  # noqa: BLE001 - structured transport
        return DiagnosisFailure.from_exception(
            case.name, case.raw_evidence(), error,
            attempts=tuple(getattr(error, "attempts", ()) or ()),
            wall_time=float(getattr(error, "wall_time", 0.0) or 0.0))
