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
    ``("ready", pid)`` once the engine is built,
    ``("done", chunk_id, (planes, pairs), elapsed, reloads)`` per chunk
    (``reloads`` counts the hot model swaps since the last ``done``),
    ``("probe-ok", probe_id)`` per probe, and ``("fatal", message)`` if the
    engine cannot even be constructed.

A ``done`` carries the chunk's row views as ``planes`` (``None`` if it has
none): the worker's row layout once, then per answered slot its slot, name
and admitted evidence, its posterior row in one ``(rows, width)`` float64
matrix, its ranking order in one integer matrix, its suspects in one
``(rows, internal)`` boolean mask and an index into the distinct
provenances (tuples of field values).  The parent rebuilds each view with
``Diagnosis._of_row``.  Failures, and any result that is not a row view,
travel whole in ``pairs`` as ``(slot, result)``.

With a ``persist_dir``, each worker opens the model registry under it.
The registry is authoritative: when it holds a published model, the worker
serves that instead of the payload's, and between chunks it polls the
version stamp (throttled) — a bump hot-swaps a freshly built engine without
dropping the chunk stream.  An unreadable registry is logged and the
worker keeps serving the model it has.

Each chunk is one ``diagnose_batch(on_error="collect", deadline=...)``
call on the engine: one primary sweep for the chunk, the fallback chain
only for the slots it could not answer (see :mod:`repro.core.robust`).
The deadline is the request budget left since the chunk's receipt, checked
at the pipeline's stage boundaries; the supervisor reaps a worker still
busy at budget + ``deadline_grace``.  ``WorkerChaos.on_case`` runs for
every case before the call.

Every per-case failure is converted to a structured
:class:`~repro.core.diagnosis.DiagnosisFailure` *here*, so a chunk comes
back incomplete only if the process dies (the supervisor sees its sentinel).
"""

from __future__ import annotations

import dataclasses
import logging
import operator
import time
import traceback

import numpy as np

from repro.core.diagnosis import Diagnosis, DiagnosisProvenance
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
    """Worker-side handle on the model registry.

    Owns the worker's :class:`~repro.persist.ModelRegistry` and throttles
    the between-chunk version poll.
    """

    def __init__(self, persist_dir: str, poll_interval: float) -> None:
        from pathlib import Path

        from repro.persist import ModelRegistry
        self.registry = ModelRegistry(Path(persist_dir) / "models")
        self.poll_interval = max(float(poll_interval), 0.0)
        self.model_version = 0
        self._last_poll = float("-inf")

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
        return model


def _build_engine(payload: WorkerPayload,
                  model: BuiltModel) -> RobustDiagnosisEngine:
    return RobustDiagnosisEngine(
        model, payload.policy,
        abnormal_threshold=payload.abnormal_threshold,
        ambiguous_threshold=payload.ambiguous_threshold)


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
        engine = _build_engine(payload, model)
    except Exception:  # noqa: BLE001 - reported to the supervisor
        try:
            conn.send(("fatal", traceback.format_exc()))
        finally:
            conn.close()
        return

    chaos = payload.chaos
    chunk_number = 0
    try:
        conn.send(("ready", os.getpid()))
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
            reloads = 0
            if persist is not None:
                fresh = persist.poll_reload()
                if fresh is not None:
                    # Hot swap: a fresh engine drops every stale evidence
                    # cache with it.
                    engine = _build_engine(payload, fresh)
                    reloads = 1
            started = time.perf_counter()
            results = _run_chunk(engine, pairs, budget, chaos)
            elapsed = time.perf_counter() - started
            conn.send(("done", chunk_id, _planes(results), elapsed, reloads))
    except (EOFError, OSError, BrokenPipeError):
        pass
    finally:
        conn.close()


def _run_chunk(engine: RobustDiagnosisEngine, pairs, budget, chaos):
    """Diagnose every ``(slot, case)`` pair, never letting one escape.

    The chaos hooks run first, then the chunk is one collect-mode
    ``diagnose_batch`` under the request budget left since its receipt.
    """
    received = time.perf_counter()
    if chaos is not None:
        for _, case in pairs:
            chaos.on_case(case)
    deadline = None if budget is None \
        else budget - (time.perf_counter() - received)
    results = engine.diagnose_batch([case for _, case in pairs],
                                    on_error="collect", deadline=deadline)
    return [(slot, result) for (slot, _), result in zip(pairs, results)]


#: A provenance's field values in constructor order: its form in a reply.
_PROVENANCE_FIELDS = operator.attrgetter(
    *(field.name for field in dataclasses.fields(DiagnosisProvenance)))


def _planes(results):
    """A chunk's ``[(slot, result)]`` as ``(planes, pairs)`` (see above)."""
    layout, views, pairs = None, [], []
    for slot, result in results:
        own = vars(result).get("_layout") if type(result) is Diagnosis else None
        layout = layout or own
        (views if own is layout is not None else pairs).append((slot, result))
    if not views:
        return None, pairs
    position = {name: index for index, name in enumerate(layout.internal)}
    chosen = np.zeros((len(views), len(position)), dtype=bool)
    chosen.flat[[row * len(position) + position[name]
                 for row, (_, view) in enumerate(views)
                 for name in view.suspects]] = True
    distinct, which = {}, []
    for _, view in views:
        fields = view.provenance and _PROVENANCE_FIELDS(view.provenance)
        which.append(distinct.setdefault(fields, len(distinct)))
    return (layout, [slot for slot, _ in views],
            [view.case_name for _, view in views],
            [view.evidence for _, view in views],
            np.array([view._row for _, view in views]),
            np.array([view._order for _, view in views], dtype=np.intp),
            chosen, list(distinct), which), pairs
