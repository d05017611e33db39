"""The worker-process side of the diagnosis service: a sweep server.

The parent runs the diagnosis pipeline's admit and settle stages
(:mod:`repro.serving.service`); a worker runs only its sweep stage,
``DiagnosisEngine._sweep``, on the distinct admitted rows it is sent,
with its own engine under the service's
:class:`~repro.core.diagnosis.FallbackPolicy` (evidence caches, sampler
states and fallback engines are per process; the cache outlives requests).
Its message loop over a duplex pipe:

parent -> worker
    ``("sweep", chunk_id, version, rows, budget)`` — sweep ``rows``
    (evidence mappings admitted under model ``version``); ``budget`` is
    ``(seconds, left)``, the request's deadline and what was left of it at
    dispatch, or ``None``.  ``("probe", probe_id)`` — circuit-breaker
    reinstatement probe.  ``("stop",)`` — graceful exit.

worker -> parent
    ``("ready", pid)`` once the engine is built; per chunk
    ``("done", chunk_id, version, (matrix, outcomes, seconds), elapsed,
    reloads)``: the version the rows were swept under, the sweep stage's
    answer (their posterior matrix; the outcome of each row it did not
    answer cleanly, which is an effective sample size, the fallback
    chain's answer or the row's error with its attempt trail; the sweep's
    seconds), the chunk's wall time and the hot swaps since the last
    ``done``; ``("probe-ok", probe_id)`` per probe; ``("fatal", message)``
    if the engine cannot be built.

No case crosses the pipe either way.  A row the sweep could not answer
walks the fallback chain here, inside the supervisor's reaping boundary.
The budget's clock starts at the chunk's receipt.  ``WorkerChaos.on_chunk``
runs on each chunk's receipt and ``WorkerChaos.on_row`` on each of its
rows before the sweep.

With a ``persist_dir``, the registry's published model wins over the
payload's; between chunks the worker polls its version stamp (throttled,
but at once when a chunk names a newer version than its own), and a bump
hot-swaps a freshly built engine.  An unreadable registry is logged and
the worker keeps the model it has.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import traceback

from repro.core.diagnosis import Budget, DiagnosisEngine, FallbackPolicy
from repro.core.model_builder import BuiltModel


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
    worker_index: int = 0
    generation: int = 0
    chaos: object | None = None
    persist_dir: str | None = None
    reload_poll_interval: float = 0.5


class _PersistRuntime:
    """A worker's (or the service parent's) handle on the model registry.

    Owns a :class:`~repro.persist.ModelRegistry` and throttles the
    between-chunk version poll.
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

    def poll_reload(self, at_least: int = 0) -> BuiltModel | None:
        """Between-chunk version check; returns a new model on a bump.

        Throttled to ``poll_interval``, unless the version held is older
        than ``at_least`` (a chunk's admission version).  A corrupt or
        half-published registry is *not* a reason to stop serving: the
        worker keeps its current model and retries at the next poll.
        """
        from repro.exceptions import ModelRegistryError
        now = time.monotonic()
        if now - self._last_poll < self.poll_interval \
                and self.model_version >= at_least:
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
                  model: BuiltModel) -> DiagnosisEngine:
    return DiagnosisEngine(model, payload.policy)


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
            _, chunk_id, version, rows, budget = message
            received = time.perf_counter()
            chunk_number += 1
            if chaos is not None:
                chaos.on_chunk(chunk_number, payload.generation)
            reloads = 0
            if persist is not None:
                fresh = persist.poll_reload(at_least=version)
                if fresh is not None:
                    # Hot swap: a fresh engine drops every stale evidence
                    # cache with it.
                    engine = _build_engine(payload, fresh)
                    reloads = 1
            swept = _sweep_chunk(engine, rows, budget, chaos, received)
            conn.send(("done", chunk_id,
                       0 if persist is None else persist.model_version,
                       swept, time.perf_counter() - received, reloads))
    except (EOFError, OSError, BrokenPipeError):
        pass
    finally:
        conn.close()


def _sweep_chunk(engine: DiagnosisEngine, rows, budget, chaos,
                 received: float) -> tuple:
    """The sweep stage on one chunk's rows, the chaos row hook first;
    ``budget``'s clock runs from ``received``."""
    if chaos is not None:
        for row in rows:
            chaos.on_row(row)
    if budget is not None:
        seconds, left = budget
        budget = Budget(seconds, received - (seconds - left))
    return engine._sweep(rows, budget)
