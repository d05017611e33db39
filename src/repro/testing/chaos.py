"""Fault injection for robustness testing.

Production failure modes — a transient engine crash, a stalled calibration,
a CPT corrupted by a bad parameter update, an ATE export that lost half its
columns — are hard to reproduce organically on a 19-node reference model.
:class:`FaultInjector` manufactures them deterministically so the test
suite can prove the serving layer degrades instead of dying:

* **raise-on-nth-call** — an injected exception on the nth (and optionally
  every following) call of any method, for transient- and permanent-fault
  scenarios;
* **artificial latency** — a sleep prepended to any method, for deadline /
  timeout scenarios;
* **perturbed results** — a transform applied to what any method returns,
  for silently-wrong-answer scenarios;
* **corrupted CPD** — NaN, negative or unnormalised entries written into a
  network's live CPT (with cache-invalidating replacement semantics, so
  engines cannot serve stale-but-clean cached posteriors);
* **truncated evidence** — a deterministic subset of an evidence mapping,
  for partial-datalog scenarios.

All injections made through one :class:`FaultInjector` are reverted on
context exit (or :meth:`FaultInjector.restore`), in reverse order, so test
isolation survives even assertion failures mid-scenario.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from collections.abc import Mapping

import numpy as np

from repro.bayesnet.network import BayesianNetwork
from repro.core.diagnosis import DiagnosticCase
from repro.exceptions import ReproError

#: Modes understood by :func:`corrupt_cpd_table`.
CPD_CORRUPTION_MODES = ("nan", "negative", "unnormalized", "zero-row")

#: Evidence variable marking a process-poison case (see :func:`poison_case`).
POISON_EVIDENCE_KEY = "__chaos_poison__"


class ChaosError(ReproError):
    """The default injected failure.

    Deriving from :class:`ReproError` keeps injected faults inside the
    library's exception taxonomy (a serving layer that catches ``Exception``
    would mask nothing), while the distinct type lets assertions tell an
    injected fault from a genuine one.
    """


def truncated_evidence(evidence: Mapping[str, str], keep: int,
                       ) -> dict[str, str]:
    """Return the first ``keep`` entries of ``evidence`` (insertion order).

    Models a truncated datalog: the tester stopped writing mid-record.  The
    result is well-formed but under-determined — diagnosis should still
    answer, scoped to the evidence that survived.
    """
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    truncated: dict[str, str] = {}
    for variable, state in evidence.items():
        if len(truncated) >= keep:
            break
        truncated[variable] = str(state)
    return truncated


def corrupt_cpd_table(network: BayesianNetwork, variable: str,
                      mode: str = "nan") -> None:
    """Replace ``variable``'s CPD on ``network`` with a corrupted copy.

    Uses ``add_cpd`` replacement (not in-place mutation) so the engines'
    id-based cache signatures see a parameter update and drop their cached
    factors/calibrations — the corruption is guaranteed to reach the next
    inference sweep.  Modes:

    ``"nan"``
        The whole first row becomes NaN (a failed parameter update); a full
        row, so the poison survives evidence reduction on the parents and is
        seen under every parent configuration.
    ``"negative"``
        First entry becomes negative, column re-normalised mass preserved
        at 1.0 (a sign bug upstream).
    ``"unnormalized"``
        Every column scaled by 1.7 (lost normalisation pass).
    ``"zero-row"``
        Entire table zeroed (a truncated weight file).
    """
    if mode not in CPD_CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; use one of {CPD_CORRUPTION_MODES}")
    corrupted = network.get_cpd(variable).copy()
    table = corrupted.table
    if mode == "nan":
        table[0, :] = np.nan
    elif mode == "negative":
        table[0, 0] = -abs(table[0, 0]) - 0.1
        table[1:, 0] = (1.0 - table[0, 0]) / max(table.shape[0] - 1, 1)
    elif mode == "unnormalized":
        table *= 1.7
    else:  # zero-row
        table[:, :] = 0.0
    network.add_cpd(corrupted)


class FaultInjector:
    """Deterministic failure hooks with guaranteed teardown.

    Use as a context manager::

        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors", nth=1)
            ...  # exercise the fallback chain

    Every injection is reverted on exit, latest first.
    """

    def __init__(self) -> None:
        self._restores: list = []
        self.call_counts: dict[str, int] = {}

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Revert every injection, in reverse order of installation."""
        while self._restores:
            self._restores.pop()()

    def _patch(self, target: object, method: str, wrapper) -> None:
        """Install ``wrapper`` over ``target.method``, remembering the undo."""
        had_own = method in vars(target) if not isinstance(target, type) \
            else method in target.__dict__
        original = getattr(target, method)

        def undo(target=target, method=method, had_own=had_own,
                 original=original) -> None:
            if had_own or isinstance(target, type):
                setattr(target, method, original)
            else:
                delattr(target, method)

        setattr(target, method, wrapper)
        self._restores.append(undo)

    # ------------------------------------------------------------ injections
    def raise_on_call(self, target: object, method: str,
                      error: BaseException | None = None,
                      nth: int = 1, transient: bool = False) -> None:
        """Make ``target.method`` raise on its ``nth`` call (1-based).

        With ``transient=True`` only the ``nth`` call raises and every other
        call passes through — the retry-once-and-recover scenario.  Without
        it, the ``nth`` and all later calls raise — the hard-down scenario.
        ``error`` defaults to a :class:`ChaosError`; per-call counts are
        recorded in :attr:`call_counts` under ``"Type.method"``.
        """
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        injected = error or ChaosError(
            f"injected failure in {type(target).__name__}.{method}")
        original = getattr(target, method)
        key = f"{type(target).__name__}.{method}"
        counter = {"calls": 0}

        def wrapper(*args, **kwargs):
            counter["calls"] += 1
            self.call_counts[key] = counter["calls"]
            hit = counter["calls"] == nth if transient \
                else counter["calls"] >= nth
            if hit:
                raise injected
            return original(*args, **kwargs)

        self._patch(target, method, wrapper)

    def add_latency(self, target: object, method: str,
                    seconds: float) -> None:
        """Prepend a ``seconds`` sleep to every call of ``target.method``.

        The stalled-calibration scenario: the call still succeeds, just too
        late for its deadline.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        original = getattr(target, method)

        def wrapper(*args, **kwargs):
            time.sleep(seconds)
            return original(*args, **kwargs)

        self._patch(target, method, wrapper)

    def perturb_result(self, target: object, method: str,
                       transform) -> None:
        """Return ``transform(result)`` from every call of ``target.method``.

        The numeric-drift scenario: the call still succeeds, but its answer
        is wrong, so only a cross-check against an independent computation
        can catch it.
        """
        original = getattr(target, method)

        def wrapper(*args, **kwargs):
            return transform(original(*args, **kwargs))

        self._patch(target, method, wrapper)

    def corrupt_cpd(self, network: BayesianNetwork, variable: str,
                    mode: str = "nan") -> None:
        """Corrupt ``variable``'s CPT on ``network``; restored on exit."""
        original = network.get_cpd(variable)
        corrupt_cpd_table(network, variable, mode)
        self._restores.append(lambda: network.add_cpd(original))


# --------------------------------------------------------------------------
# Process-level injectors for the worker-pool diagnosis service
# --------------------------------------------------------------------------

def poison_case(name: str, mode: str = "crash") -> DiagnosticCase:
    """Return a case engineered to hurt whatever diagnoses it.

    ``mode="crash"``
        The case carries the :data:`POISON_EVIDENCE_KEY` marker.  A worker
        running under an armed :class:`WorkerChaos` dies (``SIGKILL``) the
        moment it picks the case up — the "this exact record reliably
        segfaults the native stack" scenario.  The supervisor must burn the
        chunk's retry budget and surface a structured failure without losing
        any sibling slot.  Without chaos armed, the marker is simply an
        unknown evidence variable, so the case degrades to a structured
        evidence failure instead of passing silently.
    ``mode="invalid"``
        Plain data poison: an unknown variable that the evidence boundary
        converts into a structured per-case failure in-process.
    """
    if mode not in ("crash", "invalid"):
        raise ValueError(f"unknown poison mode {mode!r}; "
                         "use 'crash' or 'invalid'")
    key = POISON_EVIDENCE_KEY if mode == "crash" else "__not_a_variable__"
    return DiagnosticCase(name=name, controllable_states={},
                          observable_states={key: "1"})


def is_poison_case(case: DiagnosticCase) -> bool:
    """True when ``case`` carries the crash-poison marker."""
    return POISON_EVIDENCE_KEY in case.observable_states \
        or POISON_EVIDENCE_KEY in case.controllable_states


@dataclasses.dataclass(frozen=True)
class WorkerChaos:
    """Process-level fault plan executed *inside* a serving worker.

    Picklable by design: the service ships it to the worker process, whose
    chunk loop calls the hooks.  All counters are per-process, so a
    respawned worker starts fresh.

    Attributes
    ----------
    kill_on_chunk:
        ``SIGKILL`` the worker process when it receives its nth chunk
        (1-based) — the hard-crash scenario.  The in-flight chunk is lost
        exactly as a real crash would lose it.
    hang_on_chunk:
        Sleep ``hang_seconds`` before processing the nth chunk — the stuck
        native-call scenario the supervisor's hang detection must reap.
    hang_seconds:
        Length of the injected hang (default effectively forever; the
        supervisor is expected to kill the worker long before).
    slow_per_case:
        Extra sleep in seconds prepended to every case — the degraded-node
        scenario backpressure and latency percentiles must surface.
    only_first_generation:
        When true (default), kill/hang triggers are disarmed on respawned
        workers (``generation > 0``), so a crashed worker comes back
        healthy and the pool recovers.  Poison-case kills stay armed
        regardless — a poison record must keep killing whoever touches it.
    """

    kill_on_chunk: int | None = None
    hang_on_chunk: int | None = None
    hang_seconds: float = 3600.0
    slow_per_case: float = 0.0
    only_first_generation: bool = True

    def armed(self, generation: int) -> bool:
        """Whether the chunk-level triggers apply to this process."""
        return generation == 0 or not self.only_first_generation

    def on_chunk(self, chunk_number: int, generation: int) -> None:
        """Chunk-receipt hook: kill or hang per the plan (worker process)."""
        if not self.armed(generation):
            return
        if self.kill_on_chunk is not None \
                and chunk_number == self.kill_on_chunk:
            os.kill(os.getpid(), signal.SIGKILL)
        if self.hang_on_chunk is not None \
                and chunk_number == self.hang_on_chunk:
            time.sleep(self.hang_seconds)

    def on_case(self, case: DiagnosticCase) -> None:
        """Per-case hook: die on poison, drag on slowness (worker process)."""
        if is_poison_case(case):
            os.kill(os.getpid(), signal.SIGKILL)
        if self.slow_per_case > 0:
            time.sleep(self.slow_per_case)


# --------------------------------------------------------- durable state
def truncate_tail(path: str | os.PathLike, nbytes: int = 1) -> int:
    """Chop the last ``nbytes`` off a file — the crash-mid-write shape.

    Returns the file's new size.  Applied to a store plane this
    manufactures a truncated mmap file (the load must raise a structured
    ``StoreCorruptionError``); applied to a registry artifact or stamp, a
    half-written publish (the load must raise ``ModelRegistryError``).
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    new_size = max(size - int(nbytes), 0)
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size


def flip_byte(path: str | os.PathLike, offset: int | None = None, *,
              seed: int | None = None) -> int:
    """XOR one byte of a file with 0xFF — the bit-rot / torn-sector shape.

    ``offset`` picks the byte; ``None`` draws one uniformly (seeded for
    reproducibility).  Returns the offset flipped.  Every durable reader
    in the library must *detect* this (CRC mismatch) rather than serve the
    damaged value.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size == 0:
        raise ChaosError(f"cannot flip a byte of empty file {path}")
    if offset is None:
        offset = int(np.random.default_rng(seed).integers(0, size))
    if not 0 <= offset < size:
        raise ChaosError(
            f"flip offset {offset} outside file of {size} byte(s)")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return offset

