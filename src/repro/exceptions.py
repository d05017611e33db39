"""Exception hierarchy for the block-level Bayesian diagnosis library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller can catch a single base class while still being able to discriminate
between structural problems (bad graphs, bad CPDs), data problems (bad
datalogs, bad cases) and usage problems (unknown variables, invalid
evidence).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A directed graph violates a structural requirement (e.g. a cycle)."""


class FactorError(ReproError):
    """A discrete factor operation received incompatible operands."""


class CPDError(ReproError):
    """A conditional probability distribution is malformed."""


class NetworkError(ReproError):
    """A Bayesian network is inconsistent (missing CPDs, bad cards, ...)."""


class InferenceError(ReproError):
    """An inference query cannot be answered (unknown variable, bad evidence)."""


class ImpossibleEvidenceError(InferenceError):
    """The entered evidence has zero probability under the model.

    Raised by every inference engine instead of emitting NaN posteriors: the
    exact engines detect a zero (or non-finite) normalisation constant, the
    samplers detect an all-zero weight/conditional population.  The evidence
    itself is well-formed — it just contradicts the model — so retrying or
    degrading to another engine cannot help; serving layers should surface
    this as a permanent, per-case failure.
    """

    def __init__(self, message: str, evidence: dict | None = None) -> None:
        super().__init__(message)
        self.evidence = dict(evidence) if evidence else {}


class InferenceTimeoutError(InferenceError):
    """An inference sweep or attempt ended past its deadline.

    Recorded by the diagnosis pipeline as the cause of the
    :class:`DeadlineExceededError` of a slot whose sweep or fallback attempt
    finished after the budget ran out; carries enough context to log which
    engine stalled.
    """

    def __init__(self, message: str, engine: str | None = None,
                 deadline: float | None = None) -> None:
        super().__init__(message)
        self.engine = engine
        self.deadline = deadline


class DeadlineExceededError(InferenceTimeoutError):
    """A total wall-clock budget ran out before a diagnosis completed.

    Distinct from a plain :class:`InferenceTimeoutError` (one sweep or
    *attempt* ran late): here the whole per-batch or per-request budget is
    spent, so the fallback chain must stop rather than degrade further.
    ``remaining`` records the budget left when the check fired (zero or
    negative).
    """

    def __init__(self, message: str, remaining: float | None = None,
                 deadline: float | None = None) -> None:
        super().__init__(message, deadline=deadline)
        self.remaining = remaining


class ServingError(ReproError):
    """Base class for diagnosis-service (worker-pool) failures."""


class ServiceOverloadedError(ServingError):
    """The service's bounded submission queue is full.

    Raised on submit under the ``"reject"`` load-shedding policy (or after
    the block timeout under ``"block"``).  Callers should back off and
    retry; ``pending`` and ``limit`` quantify the pressure at rejection
    time.
    """

    def __init__(self, message: str, pending: int | None = None,
                 limit: int | None = None) -> None:
        super().__init__(message)
        self.pending = pending
        self.limit = limit


class ServiceShutdownError(ServingError):
    """The service is draining or stopped and cannot accept work."""


class WorkerCrashError(ServingError):
    """A diagnosis chunk was lost to worker crashes past its retry budget.

    Surfaced per-slot as a structured
    :class:`~repro.core.diagnosis.DiagnosisFailure` (never an unhandled
    exception): the supervisor retried the chunk on healthy workers up to
    the configured budget, and every attempt died.
    """

    def __init__(self, message: str, attempts: int | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts


class PersistError(ReproError):
    """Base class for durable-state (cross-process persistence) failures."""


class ModelRegistryError(PersistError):
    """The versioned model registry is unusable (missing/corrupt artifacts)."""


class ModelPublishError(ModelRegistryError):
    """A model failed the publish-time validation gate.

    Raised by :meth:`~repro.persist.ModelRegistry.publish` *before* the
    version stamp moves: the registry's current version keeps serving, so a
    bad publish rolls back cleanly by never happening.
    """


class LearningError(ReproError):
    """Parameter or structure learning received unusable data."""


class CircuitError(ReproError):
    """A behavioural circuit description is inconsistent."""


class FaultError(CircuitError):
    """A fault cannot be injected into the requested block."""


class ATEError(ReproError):
    """An ATE test program or datalog is malformed."""


class StoreCorruptionError(ATEError):
    """A saved columnar device store failed an integrity check on load.

    Raised instead of returning silently corrupted arrays: a truncated or
    bit-flipped ``.npy`` plane or metadata file fails its recorded
    length/CRC32 check (or the header magic is missing, or the metadata
    cannot be decoded, parsed or read in full) and the load aborts with the
    defect named.  ``kind`` is ``"bad-magic"``, ``"missing-plane"``,
    ``"truncated"``, ``"bad-crc"``, ``"bad-meta"`` or ``"bad-plane"`` (a
    plane ``numpy`` cannot read); ``path`` names the offending file.
    """

    def __init__(self, message: str, *, kind: str = "bad-crc",
                 path: str | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.path = path


class DatalogError(ATEError):
    """A datalog file or record cannot be parsed.

    When the failure is tied to a specific record of a file, ``path`` and
    ``line_number`` carry the location so tooling can report it structurally
    instead of scraping the message.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line_number: int | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.line_number = line_number


class ModelBuildError(ReproError):
    """The Dlog2BBN model builder received inconsistent inputs."""


class StateDefinitionError(ModelBuildError):
    """A block state table is inconsistent (overlapping limits, gaps, ...)."""


class CaseGenerationError(ModelBuildError):
    """ATE data could not be converted into learning cases."""


class DiagnosisError(ReproError):
    """A diagnostic query is invalid (unknown blocks, missing evidence)."""


class EvidenceError(DiagnosisError):
    """An evidence mapping is malformed.

    Covers unknown model variables, illegal state labels and conflicting
    controllable/observable entries.  ``issues`` holds one structured
    :class:`~repro.core.evidence.EvidenceIssue`-like record per problem so a
    serving layer can report every defect of a case at once instead of
    failing on the first.
    """

    def __init__(self, message: str, issues: tuple = ()) -> None:
        super().__init__(message)
        self.issues = tuple(issues)


class FallbackExhaustedError(DiagnosisError):
    """Every engine of the fallback chain failed for one case.

    Raised only after the chain tried an engine beyond the failed sweep;
    carries the full attempt trail so batch isolation can surface *how* the
    case failed, not just that it did.
    """

    def __init__(self, message: str, attempts: tuple = (),
                 wall_time: float = 0.0) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.wall_time = wall_time


class DegradedResultWarning(UserWarning):
    """A diagnosis was produced in degraded mode.

    Emitted (via :mod:`warnings`) when a
    :class:`~repro.core.diagnosis.DiagnosisEngine` fell back along its
    fallback chain, retried after transient failures, repaired or dropped
    evidence entries, or produced a posterior with a low effective sample
    size.  The result is still usable — the warning flags the reduced
    precision.
    """
