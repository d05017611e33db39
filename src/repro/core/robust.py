"""Fault-tolerant diagnosis serving: fallback chain, deadlines, provenance.

A production diagnosis service cannot afford one slow junction-tree
calibration or one transient engine fault taking down a whole batch.  This
module wraps :class:`~repro.core.diagnosis.DiagnosisEngine` with the
graceful-degradation policy the related model-based-diagnosis literature
motivates (Roos's efficient compiled diagnosis; Srinivas's hierarchical
diagnosis — see PAPERS.md): keep answering, at reduced precision, scoped to
what the evidence supports.

:class:`RobustDiagnosisEngine` runs the one diagnosis pipeline of
:meth:`~repro.core.diagnosis.DiagnosisEngine.diagnose_batch` (a single
case is a batch of one), admit -> sweep -> settle, with three additions:

1. **Evidence boundary** — strict :func:`~repro.core.evidence.validate_evidence`
   or repair-and-continue :func:`~repro.core.evidence.sanitize_evidence`,
   per :class:`FallbackPolicy.on_invalid_evidence`: one pass of the model's
   :class:`~repro.bayesnet.codec.EvidenceCodec` over the case as it
   arrives, naming every bad entry once.
2. **Fallback chain** — the distinct rows share ONE sweep of the primary
   engine.  A slot that sweep could not answer walks ``policy.chain``
   (default ``ve -> lw -> gibbs``) with the sweep counted as its first
   primary attempt; each engine is attempted up to
   ``attempts_per_engine`` times with exponential backoff.  Transient
   failures (engine exceptions) degrade to the next engine; *permanent*
   failures (malformed or zero-probability evidence) fail the slot at once.
   A fallback answer fills a posterior row too: every result is a row view.
3. **Provenance** — every returned :class:`~repro.core.diagnosis.Diagnosis`
   carries a :class:`~repro.core.diagnosis.DiagnosisProvenance`: engine
   used, every attempt record, wall time (each slot's equal share of the
   batch time), ``degraded`` flag, effective sample size for sampled
   posteriors, and the evidence issues that were repaired.  Degraded
   results additionally emit a
   :class:`~repro.exceptions.DegradedResultWarning`.

A request deadline is a budget checked at the pipeline's stage boundaries:
before each slot's admission, before and after the sweep, and before and
after each chain attempt; backoff sleeps are clamped to what is left.  A
slot that meets a spent budget fails with
:class:`~repro.exceptions.DeadlineExceededError`, and a sweep or attempt
that ended past it joins the trail as a ``"timeout"`` attempt.  Nothing
running is interrupted: a served request's hard bound is the supervisor
reaping its worker at budget + ``deadline_grace``
(:mod:`repro.serving.service`), which stops the work with the process.
"""

from __future__ import annotations

import dataclasses
import time
import warnings

from repro.core.diagnosis import (
    AttemptRecord,
    Budget,
    Diagnosis,
    DiagnosisEngine,
    DiagnosisProvenance,
    ENGINE_NAMES,
)
from repro.core.evidence import sanitize_evidence, validate_evidence
from repro.core.model_builder import BuiltModel
from repro.exceptions import (
    DegradedResultWarning,
    DiagnosisError,
    EvidenceError,
    ImpossibleEvidenceError,
)

#: Failure classes no retry or engine change can repair: the input itself is
#: bad (malformed evidence) or contradicts the model (zero probability).
PERMANENT_FAILURES = (EvidenceError, ImpossibleEvidenceError)


class FallbackExhaustedError(DiagnosisError):
    """Every engine of the fallback chain failed for one case.

    Carries the full attempt trail so batch isolation can surface *how* the
    case failed, not just that it did.
    """

    def __init__(self, message: str,
                 attempts: tuple[AttemptRecord, ...] = (),
                 wall_time: float = 0.0) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.wall_time = wall_time


@dataclasses.dataclass(frozen=True)
class FallbackPolicy:
    """Configuration of the robust serving loop.

    Attributes
    ----------
    chain:
        Engine names tried in order; the first is the primary.  Exact
        engines (``"jt"``, ``"ve"``) should precede the approximate ones
        (``"lw"``, ``"gibbs"``) so precision only ever degrades.
    attempts_per_engine:
        How often each engine is retried before degrading to the next.
    backoff:
        Base sleep in seconds between retries of the same engine, doubled
        per retry (``backoff * 2**retry_index``).  Zero disables sleeping.
    num_samples:
        Sample budget handed to the approximate fallback engines (their
        own defaults when ``None``).
    seed:
        Sampler seed for the approximate fallback engines, so degraded
        serving stays reproducible.
    min_effective_sample_size:
        Sampled posteriors whose effective sample size falls below this
        are still returned but flagged with a low-ESS degradation note.
    on_invalid_evidence:
        ``"raise"`` (strict: malformed evidence is a permanent structured
        failure) or ``"sanitize"`` (repair what is repairable, drop the
        rest, and record every issue in the provenance).
    """

    chain: tuple[str, ...] = ("ve", "lw", "gibbs")
    attempts_per_engine: int = 1
    backoff: float = 0.0
    num_samples: int | None = None
    seed: int | None = 0
    min_effective_sample_size: float = 50.0
    on_invalid_evidence: str = "raise"

    def __post_init__(self) -> None:
        if not self.chain:
            raise DiagnosisError("fallback chain must name at least one engine")
        unknown = [name for name in self.chain if name not in ENGINE_NAMES]
        if unknown:
            raise DiagnosisError(
                f"unknown engines in fallback chain: {unknown}; "
                f"use names from {ENGINE_NAMES}")
        if len(set(self.chain)) != len(self.chain):
            raise DiagnosisError(f"fallback chain repeats engines: {self.chain}")
        if self.attempts_per_engine < 1:
            raise DiagnosisError("attempts_per_engine must be at least 1")
        if self.backoff < 0:
            raise DiagnosisError(f"backoff must be >= 0, got {self.backoff}")
        if self.on_invalid_evidence not in ("raise", "sanitize"):
            raise DiagnosisError(
                f"unknown on_invalid_evidence mode {self.on_invalid_evidence!r}; "
                "use 'raise' or 'sanitize'")


class RobustDiagnosisEngine(DiagnosisEngine):
    """A :class:`DiagnosisEngine` that degrades instead of dying.

    Drop-in replacement: every :class:`DiagnosisEngine` entry point works,
    runs the fallback chain, and returns results with provenance.

    Parameters
    ----------
    built_model:
        The model produced by :class:`~repro.core.model_builder.Dlog2BBN`.
    policy:
        The :class:`FallbackPolicy`; the default runs ``ve -> lw -> gibbs``
        with strict evidence validation.
    abnormal_threshold / ambiguous_threshold:
        Candidate-deduction thresholds, as on :class:`DiagnosisEngine`.
    """

    def __init__(self, built_model: BuiltModel,
                 policy: FallbackPolicy | None = None,
                 abnormal_threshold: float = 0.5,
                 ambiguous_threshold: float = 0.4) -> None:
        self.policy = policy or FallbackPolicy()
        super().__init__(built_model, inference=self.policy.chain[0],
                         abnormal_threshold=abnormal_threshold,
                         ambiguous_threshold=ambiguous_threshold,
                         num_samples=self.policy.num_samples,
                         seed=self.policy.seed)
        # The primary engine is the one the superclass already built; the
        # fallback engines are constructed lazily on first degradation so a
        # healthy serving path never pays for them.
        self._fallback_engines: dict[str, DiagnosisEngine] = {
            self.policy.chain[0]: self}

    # ------------------------------------------------------------- sub-engines
    def _engine_for(self, name: str) -> DiagnosisEngine:
        engine = self._fallback_engines.get(name)
        if engine is None:
            engine = DiagnosisEngine(
                self.built_model, inference=name,
                abnormal_threshold=self.abnormal_threshold,
                ambiguous_threshold=self.ambiguous_threshold,
                num_samples=self.policy.num_samples,
                seed=self.policy.seed)
            self._fallback_engines[name] = engine
        return engine

    def _admit(self, name: str, case):
        """Evidence boundary for one slot: ``(evidence, (issues, notes))``.

        Strict validation or repair-and-continue sanitising, per
        ``policy.on_invalid_evidence``; the notes record what was repaired.
        """
        if self.policy.on_invalid_evidence == "raise":
            evidence, issues = validate_evidence(self.model, case), ()
        else:
            evidence, issues = sanitize_evidence(self.model, case)
        dropped = [issue for issue in issues if issue.kind != "repaired-state"]
        notes: list[str] = []
        if issues:
            notes.append(
                f"evidence sanitised: {len(issues)} issue(s), "
                f"{len(dropped)} entry(ies) dropped")
        return evidence, (issues, notes)

    def _run_chain(self, name: str, evidence: dict[str, str],
                   issues: tuple, notes: list[str], start: float,
                   budget: Budget | None,
                   attempts: tuple[AttemptRecord, ...],
                   last_error: BaseException) -> Diagnosis:
        """Walk the fallback chain for one slot the sweep could not answer.

        ``attempts`` already made count as the primary engine's first
        attempts and are not repeated (the failed sweep is one).  The
        budget is checked before and after each attempt.
        """
        policy = self.policy
        made = len(attempts)
        attempts = list(attempts)
        for position, engine_name in enumerate(policy.chain):
            for retry in range(policy.attempts_per_engine):
                if position == 0 and retry < made:
                    continue
                if retry and policy.backoff > 0:
                    # A backoff longer than the remaining budget would turn
                    # the deadline into dead sleep: clamp, then let the
                    # budget check below fire.
                    sleep = policy.backoff * (2 ** (retry - 1))
                    if budget is not None:
                        sleep = min(sleep, max(budget.left(), 0.0))
                    if sleep > 0:
                        time.sleep(sleep)
                if budget is not None and budget.left() <= 0:
                    raise budget.exceeded(name, tuple(attempts), last_error)
                attempt_start = time.perf_counter()
                engine = self._engine_for(engine_name)
                try:
                    row = engine._update(evidence)
                except Exception as error:  # noqa: BLE001 - recorded below
                    row, last_error = None, error
                elapsed = time.perf_counter() - attempt_start
                if budget is not None and budget.left() <= 0:
                    raise budget.exceeded(name, tuple(attempts),
                                          late=(engine_name, elapsed))
                if row is not None:
                    attempts.append(AttemptRecord(engine_name, "ok", elapsed))
                    return self._accept(
                        name, evidence, (row, *self._rank_rows(row[None])[0]),
                        engine_name, position, tuple(attempts), issues, notes,
                        start, getattr(engine._engine,
                                       "last_effective_sample_size", None))
                attempts.append(AttemptRecord(
                    engine_name, "error", elapsed,
                    f"{type(last_error).__name__}: {last_error}"))
                if isinstance(last_error, PERMANENT_FAILURES):
                    last_error.attempts = tuple(attempts)
                    last_error.wall_time = time.perf_counter() - start
                    raise last_error
            notes.append(
                f"engine {engine_name!r} exhausted "
                f"{policy.attempts_per_engine} attempt(s)")

        error = FallbackExhaustedError(
            f"all {len(policy.chain)} engine(s) of the fallback chain failed "
            f"for case {name!r}; last error: "
            f"{type(last_error).__name__}: {last_error}",
            attempts=tuple(attempts),
            wall_time=time.perf_counter() - start)
        raise error from last_error

    # ------------------------------------------------------------ batch sweep
    def _diagnose_batch_swept(self, cases, names, on_error, budget):
        """The pipeline, with each slot's wall time its equal share.

        Per slot: the evidence boundary (:meth:`_admit`).  The admitted
        slots share one sweep of the primary engine; a slot the sweep could
        not answer walks the fallback chain with the sweep as its first
        primary attempt.
        """
        started = time.perf_counter()
        results = super()._diagnose_batch_swept(cases, names, on_error,
                                                budget)
        share = (time.perf_counter() - started) / max(len(results), 1)
        for result in results:
            if result.ok:
                result.provenance.wall_time = share
            else:
                result.wall_time = share
        return results

    def _settle(self, name: str, evidence: dict[str, str],
                context, computed, elapsed: float,
                budget: Budget | None) -> Diagnosis:
        """Accept a swept slot, fail it, or send it down the chain.

        A permanent failure fails the slot with its trail at once; any
        other error walks the chain.
        """
        issues, notes = context
        primary = self.policy.chain[0]
        start = time.perf_counter()
        if isinstance(computed, Exception):
            attempt = AttemptRecord(primary, "error", elapsed,
                                    f"{type(computed).__name__}: {computed}")
            if isinstance(computed, PERMANENT_FAILURES):
                computed.attempts = (attempt,)
                computed.wall_time = elapsed
                raise computed
            return self._run_chain(name, evidence, issues, notes, start,
                                   budget, (attempt,), computed)
        return self._accept(name, evidence, computed[:3], primary, 0,
                            (AttemptRecord(primary, "ok", elapsed),),
                            issues, notes, start, computed[3])

    def _accept(self, name: str, evidence: dict[str, str], answer: tuple,
                engine_name: str,
                chain_position: int, attempts: tuple[AttemptRecord, ...],
                issues: tuple, notes: list[str], start: float,
                ess: float | None) -> Diagnosis:
        """The view of an accepted answer, with its provenance."""
        if ess is not None and ess < self.policy.min_effective_sample_size:
            notes.append(
                f"low effective sample size ({ess:.1f} < "
                f"{self.policy.min_effective_sample_size:g})")
        if chain_position > 0:
            notes.append(
                f"degraded from {self.policy.chain[0]!r} to {engine_name!r}")
        failed_attempts = len(attempts) - 1
        degraded = bool(chain_position > 0 or failed_attempts > 0 or notes)
        provenance = DiagnosisProvenance(
            engine=engine_name, attempts=attempts,
            wall_time=time.perf_counter() - start, degraded=degraded,
            effective_sample_size=ess, evidence_issues=issues,
            notes=tuple(notes))
        if degraded:
            warnings.warn(
                f"case {name!r} served degraded by {engine_name!r}: "
                + "; ".join(notes), DegradedResultWarning, stacklevel=3)
        return Diagnosis._of_row(self._layout, *answer, name, evidence,
                                 provenance)
