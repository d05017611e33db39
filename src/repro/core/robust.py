"""Fault-tolerant diagnosis serving: fallback chain, deadlines, provenance.

A production diagnosis service cannot afford one slow junction-tree
calibration or one transient engine fault taking down a whole batch.  This
module wraps :class:`~repro.core.diagnosis.DiagnosisEngine` with the
graceful-degradation policy the related model-based-diagnosis literature
motivates (Roos's efficient compiled diagnosis; Srinivas's hierarchical
diagnosis — see PAPERS.md): keep answering, at reduced precision, scoped to
what the evidence supports.

The serving loop per case:

1. **Evidence boundary** — strict :func:`~repro.core.evidence.validate_evidence`
   or repair-and-continue :func:`~repro.core.evidence.sanitize_evidence`,
   per :class:`FallbackPolicy.on_invalid_evidence`.
2. **Fallback chain** — each engine in ``policy.chain`` (default
   ``ve -> lw -> gibbs``) is attempted up to ``attempts_per_engine`` times
   with exponential backoff, each attempt under an optional wall-clock
   deadline.  Transient failures (timeouts, engine exceptions) degrade to
   the next engine; *permanent* failures (malformed or zero-probability
   evidence) abort the chain immediately — no sampler can fix evidence the
   model assigns probability zero.
3. **Provenance** — every returned :class:`~repro.core.diagnosis.Diagnosis`
   carries a :class:`~repro.core.diagnosis.DiagnosisProvenance`: engine
   used, every attempt record, wall time, ``degraded`` flag, effective
   sample size for sampled posteriors, and the evidence issues that were
   repaired.  Degraded results additionally emit a
   :class:`~repro.exceptions.DegradedResultWarning`.

``diagnose_batch`` runs steps 1 and 3 per slot but answers step 2 for the
whole batch at once: after the evidence boundary and the durable-cache
lookup (once per distinct evidence; later copies in the batch are hits of
that entry), the remaining slots share ONE batched sweep of the primary
engine (variable elimination's ``posteriors_batch`` through the evidence
cache, or the compiled program's ``run_batch``).  Only a slot that sweep
could not answer walks the chain, with the sweep counted as its first
primary attempt; each slot's wall time is its equal share of the batch
time.  Deadline-bound batches, policies with a per-attempt ``deadline``,
and primaries without a batched sweep diagnose case by case.

Deadlines are enforced by running the attempt in a daemon worker thread and
abandoning it on expiry (CPython cannot interrupt a running numpy kernel);
an abandoned attempt keeps a core busy until it finishes, which is the
accepted trade-off for bounded serving latency.  With ``deadline=None``
(the default) attempts run inline with zero threading overhead.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import warnings
from collections.abc import Mapping

from repro.core.diagnosis import (
    AttemptRecord,
    Diagnosis,
    DiagnosisEngine,
    DiagnosisProvenance,
    DiagnosticCase,
    ENGINE_NAMES,
    impossible_evidence,
)
from repro.core.evidence import sanitize_evidence, validate_evidence
from repro.core.model_builder import BuiltModel
from repro.exceptions import (
    DeadlineExceededError,
    DegradedResultWarning,
    DiagnosisError,
    EvidenceError,
    ImpossibleEvidenceError,
    InferenceTimeoutError,
    ReproError,
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
    deadline:
        Per-attempt wall-clock budget in seconds; ``None`` disables
        deadline enforcement (and its worker-thread overhead) entirely.
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
    evidence_cache_size:
        Capacity of the exact engines' evidence caches (entries per cache);
        the per-worker memory knob for serving fleets.  ``None`` defers to
        the ``REPRO_EVIDENCE_CACHE_SIZE`` environment variable / the
        library default (128).
    compiled:
        When true, exact engines in the chain serve posterior updates from
        ahead-of-time compiled inference programs
        (:class:`~repro.bayesnet.inference.CompiledProgram`) — traced once
        per evidence-variable signature, invalidated on CPD replacement.
        Serving workers additionally precompile at init
        (``warm_compile``) so the first request never pays the trace.
        Approximate engines ignore the flag.
    """

    chain: tuple[str, ...] = ("ve", "lw", "gibbs")
    deadline: float | None = None
    attempts_per_engine: int = 1
    backoff: float = 0.0
    num_samples: int | None = None
    seed: int | None = 0
    min_effective_sample_size: float = 50.0
    on_invalid_evidence: str = "raise"
    evidence_cache_size: int | None = None
    compiled: bool = False

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
        if self.deadline is not None and self.deadline <= 0:
            raise DiagnosisError(f"deadline must be positive, got {self.deadline}")
        if self.attempts_per_engine < 1:
            raise DiagnosisError("attempts_per_engine must be at least 1")
        if self.backoff < 0:
            raise DiagnosisError(f"backoff must be >= 0, got {self.backoff}")
        if self.on_invalid_evidence not in ("raise", "sanitize"):
            raise DiagnosisError(
                f"unknown on_invalid_evidence mode {self.on_invalid_evidence!r}; "
                "use 'raise' or 'sanitize'")
        if self.evidence_cache_size is not None \
                and self.evidence_cache_size < 1:
            raise DiagnosisError(
                "evidence_cache_size must be >= 1, got "
                f"{self.evidence_cache_size}")


class RobustDiagnosisEngine(DiagnosisEngine):
    """A :class:`DiagnosisEngine` that degrades instead of dying.

    Drop-in replacement: every :class:`DiagnosisEngine` entry point works,
    ``diagnose`` runs the fallback chain, and results carry provenance.

    Parameters
    ----------
    built_model:
        The model produced by :class:`~repro.core.model_builder.Dlog2BBN`.
    policy:
        The :class:`FallbackPolicy`; the default runs ``ve -> lw -> gibbs``
        with no deadline and strict evidence validation.
    abnormal_threshold / ambiguous_threshold:
        Candidate-deduction thresholds, as on :class:`DiagnosisEngine`.
    """

    def __init__(self, built_model: BuiltModel,
                 policy: FallbackPolicy | None = None,
                 abnormal_threshold: float = 0.5,
                 ambiguous_threshold: float = 0.4, *,
                 posterior_cache=None) -> None:
        self.policy = policy or FallbackPolicy()
        super().__init__(built_model, inference=self.policy.chain[0],
                         abnormal_threshold=abnormal_threshold,
                         ambiguous_threshold=ambiguous_threshold,
                         num_samples=self.policy.num_samples,
                         seed=self.policy.seed,
                         cache_size=self.policy.evidence_cache_size,
                         compiled=self.policy.compiled,
                         program_cache=posterior_cache)
        # Optional durable shared cache (`repro.persist.PosteriorCache`):
        # exact posteriors are served from / written to it keyed by the
        # model's content fingerprint + the sanitised evidence signature.
        # The same cache doubles as the compiled-program cache (wired to
        # the superclass above).
        self.posterior_cache = posterior_cache
        self.cache_hits = 0
        self.cache_misses = 0
        # While a batch runs with a durable cache: evidence key -> the
        # posteriors an earlier slot found in or stored to the cache (None
        # while that slot waits for the sweep), so the batch looks up and
        # stores each distinct evidence once.
        self._batch_posteriors: dict[tuple, dict | None] | None = None
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
                seed=self.policy.seed,
                cache_size=self.policy.evidence_cache_size,
                compiled=self.policy.compiled,
                program_cache=self.posterior_cache)
            self._fallback_engines[name] = engine
        return engine

    # ---------------------------------------------------------------- deadline
    def _attempt(self, engine_name: str, evidence: Mapping[str, str],
                 remaining: float | None = None,
                 ) -> dict[str, dict[str, float]]:
        """Run one posterior update, under the effective attempt deadline.

        The effective deadline is the tighter of the policy's per-attempt
        ``deadline`` and the caller's ``remaining`` wall-clock budget — the
        path by which a service-level request deadline clamps every attempt
        below it.
        """
        engine = self._engine_for(engine_name)
        deadline = self.policy.deadline
        if remaining is not None:
            deadline = remaining if deadline is None \
                else min(deadline, remaining)
        if deadline is None:
            return DiagnosisEngine.update(engine, evidence)
        deadline = max(deadline, 1e-6)

        outcome: dict[str, object] = {}

        def worker() -> None:
            try:
                outcome["value"] = DiagnosisEngine.update(engine, evidence)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                outcome["error"] = error

        thread = threading.Thread(target=worker, daemon=True,
                                  name=f"diagnosis-{engine_name}")
        thread.start()
        thread.join(deadline)
        if thread.is_alive():
            raise InferenceTimeoutError(
                f"engine {engine_name!r} exceeded the {deadline}s deadline",
                engine=engine_name, deadline=deadline)
        if "error" in outcome:
            raise outcome["error"]  # type: ignore[misc]
        return outcome["value"]  # type: ignore[return-value]

    # --------------------------------------------------------------- diagnosis
    def diagnose(self, case: DiagnosticCase,
                 deadline: float | None = None) -> Diagnosis:
        """Diagnose one case through the fallback chain, with provenance.

        ``deadline`` is an optional *total* wall-clock budget in seconds for
        this call (the per-request deadline a serving layer propagates
        down).  It clamps every attempt's deadline, bounds backoff sleeps,
        and — once spent — aborts the chain with a
        :class:`~repro.exceptions.DeadlineExceededError` instead of trying
        further engines.  ``None`` keeps the policy's per-attempt behaviour
        only.
        """
        start = time.perf_counter()
        if deadline is not None and deadline <= 0:
            raise self._deadline_exceeded(case, deadline, deadline, (),
                                          start, None)
        admission = self._admit(case)
        if isinstance(admission, Diagnosis):
            return admission
        evidence, (issues, notes, _) = admission
        return self._run_chain(case, evidence, issues, notes, start,
                               deadline)

    def _admit(self, case: DiagnosticCase):
        """Evidence boundary plus durable-cache lookup for one case.

        Returns the cached :class:`Diagnosis` on a hit, else
        ``(evidence, (issues, notes, pending))`` for inference, where
        ``pending`` is the evidence key when an earlier slot of the same
        batch missed on the same evidence (``None`` otherwise).
        """
        start = time.perf_counter()
        evidence, issues = self._evidence_boundary(case)
        dropped = [issue for issue in issues if issue.kind != "repaired-state"]
        notes: list[str] = []
        if issues:
            notes.append(
                f"evidence sanitised: {len(issues)} issue(s), "
                f"{len(dropped)} entry(ies) dropped")
        if self.posterior_cache is None:
            return evidence, (issues, notes, None)
        seen = self._batch_posteriors
        key = tuple(sorted(evidence.items()))
        if seen is not None and key in seen:
            if seen[key] is None:
                return evidence, (issues, notes, key)
            return self._accept_batch_hit(case, evidence, seen[key], issues,
                                          notes, start)
        cached = self._cached_posteriors(evidence)
        if seen is not None:
            seen[key] = cached
        if cached is not None:
            attempt = AttemptRecord("cache", "ok", time.perf_counter() - start)
            return self._accept_cached(case, evidence, cached, (attempt,),
                                       issues, notes, start)
        return evidence, (issues, notes, None)

    def _run_chain(self, case: DiagnosticCase, evidence: dict[str, str],
                   issues: tuple, notes: list[str], start: float,
                   deadline: float | None = None,
                   attempts: tuple[AttemptRecord, ...] = (),
                   last_error: BaseException | None = None) -> Diagnosis:
        """Walk the fallback chain for one admitted case.

        ``attempts`` already made count as the primary engine's first
        attempts and are not repeated (a failed batched sweep is one).
        """
        budget_end = None if deadline is None else start + deadline

        def remaining() -> float | None:
            return None if budget_end is None \
                else budget_end - time.perf_counter()

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
                    left = remaining()
                    if left is not None:
                        sleep = min(sleep, max(left, 0.0))
                    if sleep > 0:
                        time.sleep(sleep)
                left = remaining()
                if left is not None and left <= 0:
                    raise self._deadline_exceeded(
                        case, deadline, left, tuple(attempts), start,
                        last_error)
                attempt_start = time.perf_counter()
                try:
                    posteriors = self._attempt(engine_name, evidence, left)
                except PERMANENT_FAILURES as error:
                    attempts.append(AttemptRecord(
                        engine_name, "error",
                        time.perf_counter() - attempt_start,
                        f"{type(error).__name__}: {error}"))
                    error.attempts = tuple(attempts)
                    error.wall_time = time.perf_counter() - start
                    raise
                except Exception as error:  # noqa: BLE001 - degrades below
                    outcome = "timeout" if isinstance(
                        error, InferenceTimeoutError) else "error"
                    attempts.append(AttemptRecord(
                        engine_name, outcome,
                        time.perf_counter() - attempt_start,
                        f"{type(error).__name__}: {error}"))
                    last_error = error
                    continue
                attempts.append(AttemptRecord(
                    engine_name, "ok", time.perf_counter() - attempt_start))
                return self._accept(case, evidence, posteriors, engine_name,
                                    position, tuple(attempts), issues,
                                    notes, start)
            notes.append(
                f"engine {engine_name!r} exhausted "
                f"{policy.attempts_per_engine} attempt(s)")

        error = FallbackExhaustedError(
            f"all {len(policy.chain)} engine(s) of the fallback chain failed "
            f"for case {case.name!r}; last error: "
            f"{type(last_error).__name__}: {last_error}",
            attempts=tuple(attempts),
            wall_time=time.perf_counter() - start)
        raise error from last_error

    # ------------------------------------------------------------ batch sweep
    def _batched(self) -> bool:
        # A per-attempt deadline bounds one case's attempt, not a shared
        # sweep: such policies keep the per-case loop.
        return self.policy.deadline is None and super()._batched()

    def _diagnose_batch_swept(self, cases, names, on_error):
        """One batched primary sweep for every slot the cache did not answer.

        Per slot: evidence boundary and durable-cache lookup
        (:meth:`_admit`).  The remaining slots share one sweep of the
        primary engine; a slot the sweep could not answer walks the
        fallback chain with the sweep as its first primary attempt.  Each
        slot's wall time is its equal share of the batch time.
        """
        started = time.perf_counter()
        if self.posterior_cache is not None:
            self._batch_posteriors = {}
        try:
            results = super()._diagnose_batch_swept(cases, names, on_error)
        finally:
            self._batch_posteriors = None
        share = (time.perf_counter() - started) / max(len(results), 1)
        for result in results:
            if result.ok:
                result.provenance.wall_time = share
            else:
                result.wall_time = share
        return results

    def _sweep(self, evidences: list[dict[str, str]]) -> list:
        """The primary's batched sweep; per slot ``(answer, elapsed)``.

        A sweep that raises answers every slot with its error.  The
        interpreted sweep reads and fills the evidence cache, so rows a
        previous batch answered (a serving worker's earlier chunks) are
        not recomputed.
        """
        started = time.perf_counter()
        try:
            answers = super()._sweep(evidences)
        except Exception as error:  # noqa: BLE001 - each slot degrades
            answers = [error] * len(evidences)
        share = (time.perf_counter() - started) / max(len(evidences), 1)
        return [(answer, share) for answer in answers]

    def _settle(self, case: DiagnosticCase, evidence: dict[str, str],
                context, answer) -> Diagnosis:
        """Accept a swept slot, fail it, or send it down the chain."""
        issues, notes, pending = context
        computed, elapsed = answer
        primary = self.policy.chain[0]
        start = time.perf_counter()
        if pending is not None:
            # An earlier slot settled the same evidence first: a durable hit
            # if it stored its posteriors, else this slot's own miss.
            stored = self._batch_posteriors[pending]
            if stored is not None:
                return self._accept_batch_hit(case, evidence, stored, issues,
                                              notes, start)
            self.cache_misses += 1
        if isinstance(computed, Exception):
            attempt = AttemptRecord(primary, "error", elapsed,
                                    f"{type(computed).__name__}: {computed}")
            return self._run_chain(case, evidence, issues, notes, start,
                                   attempts=(attempt,), last_error=computed)
        if computed is None:
            error = impossible_evidence(evidence)
            error.attempts = (AttemptRecord(
                primary, "error", elapsed,
                f"{type(error).__name__}: {error}"),)
            raise error
        return self._accept(case, evidence,
                            self._full_posteriors(evidence, computed),
                            primary, 0,
                            (AttemptRecord(primary, "ok", elapsed),),
                            issues, notes, start)

    def _deadline_exceeded(self, case: DiagnosticCase,
                           deadline: float | None, left: float | None,
                           attempts: tuple[AttemptRecord, ...], start: float,
                           last_error: BaseException | None,
                           ) -> DeadlineExceededError:
        """Build the budget-exhausted error, with the attempt trail attached."""
        error = DeadlineExceededError(
            f"deadline budget of {deadline:g}s exhausted for case "
            f"{case.name!r} after {len(attempts)} attempt(s)",
            remaining=left, deadline=deadline)
        error.attempts = attempts
        error.wall_time = time.perf_counter() - start
        if last_error is not None:
            error.__cause__ = last_error
        return error

    def _deadline_diagnose(self, deadline: float):
        """Per-case diagnose callable sharing one batch wall-clock budget.

        Used by :meth:`DiagnosisEngine.diagnose_batch` (and by each serving
        worker for its chunk): the budget drains monotonically, so cases
        reached after expiry fail fast with
        :class:`~repro.exceptions.DeadlineExceededError` rather than
        starting doomed inference sweeps.
        """
        budget_end = time.perf_counter() + max(deadline, 0.0)

        def diagnose(case: DiagnosticCase) -> Diagnosis:
            return self.diagnose(
                case, deadline=budget_end - time.perf_counter())

        return diagnose

    def _evidence_boundary(self, case: DiagnosticCase):
        """Apply the policy's evidence mode; returns ``(evidence, issues)``."""
        if self.policy.on_invalid_evidence == "raise":
            return validate_evidence(self.model, case.evidence()), ()
        issues: list = []
        try:
            merged = case.evidence()
        except EvidenceError as error:
            # Conflicting controllable/observable entries: neither side can
            # be trusted, so the conflicting blocks are dropped entirely.
            conflicting = {issue.variable for issue in error.issues}
            merged = {variable: state
                      for variable, state in case.raw_evidence().items()
                      if variable not in conflicting}
            issues.extend(error.issues)
        clean, sanitize_issues = sanitize_evidence(self.model, merged)
        issues.extend(sanitize_issues)
        return clean, tuple(issues)

    def _cached_posteriors(self, evidence: Mapping[str, str]
                           ) -> dict[str, dict[str, float]] | None:
        """Durable-cache lookup; any I/O trouble degrades to a miss."""
        try:
            value = self.posterior_cache.get_posteriors(
                self._model_fingerprint(), evidence)
        except (ReproError, OSError):
            value = None
        if value is None:
            self.cache_misses += 1
            return None
        self.cache_hits += 1
        return value

    def _store_posteriors(self, evidence: Mapping[str, str],
                          posteriors: dict[str, dict[str, float]]) -> None:
        """Durably share an exact posterior set; failures never propagate."""
        try:
            self.posterior_cache.put_posteriors(
                self._model_fingerprint(), evidence, posteriors)
        except (ReproError, OSError):
            return
        if self._batch_posteriors is not None:
            self._batch_posteriors[tuple(sorted(evidence.items()))] = \
                posteriors

    def _accept_batch_hit(self, case: DiagnosticCase,
                          evidence: dict[str, str],
                          stored: dict[str, dict[str, float]], issues: tuple,
                          notes: list[str], start: float) -> Diagnosis:
        """A durable hit on posteriors an earlier slot of this batch read."""
        self.cache_hits += 1
        posteriors = {variable: dict(states)
                      for variable, states in stored.items()}
        attempt = AttemptRecord("cache", "ok", time.perf_counter() - start)
        return self._accept_cached(case, evidence, posteriors, (attempt,),
                                   issues, notes, start)

    def _accept_cached(self, case: DiagnosticCase, evidence: dict[str, str],
                       posteriors: dict[str, dict[str, float]],
                       attempts: tuple[AttemptRecord, ...], issues: tuple,
                       notes: list[str], start: float) -> Diagnosis:
        """Build a Diagnosis from durably cached exact posteriors.

        Only exact-engine results are ever written to the cache, so a hit
        carries no effective-sample-size caveat; the provenance engine is
        ``"cache"`` and the result is degraded only if the evidence
        boundary had complaints.
        """
        degraded = bool(notes)
        provenance = DiagnosisProvenance(
            engine="cache", attempts=attempts,
            wall_time=time.perf_counter() - start, degraded=degraded,
            effective_sample_size=None, evidence_issues=issues,
            notes=tuple(notes))
        if degraded:
            warnings.warn(
                f"case {case.name!r} served degraded from the durable "
                f"cache: " + "; ".join(notes), DegradedResultWarning,
                stacklevel=3)
        return self._diagnosis(case.name, evidence, posteriors, provenance)

    def _accept(self, case: DiagnosticCase, evidence: dict[str, str],
                posteriors: dict[str, dict[str, float]], engine_name: str,
                chain_position: int, attempts: tuple[AttemptRecord, ...],
                issues: tuple, notes: list[str], start: float) -> Diagnosis:
        """Build the final Diagnosis + provenance from accepted posteriors."""
        if self.posterior_cache is not None and engine_name in ("ve", "jt"):
            # Only exact posteriors are durable: a sampled result is
            # seed- and sample-count-dependent, and committing it would
            # serve a degraded answer forever.
            self._store_posteriors(evidence, posteriors)
        ess = self._effective_sample_size(engine_name)
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
                f"case {case.name!r} served degraded by {engine_name!r}: "
                + "; ".join(notes), DegradedResultWarning, stacklevel=3)
        return self._diagnosis(case.name, evidence, posteriors, provenance)

    def _effective_sample_size(self, engine_name: str) -> float | None:
        """Confidence signal of a sampled posterior; None for exact engines."""
        engine = self._engine_for(engine_name)._engine
        ess = getattr(engine, "last_effective_sample_size", None)
        if ess is not None:
            return float(ess)
        if engine_name == "gibbs":
            return float(engine.num_samples)
        return None
