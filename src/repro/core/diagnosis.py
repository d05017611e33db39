"""Block-level diagnosis: evidence entry, posterior update and candidate deduction.

In diagnostic mode (Section III-B of the paper) the BBN circuit model takes
the test data of a failing device — the states of the controllable and
observable blocks — and updates the probabilities of the remaining blocks
with Bayes' theorem.  The paper then deduces the suspect functional blocks
*manually* by iterating over the parent–child relations ("a common parent
block can be iteratively deduced").  :class:`DiagnosisEngine` automates both
steps; the deduction algorithm below reproduces the paper's reasoning on all
five published case studies when fed the paper's own posterior numbers.

:meth:`DiagnosisEngine.diagnose_batch` is the one pipeline (a single case is
a batch of one), run under the engine's :class:`FallbackPolicy`:

1. **Admit** — each slot's evidence is checked once, strictly by
   :func:`~repro.core.evidence.validate_evidence` or repair-and-continue by
   :func:`~repro.core.evidence.sanitize_evidence`, and mapped onto the
   batch's distinct rows; a bad slot fails alone.
2. **Sweep** — the distinct rows are answered as one posterior matrix by
   ONE sweep of the chain's first engine; a row the sweep could not answer
   walks the rest of the chain, the sweep counted as the primary's first
   attempt (malformed or zero-probability evidence fails at once).
3. **Settle** — each distinct row is ranked once, and each slot becomes a
   lazy view of its row or its row's failure, under its own name.

The sweep stage names no case, so a
:class:`~repro.serving.DiagnosisService` runs admit and settle in its own
process and only the sweep in its workers.  Every :class:`Diagnosis`
carries a :class:`DiagnosisProvenance` (engine, attempts, its equal share
of the batch's wall time, degradation), built on first read; a degraded
result also emits a :class:`~repro.exceptions.DegradedResultWarning`.  A
deadline is a budget checked between the stages; nothing running is
interrupted (a served request's hard bound is the supervisor reaping its
worker, see :mod:`repro.serving.service`).  An engine built without a
policy is a chain of one, variable elimination.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from collections.abc import Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.bayesnet.codec import EvidenceCodec
from repro.bayesnet.inference import (
    GibbsSampling,
    JunctionTree,
    LikelihoodWeighting,
    VariableElimination,
)
from repro.core.evidence import (
    EvidenceIssue,
    merge_case_evidence,
    sanitize_evidence,
    validate_evidence,
)
from repro.core.model_builder import BuiltModel
from repro.exceptions import (
    DeadlineExceededError,
    DegradedResultWarning,
    DiagnosisError,
    EvidenceError,
    FallbackExhaustedError,
    ImpossibleEvidenceError,
    InferenceTimeoutError,
    ReproError,
)

#: The inference engines a fallback chain can name, in decreasing exactness.
_ENGINES = {"jt": JunctionTree, "ve": VariableElimination,
            "lw": LikelihoodWeighting, "gibbs": GibbsSampling}
ENGINE_NAMES = tuple(_ENGINES)

#: Failure classes no retry or engine change can repair: the input itself is
#: bad (malformed evidence) or contradicts the model (zero probability).
PERMANENT_FAILURES = (EvidenceError, ImpossibleEvidenceError)


def chunk_slices(total: int, chunk_size: int) -> list[slice]:
    """Split ``total`` batch slots into the fewest contiguous slices of at
    most ``chunk_size``: ``count = ceil(total / chunk_size)`` slices of
    ``ceil(total / count)`` slots, the last one possibly shorter (500 slots
    at 256 are two of 250, not 256 and 244).

    The shared chunking rule for every sharded batch entry point (the
    worker-pool service, future async APIs): deterministic, order-preserving
    and exhaustive, so per-slot accounting survives resharding.
    """
    if chunk_size < 1:
        raise DiagnosisError(f"chunk_size must be >= 1, got {chunk_size}")
    if total < 0:
        raise DiagnosisError(f"total must be >= 0, got {total}")
    size = max(1, -(-total // max(1, -(-total // chunk_size))))
    return [slice(start, min(start + size, total))
            for start in range(0, total, size)]


def merge_sweep(answer: tuple, rows: slice, swept) -> tuple:
    """Fold the sweep of a slice of a batch's rows into the batch's answer.

    ``answer`` is the sweep stage's ``(matrix, outcomes, seconds)`` for the
    whole batch (from ``DiagnosisEngine._unswept``); ``swept`` is the
    answer ``_sweep`` gave for ``rows`` alone, or an error every row of the
    slice fails with.  Returns the merged answer.
    """
    matrix, outcomes, seconds = answer
    if isinstance(swept, BaseException):
        outcomes.update(dict.fromkeys(range(rows.start, rows.stop), swept))
        return answer
    matrix[rows], answered, elapsed = swept
    outcomes.update((rows.start + row, outcome)
                    for row, outcome in answered.items())
    return matrix, outcomes, seconds + elapsed


def _slot_name(case, index: int, names) -> str:
    """A batch slot's case name."""
    if isinstance(case, DiagnosticCase):
        return case.name
    return names[index] if names is not None else f"case-{index}"


def _slot_failure(name: str, case, error: Exception,
                  on_error: str) -> "DiagnosisFailure":
    """Re-raise under ``on_error="raise"``, else the structured failure.

    ``case`` is the slot as submitted; the failure records its raw
    evidence (none for a slot that is neither a mapping nor a case) and
    the error's attempt trail.  Its wall time is set when the batch ends.
    """
    if on_error == "raise":
        raise error
    if isinstance(case, DiagnosticCase):
        raw = case.raw_evidence()
    elif isinstance(case, Mapping):
        raw = {str(variable): str(state) for variable, state in case.items()}
    else:
        raw = {}
    return DiagnosisFailure.from_exception(
        name, raw, error, attempts=tuple(getattr(error, "attempts", ()) or ()))


@dataclasses.dataclass(frozen=True)
class Budget:
    """A batch's wall-clock budget: ``seconds`` from ``start``.

    Checked between pipeline stages; nothing running is interrupted.
    """

    seconds: float
    start: float

    def left(self) -> float:
        return self.start + self.seconds - time.perf_counter()

    def exceeded(self, attempts: tuple = (),
                 cause: BaseException | None = None,
                 late: tuple[str, float] | None = None
                 ) -> DeadlineExceededError:
        """The budget-spent error, with its attempt trail.

        ``late`` is the ``(engine, elapsed)`` of a sweep or attempt that
        ended past the budget: it joins the trail as a ``"timeout"``
        attempt, and its :class:`~repro.exceptions.InferenceTimeoutError`
        becomes the cause.  The message names no case: every slot of the
        rows it fails carries its own name.
        """
        if late is not None:
            engine, elapsed = late
            cause = InferenceTimeoutError(
                f"engine {engine!r} ran past the {self.seconds:g}s budget",
                engine=engine, deadline=self.seconds)
            attempts = (*attempts, AttemptRecord(
                engine, "timeout", elapsed, f"{type(cause).__name__}: {cause}"))
        error = DeadlineExceededError(
            f"deadline budget of {self.seconds:g}s exhausted after "
            f"{len(attempts)} attempt(s)",
            remaining=self.left(), deadline=self.seconds)
        error.attempts = attempts
        error.wall_time = time.perf_counter() - self.start
        error.__cause__ = cause
        return error


class _Batch(NamedTuple):
    """The admit stage's output: the batch's start, its results so far (a
    slot that failed admission holds its failure), every admitted slot as
    ``(index, case, name, evidence, issues, row)``, the distinct admitted
    rows in first-seen order and how many admitted slots share each."""

    started: float
    results: list
    slots: list
    rows: list
    counts: list


@dataclasses.dataclass(frozen=True)
class DiagnosticCase:
    """One diagnostic query: the observed condition of a failing device.

    Attributes
    ----------
    name:
        Case identifier (the paper uses d1 ... d5).
    controllable_states:
        State label per controllable model variable (the test conditions).
    observable_states:
        State label per observable model variable (the responses).
    expected_fail_blocks:
        Optional ground truth / expert verdict, used only for scoring.
    """

    name: str
    controllable_states: Mapping[str, str]
    observable_states: Mapping[str, str]
    expected_fail_blocks: tuple[str, ...] = ()

    def evidence(self) -> dict[str, str]:
        """Return the combined evidence mapping.

        A variable appearing in both the controllable and the observable
        section with different states is a contradiction in the source data
        and raises :class:`~repro.exceptions.EvidenceError` naming every
        conflicting block.
        """
        return merge_case_evidence(self.controllable_states,
                                   self.observable_states)

    def raw_evidence(self) -> dict[str, str]:
        """Return the merged mapping without conflict checking (for logging)."""
        merged = {variable: str(state)
                  for variable, state in self.controllable_states.items()}
        for variable, state in self.observable_states.items():
            merged[variable] = str(state)
        return merged


@dataclasses.dataclass(frozen=True)
class AttemptRecord:
    """One inference attempt made while serving a diagnosis.

    Attributes
    ----------
    engine:
        Engine name (``"jt"``, ``"ve"``, ``"lw"`` or ``"gibbs"``).
    outcome:
        ``"ok"``, ``"timeout"`` or ``"error"``.
    elapsed:
        Wall time of the attempt in seconds.
    error:
        ``"ExceptionType: message"`` for failed attempts, else ``None``.
    """

    engine: str
    outcome: str
    elapsed: float
    error: str | None = None

    def to_dict(self) -> dict:
        """Return a JSON-safe dict (service responses, structured logs)."""
        return {"engine": self.engine, "outcome": self.outcome,
                "elapsed": float(self.elapsed), "error": self.error}


@dataclasses.dataclass
class DiagnosisProvenance:
    """How a diagnosis was produced — every result's audit trail.

    Attributes
    ----------
    engine:
        The engine that produced the accepted posteriors.
    attempts:
        Every attempt made, in order, including failed ones (the sweep's
        elapsed time is its equal share per admitted slot).
    wall_time:
        The result's equal share, in seconds, of its batch's wall time.
    degraded:
        True when the result did not come from the primary engine on the
        first try (fallback, retry) or carries reduced-precision notes.
    effective_sample_size:
        Weight-population ESS for likelihood weighting, retained-sample
        count for Gibbs, ``None`` for exact engines.
    evidence_issues:
        :class:`~repro.core.evidence.EvidenceIssue` records from evidence
        sanitisation (empty for clean cases).
    notes:
        Human-readable degradation notes ("fell back to lw", "low ESS").
    """

    engine: str
    attempts: tuple[AttemptRecord, ...] = ()
    wall_time: float = 0.0
    degraded: bool = False
    effective_sample_size: float | None = None
    evidence_issues: tuple = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Return a JSON-safe dict (service responses, structured logs)."""
        return {
            "engine": self.engine,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "wall_time": float(self.wall_time),
            "degraded": bool(self.degraded),
            "effective_sample_size":
                None if self.effective_sample_size is None
                else float(self.effective_sample_size),
            "evidence_issues": [dataclasses.asdict(issue)
                                for issue in self.evidence_issues],
            "notes": list(self.notes),
        }


@dataclasses.dataclass
class DiagnosisFailure:
    """A per-case structured failure from ``diagnose_batch``.

    Returned (``on_error="collect"``) instead of raising, so one poisoned
    case cannot kill a population sweep.  Mirrors :class:`Diagnosis` enough
    for uniform handling: ``case_name``, ``evidence`` and the ``ok``
    discriminator.
    """

    case_name: str
    evidence: dict[str, str]
    error_type: str
    message: str
    attempts: tuple[AttemptRecord, ...] = ()
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return False

    @classmethod
    def from_exception(cls, case_name: str, evidence: Mapping[str, str],
                       error: BaseException,
                       attempts: tuple[AttemptRecord, ...] = (),
                       wall_time: float = 0.0) -> "DiagnosisFailure":
        return cls(case_name=case_name, evidence=dict(evidence),
                   error_type=type(error).__name__, message=str(error),
                   attempts=attempts, wall_time=wall_time)

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (f"DiagnosisFailure({self.case_name!r}: "
                f"{self.error_type}: {self.message})")

    def to_dict(self) -> dict:
        """Return a JSON-safe dict (service responses, structured logs)."""
        return {
            "ok": False,
            "case_name": self.case_name,
            "evidence": {str(variable): str(state)
                         for variable, state in self.evidence.items()},
            "error_type": self.error_type,
            "message": self.message,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "wall_time": float(self.wall_time),
        }


@dataclasses.dataclass
class Diagnosis:
    """The result of diagnosing one case.

    Attributes
    ----------
    case_name:
        Name of the diagnosed case.
    evidence:
        The evidence that was entered.
    posteriors:
        Posterior ``{variable: {state: probability}}`` of every model
        variable (evidence variables collapse onto their observed state).
    fail_probabilities:
        Per internal variable, the probability of *not* being in its healthy
        state.
    suspects:
        The deduced suspect blocks (the paper's candidate list), most
        suspicious first.
    ranked_candidates:
        Every internal variable ranked by fail probability (the naive
        ranking used as an ablation baseline).
    provenance:
        How the result was produced (engine, attempts, wall time,
        degradation).  Every engine result carries its own; ``None`` only
        on a result constructed without one.

    A batch result is a row view: ``posteriors``, ``fail_probabilities``,
    ``ranked_candidates`` and ``provenance`` are built on first read, then
    kept (see README).
    """

    case_name: str
    evidence: dict[str, str]
    posteriors: dict[str, dict[str, float]]
    fail_probabilities: dict[str, float]
    suspects: list[str]
    ranked_candidates: list[tuple[str, float]]
    provenance: DiagnosisProvenance | None = None

    @classmethod
    def _of_row(cls, layout, row, order, suspects, case_name, evidence,
                record) -> "Diagnosis":
        """The view of one posterior matrix row, its ranking ``order`` and
        its provenance's field values ``record`` (views may share one)."""
        view = cls.__new__(cls)
        view.__dict__.update(case_name=case_name, evidence=evidence,
                             suspects=list(suspects), _layout=layout,
                             _row=row, _order=order, _provenance=record)
        return view

    @property
    def ok(self) -> bool:
        return True

    def to_dict(self) -> dict:
        """Return a JSON-safe dict (service responses, structured logs).

        Every value is a plain str/float/bool/list/dict so the result
        round-trips through ``json.dumps`` without a custom encoder.
        """
        return {
            "ok": True,
            "case_name": self.case_name,
            "evidence": {str(variable): str(state)
                         for variable, state in self.evidence.items()},
            "posteriors": {
                variable: {state: float(probability)
                           for state, probability in distribution.items()}
                for variable, distribution in self.posteriors.items()},
            "fail_probabilities": {
                variable: float(probability)
                for variable, probability in self.fail_probabilities.items()},
            "suspects": list(self.suspects),
            "ranked_candidates": [[candidate, float(probability)]
                                  for candidate, probability
                                  in self.ranked_candidates],
            "provenance":
                None if self.provenance is None else self.provenance.to_dict(),
        }

    def top_candidate(self) -> str:
        """Return the single most suspicious block."""
        if self.suspects:
            return self.suspects[0]
        if self.ranked_candidates:
            return self.ranked_candidates[0][0]
        raise DiagnosisError(
            f"diagnosis of case {self.case_name!r} has no candidates: both "
            "the suspect list and the fail-probability ranking are empty "
            "(the model has no internal variables)")

    def rank_of(self, block: str) -> int:
        """Return the 1-based rank of ``block`` in the fail-probability ranking."""
        for rank, (candidate, _) in enumerate(self.ranked_candidates, start=1):
            if candidate == block:
                return rank
        raise DiagnosisError(
            f"block {block!r} is not an internal model variable")


class _RowField:
    """A view's field, built on first read, then kept; set ones shadow it."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, view, owner=None):
        if view is None:
            return self
        value = view.__dict__[self.name] = getattr(view._layout,
                                                   self.name)(view)
        return value


Diagnosis.posteriors, Diagnosis.fail_probabilities, \
    Diagnosis.ranked_candidates, Diagnosis.provenance = map(_RowField, (
        "posteriors", "fail_probabilities", "ranked_candidates", "provenance"))


@dataclasses.dataclass(frozen=True)
class FallbackPolicy:
    """How a :class:`DiagnosisEngine` admits evidence and degrades.

    The fallback chain keeps answering, at reduced precision, scoped to what
    the evidence supports: the graceful degradation the model-based
    diagnosis literature motivates (Roos's efficient compiled diagnosis;
    Srinivas's hierarchical diagnosis — see PAPERS.md).

    Attributes
    ----------
    chain:
        Engine names tried in order; the first is the primary, which
        answers every sweep.  Exact engines (``"jt"``, ``"ve"``) should
        precede the approximate ones (``"lw"``, ``"gibbs"``) so precision
        only ever degrades.
    attempts_per_engine:
        How often each engine is retried before degrading to the next.
    backoff:
        Base sleep in seconds between retries of the same engine, doubled
        per retry (``backoff * 2**retry_index``).  Zero disables sleeping.
    num_samples:
        Sample budget handed to the approximate engines (their own
        defaults when ``None``).
    seed:
        Sampler seed for the approximate engines, so sampled and degraded
        answers stay reproducible.
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


class DiagnosisEngine:
    """Runs block-level diagnosis queries against a built BBN circuit model.

    Parameters
    ----------
    built_model:
        The model produced by :class:`~repro.core.model_builder.Dlog2BBN`.
    policy:
        The :class:`FallbackPolicy`: evidence mode, fallback chain (its
        first engine answers every sweep), retries and sampler settings.
        ``None`` is ``FallbackPolicy(chain=("ve",))``: variable elimination
        alone with strict evidence, a chain of one.  ``"jt"`` is
        junction-tree belief propagation (the Netica-style engine), ``"lw"``
        likelihood weighting and ``"gibbs"`` Gibbs sampling.
    abnormal_threshold:
        Fail probability above which an internal block counts as *abnormal*
        (clearly not in its healthy state).
    ambiguous_threshold:
        Fail probability above which an internal block counts as *ambiguous*
        (suspicious enough to absorb the blame of its abnormal children).
    """

    def __init__(self, built_model: BuiltModel,
                 policy: FallbackPolicy | None = None,
                 abnormal_threshold: float = 0.5,
                 ambiguous_threshold: float = 0.4) -> None:
        if not 0.0 < ambiguous_threshold <= abnormal_threshold <= 1.0:
            raise DiagnosisError(
                "thresholds must satisfy 0 < ambiguous <= abnormal <= 1, got "
                f"ambiguous={ambiguous_threshold}, abnormal={abnormal_threshold}")
        self.built_model = built_model
        self.model = built_model.description
        self.network = built_model.network
        self.healthy_states = built_model.healthy_states
        self.policy = policy or FallbackPolicy(chain=("ve",))
        self.abnormal_threshold = float(abnormal_threshold)
        self.ambiguous_threshold = float(ambiguous_threshold)
        # The chain's inference engines by name, each built on first use:
        # a healthy batch never builds a fallback engine.
        self._rungs: dict[str, object] = {}
        self._engine = self._rung(self.policy.chain[0])
        self._layout = _RowLayout(self.model, self.network,
                                  self.healthy_states)
        # Model order of the internal variables, the tie-break of suspects.
        self._internal_order = {
            variable: index
            for index, variable in enumerate(self.model.internal_variables)}
        self._internal_parents = {
            variable: tuple(parent
                            for parent in self.model.parents_of(variable)
                            if parent in self._internal_order)
            for variable in self._internal_order}
        self._patterns = _SUSPECT_PATTERNS.setdefault((
            tuple(self._internal_parents.items()), self.abnormal_threshold,
            self.ambiguous_threshold), {})

    def _rung(self, name: str):
        """The chain's inference engine ``name``, built on first use; the
        samplers take the policy's seed and sample budget."""
        engine = self._rungs.get(name)
        if engine is None:
            options = {}
            if name in ("lw", "gibbs"):
                options["seed"] = self.policy.seed
                if self.policy.num_samples is not None:
                    options["num_samples"] = self.policy.num_samples
            engine = self._rungs[name] = _ENGINES[name](self.network,
                                                        **options)
        return engine

    # --------------------------------------------------------------- posteriors
    def initial_probabilities(self) -> dict[str, dict[str, float]]:
        """Return the prior marginals of every variable (the Init.% column)."""
        return self._engine.posteriors(self.model.variable_names, evidence={})

    def update(self, evidence: Mapping[str, str]) -> dict[str, dict[str, float]]:
        """Return the posterior marginals of every variable given ``evidence``.

        A batch of one through :meth:`diagnose_batch`: all free-variable
        marginals come from ONE inference sweep; evidence variables
        collapse onto their observed state.
        """
        return self.diagnose_batch([evidence])[0].posteriors

    def _update(self, engine, evidence: dict[str, str]) -> np.ndarray:
        """One ``posteriors`` query of ``engine`` on checked evidence, as a
        matrix row."""
        free = [variable for variable in self.model.variable_names
                if variable not in evidence]
        return self._layout.fill(evidence, engine.posteriors(free, evidence))

    def fail_probability(self, variable: str,
                         posteriors: Mapping[str, Mapping[str, float]]) -> float:
        """Return the probability that ``variable`` is not in its healthy state."""
        healthy = self.healthy_states[variable]
        distribution = posteriors[variable]
        return 1.0 - float(distribution.get(healthy, 0.0))

    # ---------------------------------------------------------------- deduction
    def deduce_candidates(self, posteriors: Mapping[str, Mapping[str, float]]
                          ) -> list[str]:
        """Automate the paper's iterative parent back-tracking.

        Rules (validated against the paper's cases d1–d5):

        1. Compute the fail probability of every internal model variable.
        2. *Abnormal* variables (fail probability >= ``abnormal_threshold``)
           are presumed consequences rather than causes whenever they have an
           internal parent that is itself at least *ambiguous*
           (fail probability >= ``ambiguous_threshold``): the suspicion
           "falls back" to those parents, exactly as in case d1 where the
           non-functional enables point back to ``warnvpst``.
        3. *Ambiguous but not abnormal* variables reached by that
           back-tracking stay on the suspect list themselves **and** pull in
           their own ambiguous internal parents (case d1 keeps both
           ``warnvpst`` and ``hcbg``).
        4. A variable with no ambiguous internal parents is a final suspect
           (case d4 resolves the lcbg/enblSen/hcbg loop onto ``lcbg`` because
           only ``lcbg`` has no suspicious internal parent).

        The returned list is ordered by decreasing fail probability.
        """
        return self._deduce_from_fail(
            {variable: self.fail_probability(variable, posteriors)
             for variable in self.model.internal_variables})

    def _deduce_from_fail(self, fail: dict[str, float]) -> list[str]:
        """Back-track suspects from precomputed internal fail probabilities."""
        internal_parents = self._internal_parents

        def ambiguous_internal_parents(variable: str) -> list[str]:
            return [parent for parent in internal_parents[variable]
                    if fail[parent] >= self.ambiguous_threshold]

        suspects: set[str] = set()
        # Seed with the abnormal variables, most downstream first so that the
        # blame propagates upwards in one pass per frontier.
        frontier = [variable for variable in fail
                    if fail[variable] >= self.abnormal_threshold]
        visited: set[str] = set()
        while frontier:
            next_frontier: list[str] = []
            for variable in frontier:
                if variable in visited:
                    continue
                visited.add(variable)
                parents = ambiguous_internal_parents(variable)
                if fail[variable] >= self.abnormal_threshold and parents:
                    # Clearly broken, but explained by a suspicious parent:
                    # pass the blame upwards.
                    next_frontier.extend(parents)
                elif fail[variable] >= self.ambiguous_threshold:
                    # Suspicious in its own right: keep it, and also examine
                    # its suspicious parents (they may share the blame or,
                    # if they are abnormal themselves, take it over).
                    suspects.add(variable)
                    next_frontier.extend(parents)
            frontier = [variable for variable in next_frontier
                        if variable not in visited]

        if not suspects and fail:
            # Nothing crossed the thresholds: fall back to the single most
            # suspicious internal block so the diagnosis is never empty.
            suspects = {max(fail, key=fail.get)}
        # Equal fail probabilities keep model order, not the set's
        # string-hash order.
        order = self._internal_order
        return sorted(suspects, key=lambda variable: (-fail[variable],
                                                      order[variable]))

    def rank_by_fail_probability(self, posteriors: Mapping[str, Mapping[str, float]]
                                 ) -> list[tuple[str, float]]:
        """Return every internal variable ranked by fail probability (naive ranking)."""
        fail = {variable: self.fail_probability(variable, posteriors)
                for variable in self.model.internal_variables}
        return sorted(fail.items(), key=lambda item: item[1], reverse=True)

    def _rank_rows(self, matrix: np.ndarray) -> list[tuple[list, list]]:
        """Every posterior row's ranking order (one stable argsort of the
        fail probabilities, ties in model order) and suspects.  The rules
        read only each internal block's level (below ambiguous, ambiguous,
        abnormal): :meth:`_deduce_from_fail` runs once per pattern, and
        with no abnormal block the top-ranked block is the one suspect."""
        names, width = self._layout.internal, len(self._layout.internal)
        fail = 1.0 - matrix[:, self._layout.healthy]
        raw = ((fail >= self.ambiguous_threshold).astype(np.int8)
               + (fail >= self.abnormal_threshold)).tobytes()
        band = (0.0, self.ambiguous_threshold, self.abnormal_threshold)
        suspects = []
        for row, ranked in enumerate(
                np.argsort(-fail, axis=1, kind="stable").tolist()):
            pattern = raw[row * width:(row + 1) * width]
            chosen = self._patterns.get(pattern)
            if chosen is None:
                chosen = self._patterns[pattern] = frozenset(
                    map(names.index, self._deduce_from_fail(dict(zip(
                        names, (band[level] for level in pattern))))
                        )) if 2 in pattern else frozenset()
            suspects.append((ranked, [names[i] for i in ranked if i in chosen]
                             if chosen else [names[i] for i in ranked[:1]]))
        return suspects

    # ---------------------------------------------------------------- diagnosis
    def diagnose(self, case: DiagnosticCase,
                 deadline: float | None = None) -> Diagnosis:
        """Diagnose one case: update posteriors and deduce the suspect list.

        A batch of one through :meth:`diagnose_batch`, ``deadline``
        included; a failure raises.
        """
        return self.diagnose_batch([case], deadline=deadline)[0]

    def diagnose_evidence(self, evidence: Mapping[str, str],
                          name: str = "adhoc") -> Diagnosis:
        """Diagnose from a raw evidence mapping (observable/controllable states)."""
        return self.diagnose_batch([evidence], names=[name])[0]

    def diagnose_batch(self, cases: Sequence[DiagnosticCase | Mapping[str, str]],
                       names: Sequence[str] | None = None,
                       on_error: str = "raise",
                       deadline: float | None = None,
                       ) -> list[Diagnosis | DiagnosisFailure]:
        """Diagnose a whole population of cases against one shared engine.

        The one diagnosis pipeline; :meth:`diagnose`,
        :meth:`diagnose_evidence` and :meth:`update` are batches of one, and
        a :class:`~repro.serving.DiagnosisService` runs the same stages with
        the sweep in its workers.  Each slot's evidence is checked once and
        the checked rows deduplicated (:meth:`_admit`); the distinct rows
        then run as ONE sweep of the primary engine into one posterior
        matrix, and a row the sweep could not answer walks the fallback
        chain (:meth:`_sweep`); each slot settles into a view of its ranked
        row or its row's failure (:meth:`_settle`).  Each result's wall time
        is its equal share of the batch's.

        Parameters
        ----------
        cases:
            :class:`DiagnosticCase` instances, or raw evidence mappings
            (variable -> observed state), read as they are like
            :meth:`diagnose_evidence` does.  Any other slot fails with an
            :class:`~repro.exceptions.EvidenceError`.
        names:
            Optional case names, aligned with ``cases``; only used for raw
            evidence mappings (defaults to ``case-<i>``).
        on_error:
            Per-case failure isolation.  ``"raise"`` (default) propagates
            the first failure, aborting the batch.  ``"skip"`` drops failed
            cases from the result.  ``"collect"`` keeps batch order and
            returns a structured :class:`DiagnosisFailure` in a failed
            case's slot, so one poisoned case cannot kill a population
            sweep.
        deadline:
            Optional total wall-clock budget in seconds shared by the whole
            batch, checked between the pipeline's stages: before each
            slot's admission, before and after the sweep, and before and
            after each fallback attempt.  A slot that meets a spent budget,
            or whose sweep ended past it, fails with a
            :class:`~repro.exceptions.DeadlineExceededError` (handled per
            ``on_error``).  Nothing running is interrupted.
        """
        if on_error not in ("raise", "skip", "collect"):
            raise DiagnosisError(
                f"unknown on_error mode {on_error!r}; "
                "use 'raise', 'skip' or 'collect'")
        budget = None if deadline is None \
            else Budget(deadline, time.perf_counter())
        batch = self._admit(cases, names, on_error, budget)
        results = self._settle(batch, self._sweep(batch.rows, budget),
                               on_error)
        if on_error == "skip":
            return [result for result in results if result.ok]
        return results

    def _admit(self, cases, names, on_error: str,
               budget: Budget | None) -> _Batch:
        """The admit stage: check each slot's evidence once, then map it
        onto the batch's distinct rows.

        The check is strict or sanitising per
        ``policy.on_invalid_evidence``: a bad entry, or a spent budget,
        fails this slot alone (raised under ``on_error="raise"``), so the
        sweep sees checked labels only.
        """
        cases = list(cases)
        if names is not None and len(names) != len(cases):
            raise DiagnosisError(
                f"got {len(names)} names for {len(cases)} cases")
        started = time.perf_counter() if budget is None else budget.start
        strict = self.policy.on_invalid_evidence == "raise"
        results: list[Diagnosis | DiagnosisFailure | None] = [None] * len(cases)
        slots = []
        keys: dict[frozenset, int] = {}
        rows: list[dict[str, str]] = []
        counts: list[int] = []
        for index, item in enumerate(cases):
            name = _slot_name(item, index, names)
            try:
                if budget is not None and budget.left() <= 0:
                    raise budget.exceeded()
                if strict:
                    evidence, issues = validate_evidence(self.model, item), ()
                else:
                    evidence, issues = sanitize_evidence(self.model, item)
            except Exception as error:
                results[index] = _slot_failure(name, item, error, on_error)
                continue
            row = keys.setdefault(frozenset(evidence.items()), len(rows))
            if row == len(rows):
                rows.append(evidence)
                counts.append(0)
            counts[row] += 1
            slots.append((index, item, name, evidence, issues, row))
        return _Batch(started, results, slots, rows, counts)

    def _sweep(self, rows: list[dict[str, str]],
               budget: Budget | None = None) -> tuple:
        """The sweep stage, the one a service worker runs: answer every
        distinct admitted row.

        Returns ``(matrix, outcomes, seconds)``: the ``(rows, width)``
        posterior matrix, the outcome of each row the primary did not
        answer cleanly, and the primary sweep's wall time.  An outcome is
        a sampler primary's effective sample size, the ``(row, position,
        attempts, ess)`` of the chain engine that answered a row the sweep
        could not, or the error the row fails with, its trail on
        ``attempts``.  The budget is checked before and after the sweep
        and around each chain attempt.  Nothing here names a case.
        """
        count = len(rows)
        if budget is not None and budget.left() <= 0:
            return merge_sweep(self._unswept(count), slice(0, count),
                               budget.exceeded())
        start = time.perf_counter()
        try:
            matrix, errors, outcomes = self._answer(rows)
        except Exception as error:  # noqa: BLE001 - fails every row
            matrix, outcomes, _ = self._unswept(count)
            errors = dict.fromkeys(range(count), error)
        seconds = time.perf_counter() - start
        if budget is not None and budget.left() <= 0:
            late = budget.exceeded(late=(self.policy.chain[0], seconds))
            return matrix, dict.fromkeys(range(count), late), seconds
        share = seconds / max(count, 1)
        for row, error in errors.items():
            try:
                outcomes[row] = self._walk(rows[row], error, share, budget)
            except Exception as failure:  # noqa: BLE001 - fails this row
                outcomes[row] = failure
        return matrix, outcomes, seconds

    def _unswept(self, count: int) -> tuple:
        """The sweep stage's answer for ``count`` rows before any is swept:
        what :func:`merge_sweep` folds the answers of a batch's chunks
        into."""
        return np.zeros((count, self._layout.width)), {}, 0.0

    def _answer(self, rows: list[dict[str, str]]) -> tuple:
        """One sweep of the primary engine: the read-only posterior matrix,
        each failed row's error and each sampled row's effective sample
        size.  Variable elimination answers in one ``posteriors_batch``
        call; the other engines fill the matrix one ``posteriors`` query
        per row."""
        errors, sizes = {}, {}
        if isinstance(self._engine, VariableElimination):
            answers = self._engine.posteriors_batch(rows)
            matrix, probability = answers.matrix, answers.probability
            for row in np.flatnonzero(~(np.isfinite(probability)
                                        & (probability > 0.0))).tolist():
                errors[row] = answers.error(row)
        else:
            matrix = np.zeros((len(rows), self._layout.width))
            for row, evidence in enumerate(rows):
                try:
                    matrix[row] = self._update(self._engine, evidence)
                except Exception as error:  # noqa: BLE001 - fails this row
                    errors[row] = error
                    continue
                size = getattr(self._engine, "last_effective_sample_size",
                               None)
                if size is not None:
                    sizes[row] = size
            matrix.flags.writeable = False
        for row, error in errors.items():
            if isinstance(error, ImpossibleEvidenceError):
                # Every engine's zero-probability row fails with one message.
                errors[row] = ImpossibleEvidenceError(
                    "the evidence has zero probability under the model; "
                    "posteriors are undefined", evidence=rows[row])
        return matrix, errors, sizes

    def _walk(self, evidence: dict[str, str], error: Exception,
              elapsed: float, budget: Budget | None):
        """Walk the fallback chain for a row the sweep could not answer.

        The failed sweep (``error``, ``elapsed``) is the primary's first
        attempt and is not repeated.  A permanent failure, or one with no
        attempt left in the chain, fails the row at once.  Returns the
        ``(row, position, attempts, ess)`` of the engine that answered, or
        the error the row fails with.  The budget is checked before and
        after each attempt; a backoff sleep is clamped to what is left of
        it.
        """
        policy = self.policy
        start = time.perf_counter()
        attempts = [AttemptRecord(policy.chain[0], "error", elapsed,
                                  f"{type(error).__name__}: {error}")]
        if isinstance(error, PERMANENT_FAILURES) \
                or len(policy.chain) * policy.attempts_per_engine == 1:
            error.attempts, error.wall_time = tuple(attempts), elapsed
            return error
        last_error = error
        for position, engine_name in enumerate(policy.chain):
            for retry in range(position == 0, policy.attempts_per_engine):
                if retry and policy.backoff > 0:
                    sleep = policy.backoff * (2 ** (retry - 1))
                    if budget is not None:
                        sleep = min(sleep, max(budget.left(), 0.0))
                    if sleep > 0:
                        time.sleep(sleep)
                if budget is not None and budget.left() <= 0:
                    return budget.exceeded(tuple(attempts), last_error)
                attempt_start = time.perf_counter()
                engine = self._rung(engine_name)
                try:
                    row = self._update(engine, evidence)
                except Exception as failure:  # noqa: BLE001 - recorded below
                    row, last_error = None, failure
                elapsed = time.perf_counter() - attempt_start
                if budget is not None and budget.left() <= 0:
                    return budget.exceeded(tuple(attempts),
                                           late=(engine_name, elapsed))
                if row is not None:
                    attempts.append(AttemptRecord(engine_name, "ok", elapsed))
                    row.flags.writeable = False
                    return row, position, tuple(attempts), getattr(
                        engine, "last_effective_sample_size", None)
                attempts.append(AttemptRecord(
                    engine_name, "error", elapsed,
                    f"{type(last_error).__name__}: {last_error}"))
                if isinstance(last_error, PERMANENT_FAILURES):
                    last_error.attempts = tuple(attempts)
                    last_error.wall_time = time.perf_counter() - start
                    return last_error
        exhausted = FallbackExhaustedError(
            f"all {len(policy.chain)} engine(s) of the fallback chain "
            f"failed; last error: {type(last_error).__name__}: {last_error}",
            attempts=tuple(attempts), wall_time=time.perf_counter() - start)
        exhausted.__cause__ = last_error
        return exhausted

    def _settle(self, batch: _Batch, swept: tuple,
                on_error: str) -> list[Diagnosis | DiagnosisFailure]:
        """The settle stage: rank each distinct row once, then make each
        admitted slot a view of its row or its row's failure.

        A row the sweep answered cleanly gives its slots views that share
        one provenance record; a sanitised slot, a sampled row or a row
        the chain answered gets a record of its own (:meth:`_accept`).
        Each result's wall time is its equal share of the batch's, from
        admission to now.
        """
        matrix, outcomes, seconds = swept
        matrix.flags.writeable = False
        results = batch.results
        primary = self.policy.chain[0]
        # The provenance fields every slot the sweep answered cleanly shares;
        # each result's wall time is set when the batch ends.
        clean = [primary, (AttemptRecord(
            primary, "ok", seconds / max(len(batch.slots), 1)),), 0.0, False,
            None, (), ()]
        # Each distinct row's view fields, built once for all its slots.
        rows = [(vector, order, suspects) for vector, (order, suspects)
                in zip(matrix, self._rank_rows(matrix))]
        for index, item, name, evidence, issues, row in batch.slots:
            outcome = outcomes.get(row)
            try:
                if outcome is None and not issues:
                    results[index] = Diagnosis._of_row(
                        self._layout, *rows[row], name, evidence, clean)
                elif isinstance(outcome, BaseException):
                    results[index] = _slot_failure(name, item, outcome,
                                                   on_error)
                elif isinstance(outcome, tuple):
                    vector, position, attempts, ess = outcome
                    vector.flags.writeable = False
                    results[index] = self._accept(
                        name, evidence,
                        (vector, *self._rank_rows(vector[None])[0]),
                        position, attempts, issues, ess)
                else:
                    results[index] = self._accept(
                        name, evidence, rows[row], 0, clean[1], issues,
                        outcome)
            except Exception as error:
                results[index] = _slot_failure(name, item, error, on_error)
        share = (time.perf_counter() - batch.started) / max(len(results), 1)
        for result in results:
            if result.ok:
                result._provenance[2] = share
            else:
                result.wall_time = share
        return results

    def _accept(self, name: str, evidence: dict[str, str], answer: tuple,
                position: int, attempts: tuple[AttemptRecord, ...],
                issues: tuple, ess: float | None) -> Diagnosis:
        """The view of an answer with a provenance record of its own, from
        the chain's engine at ``position``; notes say what degraded it."""
        policy = self.policy
        engine = policy.chain[position]
        notes = []
        if issues:
            dropped = sum(issue.kind != "repaired-state" for issue in issues)
            notes.append(f"evidence sanitised: {len(issues)} issue(s), "
                         f"{dropped} entry(ies) dropped")
        notes += [f"engine {exhausted!r} exhausted "
                  f"{policy.attempts_per_engine} attempt(s)"
                  for exhausted in policy.chain[:position]]
        if ess is not None and ess < policy.min_effective_sample_size:
            notes.append(f"low effective sample size ({ess:.1f} < "
                         f"{policy.min_effective_sample_size:g})")
        if position:
            notes.append(f"degraded from {policy.chain[0]!r} to {engine!r}")
        degraded = len(attempts) > 1 or bool(notes)
        if degraded:
            warnings.warn(f"case {name!r} served degraded by {engine!r}: "
                          + "; ".join(notes), DegradedResultWarning,
                          stacklevel=4)
        return Diagnosis._of_row(self._layout, *answer, name, evidence, [
            engine, attempts, 0.0, degraded, ess, issues, tuple(notes)])

    def diagnose_measurements(self, conditions: Mapping[str, float],
                              measurements: Mapping[str, float],
                              name: str = "adhoc") -> Diagnosis:
        """Diagnose from raw voltages: discretise, then diagnose.

        ``conditions`` are the forced controllable voltages, ``measurements``
        the measured observable voltages of the failing device.  Voltages
        that cannot be discretised (unknown block, non-numeric or
        out-of-range value under a strict discretiser) raise a structured
        :class:`~repro.exceptions.EvidenceError` naming every bad entry.
        """
        discretizer = self.built_model.discretizer
        evidence: dict[str, str] = {}
        issues: list[EvidenceIssue] = []
        for section in (conditions, measurements):
            for variable, value in section.items():
                try:
                    evidence[variable] = discretizer.classify(
                        variable, float(value))
                except (ReproError, TypeError, ValueError) as error:
                    issues.append(EvidenceIssue(
                        "bad-measurement", str(variable), str(value),
                        f"cannot discretise: {error}"))
        if issues:
            raise EvidenceError(
                f"measurements for case {name!r} have {len(issues)} "
                "problem(s): " + "; ".join(str(issue) for issue in issues),
                issues=tuple(issues))
        return self.diagnose_evidence(evidence, name=name)


#: Suspect sets by level pattern, filled as patterns occur, per internal
#: structure and thresholds: engines over one structure share them.
_SUSPECT_PATTERNS: dict[tuple, dict[bytes, frozenset[int]]] = {}
#: Each row layout's compiled posterior builder (functions do not pickle).
_POSTERIOR_BUILDERS: dict[tuple, object] = {}


class _RowLayout:
    """Where a model's variables sit in a posterior matrix row (the
    network codec's spans, in model order); views build their dicts."""

    def __init__(self, model, network, healthy_states: Mapping[str, str]
                 ) -> None:
        codec = EvidenceCodec.of(network)
        self.width = codec.width
        self.spans = tuple((variable, codec.labels[variable],
                            codec.offsets[variable])
                           for variable in model.variable_names)
        self.internal = tuple(model.internal_variables)
        self.healthy = np.array(
            [codec.offsets[variable]
             + codec.labels[variable].index(healthy_states[variable])
             for variable in self.internal], dtype=np.intp)

    def posteriors(self, view: Diagnosis) -> dict[str, dict[str, float]]:
        build = _POSTERIOR_BUILDERS.get(self.spans)
        if build is None:
            # One dict display per variable, its states as literal keys:
            # several times faster than a dict(zip(...)) per variable.
            # Names and labels enter as repr() literals: nothing else runs.
            build = _POSTERIOR_BUILDERS[self.spans] = eval(
                "lambda v: {" + ", ".join(repr(variable) + ": {" + ", ".join(
                    f"{label!r}: v[{start + code}]"
                    for code, label in enumerate(labels)) + "}"
                    for variable, labels, start in self.spans) + "}")
        return build(view._row.tolist())

    def fail_probabilities(self, view: Diagnosis) -> dict[str, float]:
        return dict(zip(self.internal,
                        (1.0 - view._row[self.healthy]).tolist()))

    def ranked_candidates(self, view: Diagnosis) -> list[tuple[str, float]]:
        fail = (1.0 - view._row[self.healthy]).tolist()
        return [(self.internal[i], fail[i]) for i in view._order]

    @staticmethod
    def provenance(view: Diagnosis) -> DiagnosisProvenance:
        return DiagnosisProvenance(*view._provenance)

    def fill(self, evidence: Mapping[str, str],
             computed: Mapping[str, Mapping[str, float]]) -> np.ndarray:
        """The row of one slot's free-variable dicts, evidence one-hot."""
        row = np.zeros(self.width)
        for variable, labels, start in self.spans:
            distribution = computed.get(variable) or {evidence[variable]: 1.0}
            row[start:start + len(labels)] = [distribution.get(label, 0.0)
                                              for label in labels]
        return row
