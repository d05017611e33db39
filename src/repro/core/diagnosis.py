"""Block-level diagnosis: evidence entry, posterior update and candidate deduction.

In diagnostic mode (Section III-B of the paper) the BBN circuit model takes
the test data of a failing device — the states of the controllable and
observable blocks — and updates the probabilities of the remaining blocks
with Bayes' theorem.  The paper then deduces the suspect functional blocks
*manually* by iterating over the parent–child relations ("a common parent
block can be iteratively deduced").  :class:`DiagnosisEngine` automates both
steps; the deduction algorithm below reproduces the paper's reasoning on all
five published case studies when fed the paper's own posterior numbers.  A
batch's distinct evidence rows are answered as one posterior matrix, each
row's suspects come from its blocks' level pattern, and each
:class:`Diagnosis` is a lazy view of its row.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Mapping, Sequence

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
    validate_evidence,
)
from repro.core.model_builder import BuiltModel
from repro.exceptions import (
    DeadlineExceededError,
    DiagnosisError,
    EvidenceError,
    ImpossibleEvidenceError,
    InferenceTimeoutError,
    ReproError,
)

#: Inference engines a DiagnosisEngine can run on, in decreasing exactness.
ENGINE_NAMES = ("jt", "ve", "lw", "gibbs")


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


def _slot_name(case, index: int, names) -> str:
    """A batch slot's case name."""
    if isinstance(case, DiagnosticCase):
        return case.name
    return names[index] if names is not None else f"case-{index}"


def _slot_failure(name: str, case, error: Exception,
                  on_error: str) -> "DiagnosisFailure":
    """Re-raise under ``on_error="raise"``, else the structured failure.

    ``case`` is the slot as submitted; the failure records its raw
    evidence.  Robust serving errors carry their attempt trail; plain
    engine errors default to an empty one.
    """
    if on_error == "raise":
        raise error
    raw = case.raw_evidence() if isinstance(case, DiagnosticCase) \
        else {str(variable): str(state) for variable, state in case.items()}
    return DiagnosisFailure.from_exception(
        name, raw, error,
        attempts=tuple(getattr(error, "attempts", ()) or ()),
        wall_time=float(getattr(error, "wall_time", 0.0) or 0.0))


@dataclasses.dataclass(frozen=True)
class Budget:
    """A batch's wall-clock budget: ``seconds`` from ``start``.

    Checked between pipeline stages; nothing running is interrupted.
    """

    seconds: float
    start: float

    def left(self) -> float:
        return self.start + self.seconds - time.perf_counter()

    def exceeded(self, name: str, attempts: tuple = (),
                 cause: BaseException | None = None,
                 late: tuple[str, float] | None = None
                 ) -> DeadlineExceededError:
        """One slot's budget-spent error, with its attempt trail.

        ``late`` is the ``(engine, elapsed)`` of a sweep or attempt that
        ended past the budget: it joins the trail as a ``"timeout"``
        attempt, and its :class:`~repro.exceptions.InferenceTimeoutError`
        becomes the cause.
        """
        if late is not None:
            engine, elapsed = late
            cause = InferenceTimeoutError(
                f"engine {engine!r} ran past the {self.seconds:g}s budget",
                engine=engine, deadline=self.seconds)
            attempts = (*attempts, AttemptRecord(
                engine, "timeout", elapsed, f"{type(cause).__name__}: {cause}"))
        error = DeadlineExceededError(
            f"deadline budget of {self.seconds:g}s exhausted for case "
            f"{name!r} after {len(attempts)} attempt(s)",
            remaining=self.left(), deadline=self.seconds)
        error.attempts = attempts
        error.wall_time = time.perf_counter() - self.start
        error.__cause__ = cause
        return error


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
    """How a diagnosis was produced — the serving layer's audit trail.

    Attributes
    ----------
    engine:
        The engine that produced the accepted posteriors.
    attempts:
        Every attempt made, in order, including failed ones.
    wall_time:
        Total serving wall time in seconds (all attempts plus overhead).
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
        Optional serving metadata (engine used, attempts, degradation);
        populated by the robust serving layer, ``None`` for direct
        :class:`DiagnosisEngine` calls.

    A batch result is a row view: ``posteriors``, ``fail_probabilities`` and
    ``ranked_candidates`` are built on first read, then kept (see README).
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
                provenance=None) -> "Diagnosis":
        """The view of one posterior matrix row, its ranking ``order``."""
        view = cls.__new__(cls)
        view.__dict__.update(case_name=case_name, evidence=evidence,
                             suspects=list(suspects), provenance=provenance,
                             _layout=layout, _row=row, _order=order)
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
    Diagnosis.ranked_candidates = map(_RowField, (
        "posteriors", "fail_probabilities", "ranked_candidates"))


class DiagnosisEngine:
    """Runs block-level diagnosis queries against a built BBN circuit model.

    Parameters
    ----------
    built_model:
        The model produced by :class:`~repro.core.model_builder.Dlog2BBN`.
    inference:
        ``"ve"`` for variable elimination (default), ``"jt"`` for
        junction-tree belief propagation (the Netica-style engine),
        ``"lw"`` for likelihood weighting or ``"gibbs"`` for Gibbs
        sampling (the approximate engines the robust serving layer
        degrades to).
    num_samples:
        Sample budget for the approximate engines (their own defaults when
        omitted); ignored by the exact engines.
    seed:
        Seed for the approximate engines' samplers.
    abnormal_threshold:
        Fail probability above which an internal block counts as *abnormal*
        (clearly not in its healthy state).
    ambiguous_threshold:
        Fail probability above which an internal block counts as *ambiguous*
        (suspicious enough to absorb the blame of its abnormal children).
    """

    def __init__(self, built_model: BuiltModel, inference: str = "ve",
                 abnormal_threshold: float = 0.5,
                 ambiguous_threshold: float = 0.4, *,
                 num_samples: int | None = None,
                 seed: int | None = None) -> None:
        if not 0.0 < ambiguous_threshold <= abnormal_threshold <= 1.0:
            raise DiagnosisError(
                "thresholds must satisfy 0 < ambiguous <= abnormal <= 1, got "
                f"ambiguous={ambiguous_threshold}, abnormal={abnormal_threshold}")
        self.built_model = built_model
        self.model = built_model.description
        self.network = built_model.network
        self.healthy_states = built_model.healthy_states
        self.abnormal_threshold = float(abnormal_threshold)
        self.ambiguous_threshold = float(ambiguous_threshold)
        self.inference_name = inference
        sampler_options = {} if num_samples is None \
            else {"num_samples": int(num_samples)}
        if inference == "ve":
            self._engine = VariableElimination(self.network)
        elif inference == "jt":
            self._engine = JunctionTree(self.network)
        elif inference == "lw":
            self._engine = LikelihoodWeighting(self.network, seed=seed,
                                               **sampler_options)
        elif inference == "gibbs":
            self._engine = GibbsSampling(self.network, seed=seed,
                                         **sampler_options)
        else:
            raise DiagnosisError(
                f"unknown inference engine {inference!r}; "
                f"use one of {ENGINE_NAMES}")
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

    def _update(self, evidence: dict[str, str]) -> np.ndarray:
        """One ``posteriors`` query on checked evidence, as a matrix row."""
        free = [variable for variable in self.model.variable_names
                if variable not in evidence]
        return self._layout.fill(evidence,
                                 self._engine.posteriors(free, evidence))

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
        :meth:`diagnose_evidence` and :meth:`update` are batches of one.
        Each slot's evidence is checked once (admission); the distinct
        evidence rows then run as ONE sweep of the engine into one
        posterior matrix, and each slot's result is a view of its row.

        Parameters
        ----------
        cases:
            :class:`DiagnosticCase` instances, or raw evidence mappings
            (variable -> observed state), read as they are like
            :meth:`diagnose_evidence` does.
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
            slot's admission and before and after the sweep (and, on a
            robust engine, before and after each fallback attempt).  A slot
            that meets a spent budget, or whose sweep ended past it, fails
            with a :class:`~repro.exceptions.DeadlineExceededError`
            (handled per ``on_error``).  Nothing running is interrupted.
        """
        if on_error not in ("raise", "skip", "collect"):
            raise DiagnosisError(
                f"unknown on_error mode {on_error!r}; "
                "use 'raise', 'skip' or 'collect'")
        cases = list(cases)
        if names is not None and len(names) != len(cases):
            raise DiagnosisError(
                f"got {len(names)} names for {len(cases)} cases")
        budget = None if deadline is None \
            else Budget(deadline, time.perf_counter())
        results = self._diagnose_batch_swept(cases, names, on_error, budget)
        if on_error == "skip":
            return [result for result in results if result.ok]
        return results

    def _diagnose_batch_swept(self, cases, names, on_error, budget):
        """The pipeline of :meth:`diagnose_batch`: admit each slot
        (:meth:`_admit`), sweep the distinct rows (:meth:`_sweep`; one that
        raises fails every slot), settle each slot (:meth:`_settle`).
        ``"skip"`` filtering is left to the caller.
        """
        results: list[Diagnosis | DiagnosisFailure | None] = [None] * len(cases)
        admitted = []
        rows: dict[frozenset, int] = {}
        distinct: list[dict[str, str]] = []
        for index, item in enumerate(cases):
            name = _slot_name(item, index, names)
            try:
                if budget is not None and budget.left() <= 0:
                    raise budget.exceeded(name)
                evidence, context = self._admit(name, item)
            except Exception as error:
                results[index] = _slot_failure(name, item, error, on_error)
                continue
            row = rows.setdefault(frozenset(evidence.items()), len(distinct))
            if row == len(distinct):
                distinct.append(evidence)
            admitted.append((index, item, name, evidence, context, row))
        started = time.perf_counter()
        swept = budget is None or budget.left() > 0
        answers: list = [None] * len(distinct)
        if swept:
            try:
                answers = self._sweep(distinct)
            except Exception as error:  # noqa: BLE001 - fails every slot
                answers = [error] * len(distinct)
        elapsed = (time.perf_counter() - started) / max(len(admitted), 1)
        spent = budget is not None and budget.left() <= 0
        for index, item, name, evidence, context, row in admitted:
            try:
                if spent:  # before the sweep, or the sweep ended late
                    raise budget.exceeded(name, late=(
                        self.inference_name, elapsed) if swept else None)
                results[index] = self._settle(name, evidence, context,
                                              answers[row], elapsed, budget)
            except Exception as error:
                results[index] = _slot_failure(name, item, error, on_error)
        return results

    def _admit(self, name: str, case):
        """Admit one slot to the batched sweep: ``(evidence, context)``.

        The slot's one evidence check; a bad entry fails this slot alone,
        so the shared sweep sees checked labels only.
        """
        return validate_evidence(self.model, case), None

    def _sweep(self, evidences: list[dict[str, str]]) -> list:
        """Answer every distinct row in one sweep of the engine: per row,
        ``(posterior row, ranking order, suspects, sampler effective sample
        size)`` or the error it alone fails with.  Variable elimination
        answers in one ``posteriors_batch`` call; the other engines fill
        the matrix one ``posteriors`` query per row."""
        count = len(evidences)
        errors, ess = [None] * count, [None] * count  # per row
        if isinstance(self._engine, VariableElimination):
            answers = self._engine.posteriors_batch(evidences)
            matrix, probability = answers.matrix, answers.probability
            for row in np.flatnonzero(~(np.isfinite(probability)
                                        & (probability > 0.0))).tolist():
                errors[row] = answers.error(row)
        else:
            matrix = np.zeros((count, self._layout.width))
            for row, evidence in enumerate(evidences):
                try:
                    matrix[row] = self._update(evidence)
                    ess[row] = getattr(self._engine,
                                       "last_effective_sample_size", None)
                except Exception as error:  # noqa: BLE001 - fails this row
                    errors[row] = error
        ranked = self._rank_rows(matrix)
        for row, error in enumerate(errors):
            if isinstance(error, ImpossibleEvidenceError):
                # Every engine's zero-probability row fails with one message.
                errors[row] = ImpossibleEvidenceError(
                    "the evidence has zero probability under the model; "
                    "posteriors are undefined", evidence=evidences[row])
        return [(matrix[row], *ranked[row], ess[row]) if error is None
                else error for row, error in enumerate(errors)]

    def _settle(self, name: str, evidence: dict[str, str], context,
                answer, elapsed: float, budget: Budget | None) -> Diagnosis:
        """Turn one slot's answer into its Diagnosis view, or raise."""
        if isinstance(answer, Exception):
            raise answer
        return Diagnosis._of_row(self._layout, *answer[:3], name, evidence)

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

    def fill(self, evidence: Mapping[str, str],
             computed: Mapping[str, Mapping[str, float]]) -> np.ndarray:
        """The row of one slot's free-variable dicts, evidence one-hot."""
        row = np.zeros(self.width)
        for variable, labels, start in self.spans:
            distribution = computed.get(variable) or {evidence[variable]: 1.0}
            row[start:start + len(labels)] = [distribution.get(label, 0.0)
                                              for label in labels]
        return row
