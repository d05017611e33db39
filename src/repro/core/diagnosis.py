"""Block-level diagnosis: evidence entry, posterior update and candidate deduction.

In diagnostic mode (Section III-B of the paper) the BBN circuit model takes
the test data of a failing device — the states of the controllable and
observable blocks — and updates the probabilities of the remaining blocks
with Bayes' theorem.  The paper then deduces the suspect functional blocks
*manually* by iterating over the parent–child relations ("a common parent
block can be iteratively deduced").  :class:`DiagnosisEngine` automates both
steps; the deduction algorithm below reproduces the paper's reasoning on all
five published case studies when fed the paper's own posterior numbers.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

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
    DiagnosisError,
    EvidenceError,
    ImpossibleEvidenceError,
    ReproError,
)

#: Inference engines a DiagnosisEngine can run on, in decreasing exactness.
ENGINE_NAMES = ("jt", "ve", "lw", "gibbs")


def chunk_slices(total: int, chunk_size: int) -> list[slice]:
    """Split ``total`` batch slots into contiguous slices of ``chunk_size``.

    The shared chunking rule for every sharded batch entry point (the
    worker-pool service, future async APIs): deterministic, order-preserving
    and exhaustive, so per-slot accounting survives resharding.
    """
    if chunk_size < 1:
        raise DiagnosisError(f"chunk_size must be >= 1, got {chunk_size}")
    if total < 0:
        raise DiagnosisError(f"total must be >= 0, got {total}")
    return [slice(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


def case_from_evidence(model, evidence: Mapping[str, str],
                       name: str) -> "DiagnosticCase":
    """Wrap a raw evidence mapping into a :class:`DiagnosticCase`.

    Splits entries into controllable/observable by the model's variable
    roles.  Unknown variables are binned as observable so that evidence
    validation reports them as structured ``unknown-variable`` issues
    rather than this split raising first.  Module-level so serving layers
    can normalise cases before shipping them to worker processes.
    """
    controllable_names = model._evidence_lookups()[0]
    controllable = {variable: state for variable, state in evidence.items()
                    if variable in controllable_names}
    observable = {variable: state for variable, state in evidence.items()
                  if variable not in controllable}
    return DiagnosticCase(name=name, controllable_states=controllable,
                          observable_states=observable)


def impossible_evidence(evidence: Mapping[str, str]
                        ) -> ImpossibleEvidenceError:
    """The error for evidence the model assigns probability zero."""
    return ImpossibleEvidenceError(
        "the evidence has zero probability under the model; posteriors are "
        "undefined", evidence=evidence)


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
    """

    case_name: str
    evidence: dict[str, str]
    posteriors: dict[str, dict[str, float]]
    fail_probabilities: dict[str, float]
    suspects: list[str]
    ranked_candidates: list[tuple[str, float]]
    provenance: DiagnosisProvenance | None = None

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
        ranks = self.__dict__.get("_rank_index")
        if ranks is None or len(ranks) != len(self.ranked_candidates):
            ranks = {candidate: rank for rank, (candidate, _)
                     in enumerate(self.ranked_candidates, start=1)}
            self.__dict__["_rank_index"] = ranks
        try:
            return ranks[block]
        except KeyError:
            raise DiagnosisError(
                f"block {block!r} is not an internal model variable") from None


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
    cache_size:
        Evidence-cache capacity for the exact engines (entries per cache);
        defaults to the ``REPRO_EVIDENCE_CACHE_SIZE`` environment variable
        or 128.  The per-engine (and therefore per-serving-worker) memory
        knob; ignored by the samplers.
    compiled:
        When true (and the engine is exact), posterior updates run through
        ahead-of-time :class:`~repro.bayesnet.inference.CompiledProgram`
        op-lists: the engine's sweep is traced once per evidence-variable
        signature (compile-on-first-use, invalidated when CPDs are
        replaced, like the evidence caches) and every query after that is
        pure array execution — the sub-millisecond single-device path and
        the vectorised ``diagnose_batch`` sweep.  Ignored by the
        samplers.  ``compile_count`` / ``compile_ms`` /
        ``compiled_query_count`` expose what compilation cost and how many
        queries it served.
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
                 seed: int | None = None,
                 cache_size: int | None = None,
                 compiled: bool = False,
                 program_cache=None) -> None:
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
            self._engine = VariableElimination(self.network,
                                               cache_size=cache_size)
        elif inference == "jt":
            self._engine = JunctionTree(self.network, cache_size=cache_size)
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
        # Compilation only applies to the exact engines; the samplers have
        # no static sweep to trace.
        self.compiled = bool(compiled) and inference in ("jt", "ve")
        self._programs: dict[tuple[str, ...], object] = {}
        self._programs_version: int | None = None
        self.compile_count = 0
        self.compile_ms = 0.0
        self.compiled_query_count = 0
        # Optional shared cross-process program cache (trace once, ship the
        # op-list to every worker): a `repro.persist.PosteriorCache` keyed
        # by content fingerprint, so entries of a replaced model are
        # unreachable rather than wrong.
        self.program_cache = program_cache if self.compiled else None
        self.program_cache_hits = 0
        self._fingerprints = None
        # Per-case lookups, built once: the model is frozen after
        # construction.
        self._observed = {
            variable: {state: {label: float(label == state)
                               for label in labels}
                       for state in labels}
            for variable, labels in self.model._evidence_lookups()[1].items()}
        internal = set(self.model.internal_variables)
        self._internal_parents = {
            variable: tuple(parent
                            for parent in self.model.parents_of(variable)
                            if parent in internal)
            for variable in internal}

    # ----------------------------------------------------------- compilation
    def _program_for(self, signature: tuple[str, ...]):
        """Return the compiled program for one evidence-variable signature.

        Compile-on-first-use keyed by the sorted evidence-variable tuple;
        the whole program cache is dropped when the network's CPDs are
        replaced (``cpd_version`` advances), mirroring how the interpreted
        evidence caches invalidate.
        """
        version = self.network.cpd_version
        if self._programs_version != version:
            self._programs.clear()
            self._programs_version = version
        program = self._programs.get(signature)
        if program is None:
            program = self._shared_program(signature)
            if program is None:
                program = self._engine.compile_posteriors(signature)
                self.compile_count += 1
                self.compile_ms += program.compile_ms
                self._share_program(program)
            self._programs[signature] = program
        return program

    def _model_fingerprint(self) -> str:
        if self._fingerprints is None:
            from repro.persist.fingerprint import FingerprintTracker
            self._fingerprints = FingerprintTracker(self.network)
        return self._fingerprints.current()

    def _shared_program(self, signature: tuple[str, ...]):
        """Try the shared cross-process cache before tracing locally.

        A hit is only accepted when its schedule and evidence signature
        match exactly; the content-fingerprint key already guarantees the
        pinned CPT planes equal this engine's network bit-for-bit.
        """
        if self.program_cache is None:
            return None
        try:
            program = self.program_cache.get_program(
                self._model_fingerprint(), signature, self.inference_name)
        except OSError:
            return None
        if program is None \
                or tuple(program.evidence_vars) != tuple(signature) \
                or program.schedule != self.inference_name:
            return None
        # Re-pin to this process's CPD generation counter (the fingerprint
        # proved content equality; the counters are process-local).
        program.cpd_version = self.network.cpd_version
        self.program_cache_hits += 1
        return program

    def _share_program(self, program) -> None:
        if self.program_cache is None:
            return
        try:
            self.program_cache.put_program(self._model_fingerprint(),
                                           program)
        except (ReproError, OSError):
            # Sharing is an optimisation; a full disk or a corrupt cache
            # must never fail the diagnosis that triggered the trace.
            pass

    def warm_compile(self, evidence_vars: Sequence[str] | None = None
                     ) -> float:
        """Precompile the standard-workload program; return its cost in ms.

        ``evidence_vars`` defaults to every non-internal model variable —
        the full controllable+observable evidence a tester produces, which
        is the signature real diagnostic traffic carries.  Serving workers
        call this once at init so the first request never pays the compile.
        No-op (0.0) on non-compiled engines.
        """
        if not self.compiled:
            return 0.0
        if evidence_vars is None:
            internal = set(self.model.internal_variables)
            evidence_vars = [variable
                             for variable in self.model.variable_names
                             if variable not in internal]
        before = self.compile_ms
        self._program_for(tuple(sorted(set(evidence_vars))))
        return self.compile_ms - before

    # --------------------------------------------------------------- posteriors
    def initial_probabilities(self) -> dict[str, dict[str, float]]:
        """Return the prior marginals of every variable (the Init.% column)."""
        if self.compiled:
            self.compiled_query_count += 1
            computed = self._program_for(()).posteriors({})
            return {variable: computed[variable]
                    for variable in self.model.variable_names}
        return self._engine.posteriors(self.model.variable_names, evidence={})

    def update(self, evidence: Mapping[str, str]) -> dict[str, dict[str, float]]:
        """Return the posterior marginals of every variable given ``evidence``.

        All free-variable marginals come from ONE inference sweep
        (calibration / shared-bucket elimination) rather than one elimination
        per variable; evidence variables collapse onto their observed state.
        """
        evidence = validate_evidence(self.model, evidence)
        if self.compiled:
            program = self._program_for(tuple(sorted(evidence)))
            self.compiled_query_count += 1
            computed = program.posteriors(evidence)
        else:
            free = [variable for variable in self.model.variable_names
                    if variable not in evidence]
            computed = self._engine.posteriors(free, evidence)
        return self._full_posteriors(evidence, computed)

    def _full_posteriors(self, evidence: Mapping[str, str],
                         computed: Mapping[str, Mapping[str, float]]
                         ) -> dict[str, dict[str, float]]:
        """Complete free-variable marginals into every variable's posterior.

        Evidence variables collapse onto a fresh copy of their observed
        one-hot state.  ``computed`` must be this result's own: the engines
        hand out fresh dicts per query and per batch slot, so no two
        diagnoses (duplicate batch slots, evidence-cache hits) ever share a
        mutable posterior.
        """
        posteriors: dict[str, dict[str, float]] = {}
        for variable in self.model.variable_names:
            state = evidence.get(variable)
            posteriors[variable] = computed[variable] if state is None \
                else dict(self._observed[variable][state])
        return posteriors

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
        return sorted(suspects, key=lambda variable: fail[variable], reverse=True)

    def rank_by_fail_probability(self, posteriors: Mapping[str, Mapping[str, float]]
                                 ) -> list[tuple[str, float]]:
        """Return every internal variable ranked by fail probability (naive ranking)."""
        fail = {variable: self.fail_probability(variable, posteriors)
                for variable in self.model.internal_variables}
        return sorted(fail.items(), key=lambda item: item[1], reverse=True)

    def _internal_fail_probabilities(
            self, posteriors: Mapping[str, Mapping[str, float]]
    ) -> dict[str, float]:
        """Return the fail probability of every internal variable."""
        healthy = self.healthy_states
        return {variable: 1.0 - float(posteriors[variable].get(
                    healthy[variable], 0.0))
                for variable in self.model.internal_variables}

    def _diagnosis(self, name: str, evidence: dict[str, str],
                   posteriors: dict[str, dict[str, float]],
                   provenance: DiagnosisProvenance | None = None
                   ) -> Diagnosis:
        """Assemble a Diagnosis: fail probabilities, suspects and ranking."""
        fail = self._internal_fail_probabilities(posteriors)
        return Diagnosis(
            case_name=name,
            evidence=evidence,
            posteriors=posteriors,
            fail_probabilities=fail,
            suspects=self._deduce_from_fail(fail),
            ranked_candidates=sorted(fail.items(), key=lambda item: item[1],
                                     reverse=True),
            provenance=provenance,
        )

    # ---------------------------------------------------------------- diagnosis
    def diagnose(self, case: DiagnosticCase) -> Diagnosis:
        """Diagnose one case: update posteriors and deduce the suspect list."""
        evidence = case.evidence()
        return self._diagnosis(case.name, evidence, self.update(evidence))

    def _case_from_evidence(self, evidence: Mapping[str, str],
                            name: str) -> DiagnosticCase:
        """Wrap a raw evidence mapping into a :class:`DiagnosticCase`."""
        return case_from_evidence(self.model, evidence, name)

    def diagnose_evidence(self, evidence: Mapping[str, str],
                          name: str = "adhoc") -> Diagnosis:
        """Diagnose from a raw evidence mapping (observable/controllable states)."""
        return self.diagnose(self._case_from_evidence(evidence, name))

    def diagnose_batch(self, cases: Sequence[DiagnosticCase | Mapping[str, str]],
                       names: Sequence[str] | None = None,
                       on_error: str = "raise",
                       deadline: float | None = None,
                       ) -> list[Diagnosis | DiagnosisFailure]:
        """Diagnose a whole population of cases against one shared engine.

        Engine construction (network validation, junction-tree compilation)
        is paid once for the entire batch, and on the exact engines that
        have one (variable elimination, compiled programs) the posterior
        updates of every valid case run as ONE batched sweep that
        deduplicates repeated failing conditions — the intended entry
        point for customer-return and fault-coverage population workflows.
        Other engines, and deadline-bound batches, diagnose case by case.

        Parameters
        ----------
        cases:
            :class:`DiagnosticCase` instances, or raw evidence mappings
            (variable -> observed state) which are wrapped like
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
            batch; cases reached after the budget expires fail with a
            :class:`~repro.exceptions.DeadlineExceededError` (handled per
            ``on_error``).  Requires a deadline-capable engine
            (:class:`~repro.core.robust.RobustDiagnosisEngine`).
        """
        if on_error not in ("raise", "skip", "collect"):
            raise DiagnosisError(
                f"unknown on_error mode {on_error!r}; "
                "use 'raise', 'skip' or 'collect'")
        cases = list(cases)
        if names is not None and len(names) != len(cases):
            raise DiagnosisError(
                f"got {len(names)} names for {len(cases)} cases")
        if deadline is None and self._batched():
            results = self._diagnose_batch_swept(cases, names, on_error)
        else:
            diagnose = self.diagnose if deadline is None \
                else self._deadline_diagnose(deadline)
            results = [self._diagnose_one(case, index, names, on_error,
                                          diagnose)
                       for index, case in enumerate(cases)]
        if on_error == "skip":
            return [result for result in results if result.ok]
        return results

    def _batched(self) -> bool:
        """Whether :meth:`diagnose_batch` can run one batched sweep."""
        return self.compiled or isinstance(self._engine, VariableElimination)

    def _diagnose_batch_swept(self, cases, names, on_error):
        """Batched path of :meth:`diagnose_batch`.

        Case preparation and evidence admission (:meth:`_admit`) stay per
        slot, with the same isolation as the per-case loop; the posterior
        updates of every admitted slot then run as ONE batched sweep
        (:meth:`_sweep`), and :meth:`_settle` turns each slot's answer into
        its result.  Failed slots are handled per ``on_error``; ``"skip"``
        filtering is left to the caller.
        """
        results: list[Diagnosis | DiagnosisFailure | None] = [None] * len(cases)
        admitted = []
        for index, item in enumerate(cases):
            name = _slot_name(item, index, names)
            try:
                case = item if isinstance(item, DiagnosticCase) \
                    else self._case_from_evidence(item, name)
                admission = self._admit(case)
            except Exception as error:
                results[index] = _slot_failure(name, item, error, on_error)
                continue
            if isinstance(admission, Diagnosis):
                results[index] = admission  # answered at admission
            else:
                admitted.append((index, item, case, admission))
        answers = self._sweep([evidence
                               for *_, (evidence, _) in admitted])
        for (index, item, case, (evidence, context)), answer in zip(
                admitted, answers):
            try:
                results[index] = self._settle(case, evidence, context,
                                              answer)
            except Exception as error:
                results[index] = _slot_failure(case.name, item, error,
                                               on_error)
        return results

    def _admit(self, case: DiagnosticCase):
        """Admit one slot to the batched sweep: ``(evidence, context)``."""
        evidence = validate_evidence(self.model, case.evidence())
        if not self.compiled:
            # Surface engine-level evidence problems here, per slot, so the
            # shared sweep can never fail as a whole.
            self._engine._validate([], evidence)
        return evidence, None

    def _sweep(self, evidences: list[dict[str, str]]) -> list:
        """Answer every admitted slot from batched sweeps.

        Returns, per slot, the free-variable marginals in dicts of the
        slot's own, or ``None`` for zero-probability evidence.  Interpreted
        variable elimination runs one shared elimination sweep per evidence
        pattern over the rows its evidence cache does not hold
        (:meth:`~repro.bayesnet.inference.variable_elimination.VariableElimination.posteriors_batch`);
        compiled engines group slots by evidence signature and push each
        group's deduplicated state matrix through its
        :class:`~repro.bayesnet.inference.CompiledProgram` as one
        vectorised ``run_batch``.
        """
        if not self.compiled:
            return self._engine.posteriors_batch(evidences, validated=True)
        answers: list = [None] * len(evidences)
        groups: dict[tuple[str, ...], list[int]] = {}
        for position, evidence in enumerate(evidences):
            groups.setdefault(tuple(sorted(evidence)), []).append(position)
        for signature, positions in groups.items():
            program = self._program_for(signature)
            codes = program.encode([evidences[position]
                                    for position in positions])
            unique, inverse = np.unique(codes, axis=0, return_inverse=True)
            batch = program.run_batch(unique, on_impossible="mask")
            self.compiled_query_count += len(positions)
            # Expanded per slot, so duplicate slots get dicts of their own.
            for position, row in zip(positions,
                                     np.asarray(inverse).reshape(-1)):
                answers[position] = batch.distributions(int(row))
        return answers

    def _settle(self, case: DiagnosticCase, evidence: dict[str, str],
                context, computed) -> Diagnosis:
        """Turn one slot's sweep answer into its Diagnosis."""
        if computed is None:
            raise impossible_evidence(evidence)
        return self._diagnosis(case.name, evidence,
                               self._full_posteriors(evidence, computed))

    def _deadline_diagnose(self, deadline: float):
        """Return a per-case diagnose callable sharing a batch deadline."""
        raise DiagnosisError(
            f"{type(self).__name__} does not enforce batch deadlines; use "
            "repro.core.robust.RobustDiagnosisEngine for deadline-bounded "
            "batches")

    def _diagnose_one(self, case, index, names, on_error, diagnose):
        """Run one batch slot through ``diagnose`` under the isolation mode."""
        name = _slot_name(case, index, names)
        try:
            return diagnose(case if isinstance(case, DiagnosticCase)
                            else self._case_from_evidence(case, name))
        except Exception as error:
            return _slot_failure(name, case, error, on_error)

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
