"""Evidence validation and sanitisation for diagnosis serving.

Real returned-device logs are noisy: ATE exports misspell block names, carry
states from a stale test-program revision, or record the same block both as a
forced condition and as a measured response with contradictory values.  The
paper's diagnostic mode (Section III-B) assumes clean data; this module is
the boundary that makes the serving layer safe against the dirty kind.

The model's :class:`~repro.bayesnet.codec.EvidenceCodec` reads a raw
mapping, or both sections of a :class:`~repro.core.diagnosis.DiagnosticCase`,
in one pass, and every bad entry becomes one structured
:class:`EvidenceIssue`.  :func:`validate_evidence` (strict: labels only)
raises a single :class:`~repro.exceptions.EvidenceError` carrying every
issue, so a serving layer reports all of a case's problems at once;
:func:`sanitize_evidence` repairs what it can (whitespace, case-insensitive
label match, integer state index), drops the rest and returns the issues —
the "keep answering, scoped to what the evidence supports" mode.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.bayesnet.codec import (
    CONFLICT,
    LABELS,
    REPAIR,
    REPAIRED_STATE,
    UNKNOWN_VARIABLE,
    Defect,
    EvidenceCodec,
)
from repro.core.circuit_model import CircuitModelDescription
from repro.exceptions import EvidenceError


@dataclasses.dataclass(frozen=True)
class EvidenceIssue:
    """One structured defect of an evidence mapping.

    Attributes
    ----------
    kind:
        One of ``"unknown-variable"``, ``"unknown-state"``,
        ``"conflicting-entry"``, ``"repaired-state"`` (only from
        :func:`sanitize_evidence`, recording a successful repair) or
        ``"not-a-record"`` (the whole slot is neither a mapping nor a case).
    variable:
        The offending evidence key as supplied (empty for a whole slot).
    state:
        The offending state value as supplied (``None`` for conflicts).
    detail:
        Human-readable explanation with the legal alternatives.
    """

    kind: str
    variable: str
    state: str | None
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.kind}] {self.variable}: {self.detail}"


def _read(model: CircuitModelDescription, evidence, mode: str
          ) -> tuple[dict[str, str], list[Defect]]:
    """Read a mapping, or a case's two sections, with the model's codec.

    Returns the good entries as labels and the codec's defects.  Anything
    else (``None``, a number, a string, a list of pairs) cannot be read
    in any mode: it raises an :class:`EvidenceError` with one issue.
    """
    codec = model.evidence_codec
    if isinstance(evidence, Mapping):
        return codec.read(evidence, mode=mode)
    sections = (getattr(evidence, "controllable_states", None),
                getattr(evidence, "observable_states", None))
    if not all(isinstance(section, Mapping) for section in sections):
        detail = ("not an evidence mapping or a DiagnosticCase: got "
                  f"{type(evidence).__name__}")
        raise EvidenceError(
            f"evidence for {model.name!r} is {detail}",
            issues=(EvidenceIssue("not-a-record", "", None, detail),))
    return codec.read(*sections, mode=mode)


def _issue(model: CircuitModelDescription | None, defect: Defect,
           strict: bool) -> EvidenceIssue:
    """The structured record of one codec defect (conflicts need no model)."""
    kind, variable, value, other = defect
    if kind == CONFLICT:
        return EvidenceIssue(
            kind, variable, None,
            f"controllable state {value!r} contradicts observable state "
            f"{other!r}")
    if kind == UNKNOWN_VARIABLE:
        return EvidenceIssue(
            kind, str(variable), str(value),
            f"not one of the {len(model.variable_names)} model variables "
            f"of {model.name!r}" if strict
            else "dropped: not a model variable")
    if kind == REPAIRED_STATE:
        return EvidenceIssue(kind, variable, str(value),
                             f"repaired {value!r} -> {other!r}")
    labels = list(model.evidence_codec.labels[variable])
    return EvidenceIssue(
        kind, variable, str(value),
        f"not a usable state; known states: {labels}" if strict else
        f"dropped: no usable state matches; known states: {labels}")


def validate_evidence(model: CircuitModelDescription,
                      evidence: Mapping[str, object]) -> dict[str, str]:
    """Check evidence and return it normalised to string state labels.

    ``evidence`` is a raw mapping or a :class:`DiagnosticCase`, whose
    sections are merged.  Every defect — conflicting sections, unknown
    model variable, illegal state label — is collected; if any exist an
    :class:`EvidenceError` carrying all the :class:`EvidenceIssue` records
    is raised.  Integer-valued datalog columns that spell a label pass.
    """
    labels, defects = _read(model, evidence, LABELS)
    if defects:
        issues = [_issue(model, defect, True) for defect in defects]
        raise EvidenceError(
            f"evidence for {model.name!r} has {len(issues)} problem(s): "
            + "; ".join(str(issue) for issue in issues),
            issues=tuple(issues))
    return labels


def sanitize_evidence(model: CircuitModelDescription,
                      evidence: Mapping[str, object],
                      ) -> tuple[dict[str, str], tuple[EvidenceIssue, ...]]:
    """Repair or drop bad evidence entries instead of raising.

    Returns ``(clean_evidence, issues)``.  ``evidence`` is a raw mapping or
    a :class:`DiagnosticCase`; a block its two sections give different
    states is dropped (neither side can be trusted).  Unknown variables are
    dropped; unknown states are repaired when an unambiguous reading exists
    (whitespace stripping, case-insensitive label match, in-range integer
    state index) and dropped otherwise.  Every drop *and* every repair is
    recorded as an :class:`EvidenceIssue`, so callers can attach the list to
    a diagnosis' provenance and distinguish a clean case from a salvaged
    one.  A slot that is neither a mapping nor a case has nothing to salvage
    and raises, as :func:`validate_evidence` does.
    """
    labels, defects = _read(model, evidence, REPAIR)
    return labels, tuple(_issue(model, defect, False) for defect in defects)


def merge_case_evidence(controllable: Mapping[str, object],
                        observable: Mapping[str, object]) -> dict[str, str]:
    """Merge a case's controllable and observable states into one mapping.

    A variable listed in both sections with *different* states is a
    contradiction in the source datalog — the tester cannot have forced one
    state and measured another on the same block — and raises an
    :class:`EvidenceError` naming every conflicting block.  Agreeing
    duplicates merge silently.
    """
    merged, conflicts = EvidenceCodec.merge(controllable, observable)
    if conflicts:
        raise EvidenceError(
            "conflicting controllable/observable entries for: "
            + ", ".join(str(defect.variable) for defect in conflicts),
            issues=tuple(_issue(None, defect, True) for defect in conflicts))
    return {variable: str(state) for variable, state in merged.items()}
