"""Evidence validation and sanitisation for diagnosis serving.

Real returned-device logs are noisy: ATE exports misspell block names, carry
states from a stale test-program revision, or record the same block both as a
forced condition and as a measured response with contradictory values.  The
paper's diagnostic mode (Section III-B) assumes clean data; this module is
the boundary that makes the serving layer safe against the dirty kind.

Two entry points share one issue taxonomy:

:func:`validate_evidence`
    Collects *every* defect of an evidence mapping into structured
    :class:`EvidenceIssue` records and raises a single
    :class:`~repro.exceptions.EvidenceError` carrying all of them — a
    serving layer reports the whole case's problems at once instead of
    failing on the first.

:func:`sanitize_evidence`
    Repairs what it can (string coercion, whitespace, case-insensitive
    label match, integer state indices) and drops what it cannot, returning
    the cleaned mapping together with the issue records — the "keep
    answering, scoped to what the evidence supports" mode.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

from repro.core.circuit_model import CircuitModelDescription
from repro.exceptions import EvidenceError

#: Issue kinds, in the order sanitisation examines an entry.
UNKNOWN_VARIABLE = "unknown-variable"
UNKNOWN_STATE = "unknown-state"
CONFLICT = "conflicting-entry"
REPAIRED_STATE = "repaired-state"


@dataclasses.dataclass(frozen=True)
class EvidenceIssue:
    """One structured defect of an evidence mapping.

    Attributes
    ----------
    kind:
        One of ``"unknown-variable"``, ``"unknown-state"``,
        ``"conflicting-entry"`` or ``"repaired-state"`` (the latter only
        from :func:`sanitize_evidence`, recording a successful repair).
    variable:
        The offending evidence key as supplied.
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


def _coerce_state(table_labels: Sequence[str], state: object) -> str | None:
    """Try to repair ``state`` onto one of ``table_labels``; None if hopeless."""
    if isinstance(state, bool):
        return None
    if isinstance(state, int) and not isinstance(state, bool):
        if 0 <= state < len(table_labels):
            return table_labels[state]
        return None
    text = str(state).strip()
    if text in table_labels:
        return text
    lowered = text.lower()
    matches = [label for label in table_labels if label.lower() == lowered]
    if len(matches) == 1:
        return matches[0]
    return None


def validate_evidence(model: CircuitModelDescription,
                      evidence: Mapping[str, object]) -> dict[str, str]:
    """Check an evidence mapping and return it normalised to string states.

    Every defect — unknown model variable, illegal state label — is
    collected; if any exist an :class:`EvidenceError` carrying all the
    :class:`EvidenceIssue` records is raised.  State values are normalised
    with ``str()`` (matching what :meth:`DiagnosticCase.evidence` does), so
    integer-valued datalog columns that happen to match a label pass.
    """
    labels_of = model._evidence_lookups()[1]
    issues: list[EvidenceIssue] = []
    normalised: dict[str, str] = {}
    for variable, state in evidence.items():
        labels = labels_of.get(variable)
        if labels is None:
            issues.append(EvidenceIssue(
                UNKNOWN_VARIABLE, str(variable), str(state),
                f"not one of the {len(labels_of)} model variables of "
                f"{model.name!r}"))
            continue
        text = str(state)
        if text not in labels:
            issues.append(EvidenceIssue(
                UNKNOWN_STATE, variable, text,
                f"not a usable state; known states: {list(labels)}"))
            continue
        normalised[variable] = text
    if issues:
        raise EvidenceError(
            f"evidence for {model.name!r} has {len(issues)} problem(s): "
            + "; ".join(str(issue) for issue in issues),
            issues=tuple(issues))
    return normalised


def sanitize_evidence(model: CircuitModelDescription,
                      evidence: Mapping[str, object],
                      ) -> tuple[dict[str, str], tuple[EvidenceIssue, ...]]:
    """Repair or drop bad evidence entries instead of raising.

    Returns ``(clean_evidence, issues)``.  Unknown variables are dropped;
    unknown states are repaired when an unambiguous coercion exists
    (whitespace stripping, case-insensitive label match, in-range integer
    state index) and dropped otherwise.  Every drop *and* every repair is
    recorded as an :class:`EvidenceIssue`, so callers can attach the list to
    a diagnosis' provenance and distinguish a clean case from a salvaged
    one.
    """
    labels_of = model._evidence_lookups()[1]
    issues: list[EvidenceIssue] = []
    clean: dict[str, str] = {}
    for variable, state in evidence.items():
        labels = labels_of.get(variable)
        if labels is None:
            issues.append(EvidenceIssue(
                UNKNOWN_VARIABLE, str(variable), str(state),
                "dropped: not a model variable"))
            continue
        text = str(state)
        if text in labels:
            clean[variable] = text
            continue
        repaired = _coerce_state(labels, state)
        if repaired is None:
            issues.append(EvidenceIssue(
                UNKNOWN_STATE, variable, text,
                f"dropped: no usable state matches; known states: "
                f"{list(labels)}"))
        else:
            issues.append(EvidenceIssue(
                REPAIRED_STATE, variable, text,
                f"repaired {state!r} -> {repaired!r}"))
            clean[variable] = repaired
    return clean, tuple(issues)


def merge_case_evidence(controllable: Mapping[str, object],
                        observable: Mapping[str, object]) -> dict[str, str]:
    """Merge a case's controllable and observable states into one mapping.

    A variable listed in both sections with *different* states is a
    contradiction in the source datalog — the tester cannot have forced one
    state and measured another on the same block — and raises an
    :class:`EvidenceError` naming every conflicting block.  Agreeing
    duplicates merge silently.
    """
    merged = {variable: str(state) for variable, state in controllable.items()}
    issues: list[EvidenceIssue] = []
    for variable, state in observable.items():
        text = str(state)
        previous = merged.get(variable)
        if previous is not None and previous != text:
            issues.append(EvidenceIssue(
                CONFLICT, variable, None,
                f"controllable state {previous!r} contradicts observable "
                f"state {text!r}"))
            continue
        merged[variable] = text
    if issues:
        raise EvidenceError(
            "conflicting controllable/observable entries for: "
            + ", ".join(issue.variable for issue in issues),
            issues=tuple(issues))
    return merged
