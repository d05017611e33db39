"""Integer-encoded case matrices for batched CPT learning.

A :class:`CaseMatrix` is the array-native form of a list of learning cases:
one ``int16`` code per ``(case, variable)`` cell, with ``-1`` for "state
unknown" (the ``None`` of the dict-based cases).  Codes are positions into a
per-variable state-name list — the same codec
:meth:`StateTable.classify_indices <repro.core.states.StateTable.classify_indices>`
produces — so the case generator can discretise measurement planes straight
into a matrix and the estimators can count CPTs with ``np.bincount`` instead
of per-case Python loops.

The matrix optionally carries the provenance columns of
:class:`~repro.core.case_generation.LabeledCase` (device id, condition label,
failed flag) so it can round-trip to labeled cases for the equivalence
suites.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.bayesnet.codec import EvidenceCodec
from repro.exceptions import LearningError

_MISSING = -1


class CaseMatrix:
    """A ``(cases, variables)`` matrix of integer state codes.

    Parameters
    ----------
    variables:
        Column order of the matrix.
    codes:
        ``(cases, variables)`` integer array; ``-1`` marks an unknown state,
        any other value is a position into the variable's state-name list.
    state_names:
        Full state-name list per variable (the codec).  Must cover every
        variable of the matrix.
    device_ids / condition_labels / failed:
        Optional per-case provenance, all of length ``cases`` when given.
    """

    def __init__(self, variables: Sequence[str], codes: np.ndarray,
                 state_names: Mapping[str, Sequence[str]],
                 device_ids: Sequence[str] | None = None,
                 condition_labels: Sequence[str] | None = None,
                 failed: np.ndarray | Sequence[bool] | None = None) -> None:
        self.variables = [str(v) for v in variables]
        self.codes = np.asarray(codes, dtype=np.int16)
        if self.codes.ndim != 2 or self.codes.shape[1] != len(self.variables):
            raise LearningError(
                f"case matrix codes must be (cases, {len(self.variables)}), "
                f"got shape {self.codes.shape}")
        self.state_names: dict[str, list[str]] = {}
        for column, variable in enumerate(self.variables):
            if variable not in state_names:
                raise LearningError(
                    f"case matrix is missing state names for {variable!r}")
            names = [str(s) for s in state_names[variable]]
            self.state_names[variable] = names
            if len(self.codes) and self.codes[:, column].max() >= len(names):
                raise LearningError(
                    f"case matrix code out of range for variable {variable!r} "
                    f"({len(names)} states)")
        self._column = {v: i for i, v in enumerate(self.variables)}
        # Provenance columns: numpy string arrays pass through unconverted —
        # at ATE scale (10^5+ rows) a list of per-row Python strings costs
        # more resident memory than every measurement plane combined.
        self.device_ids = (device_ids if device_ids is None
                           or isinstance(device_ids, np.ndarray)
                           else list(device_ids))
        self.condition_labels = (condition_labels if condition_labels is None
                                 or isinstance(condition_labels, np.ndarray)
                                 else list(condition_labels))
        self.failed = (np.asarray(failed, dtype=bool)
                       if failed is not None else None)
        for name, extra in (("device_ids", self.device_ids),
                            ("condition_labels", self.condition_labels),
                            ("failed", self.failed)):
            if extra is not None and len(extra) != len(self.codes):
                raise LearningError(
                    f"case matrix has {len(self.codes)} cases but "
                    f"{len(extra)} {name}")

    # ------------------------------------------------------------------ shape
    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def case_count(self) -> int:
        """Number of case rows."""
        return self.codes.shape[0]

    def column(self, variable: str) -> np.ndarray:
        """Return the code column of ``variable`` (-1 where unknown)."""
        try:
            return self.codes[:, self._column[variable]]
        except KeyError:
            raise LearningError(
                f"variable {variable!r} is not in the case matrix") from None

    def __contains__(self, variable: str) -> bool:
        return variable in self._column

    def select(self, rows: np.ndarray | Sequence[int]) -> "CaseMatrix":
        """Return a new matrix holding only the selected case rows."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        def pick(extra):
            if extra is None:
                return None
            if isinstance(extra, np.ndarray):
                return extra[rows]
            return [extra[i] for i in rows]

        return CaseMatrix(
            self.variables, self.codes[rows], self.state_names,
            pick(self.device_ids), pick(self.condition_labels),
            None if self.failed is None else self.failed[rows])

    # ------------------------------------------------------------- conversion
    @classmethod
    def from_cases(cls, cases: Sequence[Mapping[str, object]],
                   state_names: Mapping[str, Sequence[str]],
                   variables: Sequence[str] | None = None) -> "CaseMatrix":
        """Encode dict-based cases (label, index or ``None`` values).

        ``variables`` defaults to the union of case keys in first-seen
        order.  A variable absent from a case encodes as missing.
        """
        if variables is None:
            seen: dict[str, None] = {}
            for case in cases:
                for variable in case:
                    seen.setdefault(variable)
            variables = list(seen)
        variables = list(variables)
        for variable in variables:
            if variable not in state_names:
                raise LearningError(
                    f"no state names supplied for variable {variable!r}")
        code = EvidenceCodec({variable: state_names[variable]
                              for variable in variables}).code
        codes = np.full((len(cases), len(variables)), _MISSING, dtype=np.int16)
        for row, case in enumerate(cases):
            for column, variable in enumerate(variables):
                value = code(variable, case.get(variable), LearningError)
                if value is not None:
                    codes[row, column] = value
        return cls(variables, codes, state_names)

    @classmethod
    def from_labeled_cases(cls, cases: Sequence,
                           state_names: Mapping[str, Sequence[str]],
                           variables: Sequence[str] | None = None
                           ) -> "CaseMatrix":
        """Encode :class:`LabeledCase` rows, keeping their provenance."""
        matrix = cls.from_cases([case.assignments for case in cases],
                                state_names, variables)
        matrix.device_ids = [case.device_id for case in cases]
        matrix.condition_labels = [case.condition_label for case in cases]
        matrix.failed = np.array([case.failed for case in cases], dtype=bool)
        return matrix

    def to_cases(self) -> list[dict[str, object]]:
        """Decode back into plain learning cases (labels, ``None`` missing)."""
        names = [self.state_names[v] for v in self.variables]
        cases: list[dict[str, object]] = []
        for row in self.codes:
            cases.append({variable: (None if code < 0 else names[column][code])
                          for column, (variable, code)
                          in enumerate(zip(self.variables, row))})
        return cases

    def to_labeled_cases(self) -> list:
        """Decode back into :class:`LabeledCase` rows (requires provenance)."""
        from repro.core.case_generation import LabeledCase

        if (self.device_ids is None or self.condition_labels is None
                or self.failed is None):
            raise LearningError(
                "case matrix carries no provenance; use to_cases()")
        return [LabeledCase(device_id=str(self.device_ids[row]),
                            condition_label=str(self.condition_labels[row]),
                            assignments=assignments,
                            failed=bool(self.failed[row]))
                for row, assignments in enumerate(self.to_cases())]

    # ---------------------------------------------------------------- counting
    def encode_for(self, variable: str,
                   state_names: Sequence[str]) -> np.ndarray:
        """Return the codes of ``variable`` under a target state-name list.

        This is the estimator-facing accessor: when the matrix codec for the
        variable matches the estimator's schema the stored column is
        returned as-is; otherwise the codes are remapped through the labels
        (unknown labels raise, matching the dict-path semantics).  A
        variable the matrix does not carry is all-missing.
        """
        if variable not in self._column:
            return np.full(len(self), _MISSING, dtype=np.int16)
        column = self.column(variable)
        own = self.state_names[variable]
        target = [str(name) for name in state_names]
        if own == target:
            return column
        mapping = np.full(len(own) + 1, _MISSING, dtype=np.int16)
        target_code = EvidenceCodec({variable: target}).code
        for code in np.unique(column[column >= 0]).tolist():
            mapping[code] = target_code(variable, own[code], LearningError)
        return mapping[column]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CaseMatrix(cases={len(self)}, "
                f"variables={len(self.variables)})")
