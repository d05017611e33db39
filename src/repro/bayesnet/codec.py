"""One reading of evidence: state labels, integer codes and per-entry defects.

Evidence reaches every layer as a mapping from variable to state: the
diagnosis layer gets it from ATE datalogs, the engines from callers, the
learners as case rows.  Which values a variable accepts, which code each
maps to and how a bad entry is reported are decided here, once.  Each
caller picks a mode:

* ``"codes"`` (the engines and learners): a Python or numpy integer (never
  a bool) is a state index and must be in range; any other value names the
  state whose label is its ``str()``.  A code therefore reads back as
  itself whatever the labels spell.
* ``"labels"`` (the diagnosis layer's strict check): every value names the
  state whose label is its ``str()``, so an integer datalog column that
  spells a label passes.
* ``"repair"`` (the diagnosis layer's sanitize mode): as ``"labels"``,
  then an in-range integer names the state at that index, and text that
  matches a label once whitespace is stripped, or case-insensitively and
  uniquely, names that label; each such match is reported as a repair.

Anything else is an unknown state.  Every bad entry becomes one
:class:`Defect` — an unknown variable, an unknown state, or a variable a
case's two sections give different states — and each layer raises its own
error type from them.  The codec also yields the row key of checked
evidence, sorted ``(variable, code)`` pairs: the one identity of a row of
evidence, which keys the engines' evidence caches.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import accumulate
from typing import NamedTuple

import numpy as np

CONFLICT = "conflicting-entry"
UNKNOWN_VARIABLE = "unknown-variable"
UNKNOWN_STATE = "unknown-state"
REPAIRED_STATE = "repaired-state"

LABELS, CODES, REPAIR = "labels", "codes", "repair"

#: What the engines accept: state labels, or state indices.
Evidence = Mapping[str, str | int]


class Defect(NamedTuple):
    """One bad (or, in repair mode, repaired) entry.

    ``value`` is the value as supplied and ``other`` the repaired label;
    for a conflict they are the ``str()`` of the two sections' values.
    """

    kind: str
    variable: object
    value: object
    other: object = None


class EvidenceCodec:
    """The label-to-code maps of a network or model, and their one reading.

    ``labels`` holds every variable's state labels in code order; in a
    posterior matrix row, state ``code`` of ``variable`` is column
    ``offsets[variable] + code`` of ``width``.
    """

    def __init__(self, labels: Mapping[str, Sequence[object]]) -> None:
        self.labels = {variable: tuple(map(str, states))
                       for variable, states in labels.items()}
        self._codes = {variable: {label: code
                                  for code, label in enumerate(states)}
                       for variable, states in self.labels.items()}
        sizes = [len(states) for states in self.labels.values()]
        self.offsets = dict(zip(self.labels, accumulate([0, *sizes])))
        self.width = sum(sizes)

    @classmethod
    def of(cls, network) -> "EvidenceCodec":
        """The codec of a network's CPD state names, shared by its engines.

        Memoised on the network against its ``cpd_version``, so replacing a
        CPD rebuilds it.
        """
        cached = network.__dict__.get("_evidence_codec")
        if cached is None or cached[0] != network.cpd_version:
            cached = (network.cpd_version, cls(
                {node: network.state_names(node) for node in network.nodes}))
            network.__dict__["_evidence_codec"] = cached
        return cached[1]

    @staticmethod
    def merge(first: Mapping, second: Mapping) -> tuple[dict, list[Defect]]:
        """Merge a case's two sections, dropping conflicting variables.

        A variable the sections give values of different ``str()`` is a
        conflict; agreeing duplicates keep the first section's value.
        """
        merged = dict(first)
        conflicts = []
        for variable, value in second.items():
            if variable not in first:
                merged[variable] = value
            elif str(first[variable]) != str(value):
                conflicts.append(Defect(CONFLICT, variable,
                                        str(first[variable]), str(value)))
                del merged[variable]
        return merged, conflicts

    def _code(self, table: dict[str, int], value: object, mode: str
              ) -> int | None:
        """The code ``value``, not itself a label, names in one variable's
        ``table``, or ``None``."""
        is_index = isinstance(value, (int, np.integer)) \
            and not isinstance(value, bool)
        if is_index and mode == CODES:
            return int(value) if 0 <= value < len(table) else None
        code = table.get(str(value))
        if code is not None or mode != REPAIR or isinstance(value, bool):
            return code
        if is_index:
            return int(value) if 0 <= value < len(table) else None
        text = str(value).strip()
        if text in table:
            return table[text]
        matches = [code for label, code in table.items()
                   if label.lower() == text.lower()]
        return matches[0] if len(matches) == 1 else None

    def read(self, evidence: Mapping, second: Mapping | None = None, *,
             mode: str = LABELS) -> tuple[dict, list[Defect]]:
        """Return the good entries and one defect per bad one.

        ``mode`` is how much the caller accepts (see the module docstring);
        a good entry maps to its code in ``"codes"`` mode and to its label
        in the others.  ``second`` is a case's other section; conflicts
        come first, then the entries in order.
        """
        defects: list[Defect] = []
        if second:
            evidence, defects = self.merge(evidence, second)
        tables, labels, as_codes = self._codes, self.labels, mode == CODES
        good: dict = {}
        for variable, value in evidence.items():
            table = tables.get(variable)
            if table is None:
                defects.append(Defect(UNKNOWN_VARIABLE, variable, value))
                continue
            # A label names its state in every mode.
            code = table.get(value) if value.__class__ is str else None
            if code is not None:
                good[variable] = code if as_codes else value
                continue
            code = self._code(table, value, mode)
            if code is None:
                defects.append(Defect(UNKNOWN_STATE, variable, value))
                continue
            label = labels[variable][code]
            if mode == REPAIR and str(value) != label:
                defects.append(Defect(REPAIRED_STATE, variable, value, label))
            good[variable] = code if as_codes else label
        return good, defects

    def encode(self, evidence: Mapping, error: type[Exception],
               query: Sequence[str] = ()) -> dict[str, int]:
        """Return ``{variable: code}`` read in ``"codes"`` mode; raise
        ``error`` on any bad entry.

        The ``query`` variables of an inference call must be known and not
        observed.
        """
        for variable in query:
            if variable not in self._codes:
                raise error(f"unknown query variable {variable!r}")
            if variable in evidence:
                raise error(f"variable {variable!r} appears both as query "
                            f"and evidence")
        codes, defects = self.read(evidence, mode=CODES)
        if defects:
            raise error("; ".join(
                f"unknown variable {variable!r}" if kind == UNKNOWN_VARIABLE
                else f"unknown state {value!r} for {variable!r}; known "
                     f"states: {list(self.labels[variable])}"
                for kind, variable, value, _ in defects))
        return codes

    def key(self, evidence: Mapping, error: type[Exception],
            query: Sequence[str] = ()) -> tuple:
        """The row key of ``evidence``, checked as :meth:`encode` checks it."""
        return tuple(sorted(self.encode(evidence, error, query).items()))

    def code(self, variable: str, value: object,
             error: type[Exception]) -> int | None:
        """The learners' cell reader: ``None`` (missing) stays ``None``.

        Cells come one at a time, so each is read here as :meth:`read`
        reads an entry in ``"codes"`` mode; :meth:`encode` reports a bad one.
        """
        if value is None:
            return None
        table = self._codes.get(variable, {})
        code = table.get(value) if value.__class__ is str \
            else self._code(table, value, CODES)
        return self.encode({variable: value}, error)[variable] \
            if code is None else code
