"""The circuit-model description: variables, states and dependencies.

A :class:`CircuitModelDescription` is everything the test engineer has to
supply to the model builder (Section II of the paper): the functional blocks
of the circuit together with their functional types, every usable state per
block with its limits, and the cause–effect dependency arcs among the blocks.
It is a pure description — the BBN itself is built from it by
:class:`~repro.core.model_builder.Dlog2BBN`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.bayesnet.graph import DirectedGraph
from repro.core.blocks import BlockType, ModelVariable
from repro.core.states import Discretizer, StateTable
from repro.exceptions import ModelBuildError


class CircuitModelDescription:
    """Structural description of an analogue circuit for BBN modelling.

    Parameters
    ----------
    name:
        The circuit's name.
    variables:
        The model variables (functional blocks).
    state_tables:
        One state table per model variable.
    dependencies:
        ``(parent, child)`` cause–effect arcs among the model variables.
    """

    def __init__(self, name: str,
                 variables: Sequence[ModelVariable],
                 state_tables: Sequence[StateTable],
                 dependencies: Iterable[tuple[str, str]]) -> None:
        if not name:
            raise ModelBuildError("circuit model name must be non-empty")
        self.name = name
        self._variables: dict[str, ModelVariable] = {}
        for variable in variables:
            if variable.name in self._variables:
                raise ModelBuildError(f"duplicate model variable {variable.name!r}")
            self._variables[variable.name] = variable
        self._state_tables: dict[str, StateTable] = {}
        for table in state_tables:
            if table.variable not in self._variables:
                raise ModelBuildError(
                    f"state table for unknown model variable {table.variable!r}")
            if table.variable in self._state_tables:
                raise ModelBuildError(
                    f"duplicate state table for model variable {table.variable!r}")
            self._state_tables[table.variable] = table
        missing = [name for name in self._variables if name not in self._state_tables]
        if missing:
            raise ModelBuildError(
                f"model variables without state tables: {missing}")
        self.graph = DirectedGraph(nodes=list(self._variables))
        for parent, child in dependencies:
            if parent not in self._variables:
                raise ModelBuildError(f"dependency parent {parent!r} is not a model variable")
            if child not in self._variables:
                raise ModelBuildError(f"dependency child {child!r} is not a model variable")
            self.graph.add_edge(parent, child)

    # --------------------------------------------------------------- variables
    @property
    def variable_names(self) -> list[str]:
        """All model-variable names in definition order."""
        return list(self._variables)

    @property
    def variables(self) -> list[ModelVariable]:
        """All model variables in definition order."""
        return list(self._variables.values())

    def variable(self, name: str) -> ModelVariable:
        """Return the model variable called ``name``."""
        if name not in self._variables:
            raise ModelBuildError(f"unknown model variable {name!r}")
        return self._variables[name]

    def variables_of_type(self, block_type: BlockType) -> list[str]:
        """Return the names of all variables with the given functional type."""
        return [name for name, variable in self._variables.items()
                if variable.block_type is block_type]

    def _role_lists(self) -> tuple[tuple[str, ...], tuple[str, ...],
                                   tuple[str, ...]]:
        # The variable set is frozen after construction, so the role
        # partition is computed once; diagnosis asks for it per case.
        cached = self.__dict__.get("_role_cache")
        if cached is None:
            cached = (
                tuple(name for name, variable in self._variables.items()
                      if variable.is_controllable),
                tuple(name for name, variable in self._variables.items()
                      if variable.is_observable),
                tuple(name for name, variable in self._variables.items()
                      if variable.is_internal))
            self.__dict__["_role_cache"] = cached
        return cached

    def _evidence_lookups(self) -> tuple[frozenset[str],
                                         dict[str, tuple[str, ...]]]:
        # Frozen like the role partition; evidence handling asks per case
        # which variables are controllable and which labels each one has.
        cached = self.__dict__.get("_evidence_cache")
        if cached is None:
            cached = (frozenset(self._role_lists()[0]),
                      {name: tuple(table.labels)
                       for name, table in self._state_tables.items()})
            self.__dict__["_evidence_cache"] = cached
        return cached

    @property
    def controllable_variables(self) -> list[str]:
        """Variables whose state the tester forces (test conditions)."""
        return list(self._role_lists()[0])

    @property
    def observable_variables(self) -> list[str]:
        """Variables whose state the tester measures (test responses)."""
        return list(self._role_lists()[1])

    @property
    def internal_variables(self) -> list[str]:
        """Variables that are neither controllable nor observable."""
        return list(self._role_lists()[2])

    # ------------------------------------------------------------------ states
    def state_table(self, name: str) -> StateTable:
        """Return the state table of variable ``name``."""
        self.variable(name)
        return self._state_tables[name]

    def discretizer(self, *, strict: bool = False) -> Discretizer:
        """Return a discretiser covering every model variable."""
        return Discretizer(self._state_tables.values(), strict=strict)

    def cardinalities(self) -> dict[str, int]:
        """Return the per-variable state counts."""
        return {name: table.cardinality for name, table in self._state_tables.items()}

    def state_names(self) -> dict[str, list[str]]:
        """Return the per-variable state labels."""
        return {name: table.labels for name, table in self._state_tables.items()}

    # ------------------------------------------------------------ dependencies
    @property
    def dependencies(self) -> list[tuple[str, str]]:
        """All ``(parent, child)`` dependency arcs."""
        return self.graph.edges

    def parents_of(self, name: str) -> list[str]:
        """Return the parents of a model variable in the dependency graph."""
        self.variable(name)
        return self.graph.parents(name)

    def children_of(self, name: str) -> list[str]:
        """Return the children of a model variable in the dependency graph."""
        self.variable(name)
        return self.graph.children(name)

    # ---------------------------------------------------------------- reports
    def functional_type_rows(self) -> list[tuple[str, str, str]]:
        """Return ``(variable, type, remark)`` rows (Table I / Table V format)."""
        remarks = {
            BlockType.CONTROL: "Controllable node",
            BlockType.OBSERVE: "Observable node",
            BlockType.CONTROL_OBSERVE: "Controllable and Observable node",
            BlockType.INTERNAL: "Neither Controllable nor Observable node",
        }
        return [(variable.name, variable.block_type.value, remarks[variable.block_type])
                for variable in self._variables.values()]

    def state_definition_rows(self) -> list[tuple[str, str, float, float, str]]:
        """Return ``(variable, state, lower, upper, remark)`` rows (Table II format)."""
        rows = []
        for name, table in self._state_tables.items():
            for label, lower, upper, remark in table.rows():
                rows.append((name, label, lower, upper, remark))
        return rows

    def validate_against(self, evidence: Mapping[str, str]) -> None:
        """Check that an evidence mapping uses known variables and states."""
        for variable, state in evidence.items():
            table = self.state_table(variable)
            if str(state) not in table.labels:
                raise ModelBuildError(
                    f"unknown state {state!r} for variable {variable!r}; "
                    f"known states: {table.labels}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitModelDescription(name={self.name!r}, "
                f"variables={len(self._variables)}, "
                f"dependencies={len(self.graph.edges)})")
