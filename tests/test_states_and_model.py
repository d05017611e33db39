"""Tests for block typing, state tables, discretisation and the circuit-model description."""

from __future__ import annotations

import pytest

from repro.core import (
    BlockType,
    CircuitModelDescription,
    Discretizer,
    ModelVariable,
    StateDefinition,
    StateTable,
)
from repro.core.evidence import validate_evidence
from repro.exceptions import EvidenceError, ModelBuildError, StateDefinitionError


class TestBlockType:
    def test_roles(self):
        assert BlockType.CONTROL.is_controllable
        assert not BlockType.CONTROL.is_observable
        assert BlockType.CONTROL_OBSERVE.is_controllable
        assert BlockType.CONTROL_OBSERVE.is_observable
        assert BlockType.OBSERVE.is_observable
        assert BlockType.INTERNAL.is_internal

    def test_model_variable_validation(self):
        with pytest.raises(ModelBuildError):
            ModelVariable("", BlockType.CONTROL)
        with pytest.raises(ModelBuildError):
            ModelVariable("x", "CONTROL")  # type: ignore[arg-type]


class TestStateTable:
    def make_table(self) -> StateTable:
        return StateTable("reg", [
            StateDefinition("0", 0.0, 4.75, "out of regulation"),
            StateDefinition("1", 4.75, 5.25, "in regulation"),
            StateDefinition("2", 5.25, 500.0, "out of regulation"),
        ])

    def test_requires_two_states(self):
        with pytest.raises(StateDefinitionError):
            StateTable("x", [StateDefinition("0", 0, 1)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StateDefinitionError):
            StateTable("x", [StateDefinition("0", 0, 1), StateDefinition("0", 1, 2)])

    def test_classify_inside_windows(self):
        table = self.make_table()
        assert table.classify(5.0) == "1"
        assert table.classify(2.0) == "0"
        assert table.classify(9.0) == "2"

    def test_priority_resolves_overlaps(self):
        # The paper's enable pins define a narrow bad window inside a wide
        # good window; the first matching state wins.
        table = StateTable("pin", [
            StateDefinition("0", 0.9, 1.9, "bad"),
            StateDefinition("1", 0.4, 2.4, "good"),
        ])
        assert table.classify(1.4) == "0"
        assert table.classify(2.2) == "1"

    def test_out_of_range_uses_nearest(self):
        table = self.make_table()
        assert table.classify(-1.0) == "0"
        assert table.classify(1000.0) == "2"

    def test_strict_mode_raises(self):
        table = self.make_table()
        with pytest.raises(StateDefinitionError):
            table.classify(-1.0, strict=True)

    def test_negative_voltage_window_normalised(self):
        state = StateDefinition("3", -1.0e-7, -1.0e-3, "negative voltage")
        assert state.contains(-1e-5)
        assert not state.contains(0.5)

    def test_representative_value(self):
        assert self.make_table().representative_value("1") == pytest.approx(5.0)

    def test_index_and_rows(self):
        table = self.make_table()
        assert table.index_of("2") == 2
        assert len(table.rows()) == 3
        with pytest.raises(StateDefinitionError):
            table.state("9")


class TestDiscretizer:
    def test_classify_all(self, regulator_circuit):
        discretizer = regulator_circuit.model.discretizer()
        states = discretizer.classify_all({"reg2": 5.0, "lcbg": 1.2, "vp1": 13.5})
        assert states == {"reg2": "1", "lcbg": "1", "vp1": "2"}

    def test_duplicate_tables_rejected(self):
        table = StateTable("a", [StateDefinition("0", 0, 1), StateDefinition("1", 1, 2)])
        with pytest.raises(StateDefinitionError):
            Discretizer([table, table])

    def test_unknown_variable_raises(self, regulator_circuit):
        with pytest.raises(StateDefinitionError):
            regulator_circuit.model.discretizer().classify("nope", 1.0)

    def test_cardinalities_and_state_names(self, regulator_circuit):
        discretizer = regulator_circuit.model.discretizer()
        assert discretizer.cardinalities()["vp1x"] == 5
        assert discretizer.state_names()["hcbg"] == ["0", "1"]


class TestCircuitModelDescription:
    def test_table_rows_shapes(self, hypothetical_circuit):
        model = hypothetical_circuit.model
        assert len(model.functional_type_rows()) == 4
        assert len(model.state_definition_rows()) == 3 + 2 + 2 + 2

    def test_missing_state_table_rejected(self):
        with pytest.raises(ModelBuildError):
            CircuitModelDescription(
                "x",
                [ModelVariable("a", BlockType.CONTROL)],
                [],
                [])

    def test_unknown_dependency_rejected(self):
        variables = [ModelVariable("a", BlockType.CONTROL)]
        tables = [StateTable("a", [StateDefinition("0", 0, 1),
                                   StateDefinition("1", 1, 2)])]
        with pytest.raises(ModelBuildError):
            CircuitModelDescription("x", variables, tables, [("a", "ghost")])

    def test_validate_against(self, regulator_circuit):
        validate_evidence(regulator_circuit.model, {"reg1": "0", "vp1": "2"})
        with pytest.raises(EvidenceError):
            validate_evidence(regulator_circuit.model, {"reg1": "9"})

    def test_parents_children(self, regulator_circuit):
        assert "warnvpst" in regulator_circuit.model.parents_of("enb13")
        assert "reg1" in regulator_circuit.model.children_of("enb13")
