"""Tests for the shipped circuits: the hypothetical circuit and the voltage regulator."""

from __future__ import annotations

import pytest

from repro.circuits import BehavioralSimulator
from repro.circuits.voltage_regulator import (
    REGULATOR_HEALTHY_STATES,
    VOLTAGE_REGULATOR_BLOCKS,
    VOLTAGE_REGULATOR_DEPENDENCIES,
)
from repro.core.blocks import BlockType


class TestHypotheticalCircuit:
    def test_model_matches_table1(self, hypothetical_circuit):
        model = hypothetical_circuit.model
        assert model.variable("block1").block_type is BlockType.CONTROL
        assert model.variable("block2").block_type is BlockType.CONTROL_OBSERVE
        assert model.variable("block3").block_type is BlockType.INTERNAL
        assert model.variable("block4").block_type is BlockType.OBSERVE

    def test_dependencies_match_fig1(self, hypothetical_circuit):
        edges = set(hypothetical_circuit.model.dependencies)
        assert edges == {("block1", "block2"), ("block1", "block3"),
                         ("block3", "block4")}

    def test_block1_has_three_states(self, hypothetical_circuit):
        assert hypothetical_circuit.model.state_table("block1").cardinality == 3

    def test_nominal_simulation_is_operational(self, hypothetical_circuit):
        simulator = BehavioralSimulator(hypothetical_circuit.netlist,
                                        measurement_noise=0.0, seed=1)
        voltages = simulator.run_program(
            [hypothetical_circuit.nominal_conditions], [None])[0, 0]
        discretizer = hypothetical_circuit.model.discretizer()
        for block in ("block2", "block3", "block4"):
            healthy = hypothetical_circuit.healthy_states[block]
            voltage = voltages[simulator.plan.column[block]]
            assert discretizer.classify(block, voltage) == healthy


class TestVoltageRegulator:
    def test_has_19_model_variables(self, regulator_circuit):
        assert len(regulator_circuit.model.variable_names) == 19
        assert len(VOLTAGE_REGULATOR_BLOCKS) == 19

    def test_functional_types_match_table5(self, regulator_circuit):
        model = regulator_circuit.model
        assert set(model.controllable_variables) == {
            "vp1", "vp1x", "vp2", "enb13_pin", "enb4_pin", "enbsw_pin"}
        assert set(model.observable_variables) == {
            "sw", "reg1", "reg2", "reg3", "reg4"}
        assert len(model.internal_variables) == 8

    def test_warnvpst_internal_parents_match_case_d1(self, regulator_circuit):
        parents = set(regulator_circuit.model.parents_of("warnvpst"))
        assert {"lcbg", "hcbg"} <= parents

    def test_dependency_list_is_acyclic_and_complete(self, regulator_circuit):
        graph = regulator_circuit.model.graph
        order = graph.topological_sort()
        assert len(order) == 19
        assert len(VOLTAGE_REGULATOR_DEPENDENCIES) == len(graph.edges)

    def test_state_tables_match_table7_limits(self, regulator_circuit):
        table = regulator_circuit.model.state_table("reg2")
        in_regulation = table.state("1")
        assert in_regulation.lower == pytest.approx(4.75)
        assert in_regulation.upper == pytest.approx(5.25)
        lcbg_nominal = regulator_circuit.model.state_table("lcbg").state("1")
        assert lcbg_nominal.lower == pytest.approx(1.1)
        assert lcbg_nominal.upper == pytest.approx(1.3)

    def test_healthy_states_are_valid_labels(self, regulator_circuit):
        for variable, state in REGULATOR_HEALTHY_STATES.items():
            labels = regulator_circuit.model.state_table(variable).labels
            assert state in labels

    def test_nominal_simulation_all_blocks_healthy(self, regulator_circuit):
        simulator = BehavioralSimulator(regulator_circuit.netlist,
                                        measurement_noise=0.0, seed=2)
        voltages = simulator.run_program(
            [regulator_circuit.nominal_conditions], [None])[0, 0]
        discretizer = regulator_circuit.model.discretizer()
        for block in ("lcbg", "hcbg", "warnvpst", "enb13", "enb4", "enbsw",
                      "reg1", "reg2", "reg3", "reg4", "sw"):
            healthy = regulator_circuit.healthy_states[block]
            voltage = voltages[simulator.plan.column[block]]
            assert discretizer.classify(block, voltage) == healthy, block

    def test_fault_universe_excludes_controllables(self, regulator_circuit):
        for block in regulator_circuit.fault_universe.faultable_blocks:
            assert not regulator_circuit.model.variable(block).is_controllable

    def test_netlist_dependencies_match_model(self, regulator_circuit):
        netlist_edges = set(regulator_circuit.netlist.dependency_graph().edges)
        model_edges = set(regulator_circuit.model.dependencies)
        assert netlist_edges == model_edges
