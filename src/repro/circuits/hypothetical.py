"""The hypothetical four-block analogue circuit of Fig. 1.

Section III of the paper introduces BBN circuit modelling on a small
hypothetical circuit: four functional blocks, two circuit inputs (into
Block-1 and Block-2), Block-1 driving Block-2 and Block-3, Block-3 driving
Block-4, and the circuit output taken from Block-4.  Table I gives the
functional types, Table II the usable states.

This module builds both representations of that circuit:

* a behavioural :class:`~repro.circuits.netlist.BlockNetlist` that can be
  simulated and fault-injected, and
* the :class:`~repro.core.circuit_model.CircuitModelDescription` the model
  builder consumes (Tables I, II and the Fig. 1b dependency graph).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np

from repro.circuits.components import BehaviouralBlock, SupplyInput
from repro.circuits.faults import FaultMode, FaultUniverse
from repro.circuits.netlist import BlockNetlist
from repro.core.blocks import BlockType, ModelVariable
from repro.core.circuit_model import CircuitModelDescription
from repro.core.states import StateDefinition, StateTable


class _GainStage(BehaviouralBlock):
    """A simple saturating gain stage used for Block-2 and Block-3."""

    def __init__(self, name: str, driver: str, gain: float = 2.0,
                 saturation: float = 5.0, threshold: float = 0.5,
                 vmax: float = 20.0) -> None:
        super().__init__(name, inputs=[driver], vmax=vmax)
        self.driver = driver
        self.gain = float(gain)
        self.saturation = float(saturation)
        self.threshold = float(threshold)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        drive = np.asarray(inputs[self.driver], dtype=float)
        return np.where(drive < self.threshold, 0.05,
                        np.minimum(self.gain * drive, self.saturation))


@dataclasses.dataclass
class HypotheticalCircuit:
    """Bundle of the hypothetical circuit's representations.

    Attributes
    ----------
    netlist:
        Behavioural netlist for simulation.
    model:
        The circuit-model description (Tables I/II, Fig. 1b).
    fault_universe:
        Faults that can be injected (Block-2, Block-3, Block-4; Block-1 is a
        controllable input in the BBN sense, but the physical block can still
        fail so it is included).
    nominal_conditions:
        The forced input levels of a nominal full-circuit test.
    healthy_states:
        The state label that corresponds to defect-free operation of each
        model variable (designer knowledge consumed by the prior builder and
        by candidate deduction).
    """

    netlist: BlockNetlist
    model: CircuitModelDescription
    fault_universe: FaultUniverse
    nominal_conditions: dict[str, float]
    healthy_states: dict[str, str]


def build_hypothetical_circuit() -> HypotheticalCircuit:
    """Construct the Fig. 1 hypothetical circuit.

    Block-1 is modelled as a controllable driver stage (three usable states:
    non-operational plus two operational drive levels, as in Table II),
    Block-2 and Block-3 as gain stages and Block-4 as an output stage.
    """
    netlist = BlockNetlist("hypothetical")
    netlist.add_blocks([
        SupplyInput("block1", default=0.0, vmax=20.0),
        _GainStage("block2", driver="block1", gain=1.5, saturation=5.0),
        _GainStage("block3", driver="block1", gain=1.2, saturation=4.0),
        _GainStage("block4", driver="block3", gain=2.0, saturation=5.0),
    ])
    netlist.validate()

    variables = [
        ModelVariable("block1", BlockType.CONTROL, "Block-1",
                      "Controllable input/driver block"),
        ModelVariable("block2", BlockType.CONTROL_OBSERVE, "Block-2",
                      "Controllable and observable block"),
        ModelVariable("block3", BlockType.INTERNAL, "Block-3",
                      "Internal non-observable block"),
        ModelVariable("block4", BlockType.OBSERVE, "Block-4",
                      "Observable output block"),
    ]
    state_tables = [
        StateTable("block1", [
            StateDefinition("0", 0.0, 0.8, "Non-Operational"),
            StateDefinition("1", 0.8, 2.5, "Operational-I"),
            StateDefinition("2", 2.5, 20.0, "Operational-II"),
        ]),
        StateTable("block2", [
            StateDefinition("0", 0.0, 1.0, "Non-Operational"),
            StateDefinition("1", 1.0, 20.0, "Operational"),
        ]),
        StateTable("block3", [
            StateDefinition("0", 0.0, 1.0, "Non-Operational"),
            StateDefinition("1", 1.0, 20.0, "Operational"),
        ]),
        StateTable("block4", [
            StateDefinition("0", 0.0, 1.5, "Non-Operational"),
            StateDefinition("1", 1.5, 20.0, "Operational"),
        ]),
    ]
    dependencies = [
        ("block1", "block2"),
        ("block1", "block3"),
        ("block3", "block4"),
    ]
    model = CircuitModelDescription("hypothetical", variables, state_tables,
                                    dependencies)
    fault_universe = FaultUniverse(
        ["block2", "block3", "block4"],
        modes=(FaultMode.DEAD, FaultMode.STUCK_HIGH, FaultMode.DEGRADED),
        severities=(1.0, 0.6),
    )
    nominal_conditions = {"block1": 3.0}
    healthy_states = {"block1": "2", "block2": "1", "block3": "1", "block4": "1"}
    return HypotheticalCircuit(netlist=netlist, model=model,
                               fault_universe=fault_universe,
                               nominal_conditions=nominal_conditions,
                               healthy_states=healthy_states)
