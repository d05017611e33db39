"""Behavioural analogue-circuit substrate.

The paper diagnoses an industrial multiple-output voltage regulator using
*functional* test data only: per-test voltage measurements of controllable
and observable functional blocks.  This subpackage provides a block-level
behavioural simulator that produces exactly that kind of data:

* :mod:`repro.circuits.components` — behavioural block primitives (supplies,
  bandgaps, enable logic, regulators, power switch, monitors).
* :mod:`repro.circuits.netlist` — block-level netlists (directed connections
  between named blocks).
* :mod:`repro.circuits.behavioral` — the DC block-level solver that
  propagates voltages through a netlist for a whole device population at
  once (one device is a population of one).
* :mod:`repro.circuits.faults` — block-level fault models and injection.
* :mod:`repro.circuits.process_variation` — Monte-Carlo parameter spread.
* :mod:`repro.circuits.hypothetical` — the four-block hypothetical circuit of
  Fig. 1.
* :mod:`repro.circuits.voltage_regulator` — the multiple-output automotive
  voltage regulator of Fig. 2/3 (the paper's industrial example).
"""

from repro.circuits.components import (
    BehaviouralBlock,
    SupplyInput,
    PinInput,
    BandgapReference,
    OrNode,
    EnableSense,
    SupplyMonitor,
    EnableGate,
    LinearRegulator,
    PowerSwitch,
)
from repro.circuits.netlist import BlockNetlist
from repro.circuits.behavioral import BehavioralSimulator, SimulationPlan
from repro.circuits.faults import FaultMode, BlockFault, FaultUniverse
from repro.circuits.process_variation import ProcessVariation
from repro.circuits.hypothetical import build_hypothetical_circuit
from repro.circuits.voltage_regulator import (
    build_voltage_regulator,
    VOLTAGE_REGULATOR_BLOCKS,
)

__all__ = [
    "BehaviouralBlock",
    "SupplyInput",
    "PinInput",
    "BandgapReference",
    "OrNode",
    "EnableSense",
    "SupplyMonitor",
    "EnableGate",
    "LinearRegulator",
    "PowerSwitch",
    "BlockNetlist",
    "BehavioralSimulator",
    "SimulationPlan",
    "FaultMode",
    "BlockFault",
    "FaultUniverse",
    "ProcessVariation",
    "build_hypothetical_circuit",
    "build_voltage_regulator",
    "VOLTAGE_REGULATOR_BLOCKS",
]
