"""Scalar reference of the circuit simulator, kept as the tests' oracle.

The library simulates whole device populations as arrays
(:meth:`BehavioralSimulator.run_program`, :meth:`BehaviouralBlock.evaluate_batch`).
This module recomputes the same data the slow, obvious way: one device, one
operating point and one block at a time, with each block's transfer
function written out as plain Python on floats, and every random number
drawn one scalar at a time.  It never calls an array method of the library
(no ``*_batch``, no ``run_program``, no ``sample_devices``), so comparing
against it checks the array path rather than the array path against itself.

Random-stream contract: :func:`sample_multipliers` draws one normal per
non-zero-sigma block in netlist order, and :func:`simulate` one noise value
per block in evaluation order.  Walking devices one after the other through
:func:`walk_program` with one generator therefore consumes the stream in the
device-major order the array path draws its ``(devices, conditions,
blocks)`` noise in.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence

import numpy as np

from repro.ate.test_program import TestProgram
from repro.circuits import (
    BandgapReference,
    BehaviouralBlock,
    BlockFault,
    BlockNetlist,
    EnableGate,
    EnableSense,
    LinearRegulator,
    OrNode,
    PowerSwitch,
    ProcessVariation,
    SupplyInput,
    SupplyMonitor,
)
from repro.circuits.hypothetical import _GainStage
from repro.exceptions import CircuitError


# ------------------------------------------------------------- block formulas
@functools.singledispatch
def nominal_output(block: BehaviouralBlock, inputs: Mapping[str, float]) -> float:
    """Return ``block``'s defect-free output for scalar input voltages."""
    raise NotImplementedError(f"no scalar formula for {type(block).__name__}")


@nominal_output.register
def _(block: SupplyInput, inputs):
    return float(inputs.get(block.name, block.default))


@nominal_output.register
def _(block: BandgapReference, inputs):
    if inputs[block.supply] < block.headroom:
        return 0.05 * inputs[block.supply]
    if block.enable is not None and inputs[block.enable] < block.enable_threshold:
        return 0.1
    return block.reference


@nominal_output.register
def _(block: OrNode, inputs):
    return max(inputs[pin] for pin in block.inputs)


@nominal_output.register
def _(block: EnableSense, inputs):
    low, high = block.reference_window
    reference_ok = low <= inputs[block.reference_net] <= high
    if inputs[block.or_net] >= block.or_threshold and reference_ok:
        return block.active_level
    return 0.1


@nominal_output.register
def _(block: SupplyMonitor, inputs):
    low, high = block.primary_window
    primary_ok = low <= inputs[block.primary_reference] <= high
    secondary_ok = inputs[block.secondary_reference] >= block.secondary_threshold
    supply_ok = (block.supply is None
                 or inputs[block.supply] >= block.supply_threshold)
    if primary_ok and secondary_ok and supply_ok:
        return block.on_level
    return 0.1


@nominal_output.register
def _(block: EnableGate, inputs):
    pin = inputs[block.pin]
    if not any(low <= pin <= high for low, high in block.pin_windows):
        return 0.1
    if inputs[block.monitor] < block.monitor_threshold:
        return 0.1
    return block.active_level


@nominal_output.register
def _(block: LinearRegulator, inputs):
    if block.enable is not None and inputs[block.enable] < block.enable_threshold:
        return 0.05
    reference = inputs[block.reference]
    if reference < block.reference_threshold:
        return 0.05
    # The output tracks the reference through the feedback divider.
    regulated = block.target * (reference / block.nominal_reference)
    supply = inputs[block.supply]
    if supply < regulated + block.dropout:
        # Low supply: the output follows the supply minus the dropout.
        return max(0.0, supply - block.dropout)
    return regulated


@nominal_output.register
def _(block: PowerSwitch, inputs):
    if inputs[block.enable] < block.enable_threshold:
        return 0.05
    if inputs[block.ignition] < block.ignition_on_threshold:
        return 0.05
    return min(inputs[block.supply] - block.drop, block.clamp_level)


@nominal_output.register
def _(block: _GainStage, inputs):
    drive = inputs[block.driver]
    if drive < block.threshold:
        return 0.05
    return min(block.gain * drive, block.saturation)


# ------------------------------------------------------------------- faults
def apply_fault(block: BehaviouralBlock, nominal: float,
                inputs: Mapping[str, float], mode: str | None,
                severity: float = 1.0) -> float:
    """Transform a nominal output by one fault mode (``None`` = healthy)."""
    if mode is None:
        return nominal
    if mode == "dead":
        return 0.0
    if mode == "stuck_high":
        return block.vmax
    if mode == "short_to_supply":
        supply = max((inputs.get(net, 0.0) for net in block.inputs),
                     default=block.vmax)
        return max(supply, nominal)
    if mode == "degraded":
        return nominal * max(0.0, 1.0 - 0.7 * severity)
    if mode == "drift":
        return nominal * (1.0 + 0.5 * severity)
    raise CircuitError(f"unknown fault mode {mode!r} on block {block.name!r}")


def evaluate(block: BehaviouralBlock, inputs: Mapping[str, float],
             mode: str | None = None, severity: float = 1.0) -> float:
    """Return one block's output voltage under one fault mode.

    A controllable input ignores faults (the tester forces the net); every
    output is clamped to ``[-1, vmax]``.
    """
    if isinstance(block, SupplyInput):
        return float(min(max(nominal_output(block, inputs), -1.0), block.vmax))
    for net in block.inputs:
        if net not in inputs:
            raise CircuitError(f"block {block.name!r} is missing input net {net!r}")
    value = apply_fault(block, nominal_output(block, inputs), inputs, mode,
                        severity)
    return float(min(max(value, -1.0), block.vmax))


# ------------------------------------------------------------------ devices
def sample_multipliers(variation: ProcessVariation | None, blocks: Sequence[str],
                       rng: np.random.Generator) -> dict[str, float]:
    """Draw one device's process-variation multipliers, block by block."""
    if variation is None:
        return {block: 1.0 for block in blocks}
    multipliers: dict[str, float] = {}
    for block in blocks:
        sigma = variation.sigma_of(block)
        value = 1.0 if sigma == 0 else float(rng.normal(1.0, sigma))
        multipliers[block] = min(max(value, 1.0 - variation.clip),
                                 1.0 + variation.clip)
    return multipliers


def simulate(netlist: BlockNetlist, conditions: Mapping[str, float],
             faults: Mapping[str, BlockFault] | None = None,
             multipliers: Mapping[str, float] | None = None,
             rng: np.random.Generator | None = None,
             noise: float = 0.0) -> dict[str, float]:
    """Evaluate one device at one operating point; return every net's voltage.

    Blocks run one at a time in evaluation order; each output is faulted,
    scaled by its multiplier, given one scalar noise draw (when ``noise`` is
    positive) and floored at -1 V.
    """
    faults = dict(faults or {})
    for name in faults:
        if name not in netlist:
            raise CircuitError(f"cannot inject a fault into unknown block {name!r}")
    multipliers = multipliers or {}
    voltages: dict[str, float] = {}
    for name in netlist.evaluation_order():
        block = netlist.block(name)
        inputs = (dict(conditions) if not block.inputs
                  else {net: voltages[net] for net in block.inputs})
        fault = faults.get(name)
        value = (evaluate(block, inputs) if fault is None
                 else evaluate(block, inputs, fault.mode.value, fault.severity))
        value *= multipliers.get(name, 1.0)
        if noise > 0:
            value += float(rng.normal(0.0, noise))
        voltages[name] = float(max(value, -1.0))
    return voltages


def walk_program(netlist: BlockNetlist, program: TestProgram,
                 faults: Mapping[str, BlockFault] | None = None,
                 multipliers: Mapping[str, float] | None = None,
                 rng: np.random.Generator | None = None,
                 noise: float = 0.0) -> list[tuple[float, bool]]:
    """Walk one device through a no-stop-on-fail program, test by test.

    Returns ``(measured value, passed)`` per specification test, in program
    order.
    """
    measurements = []
    for test in program:
        value = simulate(netlist, test.conditions, faults, multipliers, rng,
                         noise)[test.measured_block]
        measurements.append((value, test.evaluate(value)))
    return measurements
