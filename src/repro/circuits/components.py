"""Behavioural block primitives.

Every functional block of an analogue circuit is modelled at the behavioural
level: a block reads the DC voltages of its input nets, applies its transfer
behaviour (possibly degraded by an injected fault and by process variation)
and drives its output net.  The behavioural level is deliberate — the paper's
block-level diagnosis only ever sees *functional* (specification) test data,
never transistor-level waveforms, so a DC block-level model exercises the
same code path as the authors' silicon.

A block works on a whole device axis at once, and one device is an axis of
length one.  Every block shares the :class:`BehaviouralBlock` interface:

``nominal_output_batch(inputs, size)``
    the defect-free output: every input net carries a ``(devices,)`` float
    array and the result is a ``(devices,)`` array.  This numpy expression is
    the one method a block class must implement.

``evaluate_batch(inputs, modes, severities, size)``
    the nominal output with each device's injected fault applied (faults are
    integer mode codes, see :data:`FAULT_MODE_CODES`) and clamped to the
    block's output range.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import CircuitError

#: Integer encoding of fault modes on the device axis (0 is reserved for
#: "healthy"); one entry per :class:`~repro.circuits.faults.FaultMode` value.
FAULT_MODE_CODES: dict[str, int] = {
    "dead": 1,
    "stuck_high": 2,
    "short_to_supply": 3,
    "degraded": 4,
    "drift": 5,
}


class BehaviouralBlock:
    """Base class for behavioural blocks.

    Parameters
    ----------
    name:
        Unique block name (the model-variable name used by the BBN).
    inputs:
        Names of the nets the block reads.
    vmax:
        The maximum voltage the block can ever drive (used by the
        ``stuck_high`` and ``short_to_supply`` fault modes).
    """

    def __init__(self, name: str, inputs: Sequence[str] = (), vmax: float = 40.0) -> None:
        if not name:
            raise CircuitError("block name must be non-empty")
        self.name = name
        self.inputs = list(inputs)
        self.vmax = float(vmax)

    # ------------------------------------------------------------------ faults
    def _apply_fault_batch(self, nominal: np.ndarray,
                           inputs: Mapping[str, np.ndarray],
                           modes: np.ndarray,
                           severities: np.ndarray) -> np.ndarray:
        """Transform the nominal output according to each device's fault.

        ``modes`` holds one :data:`FAULT_MODE_CODES` entry (or 0 = healthy)
        per device; ``severities`` the matching severity.  Mode validation
        happens where faults are encoded, so every code here is known.
        """
        value = np.array(nominal, dtype=float, copy=True)
        dead = modes == FAULT_MODE_CODES["dead"]
        if dead.any():
            value[dead] = 0.0
        stuck = modes == FAULT_MODE_CODES["stuck_high"]
        if stuck.any():
            value[stuck] = self.vmax
        short = modes == FAULT_MODE_CODES["short_to_supply"]
        if short.any():
            if self.inputs:
                supply = np.maximum.reduce(
                    [np.asarray(inputs[net], dtype=float) for net in self.inputs])
            else:
                supply = np.full_like(value, self.vmax)
            value[short] = np.maximum(supply, nominal)[short]
        degraded = modes == FAULT_MODE_CODES["degraded"]
        if degraded.any():
            value[degraded] = (nominal[degraded]
                               * np.maximum(0.0, 1.0 - 0.7 * severities[degraded]))
        drift = modes == FAULT_MODE_CODES["drift"]
        if drift.any():
            value[drift] = nominal[drift] * (1.0 + 0.5 * severities[drift])
        return value

    # --------------------------------------------------------------- behaviour
    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        """Return the defect-free output for ``size`` devices at once."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement nominal_output_batch")

    def evaluate_batch(self, inputs: Mapping[str, np.ndarray],
                       modes: np.ndarray | None = None,
                       severities: np.ndarray | None = None, *,
                       size: int) -> np.ndarray:
        """Return the block's output for a whole device population.

        Parameters
        ----------
        inputs:
            ``(devices,)`` float array per input net (primary-input blocks
            receive the forced condition arrays instead).
        modes / severities:
            Optional per-device fault-mode codes and severities; ``None``
            means every device is healthy.
        size:
            Number of devices along the batch axis.
        """
        for net in self.inputs:
            if net not in inputs:
                raise CircuitError(
                    f"block {self.name!r} is missing input net {net!r}")
        nominal = np.asarray(self.nominal_output_batch(inputs, size), dtype=float)
        if modes is None:
            value = nominal
        else:
            value = self._apply_fault_batch(nominal, inputs, modes, severities)
        return np.minimum(np.maximum(value, -1.0), self.vmax)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, inputs={self.inputs})"


class SupplyInput(BehaviouralBlock):
    """A controllable supply input (e.g. the battery rails ``vp1``/``vp2``).

    The output simply reproduces the externally forced voltage; faults do not
    apply because the ATE drives the net.
    """

    def __init__(self, name: str, default: float = 0.0, vmax: float = 40.0) -> None:
        super().__init__(name, inputs=[], vmax=vmax)
        self.default = float(default)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        forced = inputs.get(self.name)
        if forced is None:
            return np.full(size, self.default)
        return np.asarray(forced, dtype=float)

    def evaluate_batch(self, inputs: Mapping[str, np.ndarray],
                       modes: np.ndarray | None = None,
                       severities: np.ndarray | None = None, *,
                       size: int) -> np.ndarray:
        # Controllable nets are forced by the tester; health is ignored.
        nominal = self.nominal_output_batch(inputs, size)
        return np.minimum(np.maximum(nominal, -1.0), self.vmax)


class PinInput(SupplyInput):
    """A controllable digital/analogue pin (e.g. the ``enbx`` enable pins)."""

    def __init__(self, name: str, default: float = 0.0, vmax: float = 40.0) -> None:
        super().__init__(name, default=default, vmax=vmax)


class BandgapReference(BehaviouralBlock):
    """A bandgap voltage reference.

    Produces a ``reference`` output (typically 1.2 V) once its supply exceeds
    the start-up headroom and, optionally, once an enable net is active.
    """

    def __init__(self, name: str, supply: str, enable: str | None = None,
                 reference: float = 1.2, headroom: float = 3.0,
                 enable_threshold: float = 2.5, vmax: float = 40.0) -> None:
        inputs = [supply] + ([enable] if enable else [])
        super().__init__(name, inputs=inputs, vmax=vmax)
        self.supply = supply
        self.enable = enable
        self.reference = float(reference)
        self.headroom = float(headroom)
        self.enable_threshold = float(enable_threshold)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        supply = np.asarray(inputs[self.supply], dtype=float)
        out = np.where(supply < self.headroom, 0.05 * supply, self.reference)
        if self.enable is not None:
            enable = np.asarray(inputs[self.enable], dtype=float)
            out = np.where((supply >= self.headroom)
                           & (enable < self.enable_threshold), 0.1, out)
        return out


class OrNode(BehaviouralBlock):
    """An analogue OR of several pins (the paper's ``vx`` model variable).

    Output follows the highest input pin voltage; it is "good" when at least
    one enable pin is driven to a valid level.
    """

    def __init__(self, name: str, pins: Sequence[str], vmax: float = 40.0) -> None:
        if not pins:
            raise CircuitError(f"OrNode {name!r} requires at least one pin")
        super().__init__(name, inputs=list(pins), vmax=vmax)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        return np.maximum.reduce(
            [np.asarray(inputs[pin], dtype=float) for pin in self.inputs])


class EnableSense(BehaviouralBlock):
    """Enable-sensing logic (the paper's ``enblSen``).

    Goes active (drives ``active_level``) when the OR-ed enable net is high
    enough and the low-current bandgap reference is within its nominal
    window.
    """

    def __init__(self, name: str, or_net: str, reference_net: str,
                 active_level: float = 3.3, or_threshold: float = 1.1,
                 reference_window: tuple[float, float] = (1.05, 1.35),
                 vmax: float = 40.0) -> None:
        super().__init__(name, inputs=[or_net, reference_net], vmax=vmax)
        self.or_net = or_net
        self.reference_net = reference_net
        self.active_level = float(active_level)
        self.or_threshold = float(or_threshold)
        self.reference_window = (float(reference_window[0]), float(reference_window[1]))

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        low, high = self.reference_window
        reference = np.asarray(inputs[self.reference_net], dtype=float)
        or_net = np.asarray(inputs[self.or_net], dtype=float)
        active = ((or_net >= self.or_threshold)
                  & (low <= reference) & (reference <= high))
        return np.where(active, self.active_level, 0.1)


class SupplyMonitor(BehaviouralBlock):
    """Supply/reference monitor (the paper's ``warnvpst``).

    Asserts its output ("on") when the monitored supply rail has enough
    headroom and both bandgap references are good, indicating the chip's
    internal supplies are trustworthy; otherwise the warning output stays low
    ("off") and the downstream enable gates are held inactive.
    """

    def __init__(self, name: str, primary_reference: str, secondary_reference: str,
                 supply: str | None = None, supply_threshold: float = 7.0,
                 on_level: float = 5.0,
                 primary_window: tuple[float, float] = (1.05, 1.35),
                 secondary_threshold: float = 1.1, vmax: float = 40.0) -> None:
        inputs = [primary_reference, secondary_reference] + ([supply] if supply else [])
        super().__init__(name, inputs=inputs, vmax=vmax)
        self.primary_reference = primary_reference
        self.secondary_reference = secondary_reference
        self.supply = supply
        self.supply_threshold = float(supply_threshold)
        self.on_level = float(on_level)
        self.primary_window = (float(primary_window[0]), float(primary_window[1]))
        self.secondary_threshold = float(secondary_threshold)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        low, high = self.primary_window
        primary = np.asarray(inputs[self.primary_reference], dtype=float)
        secondary = np.asarray(inputs[self.secondary_reference], dtype=float)
        good = ((low <= primary) & (primary <= high)
                & (secondary >= self.secondary_threshold))
        if self.supply is not None:
            supply = np.asarray(inputs[self.supply], dtype=float)
            good = good & (supply >= self.supply_threshold)
        return np.where(good, self.on_level, 0.1)


class EnableGate(BehaviouralBlock):
    """Internal enable gate (the paper's ``enb13``/``enb4``/``enbsw``).

    Passes the external enable-pin request through only when the supply
    monitor has asserted its "on" output.
    """

    def __init__(self, name: str, pin: str, monitor: str,
                 active_level: float = 5.0,
                 pin_windows: Sequence[tuple[float, float]] = ((0.4, 2.4), (2.4, 40.0)),
                 monitor_threshold: float = 2.5, vmax: float = 40.0) -> None:
        super().__init__(name, inputs=[pin, monitor], vmax=vmax)
        self.pin = pin
        self.monitor = monitor
        self.active_level = float(active_level)
        self.pin_windows = [(float(low), float(high)) for low, high in pin_windows]
        self.monitor_threshold = float(monitor_threshold)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        pin = np.asarray(inputs[self.pin], dtype=float)
        monitor = np.asarray(inputs[self.monitor], dtype=float)
        valid = np.zeros(pin.shape, dtype=bool)
        for low, high in self.pin_windows:
            valid |= (low <= pin) & (pin <= high)
        return np.where(valid & (monitor >= self.monitor_threshold),
                        self.active_level, 0.1)


class LinearRegulator(BehaviouralBlock):
    """A linear voltage regulator output (the paper's ``reg1``–``reg4``).

    Regulates to ``target`` when the supply has enough headroom, the bandgap
    reference is good and (optionally) the enable gate is active; collapses
    towards zero when disabled or without a reference.  The regulation loop
    multiplies the reference by a fixed resistor ratio, so a drifted
    reference drags the output out of regulation proportionally — an
    out-of-window reference can never produce an in-regulation output.
    """

    def __init__(self, name: str, supply: str, reference: str,
                 enable: str | None, target: float,
                 dropout: float = 1.0, reference_threshold: float = 0.2,
                 nominal_reference: float = 1.2,
                 enable_threshold: float = 2.5, vmax: float = 40.0) -> None:
        inputs = [supply, reference] + ([enable] if enable else [])
        super().__init__(name, inputs=inputs, vmax=vmax)
        self.supply = supply
        self.reference = reference
        self.enable = enable
        self.target = float(target)
        self.dropout = float(dropout)
        self.reference_threshold = float(reference_threshold)
        self.nominal_reference = float(nominal_reference)
        self.enable_threshold = float(enable_threshold)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        reference = np.asarray(inputs[self.reference], dtype=float)
        supply = np.asarray(inputs[self.supply], dtype=float)
        regulated = self.target * (reference / self.nominal_reference)
        out = np.where(supply < regulated + self.dropout,
                       np.maximum(0.0, supply - self.dropout), regulated)
        out = np.where(reference < self.reference_threshold, 0.05, out)
        if self.enable is not None:
            enable = np.asarray(inputs[self.enable], dtype=float)
            out = np.where(enable < self.enable_threshold, 0.05, out)
        return out


class PowerSwitch(BehaviouralBlock):
    """The built-in power switch (the paper's ``sw``).

    Connects the battery rail to the output when enabled and the ignition
    sense is in its "on" window; clamps the output when the battery exceeds
    the clamp level.
    """

    def __init__(self, name: str, supply: str, ignition: str, enable: str,
                 drop: float = 0.7, clamp_level: float = 14.5,
                 ignition_on_threshold: float = 6.5,
                 enable_threshold: float = 2.5, vmax: float = 40.0) -> None:
        super().__init__(name, inputs=[supply, ignition, enable], vmax=vmax)
        self.supply = supply
        self.ignition = ignition
        self.enable = enable
        self.drop = float(drop)
        self.clamp_level = float(clamp_level)
        self.ignition_on_threshold = float(ignition_on_threshold)
        self.enable_threshold = float(enable_threshold)

    def nominal_output_batch(self, inputs: Mapping[str, np.ndarray],
                             size: int) -> np.ndarray:
        supply = np.asarray(inputs[self.supply], dtype=float)
        ignition = np.asarray(inputs[self.ignition], dtype=float)
        enable = np.asarray(inputs[self.enable], dtype=float)
        out = np.minimum(supply - self.drop, self.clamp_level)
        out = np.where(ignition < self.ignition_on_threshold, 0.05, out)
        return np.where(enable < self.enable_threshold, 0.05, out)
