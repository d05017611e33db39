"""Block-level DC behavioural simulation.

The solver evaluates the blocks of a :class:`~repro.circuits.netlist.BlockNetlist`
in dependency order, applying injected faults, process variation and
measurement noise.  One evaluation corresponds to one DC operating point of
the circuit under one test condition — exactly what a functional
specification test on the ATE measures.

There is one evaluation path.  :meth:`BehavioralSimulator.run_program`
evaluates a whole device population under every condition set of a program
as ``(conditions, devices, blocks)`` float arrays, and one device is a
population of one.  Noise is drawn device-major (each device's whole program,
block by block in evaluation order, before the next device's), so with the
same multipliers one run over N devices draws what N one-device runs in turn
would.  The scalar reference that pins this path lives with the tests, as
their oracle.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.circuits.components import FAULT_MODE_CODES, BehaviouralBlock
from repro.circuits.faults import BlockFault
from repro.circuits.netlist import BlockNetlist
from repro.circuits.process_variation import ProcessVariation
from repro.exceptions import CircuitError
from repro.utils.rng import ensure_rng


class SimulationPlan:
    """A netlist compiled for repeated evaluation.

    The plan holds what every evaluation reuses: the topological evaluation
    order, each block's input wiring as column indices, which blocks are
    primary inputs, and the multiplier column per block (process-variation
    multipliers are drawn in netlist insertion order, which may differ from
    evaluation order).
    """

    def __init__(self, netlist: BlockNetlist) -> None:
        self.order: list[str] = netlist.evaluation_order()
        self.blocks: list[BehaviouralBlock] = [netlist.block(name)
                                               for name in self.order]
        self.column: dict[str, int] = {name: i for i, name in enumerate(self.order)}
        #: Multiplier columns follow netlist insertion order (the order
        #: :meth:`ProcessVariation.sample_devices` draws them in).
        self.multiplier_names: list[str] = list(netlist.block_names)
        multiplier_index = {name: i for i, name in enumerate(self.multiplier_names)}
        #: Position of each evaluation column in the multiplier array.
        self.multiplier_column: list[int] = [multiplier_index[name]
                                             for name in self.order]
        self.input_columns: list[list[int]] = [
            [self.column[net] for net in block.inputs] for block in self.blocks]
        self.is_primary: list[bool] = [not block.inputs for block in self.blocks]

    @property
    def block_count(self) -> int:
        """Number of blocks (voltage columns)."""
        return len(self.order)

    # --------------------------------------------------------------- encoding
    def encode_faults(self, faults_per_device: Sequence[Mapping[str, BlockFault] | None]
                      ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Encode per-device fault maps into ``(modes, severities)`` arrays.

        Returns ``(None, None)`` when no device carries a fault.  A fault on
        a block the netlist does not have, or filed under another block's
        name (the map is ``{fault.block: fault}``), raises
        :class:`CircuitError`; validation happens once here, not per
        operating point.
        """
        count = len(faults_per_device)
        modes: np.ndarray | None = None
        severities: np.ndarray | None = None
        for device, faults in enumerate(faults_per_device):
            if not faults:
                continue
            for block_name, fault in faults.items():
                if block_name != fault.block:
                    raise CircuitError(
                        f"fault on block {fault.block!r} is filed under "
                        f"{block_name!r}; key each fault by its own block")
                column = self.column.get(block_name)
                if column is None:
                    raise CircuitError(
                        f"cannot inject a fault into unknown block {block_name!r}")
                if modes is None:
                    modes = np.zeros((count, self.block_count), dtype=np.int8)
                    severities = np.ones((count, self.block_count))
                modes[device, column] = FAULT_MODE_CODES[fault.mode.value]
                severities[device, column] = fault.severity
        return modes, severities

    def encode_multipliers(self, device_multipliers: np.ndarray | None,
                           count: int) -> np.ndarray:
        """Check multipliers as a ``(devices, blocks)`` array.

        Accepts ``None`` (nominal) or an array in netlist insertion order
        (the layout :meth:`ProcessVariation.sample_devices` produces).
        """
        if device_multipliers is None:
            return np.ones((count, len(self.multiplier_names)))
        array = np.asarray(device_multipliers, dtype=float)
        if array.shape != (count, len(self.multiplier_names)):
            raise CircuitError(
                f"device multipliers have shape {array.shape}, expected "
                f"{(count, len(self.multiplier_names))}")
        return array

    # -------------------------------------------------------------- evaluation
    def evaluate(self, condition_arrays: Mapping[str, np.ndarray], count: int,
                 modes: np.ndarray | None, severities: np.ndarray | None,
                 multipliers: np.ndarray,
                 noise: np.ndarray | None) -> np.ndarray:
        """Evaluate ``count`` device rows, one forced condition per row.

        The device axis is fully general: a row is one (device, operating
        point) pair, so a whole test program can be evaluated in a single
        pass by repeating devices per condition.  ``condition_arrays`` maps
        every forced net to its ``(count,)`` value array; ``noise`` is a
        ``(count, blocks)`` array (columns in evaluation order) or ``None``
        for a noiseless run.  Returns the ``(count, blocks)`` voltage array.
        """
        voltages = np.empty((count, self.block_count))
        for col, block in enumerate(self.blocks):
            if self.is_primary[col]:
                inputs = condition_arrays
            else:
                inputs = {net: voltages[:, c]
                          for net, c in zip(block.inputs, self.input_columns[col])}
            column_modes = column_severities = None
            if modes is not None:
                column = modes[:, col]
                if column.any():
                    column_modes = column
                    column_severities = severities[:, col]
            value = block.evaluate_batch(inputs, column_modes, column_severities,
                                         size=count)
            value = value * multipliers[:, self.multiplier_column[col]]
            if noise is not None:
                value = value + noise[:, col]
            voltages[:, col] = np.maximum(value, -1.0)
        return voltages


class BehavioralSimulator:
    """DC block-level simulator with fault injection and noise.

    Parameters
    ----------
    netlist:
        The circuit to simulate (validated on construction).
    measurement_noise:
        Standard deviation, in volts, of the additive Gaussian noise applied
        to every block output (models ATE measurement noise plus residual
        block-level mismatch).
    process_variation:
        Optional :class:`ProcessVariation` describing lot-to-lot spread;
        per-device multipliers are drawn via :meth:`sample_devices`.
    seed:
        Seed or generator for reproducible simulation.
    """

    def __init__(self, netlist: BlockNetlist, measurement_noise: float = 0.01,
                 process_variation: ProcessVariation | None = None,
                 seed: int | np.random.Generator | None = None) -> None:
        netlist.validate()
        if measurement_noise < 0:
            raise CircuitError("measurement_noise must be non-negative")
        self.netlist = netlist
        self.measurement_noise = float(measurement_noise)
        self.process_variation = process_variation
        self._rng = ensure_rng(seed)
        self.plan = SimulationPlan(netlist)

    def sample_devices(self, count: int) -> np.ndarray:
        """Draw multipliers for ``count`` devices as a ``(devices, blocks)`` array.

        Columns follow netlist insertion order; all ones without process
        variation.
        """
        if self.process_variation is None:
            return np.ones((count, len(self.netlist.block_names)))
        return self.process_variation.sample_devices(
            self.netlist.block_names, count, self._rng)

    def run_program(self, condition_sets: Sequence[Mapping[str, float]],
                    faults_per_device: Sequence[Mapping[str, BlockFault] | None],
                    device_multipliers: np.ndarray | None = None) -> np.ndarray:
        """Evaluate every condition set for a whole device population.

        Parameters
        ----------
        condition_sets:
            Forced voltages of the controllable blocks, one mapping per
            operating point.
        faults_per_device:
            One fault map (or ``None`` for a defect-free device) per device;
            its length is the device count.
        device_multipliers:
            ``None`` (nominal) or a ``(devices, blocks)`` array from
            :meth:`sample_devices`.

        Returns a ``(conditions, devices, blocks)`` voltage array (columns in
        evaluation order; ``plan.column`` maps a block to its column).
        Noise for the full program is drawn as one device-major
        ``(devices, conditions, blocks)`` array.

        When every condition set forces the same nets (the normal functional
        program layout) all ``conditions × devices`` rows are evaluated in a
        single pass over the blocks — every block runs exactly once for the
        whole program.
        """
        count = len(faults_per_device)
        modes, severities = self.plan.encode_faults(faults_per_device)
        multipliers = self.plan.encode_multipliers(device_multipliers, count)
        condition_count = len(condition_sets)
        blocks = self.plan.block_count
        noise = None
        if self.measurement_noise > 0:
            noise = self._rng.normal(0.0, self.measurement_noise,
                                     size=(count, condition_count, blocks))

        forced_nets = set(condition_sets[0]) if condition_sets else set()
        if all(set(conditions) == forced_nets for conditions in condition_sets):
            # Flatten (condition, device) onto one axis; row t*count + n is
            # device n under condition t, so reshaping the result recovers the
            # (conditions, devices, blocks) layout exactly.
            total = condition_count * count
            condition_arrays = {
                net: np.repeat(np.array([float(conditions[net])
                                         for conditions in condition_sets]),
                               count)
                for net in forced_nets}
            flat = self.plan.evaluate(
                condition_arrays, total,
                None if modes is None else np.tile(modes, (condition_count, 1)),
                None if severities is None else np.tile(severities,
                                                        (condition_count, 1)),
                np.tile(multipliers, (condition_count, 1)),
                None if noise is None
                else noise.transpose(1, 0, 2).reshape(total, blocks))
            return flat.reshape(condition_count, count, blocks)

        voltages = np.empty((condition_count, count, blocks))
        for index, conditions in enumerate(condition_sets):
            condition_arrays = {net: np.full(count, float(value))
                                for net, value in conditions.items()}
            voltages[index] = self.plan.evaluate(
                condition_arrays, count, modes, severities, multipliers,
                None if noise is None else noise[:, index, :])
        return voltages
