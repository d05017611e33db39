"""The ATE tester: executes a test program against simulated devices.

The tester is deliberately ignorant of faults and process variation — it is
handed a configured :class:`~repro.circuits.behavioral.BehavioralSimulator`
plus each device's fault map and simply walks the no-stop-on-fail test
program, forcing conditions and recording measurements, exactly like a
production tester walking a lot.  It tests a whole population at once; one
device is a population of one (``tester.test_devices([id], [faults])[0]``).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from repro.ate.datalog import DatalogRecord, DeviceDatalog
from repro.ate.test_program import TestProgram
from repro.circuits.behavioral import BehavioralSimulator
from repro.circuits.faults import BlockFault
from repro.exceptions import ATEError


@dataclasses.dataclass(frozen=True)
class Measurement:
    """One executed specification test and its outcome.

    Attributes
    ----------
    test_number / test_name:
        Identity of the specification test.
    block:
        The observable model variable that was measured.
    value:
        The measured value.
    lower / upper:
        The specification limits applied during the test.
    passed:
        Pass/fail verdict.
    conditions:
        Forced values of the controllable blocks during the test.
    """

    test_number: int
    test_name: str
    block: str
    value: float
    lower: float
    upper: float
    passed: bool
    conditions: Mapping[str, float]


@dataclasses.dataclass
class DeviceResult:
    """The outcome of running the full program on one device.

    Attributes
    ----------
    device_id:
        Identifier of the device.
    measurements:
        One measurement per executed specification test, in program order.
    faults:
        The injected faults (empty for a defect-free device).
    """

    device_id: str
    measurements: list[Measurement]
    faults: dict[str, BlockFault]

    @property
    def failed(self) -> bool:
        """``True`` when any specification test failed."""
        return any(not measurement.passed for measurement in self.measurements)

    def failing_measurements(self) -> list[Measurement]:
        """Return only the failing measurements."""
        return [m for m in self.measurements if not m.passed]

    def to_datalog(self) -> DeviceDatalog:
        """Convert the result into an ASCII-serialisable device datalog."""
        datalog = DeviceDatalog(self.device_id)
        if self.faults:
            datalog.metadata["injected_faults"] = ",".join(
                fault.label for fault in self.faults.values())
        for measurement in self.measurements:
            datalog.add(DatalogRecord(
                device_id=self.device_id,
                test_number=measurement.test_number,
                test_name=measurement.test_name,
                block=measurement.block,
                value=measurement.value,
                lower=measurement.lower,
                upper=measurement.upper,
                passed=measurement.passed,
                conditions=measurement.conditions,
            ))
        return datalog


class ATETester:
    """Runs a no-stop-on-fail :class:`TestProgram` on simulated devices.

    Every device is measured on every specification test, as the paper's
    diagnosis flow requires.

    Parameters
    ----------
    simulator:
        The behavioural simulator of the device under test.
    program:
        The functional test program to execute.
    """

    def __init__(self, simulator: BehavioralSimulator, program: TestProgram) -> None:
        if len(program) == 0:
            raise ATEError(f"test program {program.name!r} has no tests")
        for test in program:
            if test.measured_block not in simulator.netlist:
                raise ATEError(
                    f"test {test.name!r} measures unknown block "
                    f"{test.measured_block!r}")
        self.simulator = simulator
        self.program = program

    def test_devices(self, device_ids: Sequence[str],
                     faults_per_device: Sequence[Mapping[str, BlockFault] | None] | None = None,
                     device_multipliers: np.ndarray | None = None
                     ) -> list[DeviceResult]:
        """Execute the whole program on a population of devices at once.

        The program is walked once; every test measures all devices through
        the simulator, and the per-device :class:`DeviceResult` /
        :class:`Measurement` rows are materialised from the resulting
        ``(tests, devices, blocks)`` voltage array.

        Parameters
        ----------
        device_ids:
            One identifier per device.
        faults_per_device:
            One fault map (or ``None``) per device; ``None`` for an
            all-defect-free population.
        device_multipliers:
            ``None`` to sample process variation for the whole population in
            one draw, or a ``(devices, blocks)`` array.
        """
        if len(device_ids) == 0:
            return []
        return self.test_devices_store(
            device_ids, faults_per_device, device_multipliers).to_results()

    def test_devices_store(self, device_ids: Sequence[str],
                           faults_per_device: Sequence[Mapping[str, BlockFault] | None] | None = None,
                           device_multipliers: np.ndarray | None = None):
        """Batch-test a population into a columnar :class:`DeviceResultStore`.

        The ``(tests, devices)`` value/verdict planes are gathered directly
        from the simulator's voltage array — no per-measurement Python
        objects are created, so this is the entry point for ATE-scale
        training populations.  :meth:`test_devices` is this plus
        :meth:`DeviceResultStore.to_results`.
        """
        # Imported here: repro.ate.store needs the row classes defined above.
        from repro.ate.store import DeviceResultStore

        device_ids = list(device_ids)
        count = len(device_ids)
        if count == 0:
            raise ATEError("cannot build a store for an empty device list")
        if faults_per_device is None:
            fault_maps: list[dict[str, BlockFault]] = [{} for _ in device_ids]
        else:
            if len(faults_per_device) != count:
                raise ATEError(
                    f"got {len(faults_per_device)} fault maps for "
                    f"{count} devices")
            fault_maps = [dict(faults or {}) for faults in faults_per_device]
        multipliers = device_multipliers
        if multipliers is None:
            multipliers = self.simulator.sample_devices(count)
        tests = self.program.tests
        voltages = self.simulator.run_program(
            [test.conditions for test in tests], fault_maps, multipliers)
        column = self.simulator.plan.column
        columns = np.array([column[test.measured_block] for test in tests])
        # values[t, d] = voltages[t, d, columns[t]] in one gather.
        values = voltages[np.arange(len(tests)), :, columns]
        lowers = np.array([test.limit.lower for test in tests])
        uppers = np.array([test.limit.upper for test in tests])
        passed = (values >= lowers[:, None]) & (values <= uppers[:, None])
        fault_index: list[int] = []
        fault_blocks: list[str] = []
        fault_modes: list[str] = []
        fault_severities: list[float] = []
        for device, faults in enumerate(fault_maps):
            for fault in faults.values():
                fault_index.append(device)
                fault_blocks.append(fault.block)
                fault_modes.append(fault.mode.value)
                fault_severities.append(fault.severity)
        return DeviceResultStore(
            device_ids, values, passed,
            [test.number for test in tests], [test.name for test in tests],
            [test.measured_block for test in tests], lowers, uppers,
            [dict(test.conditions) for test in tests],
            fault_index, fault_blocks, fault_modes, fault_severities)
