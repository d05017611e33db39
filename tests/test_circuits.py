"""Tests for the behavioural circuit substrate (components, netlist, simulator, faults)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (
    BandgapReference,
    BehavioralSimulator,
    BlockFault,
    BlockNetlist,
    EnableGate,
    EnableSense,
    FaultMode,
    FaultUniverse,
    LinearRegulator,
    OrNode,
    PowerSwitch,
    ProcessVariation,
    SupplyInput,
    SupplyMonitor,
)
from repro.circuits.components import FAULT_MODE_CODES
from repro.exceptions import CircuitError, FaultError


def evaluate(block, inputs, mode=None, severity=1.0):
    """Evaluate ``block`` for one device: every input is an array of one."""
    arrays = {net: np.array([value]) for net, value in inputs.items()}
    modes = severities = None
    if mode is not None:
        modes = np.array([FAULT_MODE_CODES[mode]], dtype=np.int8)
        severities = np.array([severity])
    return float(block.evaluate_batch(arrays, modes, severities, size=1)[0])


class TestComponents:
    def test_bandgap_needs_headroom(self):
        bandgap = BandgapReference("bg", supply="vp", headroom=3.0)
        assert evaluate(bandgap, {"vp": 2.0}) < 0.5
        assert np.isclose(evaluate(bandgap, {"vp": 10.0}), 1.2)

    def test_bandgap_enable_gating(self):
        bandgap = BandgapReference("bg", supply="vp", enable="en", headroom=3.0)
        assert evaluate(bandgap, {"vp": 10.0, "en": 0.0}) < 0.5
        assert np.isclose(evaluate(bandgap, {"vp": 10.0, "en": 3.3}), 1.2)

    def test_or_node_takes_maximum(self):
        node = OrNode("vx", pins=["p1", "p2"])
        assert np.isclose(evaluate(node, {"p1": 0.2, "p2": 3.1}), 3.1)

    def test_or_node_requires_pins(self):
        with pytest.raises(CircuitError):
            OrNode("vx", pins=[])

    def test_enable_sense_needs_reference_window(self):
        sense = EnableSense("sen", or_net="vx", reference_net="ref")
        assert evaluate(sense, {"vx": 3.0, "ref": 1.2}) > 2.5
        assert evaluate(sense, {"vx": 3.0, "ref": 0.4}) < 1.0
        assert evaluate(sense, {"vx": 0.2, "ref": 1.2}) < 1.0

    def test_supply_monitor_checks_supply_and_references(self):
        monitor = SupplyMonitor("warn", primary_reference="lc",
                                secondary_reference="hc", supply="vp",
                                supply_threshold=7.0)
        good = {"lc": 1.2, "hc": 1.2, "vp": 12.0}
        assert evaluate(monitor, good) > 2.5
        assert evaluate(monitor, {**good, "vp": 5.0}) < 1.0
        assert evaluate(monitor, {**good, "hc": 0.2}) < 1.0

    def test_enable_gate_requires_monitor_and_valid_pin(self):
        gate = EnableGate("en", pin="pin", monitor="warn")
        assert evaluate(gate, {"pin": 2.2, "warn": 5.0}) > 2.5
        assert evaluate(gate, {"pin": 2.2, "warn": 0.0}) < 1.0
        assert evaluate(gate, {"pin": 0.1, "warn": 5.0}) < 1.0

    def test_regulator_tracks_reference(self):
        regulator = LinearRegulator("reg", supply="vp", reference="ref",
                                    enable=None, target=5.0)
        assert np.isclose(evaluate(regulator, {"vp": 8.0, "ref": 1.2}), 5.0)
        drifted = evaluate(regulator, {"vp": 20.0, "ref": 1.5})
        assert drifted > 5.5

    def test_regulator_dropout(self):
        regulator = LinearRegulator("reg", supply="vp", reference="ref",
                                    enable=None, target=5.0, dropout=1.0)
        assert np.isclose(evaluate(regulator, {"vp": 4.0, "ref": 1.2}), 3.0)

    def test_regulator_disabled(self):
        regulator = LinearRegulator("reg", supply="vp", reference="ref",
                                    enable="en", target=5.0)
        assert evaluate(regulator, {"vp": 8.0, "ref": 1.2, "en": 0.0}) < 0.5

    def test_power_switch_clamps(self):
        switch = PowerSwitch("sw", supply="vp", ignition="ign", enable="en",
                             clamp_level=14.5)
        assert np.isclose(evaluate(switch, {"vp": 13.5, "ign": 13.5, "en": 5.0}),
                          12.8)
        assert np.isclose(evaluate(switch, {"vp": 20.0, "ign": 20.0, "en": 5.0}),
                          14.5)
        assert evaluate(switch, {"vp": 13.5, "ign": 13.5, "en": 0.0}) < 0.5

    def test_missing_input_raises(self):
        regulator = LinearRegulator("reg", supply="vp", reference="ref",
                                    enable=None, target=5.0)
        with pytest.raises(CircuitError):
            evaluate(regulator, {"vp": 8.0})

    def test_fault_modes(self):
        bandgap = BandgapReference("bg", supply="vp", vmax=40.0)
        inputs = {"vp": 10.0}
        assert evaluate(bandgap, inputs, "dead") == 0.0
        assert evaluate(bandgap, inputs, "stuck_high") == 40.0
        assert evaluate(bandgap, inputs, "degraded", 1.0) < 0.5
        assert evaluate(bandgap, inputs, "short_to_supply") >= 10.0


class TestNetlist:
    def build(self) -> BlockNetlist:
        netlist = BlockNetlist("toy")
        netlist.add_blocks([
            SupplyInput("vp", default=10.0),
            BandgapReference("bg", supply="vp"),
            LinearRegulator("reg", supply="vp", reference="bg", enable=None,
                            target=5.0),
        ])
        return netlist

    def test_validate_and_order(self):
        netlist = self.build()
        netlist.validate()
        order = netlist.evaluation_order()
        assert order.index("vp") < order.index("bg") < order.index("reg")

    def test_duplicate_block_rejected(self):
        netlist = self.build()
        with pytest.raises(CircuitError):
            netlist.add_block(SupplyInput("vp"))

    def test_undriven_input_detected(self):
        netlist = BlockNetlist("broken")
        netlist.add_block(BandgapReference("bg", supply="missing"))
        with pytest.raises(CircuitError):
            netlist.validate()

    def test_readers_and_drivers(self):
        netlist = self.build()
        assert netlist.readers_of("bg") == ["reg"]
        assert netlist.drivers_of("reg") == ["vp", "bg"]
        assert netlist.primary_inputs() == ["vp"]
        assert netlist.primary_outputs() == ["reg"]

    def test_unknown_block_raises(self):
        with pytest.raises(CircuitError):
            self.build().block("nope")


class TestSimulator:
    def make_simulator(self, **kwargs) -> BehavioralSimulator:
        netlist = BlockNetlist("toy")
        netlist.add_blocks([
            SupplyInput("vp", default=10.0),
            BandgapReference("bg", supply="vp"),
            LinearRegulator("reg", supply="vp", reference="bg", enable=None,
                            target=5.0),
        ])
        return BehavioralSimulator(netlist, **kwargs)

    def run(self, simulator, conditions, faults=None, multipliers=None):
        """One condition on one device (or one per multiplier row)."""
        count = 1 if multipliers is None else len(multipliers)
        voltages = simulator.run_program([conditions], [faults] * count,
                                         multipliers)[0]
        return [{name: float(row[column])
                 for name, column in simulator.plan.column.items()}
                for row in voltages]

    def test_noiseless_run_is_deterministic(self):
        simulator = self.make_simulator(measurement_noise=0.0, seed=1)
        first, = self.run(simulator, {"vp": 10.0})
        second, = self.run(simulator, {"vp": 10.0})
        assert first == second
        assert np.isclose(first["reg"], 5.0)

    def test_fault_injection_changes_output(self):
        simulator = self.make_simulator(measurement_noise=0.0)
        faulty, = self.run(simulator, {"vp": 10.0},
                           {"bg": BlockFault("bg", FaultMode.DEAD)})
        assert faulty["reg"] < 1.0

    def test_unknown_fault_block_raises(self):
        simulator = self.make_simulator()
        with pytest.raises(CircuitError):
            self.run(simulator, {"vp": 10.0},
                     {"nope": BlockFault("nope", FaultMode.DEAD)})

    def test_process_variation_spreads_outputs(self):
        simulator = self.make_simulator(
            measurement_noise=0.0,
            process_variation=ProcessVariation(default_sigma=0.05), seed=3)
        outputs = [voltages["reg"] for voltages in self.run(
            simulator, {"vp": 10.0}, multipliers=simulator.sample_devices(30))]
        assert np.std(outputs) > 0.01


class TestFaultUniverse:
    def test_enumerate_and_len(self):
        universe = FaultUniverse(["a", "b"],
                                 modes=(FaultMode.DEAD, FaultMode.DEGRADED),
                                 severities=(1.0, 0.5))
        faults = universe.enumerate()
        assert len(faults) == len(universe) == 2 * (1 + 2)

    def test_faults_of_unknown_block(self):
        universe = FaultUniverse(["a"])
        with pytest.raises(FaultError):
            universe.faults_of("zzz")

    def test_sampling_respects_weights(self):
        universe = FaultUniverse(["rare", "common"], modes=(FaultMode.DEAD,))
        samples = universe.sample_batch(300, rng=5,
                                        block_weights={"rare": 0.01, "common": 1.0})
        common = sum(1 for fault in samples if fault.block == "common")
        assert common > 250

    def test_invalid_severity(self):
        with pytest.raises(FaultError):
            BlockFault("a", FaultMode.DEGRADED, severity=0.0)

    def test_fault_label(self):
        assert BlockFault("bg", FaultMode.DEAD).label == "bg:dead"

    def test_string_mode_is_coerced(self):
        fault = BlockFault("lcbg", "dead")
        assert fault.mode is FaultMode.DEAD
        assert fault == BlockFault("lcbg", FaultMode.DEAD)
        assert fault.label == "lcbg:dead"

    def test_unknown_mode_raises(self):
        with pytest.raises(FaultError, match="gremlins"):
            BlockFault("lcbg", "gremlins")

    def test_every_mode_has_a_simulator_code(self):
        assert set(FAULT_MODE_CODES) == {mode.value for mode in FaultMode}
        assert 0 not in FAULT_MODE_CODES.values()
        assert len(set(FAULT_MODE_CODES.values())) == len(FAULT_MODE_CODES)


class TestProcessVariation:
    def test_multipliers_clipped(self):
        variation = ProcessVariation(default_sigma=0.5, clip=0.1)
        multipliers = variation.sample_devices(["a", "b"], 1, rng=7)
        assert multipliers.shape == (1, 2)
        assert np.all((0.9 <= multipliers) & (multipliers <= 1.1))

    def test_zero_sigma_is_exact(self):
        variation = ProcessVariation(default_sigma=0.0)
        assert variation.sample_devices(["a"], 1, rng=8)[0, 0] == 1.0

    def test_per_block_override(self):
        variation = ProcessVariation(default_sigma=0.0,
                                     per_block_sigma={"wild": 0.1})
        assert variation.sigma_of("wild") == 0.1
        assert variation.sigma_of("calm") == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(CircuitError):
            ProcessVariation(default_sigma=-0.1)
