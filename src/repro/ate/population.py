"""Failed/passing device population generation.

The paper fine-tuned the regulator's CPTs with cases generated from 70 failed
products returned from the field.  Customer returns and their proprietary ATE
logs are not available, so :class:`PopulationGenerator` produces the closest
synthetic equivalent: a population of simulated devices, each with a randomly
sampled block-level fault (the failed devices) or no fault (the passing
devices), tested with the no-stop-on-fail functional program.  The injected
fault of every device is kept as ground truth for scoring diagnoses, but it
never enters the learning path.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.ate.datalog import DeviceDatalog
from repro.ate.test_program import TestProgram
from repro.ate.tester import ATETester, DeviceResult
from repro.circuits.behavioral import BehavioralSimulator
from repro.circuits.faults import BlockFault, FaultUniverse
from repro.exceptions import ATEError
from repro.utils.rng import ensure_rng


class DevicePopulation:
    """A generated device population.

    Backed either by per-device :class:`DeviceResult` rows or by a columnar
    :class:`DeviceResultStore` (the batched generator produces the latter and
    materialises rows lazily on first access to :attr:`results`, so
    store-only consumers — case generation, batched CPT learning — never pay
    for row objects).

    Attributes
    ----------
    results:
        Per-device ATE results, in generation order.
    ground_truth:
        Injected fault per device id (absent for defect-free devices).
    """

    def __init__(self, results: list[DeviceResult] | None = None,
                 ground_truth: Mapping[str, BlockFault] | None = None,
                 store=None) -> None:
        if results is None and store is None:
            raise ATEError(
                "a population needs result rows or a columnar store")
        self._results = list(results) if results is not None else None
        self._store = store
        self.ground_truth = dict(ground_truth or {})

    @property
    def results(self) -> list[DeviceResult]:
        """Per-device ATE results (materialised from the store on demand)."""
        if self._results is None:
            self._results = self._store.to_results()
        return self._results

    @property
    def device_ids(self) -> list[str]:
        """All device identifiers."""
        if self._results is None:
            return [str(device_id) for device_id in self._store.device_ids]
        return [result.device_id for result in self.results]

    @property
    def failing_results(self) -> list[DeviceResult]:
        """Results of devices that failed at least one specification test."""
        return [result for result in self.results if result.failed]

    @property
    def passing_results(self) -> list[DeviceResult]:
        """Results of devices that passed every specification test."""
        return [result for result in self.results if not result.failed]

    def to_datalogs(self) -> list[DeviceDatalog]:
        """Convert every device result into an ASCII-serialisable datalog."""
        return [result.to_datalog() for result in self.results]

    def to_store(self):
        """Return the population as a columnar :class:`DeviceResultStore`.

        The array-native entry point into case generation and batched CPT
        learning (see :meth:`CaseGenerator.case_matrix`).  Cached like
        :meth:`result_for`: the only mutation the generators perform is
        appending, so the store is rebuilt only when ``results`` grew.
        """
        from repro.ate.store import DeviceResultStore

        if self._results is None:
            return self._store
        cached = self.__dict__.get("_store_cache")
        if cached is None or cached[1] != len(self._results):
            if (self._store is not None
                    and self._store.device_count == len(self._results)):
                store = self._store
            else:
                store = DeviceResultStore.from_results(self._results)
            cached = (store, len(self._results))
            self.__dict__["_store_cache"] = cached
        return cached[0]

    def result_for(self, device_id: str) -> DeviceResult:
        """Return the result of one device (O(1) dict-backed lookup).

        The index is rebuilt whenever ``results`` changes length (the only
        mutation the generators perform is appending); first occurrence wins
        for duplicate device ids, matching the previous linear scan.
        """
        cached = self.__dict__.get("_result_index")
        if cached is None or cached[1] != len(self.results):
            index: dict[str, DeviceResult] = {}
            for result in self.results:
                index.setdefault(result.device_id, result)
            cached = (index, len(self.results))
            self.__dict__["_result_index"] = cached
        try:
            return cached[0][device_id]
        except KeyError:
            raise ATEError(f"no device {device_id!r} in the population") from None

    def __len__(self) -> int:
        if self._results is None:
            return self._store.device_count
        return len(self._results)


class PopulationGenerator:
    """Generates fault-injected device populations.

    Parameters
    ----------
    simulator:
        Behavioural simulator of the circuit (with process variation).
    program:
        The no-stop-on-fail functional test program.
    fault_universe:
        The faults that may be injected into failed devices.
    block_weights:
        Optional relative defect likelihood per block.
    device_prefix:
        Prefix of generated device identifiers.
    seed:
        Seed or generator for reproducible populations.
    """

    def __init__(self, simulator: BehavioralSimulator, program: TestProgram,
                 fault_universe: FaultUniverse,
                 block_weights: Mapping[str, float] | None = None,
                 device_prefix: str = "DEV",
                 seed: int | np.random.Generator | None = None) -> None:
        self.simulator = simulator
        self.program = program
        self.fault_universe = fault_universe
        self.block_weights = dict(block_weights or {})
        self.device_prefix = device_prefix
        self._rng = ensure_rng(seed)
        self._tester = ATETester(simulator, program, stop_on_fail=False)
        self._counter = 0

    def _next_device_id(self) -> str:
        self._counter += 1
        return f"{self.device_prefix}-{self._counter:05d}"

    # ------------------------------------------------------------- generation
    def _generate_failed_store(self, count: int):
        """Sample ``count`` faults up-front and test the devices in one batch.

        Returns the columnar store of the results and the sampled faults.
        """
        faults = self.fault_universe.sample_batch(count, self._rng,
                                                  self.block_weights)
        device_ids = [self._next_device_id() for _ in range(count)]
        store = self._tester.test_devices_store(
            device_ids, [{fault.block: fault} for fault in faults])
        return store, list(faults)

    def generate(self, failed_count: int, passing_count: int = 0,
                 require_observable_failure: bool = True,
                 max_attempts_per_device: int = 20) -> DevicePopulation:
        """Generate a population of ``failed_count`` + ``passing_count`` devices.

        All faults of a round are sampled up-front and the whole round is
        simulated through the batched tester; only the devices whose fault
        was masked by the test conditions are re-drawn (again as one batch)
        in the next round.  Per device the semantics match the scalar retry
        loop: up to ``max_attempts_per_device`` fault draws, a fresh device
        id per draw, and the masked fault is accepted once the attempts are
        exhausted.

        Parameters
        ----------
        failed_count / passing_count:
            Number of fault-injected and defect-free devices.
        require_observable_failure:
            When ``True`` (default), fault-injected devices that happen to
            pass every specification test (fault masked by the test
            conditions) are re-drawn, mirroring the paper's setting in which
            every customer return is an observably failing product.
        max_attempts_per_device:
            Upper bound on re-draws before accepting a masked fault.
        """
        from repro.ate.store import DeviceResultStore

        if failed_count < 0 or passing_count < 0:
            raise ATEError("device counts must be non-negative")
        if not failed_count and not passing_count:
            return DevicePopulation(results=[], ground_truth={})
        values = passed = None
        device_ids: list[str] = []
        faults_by_slot: list[BlockFault] = []
        metadata = None
        if failed_count:
            store, faults_by_slot = self._generate_failed_store(failed_count)
            metadata = store
            values, passed = store.values, store.passed
            device_ids = [str(device_id) for device_id in store.device_ids]
            if require_observable_failure:
                masked = np.flatnonzero(passed.all(axis=0))
                attempts = 1
                while len(masked) and attempts < max_attempts_per_device:
                    redrawn, redrawn_faults = self._generate_failed_store(
                        len(masked))
                    values[:, masked] = redrawn.values
                    passed[:, masked] = redrawn.passed
                    for slot, device_id, fault in zip(
                            masked, redrawn.device_ids, redrawn_faults):
                        device_ids[slot] = str(device_id)
                        faults_by_slot[slot] = fault
                    masked = masked[passed[:, masked].all(axis=0)]
                    attempts += 1
        ground_truth = {device_ids[slot]: fault
                        for slot, fault in enumerate(faults_by_slot)}
        if passing_count:
            passing_ids = [self._next_device_id()
                           for _ in range(passing_count)]
            passing_store = self._tester.test_devices_store(passing_ids)
            if metadata is None:
                metadata = passing_store
                values, passed = passing_store.values, passing_store.passed
                device_ids = [str(device_id)
                              for device_id in passing_store.device_ids]
            else:
                values = np.hstack([values, passing_store.values])
                passed = np.hstack([passed, passing_store.passed])
                device_ids.extend(str(device_id)
                                  for device_id in passing_store.device_ids)
        combined = DeviceResultStore(
            device_ids, values, passed, metadata.test_numbers,
            metadata.test_names, metadata.blocks, metadata.lowers,
            metadata.uppers, metadata.conditions,
            np.arange(len(faults_by_slot), dtype=np.int64),
            [fault.block for fault in faults_by_slot],
            [fault.mode.value for fault in faults_by_slot],
            [fault.severity for fault in faults_by_slot])
        return DevicePopulation(store=combined, ground_truth=ground_truth)

    def generate_for_fault(self, fault: BlockFault, count: int) -> DevicePopulation:
        """Generate ``count`` devices that all carry the same fault.

        Used by the fault-dictionary baseline, whose signatures are built per
        fault rather than per random population.
        """
        device_ids = [self._next_device_id() for _ in range(count)]
        results = self._tester.test_devices(
            device_ids, [{fault.block: fault} for _ in range(count)])
        ground_truth = {result.device_id: fault for result in results}
        return DevicePopulation(results=results, ground_truth=ground_truth)
