"""The benchmark's inputs: the served model, the rebuild, and the traffic.

Everything here is a pure function of a seed, so the same workload seed
gives the same model, the same datalog lot and the same slices of traffic
on every run.  Only public entry points of ``repro`` are called, at their
defaults.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from repro.ate import PopulationGenerator, datalog
from repro.ate.programs import REGULATOR_CONDITION_SETS, build_functional_program
from repro.bayesnet.sampling import ForwardSampler
from repro.circuits import BehavioralSimulator, build_voltage_regulator
from repro.core import DiagnosisEngine, Dlog2BBN
from repro.core.behavioral_prior import SimulationPriorBuilder
from repro.persist import ModelRegistry
from workloads import Scale

#: Seeds of the paper's served model (designer prior, simulator, returns).
PAPER_PRIOR_SEED = 7
PAPER_SIMULATOR_SEED = 11
PAPER_POPULATION_SEED = 12
#: Seeds of the lot every timed rebuild reads.  Fixed, like the paper's
#: model, so that a rebuild's work varies with the workload seed only
#: through its prior seed, not through a different lot.
LOT_SIMULATOR_SEED = 21
LOT_POPULATION_SEED = 22
#: Failed devices the paper fine-tunes on, and the prior's weight.
PAPER_DEVICES = 70
EQUIVALENT_SAMPLE_SIZE = 200
#: Share of returns records corrupted with an unknown pin or state label.
MALFORMED_SHARE = 0.01


@dataclasses.dataclass
class Slice:
    """One pass's traffic.

    ``truth[i]`` holds the truly faulty internal blocks of slot ``i``; an
    empty set means the slot is not scored.  Slots in ``malformed`` must
    fail with a structured ``EvidenceError``.
    """

    evidence: list[dict[str, str]]
    names: list[str]
    truth: list[frozenset[str]]
    malformed: frozenset[int]
    devices: int

    def __len__(self) -> int:
        return len(self.evidence)

    def distinct_rows(self) -> int:
        return len({tuple(sorted(self.evidence[slot].items()))
                    for slot in range(len(self)) if slot not in self.malformed})

    def scored(self) -> int:
        return sum(1 for truth in self.truth if truth)


def seeds(*key: int) -> tuple[int, int]:
    """Two independent 32-bit seeds derived from ``key``."""
    first, second = np.random.SeedSequence(list(key)).generate_state(2)
    return int(first), int(second)


class Inputs:
    """The regulator circuit, its test program and every generated input."""

    def __init__(self, scale: Scale, workdir: Path) -> None:
        self.scale = scale
        self.workdir = Path(workdir)
        self.circuit = build_voltage_regulator()
        self.model = self.circuit.model
        self.program = build_functional_program(
            "vr_functional", self.model, REGULATOR_CONDITION_SETS)
        self.builder = Dlog2BBN(self.model, self.circuit.healthy_states)
        self.internal = list(self.model.internal_variables)
        internal = set(self.internal)
        self.evidence_vars = [variable for variable in self.model.variable_names
                              if variable not in internal]
        self.registry = ModelRegistry(self.workdir / "models")

    def close(self) -> None:
        self.registry.close()

    # ------------------------------------------------------------ populations
    def population(self, simulator_seed: int, generator_seed: int,
                   failed: int):
        circuit = self.circuit
        simulator = BehavioralSimulator(
            circuit.netlist, process_variation=circuit.process_variation,
            seed=simulator_seed)
        generator = PopulationGenerator(
            simulator, self.program, circuit.fault_universe,
            circuit.block_weights, seed=generator_seed)
        return generator.generate(failed_count=failed)

    def write_lot(self, name: str, simulator_seed: int, generator_seed: int,
                  devices: int) -> Path:
        """Write an ATE datalog lot of ``devices`` failed devices."""
        population = self.population(simulator_seed, generator_seed, devices)
        return datalog.write_datalog(population.to_datalogs(),
                                     self.workdir / f"{name}.dlog")

    # ---------------------------------------------------------------- rebuild
    def prior(self, seed: int):
        circuit = self.circuit
        return SimulationPriorBuilder(
            circuit.netlist, self.model,
            [conditions.conditions for conditions in REGULATOR_CONDITION_SETS],
            fault_probability=circuit.designer_fault_probabilities,
            process_variation=circuit.process_variation,
            samples=self.scale.prior_samples, seed=seed).build()

    def rebuild(self, lot: Path, prior_seed: int, query: Slice):
        """Rebuild, publish and first-query a model; return both.

        The designer prior is simulated with ``prior_seed``, the lot is read
        through the columnar datalog reader and encoded as a case matrix,
        the CPTs are fine-tuned by Bayesian updating, the model passes the
        registry's validation gate, and a fresh engine answers ``query``.
        """
        prior = self.prior(prior_seed)
        store = datalog.read_columnar(lot)
        matrix = self.builder.case_generator().case_matrix(store)
        built = self.builder.build(
            matrix, method="bayes", prior_network=prior,
            equivalent_sample_size=EQUIVALENT_SAMPLE_SIZE)
        self.registry.publish(built)
        results = DiagnosisEngine(built).diagnose_batch(
            query.evidence, names=query.names, on_error="collect")
        return built, results

    # ---------------------------------------------------------------- traffic
    def returns_slice(self, cases: int, *key: int) -> Slice:
        """Failing cases of fault-injected devices, with malformed records.

        Devices run the no-stop-on-fail program; every failing test
        condition of a device is one case (about 3.6 per device).  A case is
        scored when its device's injected fault is an internal block.
        """
        simulator_seed, generator_seed = seeds(*key)
        evidence: list[dict[str, str]] = []
        truth: list[frozenset[str]] = []
        devices: set[str] = set()
        internal = set(self.internal)
        generator_case = self.builder.case_generator()
        batch = math.ceil(cases / 3) + 1
        round_index = 0
        while len(evidence) < cases:
            population = self.population(simulator_seed + round_index,
                                         generator_seed + round_index, batch)
            faults = population.ground_truth
            for case in generator_case.cases_from_results(population.results):
                if not case.failed or len(evidence) == cases:
                    continue
                evidence.append(case.observed())
                block = faults[case.device_id].block
                truth.append(frozenset({block}) if block in internal
                             else frozenset())
                devices.add(case.device_id)
            round_index += 1
        rng = np.random.default_rng(seeds(*key, 1)[0])
        count = max(1, round(cases * MALFORMED_SHARE))
        malformed = rng.choice(cases, size=count, replace=False)
        for number, slot in enumerate(sorted(int(slot) for slot in malformed)):
            record = dict(evidence[slot])
            if number % 2:
                record[self.evidence_vars[-1]] = "unknown-state"
            else:
                record["unknown_pin"] = "1"
            evidence[slot] = record
            truth[slot] = frozenset()
        names = [f"r{key[-1]}-{slot}" for slot in range(cases)]
        return Slice(evidence, names, truth,
                     frozenset(int(slot) for slot in malformed), len(devices))

    def sampled_slice(self, network, cases: int, *key: int) -> Slice:
        """Forward-sampled faulty devices of ``network``.

        A sample is kept when at least one internal block is in a
        non-healthy state; every kept case is scored against those blocks.
        """
        sampler = ForwardSampler(network, seed=seeds(*key)[0])
        labels = {variable: network.get_cpd(variable).state_names[variable]
                  for variable in self.model.variable_names}
        healthy = self.circuit.healthy_states
        evidence: list[dict[str, str]] = []
        truth: list[frozenset[str]] = []
        while len(evidence) < cases:
            draw = math.ceil((cases - len(evidence)) * 1.25) + 8
            states = sampler.sample_states(draw)
            for row in range(draw):
                faulty = frozenset(
                    variable for variable in self.internal
                    if labels[variable][states[variable][row]]
                    != healthy[variable])
                if not faulty or len(evidence) == cases:
                    continue
                evidence.append({variable: labels[variable][states[variable][row]]
                                 for variable in self.evidence_vars})
                truth.append(faulty)
        names = [f"s{key[-1]}-{slot}" for slot in range(cases)]
        return Slice(evidence, names, truth, frozenset(), cases)


def paper_lot(inputs: Inputs) -> Path:
    """The datalog of the paper's 70 failed fine-tuning devices."""
    return inputs.write_lot("paper-lot", PAPER_SIMULATOR_SEED,
                            PAPER_POPULATION_SEED, PAPER_DEVICES)
