"""Throughput benchmark — batched failed/passing device-population generation.

The paper's learning flow starts from a population of failed devices; scaling
it to production-size populations means the simulate→test path must run as
whole-population array kernels.  This benchmark times generating 200 failed
plus 50 passing devices (fault sampling, process variation, the full
25-test no-stop-on-fail program and masked-fault re-draws included) and
reports the device throughput.
"""

from __future__ import annotations

from repro.ate import PopulationGenerator
from repro.circuits import BehavioralSimulator

FAILED_DEVICES = 200
PASSING_DEVICES = 50


def generate_population(regulator_circuit, regulator_program):
    simulator = BehavioralSimulator(
        regulator_circuit.netlist,
        process_variation=regulator_circuit.process_variation, seed=211)
    generator = PopulationGenerator(
        simulator, regulator_program, regulator_circuit.fault_universe,
        regulator_circuit.block_weights, seed=212)
    return generator.generate(failed_count=FAILED_DEVICES,
                              passing_count=PASSING_DEVICES)


def test_bench_population_generation(benchmark, regulator_circuit,
                                     regulator_program):
    population = benchmark(generate_population, regulator_circuit,
                           regulator_program)

    devices = FAILED_DEVICES + PASSING_DEVICES
    if benchmark.stats is not None:  # None under --benchmark-disable
        median = benchmark.stats.stats.median
        print()
        print(f"Generated {devices} devices "
              f"({len(population.failing_results)} failing) in "
              f"{median * 1e3:.2f} ms median — "
              f"{devices / median:,.0f} devices/s")

    assert len(population) == devices
    assert len(population.ground_truth) == FAILED_DEVICES
    # Every fault-injected device must observably fail (re-draw semantics),
    # and every result must carry the full no-stop-on-fail measurement list.
    for result in population.results[:FAILED_DEVICES]:
        assert result.failed
        assert len(result.measurements) == len(regulator_program)
