"""Throughput benchmark — Dlog2BBN case generation from ATE results.

Times the conversion of a 250-device no-stop-on-fail population into BBN
learning cases: condition grouping once per program, array discretisation of
every measurement column, and per-device case materialisation.
"""

from __future__ import annotations

import pytest

from repro.ate import PopulationGenerator
from repro.circuits import BehavioralSimulator
from repro.core import CaseGenerator


@pytest.fixture(scope="module")
def case_population(regulator_circuit, regulator_program):
    simulator = BehavioralSimulator(
        regulator_circuit.netlist,
        process_variation=regulator_circuit.process_variation, seed=221)
    generator = PopulationGenerator(
        simulator, regulator_program, regulator_circuit.fault_universe,
        regulator_circuit.block_weights, seed=222)
    return generator.generate(failed_count=200, passing_count=50)


def test_bench_case_generation(benchmark, regulator_circuit, case_population):
    generator = CaseGenerator(regulator_circuit.model)

    cases = benchmark(generator.cases_from_results, case_population.results)

    if benchmark.stats is not None:  # None under --benchmark-disable
        median = benchmark.stats.stats.median
        print()
        print(f"Generated {len(cases)} learning cases from "
              f"{len(case_population)} devices in {median * 1e3:.2f} ms "
              f"median — {len(cases) / median:,.0f} cases/s")

    # One case per (device, distinct condition set).
    conditions = {tuple(sorted(m.conditions.items()))
                  for result in case_population.results
                  for m in result.measurements}
    assert len(cases) == len(case_population) * len(conditions)
    # Batched output must equal the scalar per-device path.
    scalar = []
    for result in case_population.results[:10]:
        scalar.extend(generator.cases_from_device_result(result))
    assert cases[:len(scalar)] == scalar
