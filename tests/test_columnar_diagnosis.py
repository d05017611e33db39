"""The columnar diagnosis pipeline against its scalar reference.

``diagnose_batch`` answers the distinct rows of a batch as one posterior
matrix, reads each row's suspects off its internal blocks' level pattern
and returns each result as a lazy view of its row.  These tests pin that
pipeline to the scalar rules it replaces: ``_deduce_from_fail`` on every
level pattern of the regulator's eight internal blocks,
``deduce_candidates`` and ``rank_by_fail_probability`` on every slot of two
regulator populations, the view contract (own dicts, pickling one row) and
the isolation of a row that corrupted CPD entries reach.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest

from repro.ate import PopulationGenerator
from repro.bayesnet.sampling import ForwardSampler
from repro.circuits import BehavioralSimulator
from repro.core import DiagnosisEngine, Dlog2BBN, FallbackPolicy
from repro.core.diagnosis import Diagnosis
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.testing import FaultInjector


@pytest.fixture(scope="module")
def engine(regulator_built_model):
    return DiagnosisEngine(regulator_built_model)


def band_values(engine: DiagnosisEngine, level: int, rng) -> list[float]:
    """Fail probabilities inside one level's band, both edges included."""
    low, high = (0.0, engine.ambiguous_threshold, engine.abnormal_threshold,
                 1.0)[level:level + 2]
    inside = [low, float(rng.uniform(low, high))]
    # The band's upper edge belongs to the next level, except at 1.0.
    inside.append(high if level == 2 else float(np.nextafter(high, 0.0)))
    return inside


def test_suspects_follow_the_level_pattern_of_every_row(engine):
    """All 3^8 patterns, several fail vectors each, ties included."""
    layout = engine._layout
    names = list(engine.model.internal_variables)
    assert len(names) == 8
    rng = np.random.default_rng(3)
    vectors = []
    for pattern in itertools.product(range(3), repeat=len(names)):
        choices = [band_values(engine, level, rng) for level in pattern]
        for draw in range(3):
            # One vector per band position (lower edge, inside, upper edge)
            # and one mixed draw.
            vectors.append([values[draw] for values in choices])
        vectors.append([values[rng.integers(3)] for values in choices])
    fail = np.array(vectors)
    matrix = np.zeros((len(fail), layout.width))
    matrix[:, layout.healthy] = 1.0 - fail
    seen = 1.0 - matrix[:, layout.healthy]   # the fail plane it reads
    levels = (seen >= engine.ambiguous_threshold).astype(int) \
        + (seen >= engine.abnormal_threshold)
    assert len({tuple(row) for row in levels.tolist()}) == 3 ** len(names)
    ranked = DiagnosisEngine(engine.built_model)._rank_rows(matrix)
    assert len(ranked) == 4 * 3 ** len(names)
    for row, (order, chosen) in zip(seen.tolist(), ranked):
        fail = dict(zip(names, row))
        assert chosen == engine._deduce_from_fail(fail)
        # Stable under reverse=True: ties keep model order.
        assert [names[i] for i in order] == sorted(
            fail, key=fail.__getitem__, reverse=True)


def regulator_populations(built_model, regulator_circuit, regulator_program):
    """Fault-injected returns and forward-sampled faulty devices."""
    simulator = BehavioralSimulator(
        regulator_circuit.netlist,
        process_variation=regulator_circuit.process_variation, seed=41)
    population = PopulationGenerator(
        simulator, regulator_program, regulator_circuit.fault_universe,
        regulator_circuit.block_weights, seed=42).generate(failed_count=60)
    builder = Dlog2BBN(regulator_circuit.model,
                       regulator_circuit.healthy_states)
    returns = [case.observed() for case in
               builder.case_generator().cases_from_results(population.results)
               if case.failed]
    model = built_model.description
    internal = set(model.internal_variables)
    network = built_model.network
    labels = {variable: network.get_cpd(variable).state_names[variable]
              for variable in model.variable_names}
    states = ForwardSampler(network, seed=43).sample_states(400)
    sampled = [{variable: labels[variable][states[variable][row]]
                for variable in model.variable_names
                if variable not in internal}
               for row in range(400)]
    return {"returns": returns, "sampled": sampled}


@pytest.mark.parametrize("chunk", [None, 16])
def test_every_slot_matches_the_scalar_reference(
        regulator_built_model, regulator_circuit, regulator_program, chunk):
    populations = regulator_populations(regulator_built_model,
                                        regulator_circuit, regulator_program)
    engine = DiagnosisEngine(regulator_built_model)
    for name, evidence in populations.items():
        assert len(evidence) >= 100, name
        if chunk is None:
            results = engine.diagnose_batch(evidence)
        else:
            results = [result for start in range(0, len(evidence), chunk)
                       for result in engine.diagnose_batch(
                           evidence[start:start + chunk])]
        for row, result in zip(evidence, results):
            posteriors = result.posteriors
            assert result.suspects == engine.deduce_candidates(posteriors), \
                (name, row)
            assert result.ranked_candidates == \
                engine.rank_by_fail_probability(posteriors), (name, row)
            assert result.fail_probabilities == {
                block: engine.fail_probability(block, posteriors)
                for block in engine.model.internal_variables}


def test_views_own_their_dicts_and_keep_what_they_build(engine):
    case = PAPER_DIAGNOSTIC_CASES[0]
    first, second = engine.diagnose_batch([case, case.evidence()])
    assert first.suspects == second.suspects
    assert first.suspects is not second.suspects
    assert first.posteriors == second.posteriors
    for built in ("posteriors", "fail_probabilities", "ranked_candidates"):
        assert getattr(first, built) is not getattr(second, built)
        assert getattr(first, built) is getattr(first, built)
    assert all(first.posteriors[variable] is not second.posteriors[variable]
               for variable in first.posteriors)
    block = engine.model.internal_variables[0]
    first.posteriors[block]["changed"] = 1.0
    assert "changed" in first.posteriors[block]
    assert "changed" not in second.posteriors[block]
    # A mutated view pickles what it holds.
    assert "changed" in pickle.loads(pickle.dumps(first)).posteriors[block]


def test_views_are_read_only_whatever_the_cache_holds(regulator_built_model):
    """Rows swept cold in one group, rows partly read from the evidence
    cache and an empty batch's matrix are all read-only, as served rows
    are; so are the rows of an engine that answers row by row."""
    engine = DiagnosisEngine(regulator_built_model)
    cases = list(PAPER_DIAGNOSTIC_CASES)
    cold = engine.diagnose_batch(cases[:3])
    mixed = engine.diagnose_batch(cases[:4])  # three rows from the cache
    assert engine._engine.sweep_count == 2
    jt = DiagnosisEngine(regulator_built_model, FallbackPolicy(chain=("jt",)))
    for view in cold + mixed + jt.diagnose_batch(cases[:2]):
        assert not view._row.flags.writeable
    assert not engine._engine.posteriors_batch([]).matrix.flags.writeable


def test_keyword_constructed_results_compare_with_views(engine):
    (view,) = engine.diagnose_batch([PAPER_DIAGNOSTIC_CASES[1]])
    plain = Diagnosis(case_name=view.case_name, evidence=dict(view.evidence),
                      posteriors=view.to_dict()["posteriors"],
                      fail_probabilities=dict(view.fail_probabilities),
                      suspects=list(view.suspects),
                      ranked_candidates=list(view.ranked_candidates),
                      provenance=view.provenance)
    assert plain == view and view == plain
    assert plain.to_dict() == view.to_dict()
    assert pickle.loads(pickle.dumps(plain)) == plain


def test_a_view_pickles_its_row_not_its_batch(regulator_built_model,
                                              regulator_circuit,
                                              regulator_program):
    evidence = regulator_populations(regulator_built_model, regulator_circuit,
                                     regulator_program)["sampled"]
    large = DiagnosisEngine(regulator_built_model).diagnose_batch(
        evidence + evidence[:100])
    assert len(large) == 500
    (alone,) = DiagnosisEngine(regulator_built_model).diagnose_batch(
        evidence[:1])
    assert len(pickle.dumps(large[0])) <= len(pickle.dumps(alone))
    restored = pickle.loads(pickle.dumps(large[0]))
    assert restored.to_dict() == large[0].to_dict()


def test_a_nan_row_fails_alone(regulator_circuit):
    """Corrupted CPD entries fail the rows they reach, not their sweep."""
    built = Dlog2BBN(regulator_circuit.model,
                     regulator_circuit.healthy_states).build()
    cases = list(PAPER_DIAGNOSTIC_CASES)
    with FaultInjector() as chaos:
        chaos.corrupt_cpd(built.network, "reg1", mode="nan")
        ve = DiagnosisEngine(built).diagnose_batch(cases, on_error="collect")
        jt = DiagnosisEngine(built, FallbackPolicy(
            chain=("jt",))).diagnose_batch(cases, on_error="collect")
        robust = DiagnosisEngine(built, FallbackPolicy()).diagnose_batch(
            cases, on_error="collect")
    assert [result.ok for result in ve] == [False] * 4 + [True]
    assert {result.error_type for result in ve[:4]} == {"InferenceError"}
    assert [result.ok for result in jt] == [result.ok for result in ve]
    assert ve[4].suspects == jt[4].suspects
    assert robust[4].ok and robust[4].suspects == jt[4].suspects
    assert not robust[4].provenance.degraded
