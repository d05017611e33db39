"""The engine's batched path under a fallback chain: one primary sweep.

``DiagnosisEngine.diagnose_batch`` admits every slot (the evidence
boundary), answers the admitted slots with ONE batched sweep of the primary
engine, and sends only the slots that sweep could not answer down the
fallback chain.  Every slot must come out exactly as
``diagnose`` would have produced it on its own.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import time

import pytest

from repro.bayesnet.inference import LikelihoodWeighting
from repro.core import (
    DiagnosisEngine,
    DiagnosticCase,
    Dlog2BBN,
    FallbackPolicy,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import DegradedResultWarning, EvidenceError
from repro.serving.worker import _run_chunk
from repro.testing import FaultInjector

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.DegradedResultWarning")

#: The observable block whose state ``IMPOSSIBLE_STATE`` the model below
#: assigns probability zero under every parent configuration.
ZEROED = "reg1"


def policy(**overrides) -> FallbackPolicy:
    options = dict(chain=("ve", "lw"), num_samples=500, seed=3)
    options.update(overrides)
    return FallbackPolicy(**options)


@pytest.fixture(scope="module")
def built_model(regulator_circuit):
    """Prior-only build with one observable state made impossible."""
    built = Dlog2BBN(regulator_circuit.model,
                     regulator_circuit.healthy_states).build()
    cpd = built.network.get_cpd(ZEROED).copy()
    table = cpd.table
    table[-1, :] = 0.0
    table /= table.sum(axis=0, keepdims=True)
    built.network.add_cpd(cpd)
    return built


def impossible_state(built_model) -> str:
    return built_model.network.get_cpd(ZEROED).state_names[ZEROED][-1]


@pytest.fixture(scope="module")
def chunk(built_model):
    """A served chunk mixing every kind of slot the batch path must keep
    apart: valid cases, a duplicate, malformed evidence (unknown variable,
    unknown state) and impossible evidence."""
    valid = [case for case in PAPER_DIAGNOSTIC_CASES
             if case.evidence().get(ZEROED) != impossible_state(built_model)]
    base = valid[0]
    impossible = DiagnosticCase(
        name="impossible",
        controllable_states=dict(base.controllable_states),
        observable_states={**base.observable_states,
                           ZEROED: impossible_state(built_model)})
    return [
        *valid,
        dataclasses.replace(base, name="duplicate"),
        DiagnosticCase(name="unknown-variable",
                       controllable_states=dict(base.controllable_states),
                       observable_states={"__bogus__": "1"}),
        DiagnosticCase(name="unknown-state",
                       controllable_states={"vp1": "99"},
                       observable_states={}),
        impossible,
        dataclasses.replace(base, name="duplicate-2"),
    ]


def diagnose_alone(engine, case):
    try:
        return engine.diagnose(case)
    except Exception as error:  # noqa: BLE001 - compared by type below
        return error


def test_each_slot_matches_diagnose(built_model, chunk):
    batch_engine = DiagnosisEngine(built_model, policy())
    single_engine = DiagnosisEngine(built_model, policy())
    results = batch_engine.diagnose_batch(chunk, on_error="collect")

    assert [result.case_name for result in results] == \
        [case.name for case in chunk]
    kinds = set()
    for case, result in zip(chunk, results):
        expected = diagnose_alone(single_engine, case)
        if isinstance(expected, Exception):
            kinds.add(type(expected).__name__)
            assert not result.ok, case.name
            assert result.error_type == type(expected).__name__
            assert [attempt.engine for attempt in result.attempts] == \
                [attempt.engine
                 for attempt in getattr(expected, "attempts", ())]
            continue
        kinds.add("ok")
        assert result.ok, case.name
        assert result.suspects == expected.suspects
        assert [name for name, _ in result.ranked_candidates] == \
            [name for name, _ in expected.ranked_candidates]
        assert result.posteriors.keys() == expected.posteriors.keys()
        for variable, distribution in expected.posteriors.items():
            for state, probability in distribution.items():
                assert result.posteriors[variable][state] == \
                    pytest.approx(probability, abs=1e-12, rel=0)
        assert result.provenance.engine == expected.provenance.engine == "ve"
        assert [attempt.outcome for attempt in result.provenance.attempts] \
            == ["ok"]
        assert not result.provenance.degraded
    assert kinds == {"ok", "EvidenceError", "ImpossibleEvidenceError"}


@pytest.mark.parametrize("engine_policy", [None, policy()],
                         ids=["plain", "ve-lw"])
def test_duplicate_slots_own_their_posteriors(built_model, engine_policy):
    engine = DiagnosisEngine(built_model, engine_policy)
    case = PAPER_DIAGNOSTIC_CASES[0]
    first, twin = engine.diagnose_batch([case, case])
    expected = copy.deepcopy(twin.posteriors)
    for variable, distribution in first.posteriors.items():
        assert distribution is not twin.posteriors[variable]
        for state in distribution:
            distribution[state] = -1.0
    assert twin.posteriors == expected
    # The next batch (an evidence-cache hit on the VE path) is
    # untouched by the mutation too.
    (again,) = engine.diagnose_batch([case])
    assert again.posteriors == expected


@pytest.mark.parametrize("engine_policy", [None, policy()],
                         ids=["plain", "ve-lw"])
def test_each_view_owns_its_provenance(built_model, engine_policy):
    """Clean slots share one provenance record, never one provenance: a
    change to one view's leaves its batch-mates', also after pickling."""
    case = PAPER_DIAGNOSTIC_CASES[0]
    batch = DiagnosisEngine(built_model, engine_policy).diagnose_batch(
        [case, case, PAPER_DIAGNOSTIC_CASES[1]])
    for first, *others in (batch, pickle.loads(pickle.dumps(batch))):
        expected = [other.provenance.to_dict() for other in others]
        assert first.provenance is not others[0].provenance
        assert first.provenance == others[0].provenance
        first.provenance.wall_time = -1.0
        first.provenance.notes += ("changed",)
        first.provenance.attempts = ()
        assert [other.provenance.to_dict() for other in others] == expected
        assert pickle.loads(pickle.dumps(first)).provenance.notes[-1] \
            == "changed"


def test_sampled_primary_slots_match_diagnose(built_model):
    """A sampler primary answers its sweep with one query per slot, in slot
    order: the same seed gives each slot the posteriors and the effective
    sample size of its own query, as case by case."""
    cases = [case for case in PAPER_DIAGNOSTIC_CASES
             if case.evidence().get(ZEROED) != impossible_state(built_model)]
    results = DiagnosisEngine(
        built_model, policy(chain=("lw",))).diagnose_batch(cases)
    single = DiagnosisEngine(built_model, policy(chain=("lw",)))
    alone = [single.diagnose(case) for case in cases]
    sizes = [result.provenance.effective_sample_size for result in results]
    assert sizes == [result.provenance.effective_sample_size
                     for result in alone]
    assert len(set(sizes)) > 1
    # Each row's size is the bare sampler's for that row's own query.
    bare = LikelihoodWeighting(built_model.network, num_samples=500, seed=3)
    bare_sizes = []
    for case in cases:
        evidence = case.evidence()
        bare.posteriors([variable for variable in built_model.network.nodes
                         if variable not in evidence], evidence)
        bare_sizes.append(bare.last_effective_sample_size)
    assert sizes == bare_sizes
    for result, expected in zip(results, alone):
        assert result.provenance.engine == "lw"
        assert result.posteriors == expected.posteriors


def test_on_error_modes(built_model, chunk):
    engine = DiagnosisEngine(built_model, policy())
    with pytest.raises(EvidenceError):
        engine.diagnose_batch(chunk)
    collected = engine.diagnose_batch(chunk, on_error="collect")
    skipped = engine.diagnose_batch(chunk, on_error="skip")
    assert [result.case_name for result in skipped] == \
        [result.case_name for result in collected if result.ok]
    assert all(result.ok for result in skipped)


@pytest.mark.parametrize("engine_policy", [None, policy()],
                         ids=["plain", "ve-lw"])
def test_wall_time_is_an_equal_share_of_the_batch(built_model, chunk,
                                                  engine_policy):
    engine = DiagnosisEngine(built_model, engine_policy)
    started = time.perf_counter()
    results = engine.diagnose_batch(chunk, on_error="collect")
    elapsed = time.perf_counter() - started
    shares = [result.provenance.wall_time if result.ok else result.wall_time
              for result in results]
    assert len(set(shares)) == 1 and shares[0] > 0
    assert sum(shares) <= elapsed


def test_failed_sweep_walks_the_chain_per_slot(built_model):
    """Every slot of a failed sweep walks the chain on its own, a duplicate
    slot included."""
    engine = DiagnosisEngine(built_model, policy())
    cases = [*PAPER_DIAGNOSTIC_CASES,
             dataclasses.replace(PAPER_DIAGNOSTIC_CASES[0], name="duplicate")]
    with FaultInjector() as chaos:
        chaos.raise_on_call(engine._engine, "posteriors_batch")
        with pytest.warns(DegradedResultWarning):
            results = engine.diagnose_batch(cases, on_error="collect")
    assert [result.case_name for result in results] == \
        [case.name for case in cases]
    for result in results:
        assert result.ok
        assert [attempt.engine for attempt in result.provenance.attempts] \
            == ["ve", "lw"]
        assert [attempt.outcome for attempt in result.provenance.attempts] \
            == ["error", "ok"]
        assert result.provenance.engine == "lw"
        assert result.provenance.degraded


def test_sanitised_slots_still_warn(built_model):
    engine = DiagnosisEngine(
        built_model, policy(on_invalid_evidence="sanitize"))
    good = PAPER_DIAGNOSTIC_CASES[0]
    noisy = DiagnosticCase(
        name="noisy", controllable_states=dict(good.controllable_states),
        observable_states={**good.observable_states, "__bogus__": "1"})
    with pytest.warns(DegradedResultWarning):
        clean, salvaged = engine.diagnose_batch([good, noisy])
    assert not clean.provenance.degraded
    assert salvaged.provenance.degraded
    assert salvaged.suspects == clean.suspects


def test_evidence_key_order_does_not_change_the_answer(built_model):
    """Evidence is keyed by its sorted codec row key: the same evidence in
    another key order is the same row, answered from the evidence cache."""
    evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
    reordered = dict(reversed(evidence.items()))
    assert list(reordered) != list(evidence)
    engine = DiagnosisEngine(built_model, policy())
    (first,) = engine.diagnose_batch([evidence])
    sweeps = engine._engine.sweep_count
    (again,) = engine.diagnose_batch([reordered])
    assert engine._engine.sweep_count == sweeps
    assert again.provenance.engine == first.provenance.engine == "ve"
    assert again.posteriors == first.posteriors


class _Recorder:
    """Duck-typed chaos plan recording the order of hooks and sweeps."""

    def __init__(self) -> None:
        self.events: list[str] = []

    def on_case(self, case) -> None:
        self.events.append(case.name)


def test_worker_chunk_runs_chaos_hooks_then_one_sweep(built_model):
    engine = DiagnosisEngine(built_model, policy())
    recorder = _Recorder()
    original = engine.diagnose_batch

    def diagnose_batch(cases, **options):
        recorder.events.append("sweep")
        return original(cases, **options)

    engine.diagnose_batch = diagnose_batch
    pairs = list(enumerate(PAPER_DIAGNOSTIC_CASES, start=10))
    results = _run_chunk(engine, pairs, None, recorder)
    assert recorder.events == \
        [case.name for case in PAPER_DIAGNOSTIC_CASES] + ["sweep"]
    assert [slot for slot, _ in results] == [slot for slot, _ in pairs]
    assert all(result.ok for _, result in results)


def test_budgeted_worker_chunk_is_one_batch_call(built_model):
    engine = DiagnosisEngine(built_model, policy())
    recorder = _Recorder()
    original = engine.diagnose_batch
    deadlines = []

    def diagnose_batch(cases, **options):
        recorder.events.append("sweep")
        deadlines.append(options.get("deadline"))
        return original(cases, **options)

    engine.diagnose_batch = diagnose_batch
    pairs = list(enumerate(PAPER_DIAGNOSTIC_CASES))
    budgeted = _run_chunk(engine, pairs, 60.0, recorder)
    assert recorder.events == \
        [case.name for case in PAPER_DIAGNOSTIC_CASES] + ["sweep"]
    assert deadlines and 0 < deadlines[0] <= 60.0
    free = _run_chunk(DiagnosisEngine(built_model, policy()), pairs,
                      None, None)
    assert [slot for slot, _ in budgeted] == [slot for slot, _ in free]
    for (_, result), (_, expected) in zip(budgeted, free):
        assert result.ok and expected.ok
        assert result.posteriors == expected.posteriors
        assert result.suspects == expected.suspects
        assert result.provenance.engine == expected.provenance.engine
