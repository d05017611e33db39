"""The robust engine's batched path: one primary sweep per batch.

``RobustDiagnosisEngine.diagnose_batch`` admits every slot (evidence
boundary, durable-cache lookup), answers the rest with ONE batched sweep of
the primary engine, and sends only the slots that sweep could not answer
down the fallback chain.  Every slot must come out exactly as
``diagnose`` would have produced it on its own.
"""

from __future__ import annotations

import copy
import dataclasses
import time

import pytest

from repro.core import (
    DiagnosisEngine,
    DiagnosticCase,
    Dlog2BBN,
    FallbackPolicy,
    RobustDiagnosisEngine,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import DegradedResultWarning, EvidenceError
from repro.persist import PosteriorCache, model_fingerprint
from repro.serving import DiagnosisService, ServiceConfig
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
    batch_engine = RobustDiagnosisEngine(built_model, policy())
    single_engine = RobustDiagnosisEngine(built_model, policy())
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


@pytest.mark.parametrize("engine_type", [DiagnosisEngine,
                                         RobustDiagnosisEngine])
def test_duplicate_slots_own_their_posteriors(built_model, engine_type):
    engine = engine_type(built_model) if engine_type is DiagnosisEngine \
        else engine_type(built_model, policy())
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


def test_sampled_primary_slots_match_diagnose(built_model):
    """A sampler primary answers its sweep with one query per slot, in slot
    order: the same seed gives each slot the posteriors and the effective
    sample size of its own query, as case by case."""
    cases = [case for case in PAPER_DIAGNOSTIC_CASES
             if case.evidence().get(ZEROED) != impossible_state(built_model)]
    results = RobustDiagnosisEngine(
        built_model, policy(chain=("lw",))).diagnose_batch(cases)
    single = RobustDiagnosisEngine(built_model, policy(chain=("lw",)))
    alone = [single.diagnose(case) for case in cases]
    sizes = [result.provenance.effective_sample_size for result in results]
    assert sizes == [result.provenance.effective_sample_size
                     for result in alone]
    assert len(set(sizes)) > 1
    for result, expected in zip(results, alone):
        assert result.provenance.engine == "lw"
        assert result.posteriors == expected.posteriors


def test_on_error_modes(built_model, chunk):
    engine = RobustDiagnosisEngine(built_model, policy())
    with pytest.raises(EvidenceError):
        engine.diagnose_batch(chunk)
    collected = engine.diagnose_batch(chunk, on_error="collect")
    skipped = engine.diagnose_batch(chunk, on_error="skip")
    assert [result.case_name for result in skipped] == \
        [result.case_name for result in collected if result.ok]
    assert all(result.ok for result in skipped)


def test_wall_time_is_an_equal_share_of_the_batch(built_model, chunk):
    engine = RobustDiagnosisEngine(built_model, policy())
    started = time.perf_counter()
    results = engine.diagnose_batch(chunk, on_error="collect")
    elapsed = time.perf_counter() - started
    shares = [result.provenance.wall_time if result.ok else result.wall_time
              for result in results]
    assert len(set(shares)) == 1 and shares[0] > 0
    assert sum(shares) <= elapsed


def test_failed_sweep_walks_the_chain_per_slot(built_model):
    engine = RobustDiagnosisEngine(built_model, policy())
    cases = list(PAPER_DIAGNOSTIC_CASES)
    with FaultInjector() as chaos:
        chaos.raise_on_call(engine._engine, "posteriors_batch")
        with pytest.warns(DegradedResultWarning):
            results = engine.diagnose_batch(cases, on_error="collect")
    for result in results:
        assert result.ok
        assert [attempt.engine for attempt in result.provenance.attempts] \
            == ["ve", "lw"]
        assert [attempt.outcome for attempt in result.provenance.attempts] \
            == ["error", "ok"]
        assert result.provenance.engine == "lw"
        assert result.provenance.degraded


def test_sanitised_slots_still_warn(built_model):
    engine = RobustDiagnosisEngine(
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


def test_durable_cache_hits_keep_their_provenance(built_model, tmp_path):
    cases = list(PAPER_DIAGNOSTIC_CASES)
    with PosteriorCache(tmp_path / "cache") as cache:
        engine = RobustDiagnosisEngine(built_model, policy(),
                                       posterior_cache=cache)
        cold = engine.diagnose_batch(cases)
        warm = engine.diagnose_batch(cases)
    assert {result.provenance.engine for result in cold} == {"ve"}
    assert {result.provenance.engine for result in warm} == {"cache"}
    assert engine.cache_hits == len(cases)
    for before, after in zip(cold, warm):
        assert after.posteriors == before.posteriors


def test_duplicate_slots_share_one_durable_entry(built_model, tmp_path):
    """A batch looks up and stores each distinct evidence once; its later
    copies are durable hits of that entry, as they are case by case."""
    distinct = list(PAPER_DIAGNOSTIC_CASES)
    cases = [*distinct,
             *(dataclasses.replace(case, name=f"{case.name}-again")
               for case in distinct),
             dataclasses.replace(distinct[0], name="third")]
    copies = len(cases) - len(distinct)
    with PosteriorCache(tmp_path / "cache") as cache:
        engine = RobustDiagnosisEngine(built_model, policy(),
                                       posterior_cache=cache)
        cold = engine.diagnose_batch(cases)
        assert (engine.cache_misses, engine.cache_hits) == \
            (len(distinct), copies)
        # One record per distinct row: no key is written twice.
        assert cache.puts == len(cache.keys())
        assert sum(key[0] == "posterior" for key in cache.keys()) == \
            len(distinct)
        reads = cache.hits
        warm = engine.diagnose_batch(cases)
        assert cache.hits - reads == len(distinct)
        assert cache.puts == len(cache.keys())
    assert engine.cache_misses == len(distinct)
    assert engine.cache_hits == copies + len(cases)
    assert [result.provenance.engine for result in cold] == \
        ["ve"] * len(distinct) + ["cache"] * copies
    assert {result.provenance.engine for result in warm} == {"cache"}
    for first, result in zip(cold + warm, cases + cases):
        assert first.case_name == result.name
    for result in cold[len(distinct):] + warm:
        twin = cold[[case.evidence() for case in distinct].index(
            result.evidence)]
        assert result.posteriors == twin.posteriors
        assert result.suspects == twin.suspects
        assert all(result.posteriors[variable] is not distribution
                   for variable, distribution in twin.posteriors.items())


def test_durable_records_are_keyed_by_the_codec_row_key(built_model,
                                                        tmp_path):
    """A cold batch stores each posterior set under the model fingerprint
    and the evidence's codec row key, the key of the in-memory caches."""
    cases = list(PAPER_DIAGNOSTIC_CASES)
    with PosteriorCache(tmp_path / "cache") as cache:
        engine = RobustDiagnosisEngine(built_model, policy(),
                                       posterior_cache=cache)
        engine.diagnose_batch(cases)
        keys = set(cache.keys())
    fingerprint = model_fingerprint(built_model.network)
    codec = built_model.description.evidence_codec
    assert keys == {("posterior", fingerprint,
                     codec.key(case.evidence(), EvidenceError))
                    for case in cases}


def test_durable_hit_ignores_evidence_key_order(built_model, tmp_path):
    """The row key sorts the evidence, so an engine that never saw a case
    reads the record another engine stored for it in another key order."""
    evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
    reordered = dict(reversed(evidence.items()))
    assert list(reordered) != list(evidence)
    with PosteriorCache(tmp_path / "cache") as cache:
        writer = RobustDiagnosisEngine(built_model, policy(),
                                       posterior_cache=cache)
        (cold,) = writer.diagnose_batch([evidence])
        reader = RobustDiagnosisEngine(built_model, policy(),
                                       posterior_cache=cache)
        (warm,) = reader.diagnose_batch([reordered])
    assert cold.provenance.engine == "ve"
    assert warm.provenance.engine == "cache"
    assert (reader.cache_hits, reader.cache_misses) == (1, 0)
    assert warm.posteriors == cold.posteriors


def test_duplicate_of_an_unstored_slot_is_its_own_miss(built_model,
                                                        tmp_path):
    """Degraded posteriors are never stored, so a later copy of a slot that
    degraded misses, as it would case by case."""
    case = PAPER_DIAGNOSTIC_CASES[0]
    with PosteriorCache(tmp_path / "cache") as cache:
        engine = RobustDiagnosisEngine(built_model, policy(),
                                       posterior_cache=cache)
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            with pytest.warns(DegradedResultWarning):
                results = engine.diagnose_batch([case, case])
        assert cache.puts == 0
    assert (engine.cache_misses, engine.cache_hits) == (2, 0)
    assert [result.provenance.engine for result in results] == ["lw", "lw"]


def test_served_cache_hits_move_the_service_counter(built_model, tmp_path):
    cases = list(PAPER_DIAGNOSTIC_CASES)
    config = ServiceConfig(num_workers=1, chunk_size=3)
    with DiagnosisService(built_model, policy(), config,
                          persist_dir=tmp_path) as service:
        cold = service.diagnose_batch(cases, timeout=120)
        warm = service.diagnose_batch(cases, timeout=120)
        stats = service.stats()
    assert {result.provenance.engine for result in cold} == {"ve"}
    assert {result.provenance.engine for result in warm} == {"cache"}
    assert stats.cache_hits == len(cases)
    assert stats.cache_misses == len(cases)


class _Recorder:
    """Duck-typed chaos plan recording the order of hooks and sweeps."""

    def __init__(self) -> None:
        self.events: list[str] = []

    def on_case(self, case) -> None:
        self.events.append(case.name)


def test_worker_chunk_runs_chaos_hooks_then_one_sweep(built_model):
    engine = RobustDiagnosisEngine(built_model, policy())
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
    engine = RobustDiagnosisEngine(built_model, policy())
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
    free = _run_chunk(RobustDiagnosisEngine(built_model, policy()), pairs,
                      None, None)
    assert [slot for slot, _ in budgeted] == [slot for slot, _ in free]
    for (_, result), (_, expected) in zip(budgeted, free):
        assert result.ok and expected.ok
        assert result.posteriors == expected.posteriors
        assert result.suspects == expected.suspects
        assert result.provenance.engine == expected.provenance.engine
