"""The engine's fallback chain, provenance and batch isolation."""

from __future__ import annotations

import pytest

from repro.core import (
    Diagnosis,
    DiagnosisEngine,
    DiagnosisFailure,
    DiagnosticCase,
    Dlog2BBN,
    FallbackPolicy,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import (
    DegradedResultWarning,
    DiagnosisError,
    EvidenceError,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.DegradedResultWarning")


@pytest.fixture(scope="module")
def designer_built_model(regulator_circuit):
    """Prior-only build: every CPT entry strictly positive, so the sampling
    fallback engines never hit spurious zero-weight populations."""
    builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
    return builder.build()


#: The ``ve -> lw`` chain most tests here run on.
POLICY = FallbackPolicy(chain=("ve", "lw"), num_samples=500, seed=3)


@pytest.fixture
def robust_engine(designer_built_model):
    return DiagnosisEngine(designer_built_model, POLICY)


class TestFallbackPolicy:
    def test_defaults_validate(self):
        policy = FallbackPolicy()
        assert policy.chain == ("ve", "lw", "gibbs")

    @pytest.mark.parametrize("kwargs", [
        {"chain": ()},
        {"chain": ("ve", "warp")},
        {"chain": ("ve", "ve")},
        {"attempts_per_engine": 0},
        {"backoff": -1.0},
        {"on_invalid_evidence": "explode"},
    ])
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(DiagnosisError):
            FallbackPolicy(**kwargs)


class TestHealthyPath:
    def test_matches_plain_engine(self, designer_built_model, robust_engine):
        plain = DiagnosisEngine(designer_built_model)
        case = PAPER_DIAGNOSTIC_CASES[0]
        robust = robust_engine.diagnose(case)
        reference = plain.diagnose(case)
        assert robust.suspects == reference.suspects
        assert robust.posteriors == reference.posteriors

    # A plain engine is a chain of one, with the same provenance.
    @pytest.mark.parametrize("policy", [POLICY, None], ids=["ve-lw", "plain"])
    def test_healthy_provenance(self, designer_built_model, policy):
        engine = DiagnosisEngine(designer_built_model, policy)
        diagnosis = engine.diagnose(PAPER_DIAGNOSTIC_CASES[0])
        provenance = diagnosis.provenance
        assert provenance.engine == "ve"
        assert not provenance.degraded
        assert [a.outcome for a in provenance.attempts] == ["ok"]
        assert provenance.wall_time > 0
        assert provenance.effective_sample_size is None
        # No fallback engine was ever constructed on the healthy path.
        assert "lw" not in {name for name in engine._rungs if name != "ve"}
        assert list(engine._rungs) == ["ve"]

    def test_approximate_engines_usable_directly(self, designer_built_model):
        for inference in ("lw", "gibbs"):
            engine = DiagnosisEngine(
                designer_built_model,
                FallbackPolicy(chain=(inference,), num_samples=300, seed=5))
            diagnosis = engine.diagnose(PAPER_DIAGNOSTIC_CASES[0])
            assert diagnosis.suspects
            for distribution in diagnosis.posteriors.values():
                assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-6)


class TestEvidenceModes:
    def test_strict_mode_rejects_malformed(self, robust_engine):
        case = DiagnosticCase(name="bad", controllable_states={"vp1": "2"},
                              observable_states={"nope": "0"})
        with pytest.raises(EvidenceError):
            robust_engine.diagnose(case)

    def test_sanitize_mode_salvages(self, designer_built_model):
        engine = DiagnosisEngine(
            designer_built_model,
            FallbackPolicy(chain=("ve",), on_invalid_evidence="sanitize"))
        good = PAPER_DIAGNOSTIC_CASES[0]
        case = DiagnosticCase(
            name="noisy",
            controllable_states={**good.controllable_states, "nope": "0"},
            observable_states={**good.observable_states, "sw": "not-a-state"})
        with pytest.warns(DegradedResultWarning):
            diagnosis = engine.diagnose(case)
        assert isinstance(diagnosis, Diagnosis)
        assert "nope" not in diagnosis.evidence
        assert "sw" not in diagnosis.evidence
        kinds = {issue.kind for issue in diagnosis.provenance.evidence_issues}
        assert kinds == {"unknown-variable", "unknown-state"}
        assert diagnosis.provenance.degraded

    def test_sanitize_mode_drops_conflicts(self, designer_built_model):
        engine = DiagnosisEngine(
            designer_built_model,
            FallbackPolicy(chain=("ve",), on_invalid_evidence="sanitize"))
        good = PAPER_DIAGNOSTIC_CASES[0]
        conflicted = next(iter(good.controllable_states))
        case = DiagnosticCase(
            name="conflicted",
            controllable_states=dict(good.controllable_states),
            observable_states={**good.observable_states,
                               conflicted: "__other__"})
        diagnosis = engine.diagnose(case)
        assert conflicted not in diagnosis.evidence
        assert any(issue.kind == "conflicting-entry"
                   for issue in diagnosis.provenance.evidence_issues)


class TestBatchIsolation:
    @pytest.fixture
    def poisoned_batch(self):
        poisoned = DiagnosticCase(name="poisoned",
                                  controllable_states={"vp1": "99"},
                                  observable_states={})
        return [PAPER_DIAGNOSTIC_CASES[0], poisoned, PAPER_DIAGNOSTIC_CASES[1]]

    def test_raise_mode_propagates(self, designer_built_model, poisoned_batch):
        engine = DiagnosisEngine(designer_built_model)
        with pytest.raises(EvidenceError):
            engine.diagnose_batch(poisoned_batch)

    def test_collect_mode_preserves_slots(self, designer_built_model,
                                          poisoned_batch):
        engine = DiagnosisEngine(designer_built_model)
        results = engine.diagnose_batch(poisoned_batch, on_error="collect")
        assert len(results) == 3
        assert isinstance(results[0], Diagnosis) and results[0].ok
        assert isinstance(results[1], DiagnosisFailure) and not results[1].ok
        assert isinstance(results[2], Diagnosis)
        failure = results[1]
        assert failure.case_name == "poisoned"
        assert failure.error_type == "EvidenceError"
        assert failure.evidence == {"vp1": "99"}

    def test_skip_mode_drops_failures(self, designer_built_model,
                                      poisoned_batch):
        engine = DiagnosisEngine(designer_built_model)
        results = engine.diagnose_batch(poisoned_batch, on_error="skip")
        assert [r.case_name for r in results] == [
            PAPER_DIAGNOSTIC_CASES[0].name, PAPER_DIAGNOSTIC_CASES[1].name]

    def test_unknown_mode_rejected(self, designer_built_model):
        engine = DiagnosisEngine(designer_built_model)
        with pytest.raises(DiagnosisError):
            engine.diagnose_batch([], on_error="explode")

    def test_raw_evidence_batch_collect(self, designer_built_model):
        engine = DiagnosisEngine(designer_built_model)
        good = PAPER_DIAGNOSTIC_CASES[0].evidence()
        results = engine.diagnose_batch([good, {"bogus": "1"}],
                                        names=["good", "bad"],
                                        on_error="collect")
        assert isinstance(results[0], Diagnosis)
        assert isinstance(results[1], DiagnosisFailure)
        assert results[1].case_name == "bad"

    # A slot that is neither a mapping nor a DiagnosticCase is one
    # structured evidence failure, whatever the evidence mode.
    @pytest.mark.parametrize("policy", [
        None, FallbackPolicy(on_invalid_evidence="sanitize")],
        ids=["strict", "sanitize"])
    @pytest.mark.parametrize("slot", [None, 5, "vp1", [("vp1", "2")]],
                             ids=["none", "int", "str", "pairs"])
    def test_a_slot_that_is_not_a_record_fails_alone(
            self, designer_built_model, policy, slot):
        engine = DiagnosisEngine(designer_built_model, policy)
        batch = [PAPER_DIAGNOSTIC_CASES[0], slot, PAPER_DIAGNOSTIC_CASES[1]]
        collected = engine.diagnose_batch(batch, on_error="collect")
        assert [result.ok for result in collected] == [True, False, True]
        failure = collected[1]
        assert (failure.case_name, failure.error_type, failure.evidence,
                failure.attempts) == ("case-1", "EvidenceError", {}, ())
        assert type(slot).__name__ in failure.message
        skipped = engine.diagnose_batch(batch, on_error="skip")
        assert [result.case_name for result in skipped] == [
            PAPER_DIAGNOSTIC_CASES[0].name, PAPER_DIAGNOSTIC_CASES[1].name]
        with pytest.raises(EvidenceError) as info:
            engine.diagnose_batch(batch)
        assert [issue.kind for issue in info.value.issues] == ["not-a-record"]

    def test_robust_batch_collect(self, robust_engine, poisoned_batch):
        results = robust_engine.diagnose_batch(poisoned_batch,
                                               on_error="collect")
        assert isinstance(results[0], Diagnosis)
        assert isinstance(results[1], DiagnosisFailure)
        # Rejected at the evidence boundary: no inference attempt was made.
        assert results[1].error_type == "EvidenceError"
        assert results[1].attempts == ()
        assert isinstance(results[2], Diagnosis)


class TestTopCandidate:
    def test_empty_diagnosis_raises_structured(self):
        diagnosis = Diagnosis(case_name="empty", evidence={}, posteriors={},
                              fail_probabilities={}, suspects=[],
                              ranked_candidates=[])
        with pytest.raises(DiagnosisError, match="empty"):
            diagnosis.top_candidate()

    def test_ranking_fallback_still_works(self):
        diagnosis = Diagnosis(case_name="ranked", evidence={}, posteriors={},
                              fail_probabilities={}, suspects=[],
                              ranked_candidates=[("blockA", 0.4)])
        assert diagnosis.top_candidate() == "blockA"
