"""Fault-injection suite: the serving layer under every injected failure class.

The acceptance bar: timeouts, engine exceptions, impossible evidence and
corrupted CPDs must each yield either a degraded-but-valid
:class:`Diagnosis` with provenance metadata or a structured
:class:`DiagnosisFailure` — never an unhandled traceback or NaN posterior
out of ``diagnose_batch``.
"""

from __future__ import annotations

import math

import pytest

from repro.core import (
    Diagnosis,
    DiagnosisEngine,
    DiagnosisFailure,
    Dlog2BBN,
    FallbackExhaustedError,
    FallbackPolicy,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import (
    DegradedResultWarning,
    ImpossibleEvidenceError,
    InferenceError,
)
from repro.testing import ChaosError, FaultInjector, truncated_evidence

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.DegradedResultWarning")

CASE = PAPER_DIAGNOSTIC_CASES[0]

#: Each exact engine's message for a row that a NaN CPD entry reaches.
NAN_MESSAGES = {
    "ve": "non-finite evidence probability; the network contains "
          "corrupted (NaN/inf) CPD entries",
    "jt": "non-finite calibration mass nan; the network contains "
          "corrupted (NaN/inf) CPD entries",
}


@pytest.fixture(scope="module")
def built_model(regulator_circuit):
    """Prior-only build: strictly positive CPTs, so only *injected* faults
    can make an engine fail."""
    builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
    return builder.build()


@pytest.fixture
def engine(built_model):
    return DiagnosisEngine(
        built_model,
        FallbackPolicy(chain=("ve", "lw"), num_samples=500, seed=3))


def assert_valid_degraded(diagnosis: Diagnosis) -> None:
    """A degraded result is still a complete, finite, normalised diagnosis."""
    assert isinstance(diagnosis, Diagnosis)
    assert diagnosis.provenance is not None and diagnosis.provenance.degraded
    for distribution in diagnosis.posteriors.values():
        total = 0.0
        for probability in distribution.values():
            assert math.isfinite(probability)
            total += probability
        assert total == pytest.approx(1.0, abs=1e-6)


class TestTransientEngineFault:
    def test_retry_recovers_on_same_engine(self, built_model):
        engine = DiagnosisEngine(
            built_model, FallbackPolicy(chain=("ve", "lw"),
                                        attempts_per_engine=2,
                                        num_samples=500, seed=3))
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch",
                                nth=1, transient=True)
            with pytest.warns(DegradedResultWarning):
                diagnosis = engine.diagnose(CASE)
        assert_valid_degraded(diagnosis)
        provenance = diagnosis.provenance
        assert provenance.engine == "ve"
        assert [a.outcome for a in provenance.attempts] == ["error", "ok"]
        assert "ChaosError" in provenance.attempts[0].error

    def test_injection_restored_after_exit(self, engine):
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch",
                                error=ChaosError("primary down"))
            with pytest.warns(DegradedResultWarning):
                degraded = engine.diagnose(CASE)
            assert degraded.provenance.engine == "lw"
        # After restore, the same engine serves on the primary again.
        diagnosis = engine.diagnose(CASE)
        assert diagnosis.provenance.engine == "ve"
        assert not diagnosis.provenance.degraded


class TestHardEngineFault:
    def test_degrades_to_likelihood_weighting(self, engine):
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            with pytest.warns(DegradedResultWarning):
                diagnosis = engine.diagnose(CASE)
        assert_valid_degraded(diagnosis)
        provenance = diagnosis.provenance
        assert provenance.engine == "lw"
        assert [a.outcome for a in provenance.attempts] == ["error", "ok"]
        assert provenance.effective_sample_size is not None
        assert provenance.effective_sample_size > 0
        assert any("degraded from 've' to 'lw'" in note
                   for note in provenance.notes)

    def test_whole_chain_down_is_structured(self, engine):
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            chaos.raise_on_call(engine._rung("lw"), "posteriors")
            with pytest.raises(FallbackExhaustedError) as info:
                engine.diagnose(CASE)
        error = info.value
        assert [a.engine for a in error.attempts] == ["ve", "lw"]
        assert all(a.outcome == "error" for a in error.attempts)
        assert error.wall_time > 0

    @pytest.mark.parametrize("attempts_per_engine", [1, 2])
    def test_exhausted_only_after_an_attempt_beyond_the_sweep(
            self, built_model, attempts_per_engine):
        # A chain of one with one attempt (a plain engine) fails the slot
        # with its sweep's own error; a retry makes the chain exhaust.
        engine = DiagnosisEngine(built_model, FallbackPolicy(
            chain=("ve",), attempts_per_engine=attempts_per_engine))
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch",
                                error=ChaosError("sweep down"))
            chaos.raise_on_call(engine._engine, "posteriors",
                                error=ChaosError("retry down"))
            (failure,) = engine.diagnose_batch([CASE], on_error="collect")
            with pytest.raises(ChaosError if attempts_per_engine == 1
                               else FallbackExhaustedError):
                engine.diagnose(CASE)
        assert failure.error_type == ("ChaosError" if attempts_per_engine == 1
                                      else "FallbackExhaustedError")
        assert [(a.engine, a.outcome) for a in failure.attempts] == \
            [("ve", "error")] * attempts_per_engine
        assert list(engine._rungs) == ["ve"]

    def test_gibbs_is_the_last_resort(self, built_model):
        engine = DiagnosisEngine(
            built_model, FallbackPolicy(chain=("ve", "lw", "gibbs"),
                                        num_samples=100, seed=3))
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            chaos.raise_on_call(engine._rung("lw"), "posteriors")
            with pytest.warns(DegradedResultWarning):
                diagnosis = engine.diagnose(CASE)
        assert_valid_degraded(diagnosis)
        assert diagnosis.provenance.engine == "gibbs"


class TestImpossibleEvidence:
    def test_permanent_failure_skips_fallback(self, engine):
        with FaultInjector() as chaos:
            chaos.raise_on_call(
                engine._engine, "posteriors_batch",
                error=ImpossibleEvidenceError("injected impossible evidence"))
            with pytest.raises(ImpossibleEvidenceError):
                engine.diagnose(CASE)
        # No sampler can fix zero-probability evidence: the fallback engine
        # must never have been constructed.
        assert "lw" not in engine._rungs

    def test_swept_permanent_failure_skips_fallback(self, engine):
        # The same rule for a collected batch slot the sweep answered.
        with FaultInjector() as chaos:
            chaos.raise_on_call(
                engine._engine, "posteriors_batch",
                error=ImpossibleEvidenceError("injected impossible evidence"))
            (failure,) = engine.diagnose_batch([CASE], on_error="collect")
        assert failure.error_type == "ImpossibleEvidenceError"
        assert [(a.engine, a.outcome) for a in failure.attempts] == \
            [("ve", "error")]
        assert "lw" not in engine._rungs

    def test_zero_row_cpd_is_impossible_evidence(self, engine, built_model):
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(built_model.network, "vp1", mode="zero-row")
            with pytest.raises(ImpossibleEvidenceError):
                engine.diagnose(CASE)
        # Restoration brings the clean tables (and posteriors) back.
        diagnosis = engine.diagnose(CASE)
        assert not diagnosis.provenance.degraded


class TestCorruptedCPD:
    def test_nan_fails_both_exact_engines(self, built_model):
        engine = DiagnosisEngine(
            built_model, FallbackPolicy(chain=("ve", "jt")))
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(built_model.network, "reg1", mode="nan")
            # Both exact engines see the same poisoned network: the chain
            # exhausts with structured errors, never NaN posteriors.
            with pytest.raises(FallbackExhaustedError) as info:
                engine.diagnose(CASE)
        assert [a.engine for a in info.value.attempts] == ["ve", "jt"]
        assert all("InferenceError" in (a.error or "")
                   for a in info.value.attempts)

    @pytest.mark.parametrize("inference", ["ve", "jt"])
    def test_nan_fails_slots_per_on_error(self, built_model, inference):
        cases = list(PAPER_DIAGNOSTIC_CASES)
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(built_model.network, "reg1", mode="nan")
            engine = DiagnosisEngine(built_model,
                                     FallbackPolicy(chain=(inference,)))
            collected = engine.diagnose_batch(cases, on_error="collect")
            skipped = engine.diagnose_batch(cases, on_error="skip")
            with pytest.raises(InferenceError):
                engine.diagnose_batch(cases, on_error="raise")
        assert [result.case_name for result in collected] == \
            [case.name for case in cases]
        failures = [result for result in collected if not result.ok]
        assert failures
        assert {failure.error_type for failure in failures} == \
            {"InferenceError"}
        assert [result.case_name for result in skipped] == \
            [result.case_name for result in collected if result.ok]
        # The engines' own messages, the sweep as the one attempt of a
        # chain of one, and each slot's equal share of the batch time.
        assert {failure.message for failure in failures} == {NAN_MESSAGES[
            inference]}
        assert {tuple((attempt.engine, attempt.outcome)
                      for attempt in failure.attempts)
                for failure in failures} == {((inference, "error"),)}
        shares = {result.provenance.wall_time if result.ok
                  else result.wall_time for result in collected}
        assert len(shares) == 1 and shares.pop() > 0

    def test_nan_never_leaks_from_sampler(self, built_model):
        from repro.bayesnet.inference import LikelihoodWeighting
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(built_model.network, "reg1", mode="nan")
            lw = LikelihoodWeighting(built_model.network,
                                     num_samples=500, seed=7)
            try:
                posteriors = lw.posteriors(["hcbg"], CASE.evidence())
            except InferenceError:
                pass  # structured refusal is the other acceptable outcome
            else:
                assert all(math.isfinite(p)
                           for p in posteriors["hcbg"].values())

    def test_unnormalized_table_renormalises(self, engine, built_model):
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(built_model.network, "reg1",
                              mode="unnormalized")
            result = engine.diagnose(CASE)
        for distribution in result.posteriors.values():
            total = sum(distribution.values())
            assert math.isfinite(total)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_nan_detected_by_exact_engine(self, built_model):
        from repro.bayesnet.inference import VariableElimination
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(built_model.network, "reg1", mode="nan")
            ve = VariableElimination(built_model.network)
            with pytest.raises(InferenceError, match="corrupted"):
                ve.posteriors(["hcbg"], CASE.evidence())


class TestTruncatedEvidence:
    def test_partial_datalog_still_diagnoses(self, engine):
        partial = truncated_evidence(CASE.evidence(), keep=4)
        assert len(partial) == 4
        diagnosis = engine.diagnose_evidence(partial, name="truncated")
        assert isinstance(diagnosis, Diagnosis)
        assert not diagnosis.provenance.degraded
        for distribution in diagnosis.posteriors.values():
            assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-6)

    def test_empty_truncation_uses_priors(self, engine):
        diagnosis = engine.diagnose_evidence(
            truncated_evidence(CASE.evidence(), keep=0), name="empty")
        assert diagnosis.evidence == {}
        assert diagnosis.posteriors


class TestBatchUnderChaos:
    def test_one_poisoned_case_cannot_kill_the_sweep(self, engine):
        poisoned = {"vp1": "99"}
        batch = [PAPER_DIAGNOSTIC_CASES[0].evidence(), poisoned,
                 PAPER_DIAGNOSTIC_CASES[1].evidence()]
        with FaultInjector() as chaos:
            # Primary engine hard-down on top of the poisoned case: good
            # cases degrade, the bad case fails structurally.  The batch
            # runs one batched sweep first, so that path is downed too.
            chaos.raise_on_call(engine._engine, "posteriors")
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            results = engine.diagnose_batch(
                batch, names=["d1", "poisoned", "d2"], on_error="collect")
        assert len(results) == 3
        assert isinstance(results[0], Diagnosis)
        assert results[0].provenance.engine == "lw"
        assert isinstance(results[1], DiagnosisFailure)
        assert results[1].error_type == "EvidenceError"
        assert isinstance(results[2], Diagnosis)
        for result in results:
            if isinstance(result, Diagnosis):
                for distribution in result.posteriors.values():
                    assert all(math.isfinite(p)
                               for p in distribution.values())

    def test_whole_chain_down_collects_attempt_trails(self, engine):
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors")
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            chaos.raise_on_call(engine._rung("lw"), "posteriors")
            results = engine.diagnose_batch(
                [PAPER_DIAGNOSTIC_CASES[0], PAPER_DIAGNOSTIC_CASES[1]],
                on_error="collect")
        assert all(isinstance(r, DiagnosisFailure) for r in results)
        for failure in results:
            assert failure.error_type == "FallbackExhaustedError"
            assert [a.engine for a in failure.attempts] == ["ve", "lw"]
            assert failure.wall_time > 0


class TestInjectorMechanics:
    def test_call_counts_recorded(self, engine):
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch", nth=3)
            engine.diagnose(CASE)
            assert chaos.call_counts[
                "VariableElimination.posteriors_batch"] == 1

    def test_cpd_restored_bit_for_bit(self, built_model):
        import numpy as np
        before = built_model.network.get_cpd("reg1").table.copy()
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(built_model.network, "reg1", mode="nan")
            assert np.isnan(built_model.network.get_cpd("reg1").table).any()
        after = built_model.network.get_cpd("reg1").table
        assert np.array_equal(before, after)

    def test_bad_arguments_rejected(self, engine):
        chaos = FaultInjector()
        with pytest.raises(ValueError):
            chaos.raise_on_call(engine._engine, "posteriors", nth=0)
        with pytest.raises(ValueError):
            chaos.add_latency(engine._engine, "posteriors", seconds=-1)
        with pytest.raises(ValueError):
            from repro.testing import corrupt_cpd_table
            corrupt_cpd_table(engine.network, "reg1", mode="weird")
