"""Deadline-budget edge cases of the diagnosis pipeline.

The per-request wall-clock budget (``DiagnosisEngine.diagnose(case,
deadline=...)``, a batch of one, and ``diagnose_batch(..., deadline=...)``)
is checked at the pipeline's stage boundaries and interacts with two other
clocks: the retry backoff schedule, and the sweep or attempt itself.  These
tests pin the edges: budgets that are already zero or negative, budgets
that expire in the middle of the sweep, and budgets shorter than a single
backoff interval must all fail with a structured
:class:`~repro.exceptions.DeadlineExceededError` — never sleep past their
budget, and never lose the attempt trail.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import (
    DiagnosisEngine,
    DiagnosticCase,
    Dlog2BBN,
    FallbackPolicy,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import DeadlineExceededError, InferenceTimeoutError
from repro.testing import FaultInjector

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.DegradedResultWarning")

CASE = PAPER_DIAGNOSTIC_CASES[0]


@pytest.fixture(scope="module")
def built_model(regulator_circuit):
    builder = Dlog2BBN(regulator_circuit.model,
                       regulator_circuit.healthy_states)
    return builder.build()


def make_engine(built_model, **policy_overrides) -> DiagnosisEngine:
    defaults = dict(chain=("ve", "lw"), num_samples=500, seed=3)
    defaults.update(policy_overrides)
    return DiagnosisEngine(built_model, FallbackPolicy(**defaults))


class TestExhaustedBeforeStart:
    @pytest.mark.parametrize("deadline", [0.0, -1.0, -0.001])
    def test_nonpositive_budget_fails_immediately(self, built_model,
                                                  deadline):
        engine = make_engine(built_model)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError) as excinfo:
            engine.diagnose(CASE, deadline=deadline)
        assert time.perf_counter() - started < 1.0
        error = excinfo.value
        assert error.remaining is not None and error.remaining <= 0
        assert error.attempts == ()          # no engine was ever tried
        assert error.wall_time >= 0.0

    def test_nonpositive_budget_is_an_inference_timeout(self, built_model):
        # DeadlineExceededError must stay catchable as the existing
        # per-attempt timeout type, so older handlers keep working.
        engine = make_engine(built_model)
        with pytest.raises(InferenceTimeoutError):
            engine.diagnose(CASE, deadline=-1.0)

    def test_none_deadline_keeps_plain_behaviour(self, built_model):
        engine = make_engine(built_model)
        diagnosis = engine.diagnose(CASE, deadline=None)
        assert diagnosis.ok
        assert not diagnosis.provenance.degraded


class TestExpiresMidAttempt:
    def test_attempt_is_cut_at_the_remaining_budget(self, built_model):
        # The sweep takes 1.5s; the request budget is 0.3s.  The check
        # after the sweep must fail the case with the budget error instead
        # of walking the chain, the late sweep on its trail as a timeout.
        engine = make_engine(built_model)
        with FaultInjector() as chaos:
            chaos.add_latency(engine._engine, "posteriors_batch", 1.5)
            with pytest.raises(DeadlineExceededError) as excinfo:
                engine.diagnose(CASE, deadline=0.3)
        error = excinfo.value
        assert error.remaining <= 0
        assert [a.outcome for a in error.attempts] == ["timeout"]
        assert error.attempts[0].engine == "ve"
        assert isinstance(error.__cause__, InferenceTimeoutError)


class TestBackoffInteraction:
    def test_budget_shorter_than_one_backoff_interval(self, built_model):
        # backoff=30s, budget=0.3s: the retry sleep must be clamped to the
        # remaining budget (not slept in full) and then the budget check
        # must fire.  The whole call stays near 0.3s, nowhere near 30s.
        engine = make_engine(built_model, chain=("ve",),
                            attempts_per_engine=3, backoff=30.0)
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError) as excinfo:
                engine.diagnose(CASE, deadline=0.3)
            elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"slept past the budget: {elapsed:.1f}s"
        assert elapsed >= 0.25          # the clamped sleep still drained it
        error = excinfo.value
        assert [a.outcome for a in error.attempts] == ["error"]

    def test_backoff_untouched_without_request_deadline(self, built_model):
        # Sanity: the clamp only applies when a budget exists.
        engine = make_engine(built_model, chain=("ve", "lw"),
                            attempts_per_engine=2, backoff=0.05)
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            diagnosis = engine.diagnose(CASE)
        assert diagnosis.ok
        assert diagnosis.provenance.degraded


class TestDrainingBatchBudget:
    def test_budget_spent_during_the_one_sweep(self, built_model):
        # Four cases share one sweep that outlasts the budget: every slot
        # must come back (collect mode) as a structured deadline failure,
        # and the batch must not overrun its budget by more than the sweep.
        engine = make_engine(built_model, chain=("ve",))
        cases = [CASE] * 4
        sweeps = engine._engine.sweep_count
        with FaultInjector() as chaos:
            chaos.add_latency(engine._engine, "posteriors_batch", 0.5)
            started = time.perf_counter()
            results = engine.diagnose_batch(cases, on_error="collect",
                                            deadline=0.3)
            elapsed = time.perf_counter() - started
        assert len(results) == 4
        assert [getattr(r, "error_type", "ok") for r in results] == \
            ["DeadlineExceededError"] * 4
        assert engine._engine.sweep_count == sweeps + 1
        assert elapsed < 2.0

    def test_expired_batch_budget_fails_every_case_fast(self, built_model):
        engine = make_engine(built_model)
        started = time.perf_counter()
        results = engine.diagnose_batch([CASE] * 50, on_error="collect",
                                        deadline=1e-9)
        assert time.perf_counter() - started < 5.0
        assert len(results) == 50
        assert {r.error_type for r in results} == {"DeadlineExceededError"}

    def test_deadline_failures_keep_attempt_trails(self, built_model):
        engine = make_engine(built_model, chain=("ve", "lw"))
        with FaultInjector() as chaos:
            chaos.add_latency(engine._engine, "posteriors_batch", 1.5)
            results = engine.diagnose_batch([CASE], on_error="collect",
                                            deadline=0.3)
        failure = results[0]
        assert failure.error_type == "DeadlineExceededError"
        assert failure.wall_time > 0
        assert [a.outcome for a in failure.attempts] == ["timeout"]


class TestStageBoundaries:
    def test_spent_budget_is_checked_before_admission(self, built_model):
        # The slot is never admitted, so its malformed evidence is not
        # what fails it.
        engine = make_engine(built_model)
        malformed = DiagnosticCase(name="malformed",
                                   controllable_states={"vp1": "99"},
                                   observable_states={})
        (failure,) = engine.diagnose_batch([malformed], on_error="collect",
                                           deadline=1e-9)
        assert failure.error_type == "DeadlineExceededError"
        assert failure.attempts == ()

    def test_deadline_batch_is_one_sweep_without_threads(self, built_model):
        engine = make_engine(built_model)
        cases = list(PAPER_DIAGNOSTIC_CASES)
        assert len({frozenset(case.evidence().items())
                    for case in cases}) == len(cases)
        sweeps, threads = engine._engine.sweep_count, threading.active_count()
        results = engine.diagnose_batch(cases, deadline=60.0)
        assert all(result.ok for result in results)
        assert engine._engine.sweep_count == sweeps + 1
        assert threading.active_count() == threads

    def test_chain_attempt_ending_late_is_a_timeout(self, built_model):
        # The sweep fails fast, the fallback attempt outlasts the budget:
        # the check after that attempt fails the case, the late attempt on
        # its trail as a timeout.
        engine = make_engine(built_model, chain=("ve", "lw"))
        with FaultInjector() as chaos:
            chaos.raise_on_call(engine._engine, "posteriors_batch")
            chaos.add_latency(engine._rung("lw"), "posteriors",
                              0.5)
            (failure,) = engine.diagnose_batch([CASE], on_error="collect",
                                               deadline=0.3)
        assert failure.error_type == "DeadlineExceededError"
        assert [(a.engine, a.outcome) for a in failure.attempts] == \
            [("ve", "error"), ("lw", "timeout")]
