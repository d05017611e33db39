"""Diagnosis service: pool management, backpressure, deadlines, stats.

Covers the supervisor's healthy-path contract (results in submission order,
parity with the bare engine, accounting that always balances) plus the
pieces that are pure state machines and need no processes at all
(:class:`ServiceConfig` validation, :class:`CircuitBreaker`,
:class:`LatencyWindow`).  Injected-failure scenarios live in
``test_serving_chaos.py``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time

import pytest

from repro.core import Dlog2BBN, FallbackPolicy
from repro.core.diagnosis import DiagnosisEngine, chunk_slices
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import (
    DiagnosisError,
    ServiceOverloadedError,
    ServiceShutdownError,
    ServingError,
)
from repro.serving import (
    CircuitBreaker,
    DiagnosisService,
    LatencyWindow,
    ServiceConfig,
    ServiceStats,
)
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN
from repro.testing import WorkerChaos


@pytest.fixture(scope="module")
def built_model(regulator_circuit):
    builder = Dlog2BBN(regulator_circuit.model,
                       regulator_circuit.healthy_states)
    return builder.build()


@pytest.fixture(scope="module")
def cases():
    return list(PAPER_DIAGNOSTIC_CASES)


def make_service(built_model, **overrides) -> DiagnosisService:
    defaults = dict(num_workers=2, chunk_size=2)
    defaults.update(overrides)
    return DiagnosisService(built_model, FallbackPolicy(),
                            ServiceConfig(**defaults))


# ---------------------------------------------------------------------------
# Pure components
# ---------------------------------------------------------------------------

class TestServiceConfig:
    def test_defaults_resolve(self):
        config = ServiceConfig()
        assert config.resolved_workers() >= 1
        assert config.chaos_for(0) is None

    @pytest.mark.parametrize("kwargs", [
        {"num_workers": 0},
        {"chunk_size": 0},
        {"max_pending_cases": 0},
        {"overload_policy": "explode"},
        {"submit_timeout": -1.0},
        {"chunk_timeout": 0.0},
        {"deadline_grace": -0.1},
        {"max_chunk_retries": -1},
        {"max_respawns_per_worker": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ServingError):
            ServiceConfig(**kwargs)

    def test_chaos_mapping_is_per_worker(self):
        plan = WorkerChaos(kill_on_chunk=1)
        config = ServiceConfig(chaos={1: plan})
        assert config.chaos_for(0) is None
        assert config.chaos_for(1) is plan

    def test_chaos_scalar_applies_to_all(self):
        plan = WorkerChaos(slow_per_case=0.1)
        config = ServiceConfig(chaos=plan)
        assert config.chaos_for(0) is plan
        assert config.chaos_for(7) is plan


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.1)
        assert breaker.state == CLOSED and breaker.allows_dispatch()
        breaker.record_failure(now=0.2)
        assert breaker.state == OPEN
        assert not breaker.allows_dispatch()
        assert breaker.quarantined

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=1.0)
        assert breaker.state == CLOSED

    def test_probe_reinstates(self):
        breaker = CircuitBreaker(threshold=1, cooldown=5.0)
        breaker.record_failure(now=0.0)
        assert not breaker.probe_due(now=4.9)
        assert breaker.next_transition() == pytest.approx(5.0)
        assert breaker.probe_due(now=5.0)
        breaker.begin_probe()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allows_dispatch()

    def test_failed_probe_doubles_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, max_cooldown=3.0)
        breaker.record_failure(now=0.0)        # open until 1.0
        breaker.begin_probe()
        breaker.record_failure(now=1.0)        # reopen, cooldown 2.0
        assert breaker.state == OPEN
        assert breaker.next_transition() == pytest.approx(3.0)
        breaker.begin_probe()
        breaker.record_failure(now=3.0)        # capped at max_cooldown 3.0
        assert breaker.next_transition() == pytest.approx(6.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestLatencyWindow:
    def test_empty_has_no_percentiles(self):
        assert LatencyWindow().percentile(50.0) is None

    def test_single_sample(self):
        window = LatencyWindow()
        window.record(0.25)
        assert window.percentile(50.0) == pytest.approx(0.25)
        assert window.percentile(99.0) == pytest.approx(0.25)

    def test_interpolated_percentiles(self):
        window = LatencyWindow()
        for value in (1.0, 2.0, 3.0, 4.0):
            window.record(value)
        assert window.percentile(0.0) == pytest.approx(1.0)
        assert window.percentile(50.0) == pytest.approx(2.5)
        assert window.percentile(100.0) == pytest.approx(4.0)

    def test_bounded(self):
        window = LatencyWindow(maxlen=4)
        for value in range(100):
            window.record(float(value))
        assert len(window) == 4
        assert window.percentile(0.0) == pytest.approx(96.0)


# ---------------------------------------------------------------------------
# Healthy-path service behaviour
# ---------------------------------------------------------------------------

class TestHealthyPath:
    def test_matches_the_bare_engine(self, built_model, cases):
        reference = DiagnosisEngine(built_model).diagnose_batch(cases)
        with make_service(built_model) as service:
            served = service.diagnose_batch(cases, timeout=120)
        assert len(served) == len(reference)
        for ours, theirs in zip(served, reference):
            assert ours.ok and theirs.ok
            assert ours.case_name == theirs.case_name
            assert ours.ranked_candidates[0][0] == theirs.ranked_candidates[0][0]
            for variable, distribution in theirs.posteriors.items():
                for state, probability in distribution.items():
                    assert ours.posteriors[variable][state] == \
                        pytest.approx(probability, abs=1e-9)

    def test_results_keep_submission_order(self, built_model, cases):
        batch = [dataclasses.replace(cases[index % len(cases)],
                                     name=f"case-{index:03d}")
                 for index in range(10)]
        with make_service(built_model, chunk_size=3) as service:
            results = service.diagnose_batch(batch, timeout=120)
        assert [r.case_name for r in results] == [c.name for c in batch]

    def test_raw_evidence_mappings_are_wrapped(self, built_model, cases):
        evidence = [dict(case.observable_states) for case in cases[:3]]
        with make_service(built_model) as service:
            results = service.diagnose_batch(
                evidence, names=["a", "b", "c"], timeout=120)
        assert [r.case_name for r in results] == ["a", "b", "c"]
        assert all(r.ok for r in results)

    def test_name_count_must_match(self, built_model, cases):
        with make_service(built_model) as service:
            with pytest.raises(DiagnosisError):
                service.submit([cases[0]], names=["a", "b"])

    def test_empty_batch_completes_immediately(self, built_model):
        with make_service(built_model) as service:
            future = service.submit([])
            assert future.done()
            assert future.result(0.0) == []

    def test_future_result_timeout(self, built_model, cases):
        chaos = WorkerChaos(slow_per_case=1.0, only_first_generation=False)
        with make_service(built_model, num_workers=1,
                          chaos=chaos) as service:
            future = service.submit(cases[:4])
            with pytest.raises(TimeoutError):
                future.result(0.05)
            results = future.result(120)
        assert all(r.ok for r in results)

    def test_sequential_batches_share_the_pool(self, built_model, cases):
        with make_service(built_model) as service:
            first = service.diagnose_batch(cases[:3], timeout=120)
            second = service.diagnose_batch(cases[2:], timeout=120)
        assert all(r.ok for r in first + second)

    def test_stats_accounting_balances(self, built_model, cases):
        with make_service(built_model) as service:
            service.diagnose_batch(cases, timeout=120)
            stats = service.stats()
        assert stats.submitted == len(cases)
        assert stats.completed + stats.failed == stats.submitted
        assert stats.failed == 0
        assert stats.queue_depth == 0 and stats.in_flight == 0
        assert stats.workers == 2 and stats.workers_alive == 2
        assert stats.chunk_latency_p50 is not None
        assert stats.chunk_latency_p99 >= stats.chunk_latency_p50
        assert stats.uptime > 0

    def test_concurrent_submitters_balance_the_accounting(self, built_model,
                                                          cases):
        """Callers admit on their own threads while the settler settles:
        with more workers than cores and a short switch interval, every
        request still comes back whole and every case is counted once."""
        reference = [result.to_dict() | {"provenance": None} for result in
                     DiagnosisEngine(built_model, FallbackPolicy())
                     .diagnose_batch(cases, on_error="collect")]
        served, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_service(built_model, num_workers=3,
                              chunk_size=1) as service:
                def client() -> None:
                    for _ in range(6):
                        served.append(service.diagnose_batch(cases,
                                                             timeout=120))

                threads = [threading.Thread(target=client) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert len(served) == 24
        for results in served:
            assert [result.to_dict() | {"provenance": None}
                    for result in results] == reference
        assert stats.submitted == stats.completed == 24 * len(cases)
        assert stats.failed == stats.queue_depth == stats.in_flight == 0

    @pytest.mark.parametrize("deadline", [None, 0.05])
    def test_a_request_answered_inside_submit_settles_once(
            self, built_model, cases, deadline):
        """The submitting thread stalls just after it lets the lock go,
        while the supervisor is woken as another submitter would wake it:
        a worker answers the request's rows (or its deadline expires them
        in the queue) and the request settles before ``submit`` returns.
        It must settle exactly once."""
        with make_service(built_model, num_workers=1) as service:
            service.diagnose_batch(cases[:1], timeout=120)  # a worker is up
            submitter = threading.current_thread()

            class StallAfterRelease(threading.Condition):
                def __exit__(self, *exc_info):
                    super().__exit__(*exc_info)
                    if threading.current_thread() is not submitter:
                        return
                    time.sleep(0.1)  # past the 0.05 s deadline
                    service._wake()
                    settled_by = time.monotonic() + 60
                    while (stats := service.stats()).submitted \
                            > stats.completed + stats.failed:
                        assert time.monotonic() < settled_by
                        time.sleep(0.005)

            service._capacity = StallAfterRelease(service._lock)
            future = service.submit(cases, deadline=deadline)
            service._capacity = threading.Condition(service._lock)
            results = future.result(120)
            stats = service.stats()
        assert [result.case_name for result in results] == \
            [case.name for case in cases]
        if deadline is None:
            assert all(result.ok for result in results)
        else:
            assert {result.error_type for result in results} == \
                {"DeadlineExceededError"}
        assert stats.submitted == stats.completed + stats.failed \
            == 1 + len(cases)

    def test_stats_snapshot_is_json_safe(self, built_model, cases):
        with make_service(built_model) as service:
            service.diagnose_batch(cases[:2], timeout=120)
            snapshot = service.stats().to_dict()
        assert isinstance(snapshot, dict)
        decoded = json.loads(json.dumps(snapshot))
        assert decoded["submitted"] == 2
        assert set(decoded) == {
            field for field in ServiceStats.__dataclass_fields__}

    def test_submit_after_shutdown_raises(self, built_model, cases):
        service = make_service(built_model)
        service.shutdown()
        with pytest.raises(ServiceShutdownError):
            service.submit(cases[:1])

    def test_shutdown_is_idempotent(self, built_model):
        service = make_service(built_model)
        service.shutdown()
        service.shutdown()

    def test_rejects_nonpositive_deadline(self, built_model, cases):
        with make_service(built_model) as service:
            with pytest.raises(DiagnosisError):
                service.submit(cases[:1], deadline=0.0)


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------

class TestBackpressure:
    def test_reject_policy_sheds_with_pressure_numbers(self, built_model,
                                                       cases):
        chaos = WorkerChaos(slow_per_case=0.5, only_first_generation=False)
        with make_service(built_model, num_workers=1, chunk_size=1,
                          max_pending_cases=2, overload_policy="reject",
                          chaos=chaos) as service:
            admitted = []
            with pytest.raises(ServiceOverloadedError) as excinfo:
                for _ in range(8):
                    admitted.append(service.submit(cases[:1]))
            assert excinfo.value.limit == 2
            assert excinfo.value.pending >= 1
            assert service.stats().shed >= 1
            for future in admitted:
                assert all(r.ok for r in future.result(120))

    def test_block_policy_waits_for_capacity(self, built_model, cases):
        chaos = WorkerChaos(slow_per_case=0.05, only_first_generation=False)
        with make_service(built_model, num_workers=2, chunk_size=1,
                          max_pending_cases=2, overload_policy="block",
                          submit_timeout=60.0, chaos=chaos) as service:
            futures = [service.submit(cases[:2]) for _ in range(4)]
            for future in futures:
                assert all(r.ok for r in future.result(120))
            assert service.stats().shed == 0

    def test_block_policy_sheds_after_patience(self, built_model, cases):
        chaos = WorkerChaos(slow_per_case=5.0, only_first_generation=False)
        with make_service(built_model, num_workers=1, chunk_size=1,
                          max_pending_cases=1, overload_policy="block",
                          submit_timeout=0.05, chaos=chaos) as service:
            with pytest.raises(ServiceOverloadedError):
                for _ in range(4):
                    service.submit(cases[:1])
            service.shutdown(drain=False)


# ---------------------------------------------------------------------------
# Deadlines at the service boundary
# ---------------------------------------------------------------------------

class TestServiceDeadlines:
    def test_every_slot_is_ok_or_deadline_failure(self, built_model, cases):
        batch = [cases[index % len(cases)] for index in range(12)]
        with make_service(built_model, chunk_size=2) as service:
            results = service.diagnose_batch(batch, deadline=0.001,
                                             timeout=120)
        assert len(results) == len(batch)
        kinds = {getattr(r, "error_type", "ok") for r in results}
        assert kinds <= {"ok", "DeadlineExceededError"}
        assert "DeadlineExceededError" in kinds

    def test_expired_queued_chunks_never_reach_a_worker(self, built_model,
                                                        cases):
        chaos = WorkerChaos(slow_per_case=0.4, only_first_generation=False)
        with make_service(built_model, num_workers=1, chunk_size=1,
                          chaos=chaos) as service:
            blocker = service.submit(cases[:2])
            results = service.diagnose_batch(cases[:4], deadline=0.15,
                                             timeout=120)
            blocker.result(120)
        failures = [r for r in results if not getattr(r, "ok", False)]
        assert failures, "deadline should expire behind the slow blocker"
        assert {f.error_type for f in failures} == {"DeadlineExceededError"}

    def test_deadline_failures_carry_case_identity(self, built_model, cases):
        chaos = WorkerChaos(slow_per_case=0.4, only_first_generation=False)
        with make_service(built_model, num_workers=1, chunk_size=1,
                          chaos=chaos) as service:
            service.submit(cases[:2])
            results = service.diagnose_batch(cases[:3], deadline=0.1,
                                             timeout=120)
        for case, result in zip(cases[:3], results):
            assert result.case_name == case.name


# ---------------------------------------------------------------------------
# chunk_slices (the service's sharding primitive)
# ---------------------------------------------------------------------------

class TestChunkSlices:
    def test_covers_exactly_once(self):
        pieces = chunk_slices(10, 3)
        seen = [index for piece in pieces
                for index in range(piece.start, piece.stop)]
        assert seen == list(range(10))
        assert [piece.stop - piece.start for piece in pieces] == [3, 3, 3, 1]

    def test_zero_items(self):
        assert chunk_slices(0, 4) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(DiagnosisError):
            chunk_slices(-1, 4)
        with pytest.raises(DiagnosisError):
            chunk_slices(4, 0)
