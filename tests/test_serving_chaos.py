"""Soak-style chaos suite for the diagnosis service.

Process-level fault injection (:class:`repro.testing.chaos.WorkerChaos`,
:func:`repro.testing.chaos.poison_case`) against the real worker pool:
workers are SIGKILLed mid-batch, hung, slowed and fed poison cases, and the
service must keep its contract — every submitted slot completes with a
``Diagnosis`` or a structured ``DiagnosisFailure`` in submission order, no
slot is lost or duplicated, respawns stay within budget, and shutdown
drains cleanly.  (In CI this file runs under ``pytest-timeout`` so an
escaped hang fails the job instead of wedging it.)
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.core import Dlog2BBN, FallbackPolicy
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import ServingError
from repro.serving import DiagnosisService, ServiceConfig
from repro.serving import worker as worker_module
from repro.testing import WorkerChaos, is_poison_case, poison_case


@pytest.fixture(scope="module")
def built_model(regulator_circuit):
    builder = Dlog2BBN(regulator_circuit.model,
                       regulator_circuit.healthy_states)
    return builder.build()


def make_batch(size: int, poison_slots: dict[int, str] | None = None):
    """``size`` uniquely named cases cycled from the paper case studies,
    with crash-poison cases planted at the given slots."""
    poison_slots = poison_slots or {}
    batch = []
    for index in range(size):
        if index in poison_slots:
            batch.append(poison_case(poison_slots[index]))
        else:
            template = PAPER_DIAGNOSTIC_CASES[index % len(PAPER_DIAGNOSTIC_CASES)]
            batch.append(dataclasses.replace(template,
                                             name=f"soak-{index:04d}"))
    return batch


def service(built_model, **overrides) -> DiagnosisService:
    defaults = dict(num_workers=2, chunk_size=8)
    defaults.update(overrides)
    return DiagnosisService(built_model, FallbackPolicy(),
                            ServiceConfig(**defaults))


class TestCrashIsolation:
    def test_killed_worker_loses_only_its_chunk(self, built_model):
        batch = make_batch(48)
        chaos = WorkerChaos(kill_on_chunk=2)  # first generation only
        with service(built_model, chunk_size=4, chaos=chaos) as svc:
            results = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
        assert [r.case_name for r in results] == [c.name for c in batch]
        assert all(r.ok for r in results)
        assert stats.respawns >= 1
        assert stats.chunk_retries >= 1

    def test_poison_case_is_bisected_into_isolation(self, built_model):
        batch = make_batch(32, poison_slots={13: "poison-a"})
        chaos = WorkerChaos()  # no scheduled faults; poison kills stay armed
        with service(built_model, max_chunk_retries=2,
                     max_respawns_per_worker=30, breaker_cooldown=0.05,
                     chaos=chaos) as svc:
            results = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
        assert len(results) == 32
        bad = [r for r in results if not r.ok]
        assert [r.case_name for r in bad] == ["poison-a"]
        assert bad[0].error_type == "WorkerCrashError"
        assert "retry budget" in bad[0].message
        # every sibling of the poison chunk survived the bisection
        assert sum(r.ok for r in results) == 31
        assert stats.respawns <= 2 * 30

    def test_crash_retry_budget_is_respected(self, built_model):
        batch = [poison_case("p0")]
        chaos = WorkerChaos()
        with service(built_model, num_workers=1, chunk_size=1,
                     max_chunk_retries=2, max_respawns_per_worker=10,
                     breaker_cooldown=0.05, chaos=chaos) as svc:
            results = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
        assert not results[0].ok
        # initial dispatch + max_chunk_retries redispatches, each one crash
        assert stats.respawns == 3
        assert stats.chunk_retries == 3

    def test_pool_death_fails_outstanding_structurally(self, built_model):
        batch = make_batch(12, poison_slots={0: "p0"})
        chaos = WorkerChaos()
        with service(built_model, num_workers=1, chunk_size=4,
                     max_chunk_retries=0, max_respawns_per_worker=0,
                     chaos=chaos) as svc:
            results = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
            assert stats.workers_alive == 0
            with pytest.raises(ServingError):
                svc.submit(batch[:1])
        assert len(results) == 12
        assert all(result is not None for result in results)
        kinds = {r.error_type for r in results if not r.ok}
        assert kinds <= {"WorkerCrashError", "ServiceShutdownError"}
        assert not any(r.ok for r in results[:1])  # the poison slot itself

    def test_failed_engine_builds_leave_the_supervisor_running(
            self, built_model, monkeypatch):
        """A worker whose engine cannot be built reports ``fatal``; once its
        respawn budget is spent the supervisor retires it, fails the
        outstanding slots structurally, and keeps running to shut down."""
        def broken_build(*args):
            time.sleep(0.2)  # let the submission below reach the queue
            raise RuntimeError("injected engine build failure")

        escaped = []
        monkeypatch.setattr(worker_module, "_build_engine", broken_build)
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        svc = service(built_model, num_workers=1, max_respawns_per_worker=1,
                      start_method="fork")
        try:
            results = svc.diagnose_batch(PAPER_DIAGNOSTIC_CASES, timeout=60)
            stats = svc.stats()
        finally:
            svc.shutdown(timeout=30)
        assert [r.error_type for r in results] == \
            ["ServiceShutdownError"] * len(PAPER_DIAGNOSTIC_CASES)
        assert stats.respawns == 1 and stats.workers_alive == 0
        assert not svc._supervisor.is_alive()
        assert [hook.exc_type for hook in escaped] == []


class TestHangsAndSlowness:
    def test_hung_worker_is_reaped_and_replaced(self, built_model):
        batch = make_batch(12)
        chaos = {0: WorkerChaos(hang_on_chunk=1)}
        started = time.monotonic()
        with service(built_model, chunk_size=4, chunk_timeout=1.0,
                     chaos=chaos) as svc:
            results = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
        assert all(r.ok for r in results)
        assert stats.respawns >= 1
        # reaped at the 1s chunk timeout, not the chaos plan's hour-long nap
        assert time.monotonic() - started < 30.0

    def test_slow_worker_still_completes(self, built_model):
        batch = make_batch(8)
        chaos = WorkerChaos(slow_per_case=0.05, only_first_generation=False)
        with service(built_model, chunk_size=2, chaos=chaos) as svc:
            results = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
        assert all(r.ok for r in results)
        assert stats.chunk_latency_p50 >= 0.05


class TestCircuitBreaking:
    def test_flapping_worker_is_quarantined(self, built_model):
        # Worker 0 dies on every first chunk of every incarnation; with a
        # long cooldown it trips its breaker and the batch finishes on
        # worker 1 alone.  Worker 1 is slowed so the batch outlasts worker
        # 0's respawn: the breaker only trips on a second crash.
        chaos = {0: WorkerChaos(kill_on_chunk=1, only_first_generation=False),
                 1: WorkerChaos(slow_per_case=0.02,
                                only_first_generation=False)}
        batch = make_batch(24)
        with service(built_model, chunk_size=2, breaker_threshold=2,
                     breaker_cooldown=60.0, max_respawns_per_worker=20,
                     chaos=chaos) as svc:
            results = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
        assert all(r.ok for r in results)
        assert stats.workers_quarantined == 1
        assert stats.workers_alive == 2

    def test_probe_reinstates_a_recovered_worker(self, built_model):
        # Worker dies once (first generation), trips a threshold-1 breaker,
        # respawns disarmed; after the short cooldown a probe must bring it
        # back into rotation.
        chaos = {0: WorkerChaos(kill_on_chunk=1)}
        batch = make_batch(6)
        with service(built_model, num_workers=2, chunk_size=2,
                     breaker_threshold=1, breaker_cooldown=0.1,
                     chaos=chaos) as svc:
            first = svc.diagnose_batch(batch, timeout=300)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                stats = svc.stats()
                if stats.workers_quarantined == 0 and stats.probes >= 1:
                    break
                time.sleep(0.05)
            second = svc.diagnose_batch(batch, timeout=300)
            stats = svc.stats()
        assert all(r.ok for r in first + second)
        assert stats.probes >= 1
        assert stats.workers_quarantined == 0
        assert stats.workers_alive == 2


class TestSoak:
    """The acceptance soak: 500 cases through a pool under active chaos."""

    def test_500_case_soak_under_chaos(self, built_model):
        poison_slots = {37: "poison-a", 211: "poison-b", 433: "poison-c"}
        batch = make_batch(500, poison_slots=poison_slots)
        chaos = WorkerChaos(kill_on_chunk=3)  # both workers die once, early
        config = dict(num_workers=2, chunk_size=8, max_chunk_retries=2,
                      max_respawns_per_worker=30, breaker_cooldown=0.05)
        with service(built_model, chaos=chaos, **config) as svc:
            results = svc.diagnose_batch(batch, timeout=600)
            stats = svc.stats()

            # 1. no slot lost: one result per case, in submission order
            assert len(results) == 500
            assert all(result is not None for result in results)
            assert [r.case_name for r in results] == [c.name for c in batch]

            # 2. every case is a Diagnosis or a *structured* failure
            failures = [r for r in results if not r.ok]
            assert {f.case_name for f in failures} == set(poison_slots.values())
            assert {f.error_type for f in failures} == {"WorkerCrashError"}
            for failure in failures:
                assert failure.message and failure.to_dict()["ok"] is False

            # 3. every non-poison slot succeeded despite the injected kills
            assert sum(r.ok for r in results) == 500 - len(poison_slots)

            # 4. accounting balances exactly — nothing lost, nothing doubled
            assert stats.submitted == 500
            assert stats.completed == 500 - len(poison_slots)
            assert stats.failed == len(poison_slots)
            assert stats.queue_depth == 0 and stats.in_flight == 0

            # 5. workers died and respawned within budget
            assert stats.respawns >= 2          # the two scheduled kills
            assert stats.respawns <= 2 * config["max_respawns_per_worker"]
            assert stats.workers_alive == 2
            assert stats.chunk_latency_p50 is not None

        # 6. clean drain: the context exit finished every case already
        assert svc.stats().in_flight == 0

    def test_soak_batch_construction_sanity(self):
        batch = make_batch(20, poison_slots={3: "p"})
        assert is_poison_case(batch[3])
        assert not is_poison_case(batch[4])
        assert len({case.name for case in batch}) == 20
