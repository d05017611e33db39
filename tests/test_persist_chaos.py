"""Crash recovery of the durable state: ``kill -9`` mid-write, restarts.

Each durable artifact — registry swap, columnar-store save — gets a writer
subprocess SIGKILLed somewhere inside its write path, then a clean reopen
that must (a) succeed, (b) retain everything committed before the kill,
and (c) detect rather than serve whatever the kill tore.  On top sit the
service-level guarantees of ``persist_dir``: a published model hot-swaps
running workers, a fresh or respawned worker serves the registry's model,
and a corrupt registry stamp leaves workers serving the model they have.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import (
    Diagnosis,
    DiagnosisEngine,
    Dlog2BBN,
    FallbackPolicy,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import StoreCorruptionError
from repro.persist import ModelRegistry, model_fingerprint
from repro.serving import DiagnosisService, ServiceConfig
from repro.testing import WorkerChaos, flip_byte

SRC = Path(__file__).resolve().parent.parent / "src"


def spawn_writer(code: str, *argv: str) -> subprocess.Popen:
    """Start a line-buffered child that prints one token per commit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-u", "-c", code, *argv],
                            stdout=subprocess.PIPE, text=True, env=env)


def kill_after_commits(proc: subprocess.Popen, commits: int,
                       timeout: float = 60.0) -> list[str]:
    """SIGKILL ``proc`` once it has reported ``commits`` committed writes."""
    deadline = time.monotonic() + timeout
    seen: list[str] = []
    while len(seen) < commits:
        assert time.monotonic() < deadline, \
            f"writer produced only {len(seen)} commits before the timeout"
        line = proc.stdout.readline()
        assert line != "", f"writer exited early (rc={proc.poll()})"
        seen.append(line.strip())
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    proc.stdout.close()
    return seen


REGISTRY_WRITER = """
import pickle, sys
from repro.persist import ModelRegistry
with open(sys.argv[2], "rb") as handle:
    model = pickle.load(handle)
registry = ModelRegistry(sys.argv[1])
while True:
    print(registry.publish(model, validate=False), flush=True)
"""

STORE_WRITER = """
import pickle, sys
import numpy as np
with open(sys.argv[2], "rb") as handle:
    store = pickle.load(handle)
while True:
    store.values[...] = store.values + 1.0  # every save differs
    store.save(sys.argv[1])
    print("saved", flush=True)
"""


class TestKillMinus9:
    def test_registry_swap_survives_a_killed_publisher(
            self, regulator_built_model, tmp_path):
        registry_dir = tmp_path / "models"
        model_file = tmp_path / "model.pkl"
        model_file.write_bytes(pickle.dumps(regulator_built_model))
        proc = spawn_writer(REGISTRY_WRITER, str(registry_dir),
                            str(model_file))
        last_published = int(kill_after_commits(proc, 5)[-1])

        with ModelRegistry(registry_dir) as registry:
            version = registry.current_version()
            # The stamp flips last: it can trail the kill by at most the
            # in-flight publish, never point at a half-written artifact.
            assert version >= last_published
            loaded_version, loaded = registry.load()  # verifies magic + CRC
            assert loaded_version == version
            assert model_fingerprint(loaded.network) \
                == model_fingerprint(regulator_built_model.network)
            # And the registry still accepts the next publish.
            assert registry.publish(regulator_built_model,
                                    validate=False) == version + 1

    def test_store_save_survives_a_killed_saver(self, regulator_population,
                                                tmp_path):
        from repro.ate import DeviceResultStore
        store_dir = tmp_path / "store"
        store_file = tmp_path / "population.pkl"
        store_file.write_bytes(pickle.dumps(regulator_population.to_store()))
        proc = spawn_writer(STORE_WRITER, str(store_dir), str(store_file))
        kill_after_commits(proc, 3)

        # The kill may have landed mid-save: the reopen must yield either a
        # complete consistent store or a *structured* corruption error —
        # silently mixed-generation planes are the failure mode.
        try:
            loaded = DeviceResultStore.load(store_dir, verify=True)
        except StoreCorruptionError:
            pass
        else:
            assert loaded.values.shape \
                == regulator_population.to_store().values.shape


def designer_model(regulator_circuit):
    """The designer-prior model: other CPTs than the simulation prior's."""
    return Dlog2BBN(regulator_circuit.model,
                    regulator_circuit.healthy_states).build()


class TestServiceRestart:
    def test_respawned_workers_serve_the_registry_model(
            self, regulator_circuit, regulator_built_model, tmp_path):
        """Killed workers come back on the registry's model, not the
        payload's, and every slot is answered."""
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
        cases = list(PAPER_DIAGNOSTIC_CASES) * 6
        config = ServiceConfig(num_workers=2, chunk_size=2,
                               chaos=WorkerChaos(kill_on_chunk=2))
        with DiagnosisService(designer_model(regulator_circuit),
                              FallbackPolicy(), config,
                              persist_dir=tmp_path) as service:
            results = service.diagnose_batch(cases, timeout=180)
            stats = service.stats()
        assert stats.respawns >= 1  # the kills actually happened
        assert all(isinstance(r, Diagnosis) for r in results)
        engine = DiagnosisEngine(regulator_built_model, FallbackPolicy())
        reference = {case.name: engine.diagnose(case).posteriors
                     for case in PAPER_DIAGNOSTIC_CASES}
        for case, result in zip(cases, results):
            for variable, states in reference[case.name].items():
                assert result.posteriors[variable] == pytest.approx(
                    states, abs=1e-12, rel=0)

    def test_corrupt_stamp_keeps_workers_on_their_model(
            self, regulator_built_model, tmp_path):
        """A damaged ``CURRENT`` stamp is logged at the next poll; the
        worker keeps serving the model it has, without a respawn."""
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
        cases = list(PAPER_DIAGNOSTIC_CASES)
        config = ServiceConfig(num_workers=1)
        with DiagnosisService(regulator_built_model, FallbackPolicy(),
                              config, persist_dir=tmp_path,
                              reload_poll_interval=0.0) as service:
            before = service.diagnose_batch(cases, timeout=120)
            flip_byte(tmp_path / "models" / "CURRENT", 1)
            after = service.diagnose_batch(cases, timeout=120)
            stats = service.stats()
        assert all(isinstance(r, Diagnosis) for r in before + after)
        assert {r.provenance.engine for r in before + after} == {"ve"}
        assert [r.posteriors for r in after] == \
            [r.posteriors for r in before]
        assert stats.respawns == 0
        assert stats.workers_alive == 1

    def test_publish_model_hot_swaps_running_workers(
            self, regulator_circuit, regulator_built_model, tmp_path):
        from repro.core import Dlog2BBN
        # Designer-prior model first; the simulation-prior model (different
        # CPTs, different fingerprint) is published mid-flight.
        designer = Dlog2BBN(regulator_circuit.model,
                            regulator_circuit.healthy_states).build()
        assert model_fingerprint(designer.network) \
            != model_fingerprint(regulator_built_model.network)
        cases = list(PAPER_DIAGNOSTIC_CASES)
        config = ServiceConfig(num_workers=1, chunk_size=2)
        with DiagnosisService(designer, FallbackPolicy(), config,
                              persist_dir=tmp_path,
                              reload_poll_interval=0.0) as service:
            before = service.diagnose_batch(cases, timeout=120)
            version = service.publish_model(regulator_built_model)
            assert version == 1
            after = service.diagnose_batch(cases, timeout=120)
            stats = service.stats()

        assert stats.model_reloads >= 1
        # The swap is observable: posteriors now come from the new model.
        changed = any(b.posteriors != a.posteriors
                      for b, a in zip(before, after))
        assert changed
        # The parent admitted and ranked under the published model too:
        # every slot is an in-process engine's answer on that model.
        expected = DiagnosisEngine(regulator_built_model,
                                   FallbackPolicy()).diagnose_batch(cases)
        for ours, theirs in zip(after, expected, strict=True):
            assert ours.suspects == theirs.suspects
            for field in ("posteriors", "ranked_candidates"):
                assert repr(getattr(ours, field)) == \
                    repr(getattr(theirs, field))

    def test_a_newer_chunk_makes_a_throttled_worker_reload(
            self, regulator_circuit, regulator_built_model, tmp_path):
        """A worker whose own poll waits an hour still reloads before
        sweeping a chunk admitted under a newer version than its own."""
        designer = designer_model(regulator_circuit)
        cases = list(PAPER_DIAGNOSTIC_CASES)
        with DiagnosisService(designer, FallbackPolicy(),
                              ServiceConfig(num_workers=1),
                              persist_dir=tmp_path,
                              reload_poll_interval=3600.0) as service:
            service.diagnose_batch(cases, timeout=120)  # polls once, empty
            service.publish_model(regulator_built_model)
            after = service.diagnose_batch(cases, timeout=120)
            stats = service.stats()
        assert stats.model_reloads == 1 and stats.failed == 0
        expected = DiagnosisEngine(regulator_built_model,
                                   FallbackPolicy()).diagnose_batch(cases)
        assert [repr(r.posteriors) for r in after] == \
            [repr(r.posteriors) for r in expected]

    def test_an_outside_publish_is_admitted_again_under_it(
            self, regulator_circuit, regulator_built_model, tmp_path):
        """A model published by another process reaches the worker first:
        its reply names the new version, so the parent admits the request
        again under the registry's model instead of settling it."""
        designer = designer_model(regulator_circuit)
        cases = list(PAPER_DIAGNOSTIC_CASES)
        config = ServiceConfig(num_workers=1)
        with DiagnosisService(designer, FallbackPolicy(), config,
                              persist_dir=tmp_path,
                              reload_poll_interval=0.0) as service:
            service.diagnose_batch(cases, timeout=120)
            with ModelRegistry(tmp_path / "models") as registry:
                registry.publish(regulator_built_model, validate=False)
            after = service.diagnose_batch(cases, timeout=120)
            assert service._pipeline[1] == 1
        expected = DiagnosisEngine(regulator_built_model,
                                   FallbackPolicy()).diagnose_batch(cases)
        for ours, theirs in zip(after, expected, strict=True):
            assert ours.suspects == theirs.suspects
            assert repr(ours.posteriors) == repr(theirs.posteriors)

    def test_a_model_the_parent_cannot_load_fails_the_request(
            self, regulator_circuit, regulator_built_model, tmp_path,
            monkeypatch):
        """Rows swept under a version the parent cannot admit under are
        never settled as answers: after ``max_chunk_retries`` admissions
        every slot fails structurally."""
        config = ServiceConfig(num_workers=1, max_chunk_retries=1)
        with DiagnosisService(designer_model(regulator_circuit),
                              FallbackPolicy(), config, persist_dir=tmp_path,
                              reload_poll_interval=0.0) as service:
            monkeypatch.setattr(service._persist, "poll_reload",
                                lambda at_least=0: None)
            with ModelRegistry(tmp_path / "models") as registry:
                registry.publish(regulator_built_model, validate=False)
            results = service.diagnose_batch(PAPER_DIAGNOSTIC_CASES[:2],
                                             timeout=120)
            stats = service.stats()
        assert [r.error_type for r in results] == ["ServingError"] * 2
        assert stats.failed == 2 and stats.respawns == 0

    def test_fresh_service_prefers_the_registry_model(
            self, regulator_circuit, regulator_built_model, tmp_path):
        from repro.core import Dlog2BBN
        designer = Dlog2BBN(regulator_circuit.model,
                            regulator_circuit.healthy_states).build()
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
        case = PAPER_DIAGNOSTIC_CASES[1]
        reference = DiagnosisEngine(regulator_built_model,
                                    FallbackPolicy()).diagnose(case)
        # The payload model is the designer prior, but the registry holds
        # the simulation-prior model: the registry must win.
        config = ServiceConfig(num_workers=1, chunk_size=2)
        with DiagnosisService(designer, FallbackPolicy(), config,
                              persist_dir=tmp_path) as service:
            [served] = service.diagnose_batch([case], timeout=120)
        assert served.posteriors == reference.posteriors
