"""Serialization contracts: pickling across process boundaries, JSON out.

The worker-pool service ships cases, results and errors through
``multiprocessing`` pipes, so every exception in :mod:`repro.exceptions`
(and the structured result records) must survive a pickle round trip with
its payload attributes intact — an exception that loses its ``attempts``
trail in transit silently destroys the service's audit guarantees.
``to_dict()`` is the other boundary: service responses and structured logs
must serialise with a plain ``json.dumps``, no custom encoder.
"""

from __future__ import annotations

import inspect
import json
import pickle

import pytest

import repro.exceptions as exceptions_module
from repro.core import DiagnosisEngine, Dlog2BBN, FallbackPolicy
from repro.core.diagnosis import (
    AttemptRecord,
    Diagnosis,
    DiagnosisFailure,
    DiagnosisProvenance,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import (
    DeadlineExceededError,
    EvidenceError,
    FallbackExhaustedError,
    ImpossibleEvidenceError,
    InferenceTimeoutError,
    ReproError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.serving.stats import ServiceStats
from repro.testing import ChaosError

CASE = PAPER_DIAGNOSTIC_CASES[0]


@pytest.fixture(scope="module")
def built_model(regulator_circuit):
    builder = Dlog2BBN(regulator_circuit.model,
                       regulator_circuit.healthy_states)
    return builder.build()


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


# ---------------------------------------------------------------------------
# Exceptions through the pipe
# ---------------------------------------------------------------------------

def all_exception_classes():
    """Every concrete exception type the library can raise."""
    classes = [cls for _, cls in inspect.getmembers(exceptions_module,
                                                    inspect.isclass)
               if issubclass(cls, ReproError)]
    classes.extend([FallbackExhaustedError, ChaosError])
    return sorted(set(classes), key=lambda cls: cls.__name__)


class TestExceptionPickling:
    @pytest.mark.parametrize("cls", all_exception_classes(),
                             ids=lambda cls: cls.__name__)
    def test_every_exception_roundtrips(self, cls):
        error = cls("boom")
        clone = roundtrip(error)
        assert type(clone) is cls
        assert str(clone) == str(error)
        assert clone.args == error.args

    def test_payload_attributes_survive(self):
        cases = [
            ImpossibleEvidenceError("x", evidence={"v": "fail"}),
            InferenceTimeoutError("x", engine="ve", deadline=1.5),
            DeadlineExceededError("x", remaining=-0.25, deadline=3.0),
            ServiceOverloadedError("x", pending=99, limit=10),
            WorkerCrashError("x", crashes=4),
            EvidenceError("x", issues=(("unknown-variable", "v", "why"),)),
            FallbackExhaustedError(
                "x", attempts=(AttemptRecord("ve", "error", 0.1, "E: e"),),
                wall_time=0.5),
        ]
        for error in cases:
            clone = roundtrip(error)
            assert type(clone) is type(error)
            assert clone.__dict__ == error.__dict__, type(error).__name__

    def test_dynamic_attributes_survive(self):
        # The engine attaches the attempt trail to errors it did not
        # construct itself; the trail must ride through the pipe too.
        error = DeadlineExceededError("budget spent", remaining=-0.1,
                                      deadline=1.0)
        error.attempts = (AttemptRecord("ve", "timeout", 1.0,
                                        "InferenceTimeoutError: t"),)
        error.wall_time = 1.23
        clone = roundtrip(error)
        assert clone.attempts == error.attempts
        assert clone.wall_time == pytest.approx(1.23)
        assert clone.remaining == pytest.approx(-0.1)

    def test_caught_and_reraised_clone_behaves(self):
        clone = roundtrip(ServiceOverloadedError("full", pending=7, limit=5))
        with pytest.raises(ServiceOverloadedError) as excinfo:
            raise clone
        assert excinfo.value.pending == 7


# ---------------------------------------------------------------------------
# Structured results through the pipe
# ---------------------------------------------------------------------------

class TestResultPickling:
    def test_diagnosis_failure_roundtrips(self):
        failure = DiagnosisFailure.from_exception(
            "dev-1", {"v_out": "fail"}, WorkerCrashError("died", crashes=3),
            attempts=(AttemptRecord("ve", "error", 0.2, "boom"),),
            wall_time=0.7)
        clone = roundtrip(failure)
        assert clone == failure
        assert clone.attempts[0].engine == "ve"

    def test_provenance_roundtrips(self):
        provenance = DiagnosisProvenance(
            engine="lw",
            attempts=(AttemptRecord("ve", "timeout", 1.0, "t"),
                      AttemptRecord("lw", "ok", 0.3)),
            wall_time=1.4, degraded=True, effective_sample_size=210.5,
            notes=("degraded from 've' to 'lw'",))
        clone = roundtrip(provenance)
        assert clone == provenance

    def test_real_diagnosis_roundtrips(self, built_model):
        engine = DiagnosisEngine(built_model, FallbackPolicy())
        diagnosis = engine.diagnose(CASE)
        clone = roundtrip(diagnosis)
        assert clone.case_name == diagnosis.case_name
        assert clone.posteriors == diagnosis.posteriors
        assert clone.ranked_candidates == diagnosis.ranked_candidates
        assert clone.provenance.engine == diagnosis.provenance.engine


# ---------------------------------------------------------------------------
# JSON-safe to_dict()
# ---------------------------------------------------------------------------

class TestToDict:
    def test_diagnosis_to_dict_is_json_safe(self, built_model):
        engine = DiagnosisEngine(built_model, FallbackPolicy())
        payload = engine.diagnose(CASE).to_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["ok"] is True
        assert decoded["case_name"] == CASE.name
        assert decoded["provenance"]["engine"]
        ranked = decoded["ranked_candidates"]
        assert ranked and isinstance(ranked[0][0], str)
        assert all(isinstance(probability, float)
                   for _, probability in ranked)
        for distribution in decoded["posteriors"].values():
            assert abs(sum(distribution.values()) - 1.0) < 1e-6

    def test_failure_to_dict_is_json_safe(self):
        failure = DiagnosisFailure.from_exception(
            "dev-2", {"v_out": "fail"},
            DeadlineExceededError("late", remaining=-0.5, deadline=1.0),
            attempts=(AttemptRecord("ve", "timeout", 1.0, "t"),))
        decoded = json.loads(json.dumps(failure.to_dict()))
        assert decoded["ok"] is False
        assert decoded["error_type"] == "DeadlineExceededError"
        assert decoded["attempts"][0]["outcome"] == "timeout"

    def test_provenance_to_dict_round_trips_values(self):
        provenance = DiagnosisProvenance(
            engine="gibbs", attempts=(AttemptRecord("gibbs", "ok", 0.2),),
            wall_time=0.2, degraded=True, effective_sample_size=77.0,
            notes=("low ESS",))
        decoded = json.loads(json.dumps(provenance.to_dict()))
        assert decoded == {
            "engine": "gibbs",
            "attempts": [{"engine": "gibbs", "outcome": "ok",
                          "elapsed": 0.2, "error": None}],
            "wall_time": 0.2,
            "degraded": True,
            "effective_sample_size": 77.0,
            "evidence_issues": [],
            "notes": ["low ESS"],
        }

    def test_stats_to_dict_is_json_safe(self):
        stats = ServiceStats(
            workers=2, workers_alive=2, workers_quarantined=0, queue_depth=0,
            in_flight=4, submitted=10, completed=6, failed=0, shed=1,
            chunk_retries=2, respawns=1, probes=0, chunk_latency_p50=0.01,
            chunk_latency_p99=None, uptime=3.5)
        decoded = json.loads(json.dumps(stats.to_dict()))
        assert decoded["in_flight"] == 4
        assert decoded["chunk_latency_p99"] is None
