"""Served replies: the chunking rule, and planes rebuilt into row views.

The service splits a request by :func:`~repro.core.diagnosis.chunk_slices`
(the fewest chunks of at most ``chunk_size`` cases, equal but for the
last), and a worker replies with planes: one posterior matrix, one
ranking-order matrix and one suspect mask per chunk
(:mod:`repro.serving.worker`).  The supervisor rebuilds each slot's view.  These tests pin the chunking rule
and check every served slot against an in-process
:class:`~repro.core.diagnosis.DiagnosisEngine` with the same policy:
bit-identical answers, the same provenance and failure trails, and no
object shared between two results.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import DiagnosisEngine, Dlog2BBN, FallbackPolicy
from repro.core.diagnosis import Diagnosis, DiagnosticCase, chunk_slices
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.serving import DiagnosisService, ServiceConfig
from repro.serving.service import _views
from repro.serving.worker import _planes

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.DegradedResultWarning")

#: The observable block whose last state the model below makes impossible.
ZEROED = "reg1"


@pytest.mark.parametrize("cases, chunk_size, sizes", [
    (500, 256, [250, 250]),
    (1000, 256, [250] * 4),
    (257, 256, [129, 128]),
    (200, 256, [200]),
    (10, 8, [5, 5]),
    (5, 2, [2, 2, 1]),
    (1, 256, [1]),
    (0, 256, []),
])
def test_chunking_rule(cases, chunk_size, sizes):
    pieces = chunk_slices(cases, chunk_size)
    assert [piece.stop - piece.start for piece in pieces] == sizes
    assert [slot for piece in pieces
            for slot in range(piece.start, piece.stop)] == list(range(cases))


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


@pytest.fixture(scope="module")
def slots(built_model):
    """``(cases, names)``: d1–d5, duplicates, a mapping with an unknown
    variable, one with a padded state (repaired under ``"sanitize"``) and
    zero-probability evidence."""
    base = PAPER_DIAGNOSTIC_CASES[0]
    variable, state = next(iter(base.observable_states.items()))
    impossible = built_model.network.get_cpd(ZEROED).state_names[ZEROED][-1]
    cases = [
        *PAPER_DIAGNOSTIC_CASES,
        dataclasses.replace(PAPER_DIAGNOSTIC_CASES[1], name="d2-again"),
        {**base.evidence(), "__bogus__": "1"},
        {**base.evidence(), variable: f" {state} "},
        DiagnosticCase(name="impossible",
                       controllable_states=dict(base.controllable_states),
                       observable_states={**base.observable_states,
                                          ZEROED: impossible}),
        dataclasses.replace(PAPER_DIAGNOSTIC_CASES[1], name="d2-third"),
    ]
    return cases, [f"slot-{index}" for index in range(len(cases))]


def trail(attempts, errors: bool = False) -> list[tuple]:
    return [(attempt.engine, attempt.outcome)
            + ((attempt.error,) if errors else ()) for attempt in attempts]


def assert_same_slot(served, expected) -> None:
    """One served slot against the in-process one, bit for bit."""
    assert served.case_name == expected.case_name
    assert served.ok == expected.ok, served.case_name
    assert served.evidence == expected.evidence
    assert list(served.evidence) == list(expected.evidence)
    if not expected.ok:
        assert (served.error_type, served.message) == \
            (expected.error_type, expected.message)
        assert trail(served.attempts, True) == trail(expected.attempts, True)
        return
    assert served.suspects == expected.suspects
    # repr() spells every float exactly: equal reprs are equal bits.
    for field in ("ranked_candidates", "fail_probabilities", "posteriors"):
        assert repr(getattr(served, field)) == repr(getattr(expected, field))
    ours, theirs = served.provenance, expected.provenance
    assert (ours.engine, ours.degraded, ours.notes, ours.evidence_issues) \
        == (theirs.engine, theirs.degraded, theirs.notes,
            theirs.evidence_issues)
    assert trail(ours.attempts) == trail(theirs.attempts)


def assert_owned(results) -> None:
    """No two results share a provenance or a dict; served rows are
    read-only."""
    owned = [result.evidence for result in results]
    for result in results:
        if result.ok:
            owned += [result.provenance, result.posteriors,
                      result.fail_probabilities, result.suspects]
            assert not result._row.flags.writeable
    assert len({id(item) for item in owned}) == len(owned)


@pytest.mark.parametrize("mode", ["raise", "sanitize"])
# One chunk on one worker, and three chunks of at most 4 on two workers.
@pytest.mark.parametrize("workers, chunk_size", [(1, 256), (2, 4)])
def test_served_slots_equal_in_process(built_model, slots, mode, workers,
                                       chunk_size):
    cases, names = slots
    policy = FallbackPolicy(on_invalid_evidence=mode)
    expected = DiagnosisEngine(built_model, policy).diagnose_batch(
        cases, names=names, on_error="collect")
    with DiagnosisService(built_model, policy,
                          ServiceConfig(num_workers=workers,
                                        chunk_size=chunk_size)) as service:
        served = service.diagnose_batch(cases, names=names, timeout=120)
    assert len(served) == len(expected)
    for ours, theirs in zip(served, expected):
        assert_same_slot(ours, theirs)
    assert_owned(served)
    # Every kind of slot is present: answered, repaired, failed.
    assert {result.ok for result in expected} == {True, False}
    assert any(result.ok and result.provenance.evidence_issues
               for result in expected) == (mode == "sanitize")


def test_reply_round_trip_keeps_what_is_not_a_row_view(built_model, slots):
    """Row views travel as planes; failures and any result that is not a
    row view travel whole."""
    cases, names = slots
    results = DiagnosisEngine(built_model, FallbackPolicy()).diagnose_batch(
        cases, names=names, on_error="collect")
    plain = Diagnosis("plain", {"vp1": "2"}, {}, {}, ["hcbg"], [])
    pairs = [(slot + 7, result) for slot, result in enumerate(results)]
    pairs.insert(3, (99, plain))
    planes, whole = _planes(pairs)
    assert [slot for slot, _ in whole] == \
        [slot for slot, result in pairs if slot == 99 or not result.ok]
    # One provenance per distinct value: the clean slots share one.
    assert sum(result.ok for result in results) > 1
    assert len(planes[7]) == 1
    decoded = dict(_views(pickle.loads(pickle.dumps((planes, whole)))))
    assert sorted(decoded) == sorted(slot for slot, _ in pairs)
    assert decoded[99] == plain
    for slot, result in pairs:
        if slot != 99:
            assert_same_slot(decoded[slot], result)
    assert_owned([decoded[slot] for slot in sorted(decoded) if slot != 99])
