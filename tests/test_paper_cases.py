"""Validation against the paper's published evaluation data (Tables VI and VII).

Two layers of reproduction are tested:

1. *Method validation*: the automated candidate deduction, fed the paper's own
   published posterior probabilities (Table VII), must reproduce the suspect
   list the authors deduce manually for every case d1–d5.
2. *End-to-end reproduction*: the full pipeline (behavioural circuit,
   simulation-derived designer prior, evidence entry, deduction) must point at
   the paper's suspect blocks — exactly for d2/d3/d4/d5 and at least at one of
   the two published suspects for d1 (see EXPERIMENTS.md for the discussion).
"""

from __future__ import annotations

import pytest

from repro.core import DiagnosisEngine
from repro.core.evidence import validate_evidence
from repro.core.paper_cases import (
    PAPER_DIAGNOSTIC_CASES,
    PAPER_EXPECTED_SUSPECTS,
    PAPER_INTERNAL_PROBABILITIES,
)


def paper_posteriors_for(engine, column):
    """Combine the paper's internal-variable posteriors with pinned evidence."""
    model = engine.model
    posteriors = {}
    for variable in model.variable_names:
        labels = model.state_table(variable).labels
        healthy = engine.healthy_states[variable]
        posteriors[variable] = {label: 1.0 if label == healthy else 0.0
                                for label in labels}
    posteriors.update(PAPER_INTERNAL_PROBABILITIES[column])
    return posteriors


class TestCaseDefinitions:
    def test_five_cases_defined(self):
        assert [case.name for case in PAPER_DIAGNOSTIC_CASES] == [
            "d1", "d2", "d3", "d4", "d5"]

    def test_case_evidence_covers_all_controllables_and_observables(
            self, regulator_circuit):
        for case in PAPER_DIAGNOSTIC_CASES:
            assert set(case.controllable_states) == set(
                regulator_circuit.model.controllable_variables)
            assert set(case.observable_states) == set(
                regulator_circuit.model.observable_variables)

    def test_case_states_are_valid(self, regulator_circuit):
        for case in PAPER_DIAGNOSTIC_CASES:
            validate_evidence(regulator_circuit.model, case)

    def test_published_probabilities_are_normalised(self):
        for column, variables in PAPER_INTERNAL_PROBABILITIES.items():
            for variable, distribution in variables.items():
                assert sum(distribution.values()) == pytest.approx(1.0, abs=0.06), \
                    (column, variable)


class TestDeductionOnPaperNumbers:
    """The paper's manual reasoning, automated, on the paper's own numbers."""

    @pytest.mark.parametrize("case_name", ["d1", "d2", "d3", "d4", "d5"])
    def test_suspects_match_paper(self, regulator_engine, case_name):
        posteriors = paper_posteriors_for(regulator_engine, case_name)
        suspects = regulator_engine.deduce_candidates(posteriors)
        assert set(suspects) == set(PAPER_EXPECTED_SUSPECTS[case_name])


class TestEndToEndReproduction:
    """Full pipeline on the synthetic substrate (designer prior, no silicon)."""

    @pytest.mark.parametrize("case_name,expected", [
        ("d2", ("enb13",)),
        ("d3", ("warnvpst",)),
        ("d4", ("lcbg",)),
        ("d5", ("enbsw",)),
    ])
    def test_exact_suspect_reproduction(self, regulator_engine, case_name, expected):
        case = next(c for c in PAPER_DIAGNOSTIC_CASES if c.name == case_name)
        diagnosis = regulator_engine.diagnose(case)
        assert set(diagnosis.suspects) == set(expected)

    def test_case_d1_points_at_a_published_suspect(self, regulator_engine):
        case = PAPER_DIAGNOSTIC_CASES[0]
        diagnosis = regulator_engine.diagnose(case)
        assert set(diagnosis.suspects) & set(PAPER_EXPECTED_SUSPECTS["d1"])

    def test_evidence_rows_pin_to_certainty(self, regulator_engine):
        # Table VII shows 100 % for every evidence (controllable/observable)
        # state in every case column; the reproduction must do the same.
        for case in PAPER_DIAGNOSTIC_CASES:
            diagnosis = regulator_engine.diagnose(case)
            for variable, state in case.evidence().items():
                assert diagnosis.posteriors[variable][state] == pytest.approx(1.0)

    def test_qualitative_ordering_matches_paper(self, regulator_engine):
        # In d1 lcbg is healthy and hcbg is the more suspicious bandgap; in
        # d4 lcbg is clearly suspicious.  The reproduction must preserve that
        # qualitative contrast even if the absolute numbers differ.
        d1 = regulator_engine.diagnose(PAPER_DIAGNOSTIC_CASES[0])
        d4 = regulator_engine.diagnose(PAPER_DIAGNOSTIC_CASES[3])
        assert d1.fail_probabilities["lcbg"] < 0.2
        assert d1.fail_probabilities["hcbg"] > d1.fail_probabilities["lcbg"]
        assert d4.fail_probabilities["lcbg"] > 0.5
