"""Tests for the diagnosis engine, candidate deduction, reports and metrics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DiagnosisEngine,
    DiagnosisMetrics,
    DiagnosticCase,
    DiagnosticReport,
    FallbackPolicy,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.core.report import case_summary_table
from repro.exceptions import DiagnosisError

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints the regulator's suspects with every internal block at fail
#: probability 0.6, where the two internal roots, lcbg and vx, tie.
TIED_DEDUCTION = """
from repro.circuits import build_voltage_regulator
from repro.core import DiagnosisEngine, Dlog2BBN
circuit = build_voltage_regulator()
engine = DiagnosisEngine(Dlog2BBN(circuit.model, circuit.healthy_states).build())
print(" ".join(engine.deduce_candidates(
    {block: {engine.healthy_states[block]: 0.4}
     for block in circuit.model.internal_variables})))
"""


class TestPosteriorUpdate:
    def test_evidence_variables_pinned(self, regulator_engine):
        case = PAPER_DIAGNOSTIC_CASES[1]
        diagnosis = regulator_engine.diagnose(case)
        for variable, state in case.evidence().items():
            assert diagnosis.posteriors[variable][state] == pytest.approx(1.0)

    def test_posteriors_are_distributions(self, regulator_engine):
        diagnosis = regulator_engine.diagnose(PAPER_DIAGNOSTIC_CASES[0])
        for distribution in diagnosis.posteriors.values():
            assert np.isclose(sum(distribution.values()), 1.0, atol=1e-6)

    def test_initial_probabilities_cover_all_variables(self, regulator_engine,
                                                       regulator_circuit):
        initial = regulator_engine.initial_probabilities()
        assert set(initial) == set(regulator_circuit.model.variable_names)

    def test_invalid_evidence_state_rejected(self, regulator_engine):
        with pytest.raises(Exception):
            regulator_engine.update({"reg1": "99"})

    def test_ve_and_jt_engines_agree(self, regulator_built_model):
        ve = DiagnosisEngine(regulator_built_model,
                             FallbackPolicy(chain=("ve",)))
        jt = DiagnosisEngine(regulator_built_model,
                             FallbackPolicy(chain=("jt",)))
        case = PAPER_DIAGNOSTIC_CASES[4]
        left = ve.diagnose(case)
        right = jt.diagnose(case)
        for variable in left.fail_probabilities:
            assert np.isclose(left.fail_probabilities[variable],
                              right.fail_probabilities[variable], atol=1e-6)
        assert left.suspects == right.suspects

    def test_unknown_inference_engine_rejected(self, regulator_built_model):
        with pytest.raises(DiagnosisError):
            DiagnosisEngine(regulator_built_model,
                            FallbackPolicy(chain=("oracle",)))

    def test_bad_thresholds_rejected(self, regulator_built_model):
        with pytest.raises(DiagnosisError):
            DiagnosisEngine(regulator_built_model, abnormal_threshold=0.2,
                            ambiguous_threshold=0.4)


class TestDiagnosisInterfaces:
    def test_diagnose_evidence_splits_roles(self, regulator_engine):
        evidence = {"vp1": "2", "vp1x": "4", "vp2": "2", "enb13_pin": "1",
                    "enb4_pin": "1", "enbsw_pin": "1", "reg1": "1", "reg2": "1",
                    "reg3": "1", "reg4": "1", "sw": "0"}
        diagnosis = regulator_engine.diagnose_evidence(evidence, name="adhoc")
        assert diagnosis.case_name == "adhoc"
        assert diagnosis.suspects == ["enbsw"]

    def test_diagnose_measurements_discretises(self, regulator_engine):
        conditions = {"vp1": 13.5, "vp1x": 13.5, "vp2": 8.0,
                      "enb13_pin": 2.2, "enb4_pin": 2.2, "enbsw_pin": 2.2}
        measurements = {"reg1": 8.5, "reg2": 5.0, "reg3": 5.0, "reg4": 3.3,
                        "sw": 0.1}
        diagnosis = regulator_engine.diagnose_measurements(conditions, measurements)
        assert diagnosis.suspects == ["enbsw"]

    def test_rank_and_top_candidate(self, regulator_engine):
        diagnosis = regulator_engine.diagnose(PAPER_DIAGNOSTIC_CASES[1])
        assert diagnosis.top_candidate() == "enb13"
        assert diagnosis.rank_of("enb13") == 1
        with pytest.raises(DiagnosisError):
            diagnosis.rank_of("reg1")  # observable, not an internal candidate

    def test_ranked_candidates_sorted(self, regulator_engine):
        diagnosis = regulator_engine.diagnose(PAPER_DIAGNOSTIC_CASES[0])
        probabilities = [p for _, p in diagnosis.ranked_candidates]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_tied_suspects_keep_model_order_under_any_hash_seed(self):
        """Equal fail probabilities list in ``internal_variables`` order,
        whatever order string hashing gives a set."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        runs = [subprocess.Popen([sys.executable, "-c", TIED_DEDUCTION],
                                 stdout=subprocess.PIPE, text=True,
                                 env={**env, "PYTHONHASHSEED": seed})
                for seed in ("0", "1", "4", "5")]
        outputs = [run.communicate(timeout=120)[0].split() for run in runs]
        assert [run.returncode for run in runs] == [0] * len(runs)
        assert outputs == [["lcbg", "vx"]] * len(runs)


class TestReports:
    def test_table7_style_report(self, regulator_built_model, regulator_engine):
        initial = regulator_engine.initial_probabilities()
        diagnoses = [regulator_engine.diagnose(case)
                     for case in PAPER_DIAGNOSTIC_CASES[:2]]
        report = DiagnosticReport(regulator_built_model, initial, diagnoses)
        text = report.to_text()
        assert "warnvpst" in text
        assert "d1.(%)" in text
        rows = report.rows()
        # One row per (variable, state) pair.
        expected_rows = sum(regulator_built_model.description.cardinalities().values())
        assert len(rows) == expected_rows

    def test_report_probability_lookup(self, regulator_built_model,
                                       regulator_engine):
        initial = regulator_engine.initial_probabilities()
        diagnosis = regulator_engine.diagnose(PAPER_DIAGNOSTIC_CASES[1])
        report = DiagnosticReport(regulator_built_model, initial, [diagnosis])
        assert report.probability("d2", "reg4", "1") == pytest.approx(1.0)
        with pytest.raises(DiagnosisError):
            report.probability("d9", "reg4", "1")

    def test_case_summary_table(self, regulator_engine):
        diagnoses = [regulator_engine.diagnose(case)
                     for case in PAPER_DIAGNOSTIC_CASES]
        text = case_summary_table(PAPER_DIAGNOSTIC_CASES, diagnoses)
        assert "d4" in text
        assert "lcbg" in text


class TestMetrics:
    def test_metrics_from_diagnoses(self, regulator_engine):
        diagnoses = [regulator_engine.diagnose(case)
                     for case in PAPER_DIAGNOSTIC_CASES]
        true_blocks = ["hcbg", "enb13", "warnvpst", "lcbg", "enbsw"]
        metrics = DiagnosisMetrics.from_diagnoses(diagnoses, true_blocks)
        summary = metrics.summary()
        assert summary["devices"] == 5
        assert 0.0 <= summary["top1_accuracy"] <= 1.0
        assert summary["top3_accuracy"] >= summary["top1_accuracy"]
        assert summary["mean_rank"] >= 1.0

    def test_mismatched_lengths_rejected(self, regulator_engine):
        diagnosis = regulator_engine.diagnose(PAPER_DIAGNOSTIC_CASES[0])
        with pytest.raises(DiagnosisError):
            DiagnosisMetrics.from_diagnoses([diagnosis], ["hcbg", "lcbg"])

    def test_empty_metrics_raise(self):
        with pytest.raises(DiagnosisError):
            DiagnosisMetrics().summary()
