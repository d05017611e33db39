"""The benchmark's own tests: toy-sized runs and the correctness gate.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root of
the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import spans
import traffic
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.3",
         "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        metrics = result["metrics"]
        assert metrics["serving.request_count"]["value"] > 0
        assert metrics["circuits.devices_per_s"]["value"] > 0
        assert metrics["bayesnet.inference.rows_per_case"]["value"] > 0
        trace_file = ROOT / ".perfbench" / f"trace-{workload}-seed3.json"
        spans_written = json.loads(trace_file.read_text())["processes"]
        trace_file.unlink()
        assert spans_written and spans_written[0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {item["name"]: item["why"] for item in spec["workloads"]} \
        == workloads.WORKLOADS
    assert {item["name"]: item["unit"] for item in spec["end_to_end"]} \
        == workloads.END_TO_END
    assert {item["name"]: item["unit"] for item in spec["per_layer"]} \
        == workloads.PER_LAYER
    bounds = {item["name"]: item["bound"] for item in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("returns", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def answered(tmp_path_factory):
    """A toy model, one returns slice and the engine's answers to it."""
    from repro.core import DiagnosisEngine

    inputs = traffic.Inputs(workloads.SCALES["toy"],
                            tmp_path_factory.mktemp("inputs"))
    piece = inputs.returns_slice(60, 5, 0, 0)
    built, _ = inputs.rebuild(traffic.paper_lot(inputs),
                              traffic.PAPER_PRIOR_SEED, piece)
    inputs.close()
    results = DiagnosisEngine(built).diagnose_batch(
        piece.evidence, names=piece.names, on_error="collect")
    return oracle.EnumerationOracle(built.network), piece, results


def test_gate_accepts_the_engine_answers(answered):
    model_oracle, piece, results = answered
    oracle.check_slots(piece, results, "toy")
    slots = [slot for slot in range(len(piece)) if slot not in piece.malformed]
    oracle.check_posteriors(model_oracle, piece, results, slots, "toy")
    oracle.check_same_suspects(results, results, "toy")


def test_gate_trips_on_one_perturbed_posterior(answered):
    model_oracle, piece, results = answered
    slot = min(set(range(len(piece))) - piece.malformed)
    variable = next(name for name in results[slot].posteriors
                    if name not in piece.evidence[slot])
    distribution = results[slot].posteriors[variable]
    label = next(iter(distribution))
    original = distribution[label]
    distribution[label] = original + 1e-6
    try:
        with pytest.raises(oracle.CheckFailure, match="off by"):
            oracle.check_posteriors(model_oracle, piece, results, [slot], "toy")
    finally:
        distribution[label] = original


def test_gate_trips_on_lost_or_wrong_slots(answered):
    _, piece, results = answered
    with pytest.raises(oracle.CheckFailure, match="slots lost"):
        oracle.check_slots(piece, results[:-1], "toy")
    bad = min(piece.malformed)
    good = min(set(range(len(piece))) - piece.malformed)
    swapped = list(results)
    swapped[bad] = results[good]
    with pytest.raises(oracle.CheckFailure, match="lost or out of order"):
        oracle.check_slots(piece, swapped, "toy")
    served = list(results)
    served[good] = results[bad]
    with pytest.raises(oracle.CheckFailure, match="in-process gave"):
        oracle.check_same_suspects(results, served, "toy")


def test_traffic_is_a_function_of_the_seed(answered, tmp_path):
    _, piece, _ = answered
    inputs = traffic.Inputs(workloads.SCALES["toy"], tmp_path)
    try:
        again = inputs.returns_slice(60, 5, 0, 0)
    finally:
        inputs.close()
    assert again.evidence == piece.evidence and again.truth == piece.truth
    assert again.malformed == piece.malformed and len(piece.malformed) >= 1


class _Layer:
    def outer(self, items):
        time_sink = sum(range(2000))
        return self.inner(items) + time_sink * 0

    def inner(self, items):
        return len(items)


def test_span_recorder_self_time_and_restore():
    recorder = spans.SpanRecorder()
    original = _Layer.outer
    recorder.wrap(_Layer, "outer", "outer", count=lambda args, result: result)
    recorder.wrap(_Layer, "inner", "inner")
    recorder.wrap(_Layer, "missing", "missing")
    recorder.install("p1")
    assert _Layer().outer([1, 2, 3]) == 3
    recorder.uninstall()
    assert _Layer.outer is original
    _Layer().outer([1])                      # not recorded once uninstalled
    totals = recorder.summary("p1")
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 1
    assert totals["outer"]["count"] == 3
    assert np.isclose(totals["outer"]["self"],
                      totals["outer"]["time"] - totals["inner"]["time"])
    assert "missing" not in totals
