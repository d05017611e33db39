"""Span recorder for the traced run (stdlib only).

The recorder wraps public functions at each layer boundary of ``repro``
from outside the package: nothing under ``src/`` changes.  A span is
``[name, start, end, parent, pass_id, count, cpu]``; spans stay in memory
and are written to one JSON file when the run ends.  A span's self time
is its duration minus the durations of its children (calls nest on the
one thread that records, so children never overlap).

Only the recording process and thread are traced: service workers forked
while wrappers are installed pass every call straight through, because
worker-side time comes from the public ``provenance`` and ``ServiceStats``.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, PASS, COUNT, CPU = range(7)


class SpanRecorder:
    """Records nested spans around wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._installed = False

    def wrap(self, owner, attribute: str, name: str, *, count=None,
             cpu: bool = False) -> None:
        """Trace ``owner.attribute`` as span ``name`` once installed.

        ``count(args, result)`` is evaluated after the pass (see
        :meth:`resolve`), so counting adds nothing to any span.  A missing
        attribute is skipped: the layer no longer exists on that path.
        """
        original = getattr(owner, attribute, None)
        if original is None:
            return
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if (not recorder._installed or os.getpid() != recorder._pid
                    or threading.get_ident() != recorder._thread):
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0,
                    recorder._stack[-1] if recorder._stack else -1,
                    recorder.pass_id, None, None]
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            cpu_start = time.process_time() if cpu else 0.0
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                if cpu:
                    span[CPU] = time.process_time() - cpu_start
                recorder._stack.pop()
            if count is not None:
                span[COUNT] = (count, args, result)
            return result

        self._patches.append((owner, attribute, original, wrapper))

    def install(self, pass_id: str) -> None:
        self.pass_id = pass_id
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        self._installed = False
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)
        self.resolve()

    def resolve(self) -> None:
        """Turn deferred counts into numbers and drop the captured objects."""
        for span in self.spans:
            if isinstance(span[COUNT], tuple):
                count, args, result = span[COUNT]
                span[COUNT] = count(args, result)

    def summary(self, pass_id: str) -> dict[str, dict[str, float]]:
        """Per span name: total ``time``, ``self`` time, ``count``, ``cpu``."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"time": 0.0, "self": 0.0, "count": 0.0, "cpu": 0.0,
                     "calls": 0})
        for index, span in enumerate(self.spans):
            if span[PASS] != pass_id:
                continue
            entry = totals[span[NAME]]
            duration = span[END] - span[START]
            entry["time"] += duration
            entry["self"] += duration - child_time[index]
            entry["count"] += span[COUNT] or 0
            entry["cpu"] += span[CPU] or 0.0
            entry["calls"] += 1
        return totals


def distinct_rows(args, result) -> int:
    """Rows a batched VE sweep computes: it deduplicates the evidence it gets."""
    return len({frozenset(evidence.items()) for evidence in args[1]})


def layer_recorder() -> SpanRecorder:
    """A recorder wrapping each layer boundary the benchmark measures."""
    from repro.ate import datalog
    from repro.bayesnet import inference
    from repro.bayesnet.learning import BayesianEstimator
    from repro.core import DiagnosisEngine, Dlog2BBN, diagnosis
    from repro.core.behavioral_prior import SimulationPriorBuilder
    from repro.core.case_generation import CaseGenerator
    from repro.persist import ModelRegistry

    recorder = SpanRecorder()
    recorder.wrap(SimulationPriorBuilder, "build", "core.behavioral_prior.build")
    recorder.wrap(SimulationPriorBuilder, "simulate_case_matrix",
                  "circuits.simulate",
                  count=lambda args, result: args[0].samples)
    recorder.wrap(BayesianEstimator, "fit", "bayesnet.learning.fit")
    recorder.wrap(datalog, "read_columnar", "ate.datalog.ingest",
                  count=lambda args, result:
                  result.device_count * result.test_count)
    recorder.wrap(CaseGenerator, "case_matrix", "core.case_generation.encode")
    recorder.wrap(Dlog2BBN, "build", "core.model_builder.build")
    recorder.wrap(ModelRegistry, "publish", "persist.publish")
    recorder.wrap(DiagnosisEngine, "diagnose_batch", "core.diagnosis.batch",
                  count=lambda args, result: len(args[1]), cpu=True)
    recorder.wrap(diagnosis, "validate_evidence", "core.evidence.validate")
    # The batched sweep on the default path: interpreted VE today, the
    # compiled program's batch run if compiled execution becomes default.
    recorder.wrap(inference.VariableElimination, "posteriors_batch",
                  "bayesnet.inference.sweep", count=distinct_rows)
    recorder.wrap(getattr(inference, "CompiledProgram", None), "run_batch",
                  "bayesnet.inference.sweep",
                  count=lambda args, result: len(args[1]))
    return recorder


def rebuild_layers(totals) -> dict[str, float]:
    """Per-layer figures of one traced rebuild."""
    def get(name: str, key: str = "time") -> float:
        return totals[name][key] if name in totals else 0.0

    def rate(name: str) -> float:
        elapsed = get(name)
        return get(name, "count") / elapsed if elapsed > 0 else 0.0

    return {
        "circuits.simulate_s": get("circuits.simulate", "self"),
        "circuits.devices_per_s": rate("circuits.simulate"),
        "core.behavioral_prior.build_s": get("core.behavioral_prior.build"),
        "core.case_generation.encode_s": get("core.case_generation.encode"),
        "core.model_builder.build_self_s": get("core.model_builder.build",
                                               "self"),
        "core.diagnosis.first_query_s": get("core.diagnosis.batch"),
        "ate.datalog.ingest_s": get("ate.datalog.ingest"),
        "ate.datalog.records_per_s": rate("ate.datalog.ingest"),
        "bayesnet.learning.fit_s": get("bayesnet.learning.fit"),
        "persist.publish_s": get("persist.publish"),
    }


def diagnose_layers(totals) -> dict[str, float]:
    """Per-case figures of one traced in-process diagnosis pass."""
    def get(name: str, key: str = "time") -> float:
        return totals[name][key] if name in totals else 0.0

    cases = get("core.diagnosis.batch", "count") or 1.0
    return {
        "core.evidence.validate_us_per_case":
            get("core.evidence.validate") / cases * 1e6,
        "core.diagnosis.batch_self_us_per_case":
            get("core.diagnosis.batch", "self") / cases * 1e6,
        "core.diagnosis.cpu_us_per_case":
            get("core.diagnosis.batch", "cpu") / cases * 1e6,
        "bayesnet.inference.sweep_us_per_case":
            get("bayesnet.inference.sweep") / cases * 1e6,
        "bayesnet.inference.rows_per_case":
            get("bayesnet.inference.sweep", "count") / cases,
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median of per-pass figures."""
    if not rows:
        return {}
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
