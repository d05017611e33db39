"""One measuring process of a benchmark run; ``run.py`` starts it.

The process sets up (imports, the paper's model, traffic, a 1-worker
service, one untimed warm-up pass), then runs timed passes until its
window closes, checking every pass's answers before the pass counts.
It writes its raw figures as JSON to ``--out`` and exits 0, or exits 3
without writing anything when a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import spans
import traffic
import workloads
from repro.core import DiagnosisEngine
from repro.serving import DiagnosisService, ServiceConfig

#: Timed passes each process runs at least, whatever its window.
MIN_PASSES = 2
#: Seconds a served batch may take before the run is declared broken.
SERVE_TIMEOUT_S = 120.0
#: Traffic keys of the untimed set-up work, apart from the timed passes'.
SETUP_QUERY, WARMUP_PASS = 1 << 20, (1 << 20) + 1


#: The reference kernel's matrix: row-stochastic, so repeated products stay
#: bounded and never reach subnormal numbers.
_REFERENCE_MATRIX = np.arange(48 * 48, dtype=float).reshape(48, 48) % 7 + 1.0
_REFERENCE_MATRIX /= _REFERENCE_MATRIX.sum(axis=1, keepdims=True)


def reference_s() -> float:
    """Seconds a fixed kernel of dict updates and small einsums takes now.

    The kernel shares no code with ``repro``, so its time measures only how
    fast the host runs at that moment; ``run.py`` scales each timed section
    by the kernel's times just before and just after it.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for value in range(20000):
        table[value % 97] = table.get(value % 97, 0) + value * value % 7
    product = _REFERENCE_MATRIX
    for _ in range(150):
        product = np.einsum("ij,jk->ik", _REFERENCE_MATRIX, product)
    return time.perf_counter() - start


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


class Process:
    """The state of one measuring process."""

    def __init__(self, args) -> None:
        self.args = args
        self.scale = workloads.SCALES[args.scale]
        self.trace = bool(args.trace)
        self.rng = np.random.default_rng([args.seed, args.index, 99])
        self.recorder = spans.layer_recorder() if self.trace else None
        self.inputs = traffic.Inputs(self.scale, Path(args.workdir))
        self.passes: list[dict] = []
        self.rebuild_layers: list[dict] = []
        self.diagnose_layers: list[dict] = []
        self.case_wall_s: list[float] = []
        self.hits = {"scored": 0, "recall": 0, "top1": 0}
        self.attempted = 0
        self.last = None

    # ----------------------------------------------------------------- checks
    def check_pass(self, label: str, piece, inproc, served) -> None:
        oracle.check_slots(piece, inproc, f"{label} in-process")
        oracle.check_slots(piece, served, f"{label} served")
        oracle.check_same_suspects(inproc, served, label)
        for results, where in ((inproc, "in-process"), (served, "served")):
            oracle.check_posteriors(
                self.oracle, piece, results,
                oracle.sample_slots(piece, self.scale.oracle_checks, self.rng),
                f"{label} {where}")

    def check_first_query(self, label: str, built, piece, results) -> None:
        oracle.check_slots(piece, results, label)
        oracle.check_posteriors(
            oracle.EnumerationOracle(built.network), piece, results,
            oracle.sample_slots(piece, self.scale.oracle_checks, self.rng),
            label)

    def add_score(self, piece, results) -> None:
        scored, recall, top1 = oracle.score(piece, results)
        self.hits["scored"] += scored
        self.hits["recall"] += recall
        self.hits["top1"] += top1

    # ----------------------------------------------------------------- tracing
    def start_trace(self, pass_id: str, traced: bool) -> None:
        if traced:
            self.recorder.install(pass_id)

    def stop_trace(self, traced: bool) -> None:
        if traced:
            self.recorder.uninstall()

    # ----------------------------------------------------------------- setup
    def setup(self) -> None:
        args, scale, inputs = self.args, self.scale, self.inputs
        paper_lot = traffic.paper_lot(inputs)
        warm = inputs.returns_slice(scale.query_cases, args.seed, args.index,
                                    SETUP_QUERY)
        self.built, first = inputs.rebuild(paper_lot, traffic.PAPER_PRIOR_SEED,
                                           warm)
        self.check_first_query("set-up rebuild", self.built, warm, first)
        self.attempted += 1 + len(warm)
        self.oracle = oracle.EnumerationOracle(self.built.network)
        self.lot = inputs.write_lot("rebuild-lot", traffic.LOT_SIMULATOR_SEED,
                                    traffic.LOT_POPULATION_SEED,
                                    scale.lot_devices)
        self.service = DiagnosisService(
            self.built, config=ServiceConfig(num_workers=1))
        self.run_pass(WARMUP_PASS, warmup=True)

    # ---------------------------------------------------------------- passes
    def slice_for(self, number: int):
        args, scale = self.args, self.scale
        if args.workload == "sampled":
            return self.inputs.sampled_slice(self.built.network,
                                             scale.sampled_cases, args.seed,
                                             args.index, number)
        return self.inputs.returns_slice(scale.returns_cases, args.seed,
                                         args.index, number)

    def run_pass(self, number: int, warmup: bool = False,
                 traced: bool = False) -> None:
        piece = self.slice_for(number)
        label = f"pass {number}"
        steal0, total0 = cpu_ticks()
        figures: dict = {"traced": traced}
        rebuild_ref = None
        if not warmup and number % workloads.REBUILD_EVERY == 0:
            prior_seed = traffic.seeds(self.args.seed, self.args.index,
                                        number, 3)[0]
            gc.collect()
            rebuild_ref = reference_s()
            self.start_trace(f"r{number}", traced)
            start, cpu = time.perf_counter(), time.process_time()
            built, first = self.inputs.rebuild(self.lot, prior_seed, piece)
            figures["train_s"] = time.perf_counter() - start
            figures["train_cpu_s"] = time.process_time() - cpu
            self.stop_trace(traced)
            self.check_first_query(f"{label} rebuild", built, piece, first)
            self.attempted += 1 + len(piece)
            if traced:
                self.rebuild_layers.append(
                    spans.rebuild_layers(self.recorder.summary(f"r{number}")))

        gc.collect()
        # Each section's reference time is the mean of the kernel's runs
        # just before and just after it.
        inproc_ref = reference_s()
        if rebuild_ref is not None:
            figures["train_ref_s"] = (rebuild_ref + inproc_ref) / 2
        self.start_trace(f"d{number}", traced)
        start, cpu = time.perf_counter(), time.process_time()
        inproc = DiagnosisEngine(self.built).diagnose_batch(
            piece.evidence, names=piece.names, on_error="collect")
        figures["inproc_s"] = time.perf_counter() - start
        figures["inproc_cpu_s"] = time.process_time() - cpu
        self.stop_trace(traced)
        served_ref = reference_s()
        figures["inproc_ref_s"] = (inproc_ref + served_ref) / 2
        start = time.perf_counter()
        served = self.service.diagnose_batch(piece.evidence, names=piece.names,
                                             timeout=SERVE_TIMEOUT_S)
        figures["served_s"] = time.perf_counter() - start
        figures["served_ref_s"] = (served_ref + reference_s()) / 2
        steal1, total1 = cpu_ticks()

        self.check_pass(label, piece, inproc, served)
        self.attempted += 2 * len(piece)
        if warmup:
            return
        self.add_score(piece, inproc)
        walls = [result.provenance.wall_time for result in served
                 if result.ok and result.provenance is not None]
        self.case_wall_s.extend(walls)
        figures.update(
            cases=len(piece), devices=piece.devices,
            distinct=piece.distinct_rows(), scored=piece.scored(),
            malformed=len(piece.malformed), busy_s=sum(walls),
            steal=steal1 - steal0, ticks=total1 - total0)
        self.passes.append(figures)
        if traced:
            self.diagnose_layers.append(
                spans.diagnose_layers(self.recorder.summary(f"d{number}")))
        self.last = (piece, inproc, served)

    def measure(self) -> None:
        minimum = 2 * MIN_PASSES if self.trace else MIN_PASSES
        deadline = time.perf_counter() + self.args.seconds
        number = 0
        while number < minimum or time.perf_counter() < deadline:
            self.run_pass(number, traced=self.trace and number % 2 == 1)
            number += 1

    def requests(self) -> list[float]:
        """Closed-loop single-device requests: one client, one outstanding."""
        piece, inproc, _ = self.last
        slots = [slot for slot in range(len(piece)) if slot not in piece.malformed]
        latencies = []
        for number in range(self.scale.requests):
            slot = slots[number % len(slots)]
            start = time.perf_counter()
            (result,) = self.service.diagnose_batch(
                [piece.evidence[slot]], names=[piece.names[slot]],
                timeout=SERVE_TIMEOUT_S)
            latencies.append(time.perf_counter() - start)
            if not result.ok or result.suspects != inproc[slot].suspects:
                raise oracle.CheckFailure(
                    f"single-device request for slot {slot} returned "
                    f"{oracle.outcome(result)}, in-process gave "
                    f"{oracle.outcome(inproc[slot])}")
        self.attempted += len(latencies)
        return latencies

    # ---------------------------------------------------------------- record
    def run(self) -> dict:
        steal0, total0 = cpu_ticks()
        record: dict = {}
        try:
            self.setup()
            setup_s = time.monotonic() - self.args.t0
            self.measure()
            # Chunk latencies of the timed passes, before the single-device
            # requests below add their one-case chunks to the window.
            stats = self.service.stats()
            if self.trace:
                record["request_s"] = self.requests()
                piece, _, served = self.last
                record["result_bytes_per_case"] = \
                    len(pickle.dumps(served)) / len(piece)
        finally:
            if hasattr(self, "service"):
                self.service.shutdown()
            self.inputs.close()
        steal1, total1 = cpu_ticks()
        record.update(
            setup_s=setup_s,
            passes=self.passes,
            hits=self.hits,
            attempted=self.attempted,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            worker_peak_rss_mb=resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            steal=steal1 - steal0, ticks=total1 - total0,
            chunk_s_p50=stats.chunk_latency_p50 or 0.0,
            chunk_s_p99=stats.chunk_latency_p99 or 0.0,
            case_wall_s_p50=statistics.median(self.case_wall_s)
            if self.case_wall_s else 0.0,
            rebuild_layers=self.rebuild_layers,
            diagnose_layers=self.diagnose_layers)
        if self.trace:
            record["spans"] = self.recorder.spans
        return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        record = Process(args).run()
    except oracle.CheckFailure as failure:
        print(f"correctness check failed: {failure}", file=sys.stderr)
        return 3
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
