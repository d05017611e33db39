"""End-to-end benchmark of the block-level diagnosis pipeline.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload returns --seed 1 --seconds 45 --trace 0

Workloads (their reasons live in ``workloads.WORKLOADS``):

* ``returns`` -- diagnose the paper's customer-return traffic in process
  and through a 1-worker ``DiagnosisService``.
* ``sampled`` -- the same on evidence forward-sampled from the model, where
  inference, not caching, does the work.

On both, every third pass also rebuilds the model: designer-prior
simulation, datalog ingest, case encoding, CPT fit, publish, first query.

A run starts several fresh measuring processes (``child.py``) one after the
other, each with the same fixed ``PYTHONHASHSEED``, and splits ``--seconds``
between them.  Each sets up, runs one untimed warm-up pass, then times
short passes on fresh slices of traffic.  Rates and rebuild times are
medians over the pooled passes, each scaled to a fixed host speed by a
reference kernel timed just before and after it (see ``end_to_end``);
``setup_s`` is the median over the processes.  Every pass's answers are
checked (see ``oracle.py``); if any check fails the run exits non-zero and
prints no numbers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes, prints the per-layer metrics and writes the
spans to ``.perfbench/trace-<workload>-seed<seed>.json``.  The last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: One fixed hash seed for every measuring process, on every commit.
HASH_SEED = "0"
#: Wall-clock budget of a whole run, every measuring process included.
RUN_BUDGET_S = 170.0


class RunFailed(Exception):
    """A measuring process failed, timed out or left no figures."""


def stop_group(child: subprocess.Popen, patience_s: float = 5.0) -> None:
    """Kill a measuring process's group (it and its service worker) and wait.

    The process shuts its worker down itself; this only acts when it died
    or timed out, and waits up to ``patience_s`` for the group to empty.
    """
    end = time.monotonic() + patience_s
    try:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        while time.monotonic() < end:
            os.killpg(child.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def measure(args, workdir: Path) -> list[dict]:
    """Run the measuring processes one after the other; return their figures."""
    scale = workloads.SCALES[args.scale]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=str(ROOT / "src"))
    deadline = time.monotonic() + RUN_BUDGET_S
    records = []
    for index in range(scale.processes):
        out = workdir / f"process-{index}.json"
        start = time.monotonic()
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / scale.processes),
                   "--trace", str(args.trace), "--index", str(index),
                   "--scale", args.scale, "--t0", repr(start),
                   "--workdir", str(workdir / f"inputs-{index}"),
                   "--out", str(out)]
        (workdir / f"inputs-{index}").mkdir()
        child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                                 start_new_session=True)
        try:
            code = child.wait(timeout=max(deadline - start, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_group(child)
        if code is None:
            raise RunFailed(f"measuring process {index} ran out of time")
        if code != 0 or not out.is_file():
            raise RunFailed(f"measuring process {index} exited with {code}")
        records.append(json.loads(out.read_text()))
    return records


def _passes(records, traced: bool | None = None) -> list[dict]:
    return [figures for record in records for figures in record["passes"]
            if traced is None or figures["traced"] == traced]


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q / 100.0 * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


#: Seconds the reference kernel (``child.reference_s``) takes on the host
#: every timed section is scaled to: about its median on a 2-vCPU KVM guest
#: of a 2.1 GHz Xeon host, so scaled and unscaled figures are close there.
REFERENCE_S = 0.0135


def scaled(figures: dict, section: str) -> float:
    """A pass section's time on a host running at the reference speed."""
    return (figures[f"{section}_s"] * REFERENCE_S
            / figures[f"{section}_ref_s"])


def end_to_end(records: list[dict]) -> dict[str, float]:
    """The gated metrics of an untraced run.

    Rates and rebuild time are medians over the pooled passes, each pass's
    section scaled by the reference kernel timed just before and after it.
    On a shared 2-vCPU virtual machine the host's speed drifts over seconds
    to minutes as its other tenants come and go, and a whole run can fall
    in a fast or slow stretch; raw medians move with it, and so does the
    kernel.  Over ten runs per workload (seeds 101-110) on such a machine,
    the interquartile range over median of the unscaled medians was 6.8%,
    5.1% and 4.9% on ``returns`` (diagnose, serve, train) and 6.1%, 17.4%
    and 6.5% on ``sampled``, whose runs met up to 12% steal; of the scaled
    figures, 1.0%, 2.7% and 6.2%, and 1.5%, 6.8% and 5.5%.  The kernel runs
    while the program has no call in flight, so only work a change leaves
    running between calls could slow it.  The unscaled medians are in the
    host record.
    """
    passes = _passes(records, traced=False)
    scored = sum(record["hits"]["scored"] for record in records)
    return {
        "setup_s": median(record["setup_s"] for record in records),
        "train_s": median(scaled(figures, "train") for figures in passes
                          if "train_s" in figures),
        "diagnose_cases_per_s": median(
            figures["cases"] / scaled(figures, "inproc") for figures in passes),
        "serve_cases_per_s": median(
            figures["cases"] / scaled(figures, "served") for figures in passes),
        "suspect_recall": sum(record["hits"]["recall"] for record in records)
        / scored,
        "top1_accuracy": sum(record["hits"]["top1"] for record in records)
        / scored,
        # The complement of the share of attempts with an unexpected outcome
        # (a zero share cannot carry a relative bound).  Any unexpected
        # outcome fails the run before this point, so it reads 1 whenever
        # the run prints.
        "ok_share": 1.0,
        "peak_rss_mb": median(record["peak_rss_mb"] for record in records),
    }


def traffic_figures(records: list[dict]) -> dict[str, float]:
    passes = _passes(records)
    return {
        "traffic.distinct_row_share": median(
            figures["distinct"] / figures["cases"] for figures in passes),
        "traffic.scored_share": median(
            figures["scored"] / figures["cases"] for figures in passes),
        "traffic.malformed_share": median(
            figures["malformed"] / figures["cases"] for figures in passes),
        "traffic.cases_per_pass": median(
            figures["cases"] for figures in passes),
        "traffic.devices_per_pass": median(
            figures["devices"] for figures in passes),
    }


def steal_share(records: list[dict]) -> float:
    ticks = sum(record["ticks"] for record in records)
    return sum(record["steal"] for record in records) / ticks if ticks else 0.0


def per_layer(records: list[dict]) -> dict[str, float]:
    untraced = _passes(records, traced=False)
    traced = _passes(records, traced=True)
    requests = [latency for record in records
                for latency in record.get("request_s", ())]
    metrics = spans.medians([row for record in records
                             for row in record["rebuild_layers"]])
    metrics.update(spans.medians([row for record in records
                                  for row in record["diagnose_layers"]]))
    metrics.update({
        "core.robust.case_us_p50": median(
            record["case_wall_s_p50"] for record in records) * 1e6,
        "serving.overhead_x": median(
            figures["served_s"] / figures["inproc_s"] for figures in untraced),
        "serving.worker_busy_share": median(
            figures["busy_s"] / figures["served_s"] for figures in untraced),
        "serving.chunk_ms_p50": median(
            record["chunk_s_p50"] for record in records) * 1e3,
        "serving.chunk_ms_p99": median(
            record["chunk_s_p99"] for record in records) * 1e3,
        "serving.result_bytes_per_case": median(
            record["result_bytes_per_case"] for record in records),
        "serving.request_ms_p50": _percentile(requests, 50.0) * 1e3,
        "serving.request_ms_p99": _percentile(requests, 99.0) * 1e3,
        "serving.request_count": len(requests),
        "serving.worker_peak_rss_mb": median(
            record["worker_peak_rss_mb"] for record in records),
        "host.steal_share": steal_share(records),
        "host.reference_ms": median(
            figures["inproc_ref_s"] for figures in untraced) * 1e3,
        "trace.overhead_share":
            median(figures["inproc_s"] for figures in traced)
            / median(figures["inproc_s"] for figures in untraced) - 1.0,
    })
    metrics.update(traffic_figures(records))
    return {name: metrics[name] for name in workloads.PER_LAYER}


def host_record(args, records: list[dict]) -> dict:
    """Where and how the figures were taken."""
    import numpy

    passes = _passes(records)
    rebuild_cpu = [figures["train_cpu_s"] for figures in passes
                   if "train_cpu_s" in figures]
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "workload_seed": args.seed,
        "hash_seed": HASH_SEED,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scale": args.scale,
        "processes": len(records),
        "seconds": args.seconds,
        "passes": len(passes),
        "setup_s": [record["setup_s"] for record in records],
        "steal_share": steal_share(records),
        "cpu_us_per_case": median(figures["inproc_cpu_s"] / figures["cases"]
                                   for figures in passes) * 1e6,
        "reference_ms": median(figures["inproc_ref_s"]
                               for figures in passes) * 1e3,
        "unscaled_diagnose_cases_per_s": median(
            figures["cases"] / figures["inproc_s"] for figures in passes),
        "unscaled_serve_cases_per_s": median(
            figures["cases"] / figures["served_s"] for figures in passes),
        "unscaled_train_s": median(figures["train_s"] for figures in passes
                                   if "train_s" in figures),
        "cpu_s_per_rebuild": median(rebuild_cpu),
        **{name.split(".", 1)[1]: value
           for name, value in traffic_figures(records).items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="full",
                        help="input sizes; 'toy' is for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark failed: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # A terminated run still stops its measuring process (see ``measure``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    output = ROOT / ".perfbench"
    workdir = output / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        records = measure(args, workdir)
    except RunFailed as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host = host_record(args, records)
    if args.trace:
        metrics, units = per_layer(records), workloads.PER_LAYER
        trace_file = output / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "host": host, "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent", "pass", "count",
                            "cpu"],
            "processes": [record["spans"] for record in records]}))
    else:
        metrics, units = end_to_end(records), workloads.END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": True,
        "attempted": sum(record["attempted"] for record in records),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
