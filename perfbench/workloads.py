"""The workloads and their input sizes (no ``repro`` import needed)."""

from __future__ import annotations

import dataclasses

#: Why each workload exists (one line each; BENCHMARK.json repeats them).
WORKLOADS = {
    "returns": "the paper's traffic: failing cases of fault-injected returns "
               "with ~1% malformed records; few distinct rows, so caches and "
               "dedup absorb inference",
    "sampled": "evidence forward-sampled from the served model, faulty "
               "devices only; most rows are distinct, so inference dominates "
               "and caches cannot hide it",
}


#: A timed pass also rebuilds the model once every this many passes; the
#: rebuild's time is ``train_s``.  Odd passes are the traced ones, so every
#: third pass alternates traced and untraced rebuilds.  Model building has
#: no workload of its own: a separate one would cost a third of the runs'
#: time budget, and the periodic rebuilds already exercise every layer it
#: would, on the same 2000-device lot.
REBUILD_EVERY = 3


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes: ``full`` is the benchmark, ``toy`` its seconds-long test."""

    processes: int          # fresh measuring processes per run
    prior_samples: int      # designer-prior simulated devices per rebuild
    lot_devices: int        # failed devices in the rebuilds' datalog lot
    returns_cases: int      # cases per returns pass
    sampled_cases: int      # cases per sampled pass
    query_cases: int        # cases of the set-up model's first query
    oracle_checks: int      # posteriors checked by enumeration per result set
    requests: int           # closed-loop single-device requests (traced run)


SCALES = {
    "full": Scale(processes=3, prior_samples=3000, lot_devices=2000,
                  returns_cases=1000, sampled_cases=500, query_cases=512,
                  oracle_checks=8, requests=400),
    "toy": Scale(processes=1, prior_samples=300, lot_devices=60,
                 returns_cases=60, sampled_cases=40, query_cases=30,
                 oracle_checks=4, requests=10),
}

#: End-to-end metrics (gated) and their units.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "diagnose_cases_per_s": "1/s",
    "serve_cases_per_s": "1/s",
    "suspect_recall": "share",
    "top1_accuracy": "share",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run and their units.
PER_LAYER = {
    "circuits.simulate_s": "s",
    "circuits.devices_per_s": "1/s",
    "core.behavioral_prior.build_s": "s",
    "core.case_generation.encode_s": "s",
    "core.model_builder.build_self_s": "s",
    "core.diagnosis.first_query_s": "s",
    "core.evidence.validate_us_per_case": "us",
    "core.diagnosis.batch_self_us_per_case": "us",
    "core.diagnosis.cpu_us_per_case": "us",
    "core.robust.case_us_p50": "us",
    "ate.datalog.ingest_s": "s",
    "ate.datalog.records_per_s": "1/s",
    "bayesnet.learning.fit_s": "s",
    "bayesnet.inference.sweep_us_per_case": "us",
    "bayesnet.inference.rows_per_case": "rows/case",
    "persist.publish_s": "s",
    "serving.overhead_x": "x",
    "serving.worker_busy_share": "share",
    "serving.chunk_ms_p50": "ms",
    "serving.chunk_ms_p99": "ms",
    "serving.result_bytes_per_case": "bytes/case",
    "serving.request_ms_p50": "ms",
    "serving.request_ms_p99": "ms",
    "serving.request_count": "count",
    "serving.worker_peak_rss_mb": "MB",
    "host.steal_share": "share",
    "host.reference_ms": "ms",
    "trace.overhead_share": "share",
    "traffic.distinct_row_share": "share",
    "traffic.scored_share": "share",
    "traffic.malformed_share": "share",
    "traffic.cases_per_pass": "count",
    "traffic.devices_per_pass": "count",
}
