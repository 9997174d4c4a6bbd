"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fill_ldc --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the run's details
(seeds, operation count, tail percentile, deterministic counts).  The
program is imported from ``src/`` of the current directory; without it
the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

#: Stores built per untraced run; ``setup_s`` is their median and the last
#: one is measured.
SETUPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root: str) -> None:
    """Put ``<root>/src`` first on the path and check ``repro`` comes from it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}/repro; run from a checkout root", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def measure(workloads, workload, store, seed, num_ops, calibrator, serve_call=None):
    if workload.serve_rate:
        serve_call = serve_call or workloads.serve_workload
        return workloads.measure_serve(
            workload, store, seed, num_ops, calibrator, serve_call
        )
    return workloads.measure_closed(workload, store, seed, num_ops, calibrator)


def end_to_end(workload, measured, setups) -> dict:
    ok = measured.attempted - measured.failed
    calls_us = [seconds * 1e6 for seconds in measured.call_s]
    return {
        "host_ops_s": measured.host_ops_s,
        "host_p50_us": percentile(calls_us, 50.0),
        "host_tail_us": percentile(calls_us, workload.tail_pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
        "ok_frac": ok / measured.attempted,
        "sim_ops_s": ok / (measured.sim_elapsed_us / 1e6),
        "sim_p50_us": percentile(measured.sim_us, 50.0),
        "sim_tail_us": percentile(measured.sim_us, workload.tail_pct),
        "write_amp": measured.write_amp,
        "space_amp": measured.space_amp,
        "slo_ok_frac": measured.slo_met / measured.attempted,
    }


def deterministic_counts(db) -> dict:
    """Registry counts of the measured phase; they repeat exactly per seed."""
    counter = db.registry.counter
    gets = counter("engine.gets")
    return {
        "flushes": counter("engine.flush_count"),
        "compactions": counter("engine.compaction_count"),
        "compaction_rounds": len(db.engine_stats.round_bytes),
        "ldc_links": counter("engine.link_count"),
        "ldc_merges": counter("engine.merge_count"),
        "compaction_read_bytes": db.device.stats.compaction_bytes_read,
        "compaction_write_bytes": db.device.stats.compaction_bytes_written,
        "user_bytes_written": counter("engine.user_bytes_written"),
        "gets": gets,
        "device_blocks_per_get": counter("engine.sstable_blocks_read") / gets if gets else 0.0,
        "cache_hits": counter("cache.hits"),
        "cache_misses": counter("cache.misses"),
        "scans": counter("engine.scans"),
        "stall_events": counter("engine.stall_events"),
    }


def registry_layer_metrics(db, measured) -> dict:
    """Per-layer figures the program's own registry already holds."""
    counter = db.registry.counter
    return {
        "cache.evictions": counter("cache.evictions"),
        "flash.gc_write_bytes": counter("device.write.gc_write.bytes"),
        "flash.blocks_erased": counter("flash.blocks_erased"),
        "flash.device_wa": db.metrics().device_write_amplification,
        "sched.chunks": counter("sched.chunks_executed"),
        "sched.stall_us": counter("engine.stall_time_us"),
        "sched.device_wait_us": counter("sched.device_wait_us"),
        "sched.slowdown_events": counter("sched.slowdown_events"),
        "serve.queue_wait_mean_us": measured.serve_wait_us,
        "serve.rejected": measured.serve_rejected,
    }


def cross_checks(db, counts) -> dict:
    """Wrapper counts against the registry counters they must equal."""
    counter = db.registry.counter
    pairs = {
        "flushes": (counts["flush.count"], counter("engine.flush_count")),
        "compaction_rounds": (counts["compaction.rounds"], len(db.engine_stats.round_bytes)),
        "ldc_links": (counts["ldc.links"], counter("engine.link_count")),
        "ldc_merges": (counts["ldc.merges"], counter("engine.merge_count")),
        "gets": (counts["lookup.gets"], counter("engine.gets")),
        "bloom_negatives": (counts["bloom.negatives"], counter("engine.bloom_negative_skips")),
        "cache_hits": (counts["cache.hits"], counter("cache.hits")),
        "cache_misses": (counts["cache.misses"], counter("cache.misses")),
        "wal_appends": (counts["wal.appends"], counter("device.write.wal_write.ops")),
    }
    return {name: {"wrapper": a, "registry": b, "equal": a == b} for name, (a, b) in pairs.items()}


def host_details(measured, calibrator, setups_s=(), raw_setups_s=()) -> dict:
    """Raw (uncalibrated) host figures and the calibration samples."""
    samples = calibrator.samples
    return {
        "setups_s": list(setups_s),
        "raw_setups_s": list(raw_setups_s),
        "raw_host_ops_s": measured.attempted / measured.raw_host_total_s,
        "reference_ms": {
            "min": min(samples) * 1e3,
            "median": statistics.median(samples) * 1e3,
            "max": max(samples) * 1e3,
        },
    }


def run_plain(args, workloads, workload, calibrator) -> tuple:
    setups = []
    raw_setups = []
    store = None
    for _ in range(SETUPS):
        if store is not None:
            workloads.release(store)
        store = workloads.build_store(workload, calibrator)
        setups.append(store.setup_s)
        raw_setups.append(store.raw_setup_s)
    gc.collect()
    num_ops = workload.num_ops(args.seconds)
    measured = measure(workloads, workload, store, args.seed, num_ops, calibrator)
    details = host_details(measured, calibrator, setups, raw_setups)
    details["counts"] = deterministic_counts(store.db)
    workloads.check_store(workload, store)
    return end_to_end(workload, measured, setups), measured, details, True


def run_traced(args, workloads, workload, calibrator) -> tuple:
    import tracing

    num_ops = workload.num_ops(args.seconds)
    store = workloads.build_store(workload, calibrator)
    gc.collect()
    untraced = measure(workloads, workload, store, args.seed, num_ops, calibrator)
    workloads.release(store)

    recorder = tracing.SpanRecorder()
    patch = tracing.install(recorder)
    try:
        store = workloads.build_store(workload, calibrator)
        gc.collect()
        serve_call = None
        if workload.serve_rate:
            serve_call = recorder.span("serve", workloads.serve_workload)
        before = recorder.snapshot()
        calibrating_s = calibrator.spent_s
        start = time.perf_counter()
        traced = measure(
            workloads, workload, store, args.seed, num_ops, calibrator, serve_call
        )
        # The calibration reference runs between chunks, outside every span.
        wall_s = time.perf_counter() - start - (calibrator.spent_s - calibrating_s)
        after = recorder.snapshot()
        measured = tracing.window(before, after)
        metrics = {"workload.gen_s": after["self_s"]["workload"]}
        metrics.update(tracing.layer_metrics(measured, wall_s))
        metrics.update(registry_layer_metrics(store.db, traced))
        metrics["trace.overhead_frac"] = 1.0 - traced.host_ops_s / untraced.host_ops_s
        checks = cross_checks(store.db, measured)
        workloads.check_store(workload, store)
    finally:
        patch.undo()
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.npz")
    spans = recorder.dump(span_path)
    correct = all(check["equal"] for check in checks.values()) and metrics["other.self_s"] >= 0
    details = host_details(traced, calibrator)
    details.update({
        "cross_checks": checks,
        "measured_wall_s": wall_s,
        "spans_kept": spans,
        "span_file": os.path.relpath(span_path),
        "counts": deterministic_counts(store.db),
    })
    return metrics, traced, details, correct


def metric_units(trace: int) -> dict:
    """Metric name -> unit, for the run's kind, from BENCHMARK.json."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    import_program(root)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    from calibration import Calibrator

    runner = run_traced if args.trace else run_plain
    try:
        metrics, measured, details, correct = runner(args, workloads, workload, Calibrator())
    except workloads.OracleError as error:
        print(f"perfbench: oracle mismatch: {error}", file=sys.stderr)
        return 1
    seeds = {"store": workloads.STORE_SEED, "workload": args.seed}
    if workload.serve_rate:
        seeds["arrivals"] = workloads.arrival_seed(args.seed)
    details.update(
        workload=workload.name, seeds=seeds, ops=workload.num_ops(args.seconds),
        tail_pct=workload.tail_pct, trace=args.trace,
    )
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
