"""Sensitivity check: does each metric move when its layer gets slower?

For eight layers, wrap one public function with a fixed busy-wait and
rerun the workloads.  The end-to-end metric the layer maps to (README.md,
"Layers, metrics and workloads") must get worse by more than its bound on
the workload that exercises the layer, and must stay within its bound on
the workloads that bypass it.  Injected runs start ``run.main`` in a child
process after installing the delay, so the benchmark command itself has
no injection switch.

Usage, from the root of a checkout::

    python3 perfbench/sensitivity.py [--seconds 8] [--seed 3]

Exits non-zero when any expectation fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Layer -> the functions that get the delay, as (module, class or None, name).
TARGETS = {
    "wal": [("repro.lsm.wal", "WriteAheadLog", "append")],
    "memtable": [("repro.lsm.memtable", "MemTable", "add")],
    "merge": [
        ("repro.lsm.compaction.base", None, "merge_windows"),
        ("repro.core.primitives", None, "merge_windows"),
    ],
    "bloom": [("repro.lsm.bloom", "BloomFilter", "may_contain")],
    "scan": [("repro.lsm.db", "DB", "scan")],
    "flash": [("repro.ssd.flash", "FlashTranslationLayer", "host_write")],
    "sched": [("repro.sched.scheduler", "CompactionScheduler", "on_operation")],
    "serve": [("repro.serve.queue", "RequestQueue", "offer")],
}

OTHERS = ("fill_ldc", "read_udc", "scan_ldc")


class Check(NamedTuple):
    layer: str
    delay_us: float
    #: The workload that must move, and the metrics judged there.
    target: str
    move: tuple
    #: The workloads that must not move, and the metrics judged there.
    quiet: tuple
    hold: tuple


CHECKS = (
    Check("wal", 30.0, "fill_ldc", ("host_p50_us", "host_ops_s"),
          ("read_udc",), ("host_p50_us", "host_ops_s")),
    Check("memtable", 30.0, "fill_ldc", ("host_p50_us",), ("scan_ldc",), ("host_p50_us",)),
    # read_udc never merges once set up; its tail is too noisy to show that
    # from one pair of runs, so the steady host_p50_us and host_ops_s do.
    Check("merge", 5000.0, "fill_ldc", ("host_tail_us",),
          ("read_udc",), ("host_p50_us", "host_ops_s")),
    Check("bloom", 10.0, "read_udc", ("host_p50_us", "host_ops_s"),
          ("fill_ldc",), ("host_p50_us", "host_ops_s")),
    Check("scan", 3000.0, "scan_ldc", ("host_ops_s", "host_p50_us"),
          ("read_udc",), ("host_ops_s", "host_p50_us")),
    Check("flash", 200.0, "serve_ldc", ("host_ops_s",), OTHERS, ("host_ops_s",)),
    Check("sched", 100.0, "serve_ldc", ("host_ops_s",), OTHERS, ("host_ops_s",)),
    Check("serve", 100.0, "serve_ldc", ("host_ops_s",), OTHERS, ("host_ops_s",)),
)

#: Child process of an injected run: install the delay, then run as run.py.
_INJECTED_RUN = (
    "import os, sys; sys.path.insert(0, {here!r}); import run, sensitivity; "
    "run.import_program(os.getcwd()); sensitivity.inject({layer!r}, {delay_us!r}); "
    "sys.exit(run.main({argv!r}))"
)


def _delayed(fn, seconds: float):
    perf = time.perf_counter

    def wrapper(*args, **kwargs):
        deadline = perf() + seconds
        while perf() < deadline:
            pass
        return fn(*args, **kwargs)

    return wrapper


def inject(layer: str, delay_us: float) -> None:
    """Add ``delay_us`` of busy wait to every call of ``layer``'s target."""
    if layer not in TARGETS:
        raise SystemExit(f"perfbench: no injection target for layer {layer!r}")
    for module_name, class_name, name in TARGETS[layer]:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        setattr(owner, name, _delayed(getattr(owner, name), delay_us / 1e6))


def run(workload: str, seed: int, seconds: float, layer: str = "", delay_us: float = 0.0) -> dict:
    """One short benchmark run in its own process; returns its metrics."""
    argv = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if layer:
        code = _INJECTED_RUN.format(here=HERE, layer=layer, delay_us=delay_us, argv=argv)
        command = [sys.executable, "-c", code]
    else:
        command = [sys.executable, os.path.join(HERE, "run.py"), *argv]
    done = subprocess.run(
        command, cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=600, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worsening(metric: str, base: float, value: float, better: dict) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    if better[metric] == "lower":
        return value / base - 1.0
    return 1.0 - value / base


def check_all(seconds: float, seed: int, report=print) -> list:
    """Run every check; returns the failed expectations (empty = pass)."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    baselines = {}
    failures = []
    for check in CHECKS:
        for workload in (check.target, *check.quiet):
            if workload not in baselines:
                baselines[workload] = run(workload, seed, seconds)
            slowed = run(workload, seed, seconds, check.layer, check.delay_us)
            must_move = workload == check.target
            for metric in check.move if must_move else check.hold:
                worse = worsening(metric, baselines[workload][metric], slowed[metric], better)
                ok = worse > bounds[metric] if must_move else worse <= bounds[metric]
                report(
                    f"{check.layer:9s} +{check.delay_us:g}us {workload:10s} {metric:13s} "
                    f"worse by {worse:+.3f} (bound {bounds[metric]}) "
                    f"{'must move' if must_move else 'must hold'}: {'ok' if ok else 'FAIL'}"
                )
                if not ok:
                    failures.append((check.layer, workload, metric, worse))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    failures = check_all(args.seconds, args.seed)
    print(f"{len(failures)} failed expectation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
