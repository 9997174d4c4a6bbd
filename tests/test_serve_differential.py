"""Differential suite: serve closed-loop mode vs the closed-loop runner,
plus digest goldens for open-loop serving.

``serve_workload(..., ServeSpec(arrival="closed"))`` claims to replay
the workload through the serving layer's bookkeeping while executing the
*identical* per-operation sequence as
:func:`repro.harness.runner.run_workload` — same clock reads, same
dispatch, same stall attribution, same recorder order.  These tests pin
that claim bit for bit: elapsed virtual time, every latency sample,
every engine counter and gauge, and the latency timeline must match
exactly, for both policies, with and without the background scheduler.

This is what makes the open-loop numbers trustworthy: the serve layer
adds queueing *around* the engine without perturbing anything *inside*
it.  Open-loop runs have no closed-loop twin to compare against, so
:class:`TestOpenLoopGolden` pins their complete results (fingerprint,
per-tenant ledgers, sharded folds) by sha256 digest instead.
"""

import hashlib

import pytest

from repro import LSMConfig, ServeSpec, serve_workload
from repro.harness import run_workload
from repro.serve import run_sharded_serve
from repro.workload import rwb

POLICIES = ("udc", "ldc")
SPEC = rwb(num_operations=1_500, key_space=500)


def config(bg_threads: int) -> LSMConfig:
    return LSMConfig(bg_threads=bg_threads)


def closed_serve(policy: str, bg_threads: int):
    return serve_workload(
        SPEC, policy, ServeSpec(arrival="closed"), config=config(bg_threads)
    )


def closed_run(policy: str, bg_threads: int):
    return run_workload(SPEC, policy, config=config(bg_threads))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("bg_threads", (0, 1))
class TestClosedLoopEquivalence:
    def test_elapsed_and_counts_match(self, policy, bg_threads):
        serve = closed_serve(policy, bg_threads)
        run = closed_run(policy, bg_threads)
        assert serve.elapsed_us == run.elapsed_us
        assert serve.completed == run.operations
        assert serve.arrived == serve.admitted == serve.completed
        assert serve.rejected == 0

    def test_latency_samples_bit_identical(self, policy, bg_threads):
        serve = closed_serve(policy, bg_threads)
        run = closed_run(policy, bg_threads)
        assert list(serve.total_latencies.values) == list(run.latencies.values)
        assert list(serve.service_latencies.values) == list(
            run.latencies.values
        )
        # Closed loop means zero queue wait, sample for sample.
        assert set(serve.wait_latencies.values) == {0.0}
        assert len(serve.wait_latencies) == len(serve.total_latencies)

    def test_engine_metrics_bit_identical(self, policy, bg_threads):
        serve = closed_serve(policy, bg_threads)
        run = closed_run(policy, bg_threads)
        assert serve.metrics is not None and run.metrics is not None
        assert sorted(serve.metrics.counters.items()) == sorted(
            run.metrics.counters.items()
        )
        assert sorted(serve.metrics.gauges.items()) == sorted(
            run.metrics.gauges.items()
        )
        assert serve.stall_time_us == run.stall_time_us

    def test_timeline_bit_identical(self, policy, bg_threads):
        serve = closed_serve(policy, bg_threads)
        run = closed_run(policy, bg_threads)
        ours = [
            (p.start_us, p.count, p.mean_latency_us, p.max_latency_us,
             p.stall_us)
            for p in serve.timeline.points()
        ]
        theirs = [
            (p.start_us, p.count, p.mean_latency_us, p.max_latency_us,
             p.stall_us)
            for p in run.timeline.points()
        ]
        assert ours == theirs


class TestClosedLoopStability:
    def test_serve_closed_loop_is_self_deterministic(self):
        one = closed_serve("ldc", 1).fingerprint()
        two = closed_serve("ldc", 1).fingerprint()
        assert one == two

    def test_slo_accounting_matches_run_percentiles(self):
        # The closed-loop serve path measures SLO violations against pure
        # service time; cross-check the count against the runner's own
        # latency distribution.
        slo_us = 200.0
        serve = serve_workload(
            SPEC, "udc", ServeSpec(arrival="closed", slo_us=slo_us),
            config=config(0),
        )
        run = closed_run("udc", 0)
        expected = sum(1 for v in run.latencies.values if v > slo_us)
        assert serve.slo_violations == expected
        assert serve.slo_violation_rate == pytest.approx(
            expected / run.operations
        )


# ---------------------------------------------------------------------------
# Open-loop goldens
# ---------------------------------------------------------------------------

#: Open-loop runs pinned by digest.  Each serves more than 2 x 1024
#: requests, so the measurement loop's per-chunk folds are crossed; the
#: "pressure" case exercises both rejection paths (queue full and L0
#: back-pressure), the priority discipline and two tenants.
OPEN_LOOP_CASES = {
    "udc_poisson_fifo": dict(
        policy="udc",
        spec=dict(num_operations=4_000, key_space=1_000),
        serve=dict(arrival="poisson", rate_ops_s=20_000.0, queue_depth=64,
                   seed=11),
        config=dict(bg_threads=0),
    ),
    "ldc_poisson_fifo": dict(
        policy="ldc",
        spec=dict(num_operations=4_000, key_space=1_000),
        serve=dict(arrival="poisson", rate_ops_s=20_000.0, queue_depth=64,
                   seed=11),
        config=dict(bg_threads=0),
    ),
    "ldc_pressure": dict(
        policy="ldc",
        spec=dict(num_operations=6_000, key_space=1_000),
        serve=dict(arrival="onoff", rate_ops_s=10_000.0, num_tenants=2,
                   discipline="priority", queue_depth=32, seed=3),
        config=dict(bg_threads=2, memtable_bytes=16_384,
                    l0_compaction_trigger=2, l0_slowdown_trigger=2,
                    l0_stop_trigger=3),
    ),
}

#: sha256 of ``repr(result.fingerprint())`` per case.
GOLDEN_OPEN_LOOP_FINGERPRINTS = {
    "udc_poisson_fifo":
        "b4a84c9dae841c216e344b843863dc69c235148b56e85abb7daebe04517409a7",
    "ldc_poisson_fifo":
        "ba309b6c71829ebfd61fec38b3fc441c18c74ac7496747d4814e088b0ba13656",
    "ldc_pressure":
        "24231f388477ebd6c6a8e2a906a409e6ff2f33a959afad8f71926d2d2c7c3d0a",
}

#: sha256 of what the fingerprint leaves out: the per-tenant ledgers and
#: latency samples.
GOLDEN_OPEN_LOOP_TENANTS = {
    "udc_poisson_fifo":
        "aa51126bbafe98ed963550b08f7b56bff09731e9d0c1c0e1113085d2511d6ff4",
    "ldc_poisson_fifo":
        "2fe3e6b4910ead3fa65582123bb7b9053efe9eefde58e5646778b30731b061bd",
    "ldc_pressure":
        "ff01e2ae12e2bc84ad4d70085a9c85c9f9df82cf6fb52fc335b9a2d62d3d0b9e",
}

#: sha256 of the sharded report's fingerprint plus its merged recorders
#: and timeline (2 shards, LDC, poisson).
GOLDEN_SHARDED_OPEN_LOOP = (
    "e7ed76aa589240b31f9fc8f594ea6e7d1756e165adbafe604fc142c3be3936b6"
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _open_loop(case: str):
    params = OPEN_LOOP_CASES[case]
    return serve_workload(
        rwb(**params["spec"]),
        params["policy"],
        ServeSpec(**params["serve"]),
        config=LSMConfig(**params["config"]),
    )


def _tenant_ledger(result) -> tuple:
    return (
        tuple(sorted(result.tenant_metrics().counters.items())),
        tuple(
            (tuple(stats.wait_latencies.values),
             tuple(stats.total_latencies.values))
            for stats in result.tenant_stats
        ),
    )


def _sharded_open_loop():
    report = run_sharded_serve(
        rwb(num_operations=6_000, key_space=1_000),
        "ldc",
        ServeSpec(arrival="poisson", rate_ops_s=20_000.0, queue_depth=64,
                  seed=5),
        num_shards=2,
    )
    return report, (
        report.fingerprint(),
        tuple(report.wait_latencies.values),
        tuple(report.service_latencies.values),
        tuple(report.total_latencies.values),
        tuple(
            (p.start_us, p.count, p.mean_latency_us, p.max_latency_us,
             p.stall_us)
            for p in report.timeline.points()
        ),
    )


class TestOpenLoopGolden:
    """Open-loop serving results, pinned bit for bit by digest."""

    @pytest.mark.parametrize("case", sorted(OPEN_LOOP_CASES))
    def test_fingerprint_pinned(self, case):
        result = _open_loop(case)
        assert result.completed > 2 * 1024
        assert _digest(result.fingerprint()) == (
            GOLDEN_OPEN_LOOP_FINGERPRINTS[case]
        )
        assert _digest(_tenant_ledger(result)) == GOLDEN_OPEN_LOOP_TENANTS[case]

    def test_pressure_case_rejects_both_ways(self):
        result = _open_loop("ldc_pressure")
        assert result.rejected_full > 0
        assert result.rejected_backpressure > 0
        assert len(result.tenant_stats) == 2

    def test_sharded_serve_pinned(self):
        report, pinned = _sharded_open_loop()
        assert report.num_shards == 2
        assert all(r.completed > 2 * 1024 for r in report.shard_results)
        assert _digest(pinned) == GOLDEN_SHARDED_OPEN_LOOP
