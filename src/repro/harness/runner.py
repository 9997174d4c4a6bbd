"""The workload runner: drive a DB with a workload spec, measure everything.

``run_workload`` executes the paper's measurement protocol:

1. build a fresh DB with the requested compaction policy over a fresh
   simulated device;
2. load ``preload_keys`` distinct keys (read-bearing workloads run against
   a populated store, as in §IV-A), drain maintenance, reset statistics
   (:func:`prepared_db`);
3. execute the measured operations, recording each operation's virtual-time
   latency (split by kind) and the Fig. 1-style timeline;
4. return a :class:`RunResult` with throughput, percentiles, device I/O by
   category, engine counters and space usage.

Every measured latency in the package — this runner, the sharded
runner and the serving layer (:mod:`repro.serve`), closed or open loop —
comes from one loop, :func:`measure`, fed by an arrival source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Callable, Dict, Iterable, List, Optional

from .latency import LatencyRecorder, LatencyTimeline, merge_recorders
from ..errors import WorkloadError
from ..lsm.compaction.spec import resolve_factory
from ..lsm.config import LSMConfig
from ..lsm.db import DB
from ..obs.snapshot import MetricsSnapshot
from ..obs.tracer import Tracer
from ..ssd.flash import DeviceConfig
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile
from ..workload.spec import WorkloadSpec
from ..workload.ycsb import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_RMW,
    OP_SCAN,
    WorkloadGenerator,
)

#: Factory producing a fresh policy instance per run (policies are
#: stateful).  Every harness entry point also accepts a registered policy
#: name or a :class:`~repro.lsm.compaction.spec.PolicySpec` wherever a
#: factory is expected (coerced through
#: :func:`~repro.lsm.compaction.spec.resolve_factory`).
PolicyFactory = Callable[[], object]


@dataclass
class RunResult:
    """Everything measured during one workload run."""

    workload: str
    policy: str
    operations: int
    elapsed_us: float
    latencies: LatencyRecorder
    write_latencies: LatencyRecorder
    read_latencies: LatencyRecorder
    scan_latencies: LatencyRecorder
    timeline: LatencyTimeline
    compaction_read_bytes: int
    compaction_write_bytes: int
    total_read_bytes: int
    total_write_bytes: int
    user_bytes_written: int
    write_amplification: float
    space_bytes: int
    live_bytes: int
    extra_space_bytes: int
    flush_count: int
    compaction_count: int
    link_count: int
    merge_count: int
    trivial_moves: int
    stall_events: int
    sstable_blocks_read: int
    bloom_negative_skips: int
    activity_share: Dict[str, float] = field(default_factory=dict)
    final_threshold: Optional[int] = None
    #: Unified metrics snapshot taken when the run finished (counters cover
    #: the measured window since the post-load reset).
    metrics: Optional[MetricsSnapshot] = None
    #: Virtual time the measured operations spent throttled (L0 slowdown
    #: delays + stop stalls); always present, non-zero mostly under the
    #: scheduler (``bg_threads >= 1``).
    stall_time_us: float = 0.0
    #: Foreground waits behind in-flight background compaction chunks on
    #: the device channel (scheduler only).
    device_wait_us: float = 0.0
    #: Flash/FTL quantities (docs/DEVICE.md); the defaults are what a
    #: flash-less run reports, so pickled results and old callers are
    #: unaffected.  ``write_amplification`` above stays *host* WA.
    device_write_amplification: float = 1.0
    total_write_amplification: float = 0.0
    gc_write_bytes: int = 0
    flash_bytes_programmed: int = 0
    blocks_erased: int = 0
    max_erase_count: int = 0

    @property
    def throughput_ops_s(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.operations / (self.elapsed_us / 1e6)

    @property
    def compaction_bytes_total(self) -> int:
        return self.compaction_read_bytes + self.compaction_write_bytes

    @property
    def mean_latency_us(self) -> float:
        return self.latencies.mean()

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by reports and tests."""
        return {
            "throughput_ops_s": self.throughput_ops_s,
            "mean_latency_us": self.mean_latency_us,
            "p99_us": self.latencies.percentile(99.0),
            "p999_us": self.latencies.percentile(99.9),
            "write_amplification": self.write_amplification,
            "device_write_amplification": self.device_write_amplification,
            "total_write_amplification": self.total_write_amplification,
            "compaction_gib": self.compaction_bytes_total / 2**30,
            "space_mib": self.space_bytes / 2**20,
        }


def build_db(
    policy_factory: PolicyFactory,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> DB:
    """Construct a fresh DB for one measured run.

    ``policy_factory`` may be a zero-arg factory, a registered policy
    name, or a :class:`~repro.lsm.compaction.spec.PolicySpec`.
    ``profile`` accepts a bare :class:`~repro.ssd.profile.SSDProfile`
    or a :class:`~repro.ssd.flash.DeviceConfig` (flash layer opt-in).
    """
    return DB(
        config=config if config is not None else LSMConfig(),
        policy=resolve_factory(policy_factory)(),
        profile=profile,
        seed=seed,
        tracer=tracer,
    )


def prepared_db(
    policy_factory: PolicyFactory,
    preload,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> DB:
    """A fresh DB in the measured phase's starting state.

    Builds the store (:func:`build_db`), puts every ``preload``
    operation, drains maintenance and resets the statistics, so the
    measured window starts from a populated, quiescent store (§IV-A).
    """
    db = build_db(
        policy_factory, config=config, profile=profile, seed=seed, tracer=tracer
    )
    for operation in preload:
        db.put(operation.key, operation.value)
    db.policy.maybe_compact()
    db.reset_measurements()
    return db


def run_workload(
    spec: WorkloadSpec,
    policy_factory: PolicyFactory,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    timeline_bucket_us: float = 1_000_000.0,
    db: Optional[DB] = None,
    tracer: Optional[Tracer] = None,
    sample_stride: int = 1,
    max_latency_samples: Optional[int] = None,
) -> RunResult:
    """Run one workload against one policy and measure it.

    Pass ``db`` to reuse a pre-built (e.g. pre-loaded) database; otherwise
    a fresh one is created and loaded per the spec.  Pass ``tracer`` (with
    sinks attached) to record the run's full event timeline; the load
    phase is traced too, separated from the measured phase by the
    measurement reset.  ``sample_stride`` / ``max_latency_samples``
    configure sampled latency recording for paper-scale runs (see
    :class:`~repro.harness.latency.LatencyRecorder`).
    """
    generator = WorkloadGenerator(spec)
    if db is None:
        db = prepared_db(
            policy_factory,
            generator.preload_operations(),
            config=config,
            profile=profile,
            tracer=tracer,
        )
    return execute_operations(
        db,
        generator.operations(),
        workload_name=spec.name,
        timeline_bucket_us=timeline_bucket_us,
        sample_stride=sample_stride,
        max_latency_samples=max_latency_samples,
    )


def execute_operations(
    db: DB,
    operations,
    workload_name: str,
    timeline_bucket_us: float = 1_000_000.0,
    sample_stride: int = 1,
    max_latency_samples: Optional[int] = None,
) -> RunResult:
    """Execute an explicit operation stream against a prepared DB.

    The measured core of :func:`run_workload`, split out so the sharded
    runner (:mod:`repro.shard.runner`) can drive a shard with a
    pre-partitioned slice of the trace.  The operations go through
    :func:`measure` as a closed loop — each one arrives the instant the
    previous one completes — and each chunk of measurements is folded
    into the per-kind recorders, the overall recorder and the timeline.
    """
    recorders = {
        OP_PUT: LatencyRecorder(sample_stride, max_latency_samples),
        OP_DELETE: LatencyRecorder(sample_stride, max_latency_samples),
        OP_GET: LatencyRecorder(sample_stride, max_latency_samples),
        OP_SCAN: LatencyRecorder(sample_stride, max_latency_samples),
        OP_RMW: LatencyRecorder(sample_stride, max_latency_samples),
    }
    overall = LatencyRecorder(sample_stride, max_latency_samples)
    timeline = LatencyTimeline(bucket_us=timeline_bucket_us)
    timeline_record = timeline.record

    def fold(chunk: List[tuple]) -> None:
        per_kind: Dict[str, List[float]] = {}
        for kind, _tenant, begin, _wait, latency, stall in chunk:
            bucket = per_kind.get(kind)
            if bucket is None:
                bucket = per_kind[kind] = []
            bucket.append(latency)
            timeline_record(begin, latency, stall_us=stall)
        for kind, latencies in per_kind.items():
            recorders[kind].record_many(latencies)
        overall.record_many([entry[4] for entry in chunk])

    clock = db.clock
    start_time = clock.now()
    measure(db, zip(repeat(None), repeat(0), operations), fold)
    elapsed = clock.now() - start_time
    device_stats = db.device.stats
    snapshot = db.metrics()
    live = db.version.total_file_bytes()
    extra = db.policy.extra_space_bytes()
    final_threshold = getattr(db.policy, "threshold", None)
    return RunResult(
        workload=workload_name,
        policy=db.policy.name,
        operations=len(overall),
        elapsed_us=elapsed,
        latencies=overall,
        write_latencies=merge_recorders((recorders[OP_PUT], recorders[OP_DELETE])),
        read_latencies=recorders[OP_GET],
        scan_latencies=recorders[OP_SCAN],
        timeline=timeline,
        compaction_read_bytes=device_stats.compaction_bytes_read,
        compaction_write_bytes=device_stats.compaction_bytes_written,
        total_read_bytes=device_stats.total_bytes_read,
        total_write_bytes=device_stats.total_bytes_written,
        user_bytes_written=db.engine_stats.user_bytes_written,
        write_amplification=db.write_amplification(),
        space_bytes=live + extra,
        live_bytes=live,
        extra_space_bytes=extra,
        flush_count=db.engine_stats.flush_count,
        compaction_count=db.engine_stats.compaction_count,
        link_count=db.engine_stats.link_count,
        merge_count=db.engine_stats.merge_count,
        trivial_moves=db.engine_stats.trivial_moves,
        stall_events=db.engine_stats.stall_events,
        sstable_blocks_read=db.engine_stats.sstable_blocks_read,
        bloom_negative_skips=db.engine_stats.bloom_negative_skips,
        activity_share=db.engine_stats.activity_share(),
        final_threshold=final_threshold if isinstance(final_threshold, int) else None,
        metrics=snapshot,
        stall_time_us=float(db.registry.counter("engine.stall_time_us")),
        device_wait_us=float(db.registry.counter("sched.device_wait_us")),
        device_write_amplification=snapshot.device_write_amplification,
        total_write_amplification=snapshot.total_write_amplification,
        gc_write_bytes=snapshot.gc_write_bytes,
        flash_bytes_programmed=snapshot.flash_bytes_programmed,
        blocks_erased=snapshot.blocks_erased,
        max_erase_count=snapshot.max_erase_count,
    )


#: Requests measured between two ``fold`` calls of :func:`measure`.
CHUNK_SIZE = 1024


def measure(
    db: DB, requests: Iterable[tuple], fold: Callable[[List[tuple]], None]
) -> None:
    """The measured-operation loop: serve each request, hand results to ``fold``.

    ``requests`` yields ``(arrival_us, tenant_index, operation)``; the
    next item is pulled only after the previous request has completed,
    so a source may look at the engine (clock, throttle state) to decide
    what comes next.  ``arrival_us`` is an absolute virtual timestamp, or
    ``None`` for a closed loop: the request arrives as the server frees
    and waits zero.  An idle server jumps to the arrival
    (``clock.advance_to``) — the gap in which background compaction
    (:mod:`repro.sched`) catches up.

    Each request executes alone against the DB (the virtual clock, stall
    attribution and maintenance interleaving are per operation by
    contract) and appends one ``(kind, tenant_index, begin_us, wait_us,
    service_us, stall_us)`` tuple; every :data:`CHUNK_SIZE` tuples, and
    once at the end, the chunk goes to ``fold`` in request order.
    ``stall_us`` is the operation's throttle time plus its device waits
    behind background chunks.
    """
    clock = db.clock
    db_put = db.put
    db_get = db.get
    db_scan = db.scan
    db_delete = db.delete
    # Stall counters are read once per operation; go straight to the
    # registry's counter dict (registry.reset() mutates it in place, so
    # the reference stays valid for the DB's lifetime).
    counters_get = db.registry._counters.get
    stall_total = counters_get("engine.stall_time_us", 0) + counters_get(
        "sched.device_wait_us", 0
    )
    requests = iter(requests)
    while True:
        chunk: List[tuple] = []
        push = chunk.append
        # islice pulls lazily: one request per iteration, as promised.
        for arrival_us, tenant_index, operation in islice(requests, CHUNK_SIZE):
            if arrival_us is None:
                begin = clock._now_us
                wait_us = 0.0
            else:
                if clock._now_us < arrival_us:
                    clock.advance_to(arrival_us)
                begin = clock._now_us
                wait_us = begin - arrival_us
            kind = operation[0]
            if kind == OP_PUT:
                db_put(operation[1], operation[2])
            elif kind == OP_GET:
                db_get(operation[1])
            elif kind == OP_SCAN:
                db_scan(operation[1], operation[3])
            elif kind == OP_DELETE:
                db_delete(operation[1])
            elif kind == OP_RMW:
                current = db_get(operation[1])
                db_put(operation[1], operation[2] or current or b"")
            else:
                raise WorkloadError(f"unknown operation kind {kind!r}")
            stalled = counters_get("engine.stall_time_us", 0) + counters_get(
                "sched.device_wait_us", 0
            )
            push((kind, tenant_index, begin, wait_us, clock._now_us - begin,
                  stalled - stall_total))
            stall_total = stalled
        if not chunk:
            return
        fold(chunk)
