"""The benchmark's four workloads: set-up, the measured loop and the oracle.

Every workload uses the paper's 16 B keys and 1 KiB values, the WAL, and
the engine's default flush policy (the memtable flushes when it reaches
``memtable_bytes`` = 64 KiB).  The store is preloaded from a fixed seed
(``STORE_SEED``) so set-up is the same work on every run; the measured
operations come from the ``--seed`` the benchmark is given.  The program
only ever receives the generated keys and values.

Run length is a fixed amount of work, ``ops_per_second * seconds``
operations, so two commits measured with the same ``--seconds`` execute
identical operation streams and every virtual-time figure (``sim_*``,
``*_amp``, ``slo_ok_frac``) repeats exactly for a given seed.
"""

from __future__ import annotations

import bisect
import gc
import math
import time
from array import array
from dataclasses import dataclass

from calibration import Calibrator
from repro import DB, DeviceConfig, FlashSpec, LSMConfig, ServeSpec, serve_workload
from repro.errors import ReproError
from repro.ssd.profile import ENTERPRISE_PCIE
from repro.workload.spec import PAPER_KEY_BYTES, PAPER_SCAN_LENGTH, PAPER_VALUE_BYTES, WorkloadSpec
from repro.workload.ycsb import OP_GET, OP_PUT, OP_SCAN, WorkloadGenerator

KIB = 1024
MIB = 1024 * KIB

#: Seed of every store's preload, so set-up is the same work on every run.
STORE_SEED = 1

#: Latency objective (virtual µs) behind ``slo_ok_frac``.
SLO_US = 1000.0

#: Requests per ``serve_workload`` call on ``serve_ldc``.
SERVE_ROUND_OPS = 2000

#: Calibration chunks per measured run, and per store preload.
MEASURE_CHUNKS = 100
SETUP_CHUNKS = 20


class OracleError(Exception):
    """The program returned a result the model says is wrong."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    policy: str
    keys: int
    write_ratio: float
    #: Nominal operations per second of ``--seconds``: sets the run's work.
    ops_per_second: int
    #: Percentile of ``*_tail_us``: 99.9 on fill_ldc, where it falls among
    #: the compaction rounds; 99 elsewhere, where the 99.9th moved by 15-20%
    #: between runs of the same code.
    tail_pct: float
    query: str = "get"
    distribution: str = "uniform"
    cache_bytes: int = 0
    bg_threads: int = 0
    #: Flash FTL logical capacity; 0 keeps the plain device.
    flash_bytes: int = 0
    #: Poisson arrival rate of the open-loop workload; 0 = closed loop.
    serve_rate: float = 0.0
    #: ``write_amp`` over the measured phase, or over the store's whole
    #: life (load plus measured phase) where the measured phase writes
    #: too little to give a steady ratio.
    lifetime_write_amp: bool = False

    def config(self) -> LSMConfig:
        return LSMConfig(block_cache_bytes=self.cache_bytes, bg_threads=self.bg_threads)

    def profile(self):
        if not self.flash_bytes:
            return ENTERPRISE_PCIE
        flash = FlashSpec(
            logical_bytes=self.flash_bytes, over_provisioning=0.07, gc_policy="greedy"
        )
        return DeviceConfig(profile=ENTERPRISE_PCIE, flash=flash)

    def num_ops(self, seconds: float) -> int:
        return max(1, round(self.ops_per_second * seconds))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fill_ldc", "ldc", keys=60_000, write_ratio=1.0,
                 ops_per_second=12_000, tail_pct=99.9),
        Workload("read_udc", "udc", keys=50_000, write_ratio=0.0,
                 ops_per_second=30_000, tail_pct=99.0,
                 distribution="zipf", cache_bytes=256 * KIB,
                 lifetime_write_amp=True),
        Workload("scan_ldc", "ldc", keys=20_000, write_ratio=0.3,
                 ops_per_second=600, tail_pct=99.0,
                 query="scan", cache_bytes=256 * KIB,
                 lifetime_write_amp=True),
        Workload("serve_ldc", "ldc", keys=10_000, write_ratio=0.5,
                 ops_per_second=12_000, tail_pct=99.0,
                 cache_bytes=64 * MIB, bg_threads=2, flash_bytes=36 * MIB,
                 serve_rate=1200.0),
    )
}


class HostTimes:
    """Wall times of timed calls, calibrated chunk by chunk.

    Call :meth:`end_chunk` between chunks, outside any timed call: it runs
    the calibration reference and rescales the chunk's times in place.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.times = array("d")
        self.raw_total_s = 0.0
        self._chunk_start = 0

    def end_chunk(self) -> float:
        scale = self.calibrator.scale()
        times = self.times
        for index in range(self._chunk_start, len(times)):
            self.raw_total_s += times[index]
            times[index] *= scale
        self._chunk_start = len(times)
        return scale


@dataclass
class Store:
    """A preloaded DB and the model of its contents."""

    db: DB
    model: dict
    #: Calibrated set-up time, and the raw wall time it came from.
    setup_s: float
    raw_setup_s: float
    #: Device and user bytes written while loading (before the reset).
    load_device_bytes: int
    load_user_bytes: int

    def write_amp(self, lifetime: bool) -> float:
        """Write amplification of the measured phase, or of the store's life."""
        db = self.db
        device = db.device.stats.host_bytes_written
        user = db.engine_stats.user_bytes_written
        if lifetime:
            device += self.load_device_bytes
            user += self.load_user_bytes
        return device / user


def build_store(workload: Workload, calibrator: Calibrator) -> Store:
    """Build, preload and drain a store; time it, input generation included.

    The preload runs in ``SETUP_CHUNKS`` timed segments with a calibration
    between segments (see :class:`HostTimes`).
    """
    segments = HostTimes(calibrator)
    perf = time.perf_counter
    start = perf()
    db = DB(config=workload.config(), policy=workload.policy, profile=workload.profile())
    spec = WorkloadSpec(
        name=workload.name, num_operations=1, write_ratio=1.0,
        key_space=workload.keys, preload_keys=workload.keys,
        seed=STORE_SEED,
    )
    chunk = max(1, workload.keys // SETUP_CHUNKS)
    model = {}
    put = db.put
    for count, operation in enumerate(WorkloadGenerator(spec).preload_operations(), 1):
        put(operation.key, operation.value)
        model[operation.key] = operation.value
        if count % chunk == 0:
            segments.times.append(perf() - start)
            segments.end_chunk()
            start = perf()
    db.policy.maybe_compact()
    if db.sched is not None:
        db.sched.drain()
    load_device_bytes = db.device.stats.host_bytes_written
    load_user_bytes = db.engine_stats.user_bytes_written
    db.reset_measurements()
    segments.times.append(perf() - start)
    segments.end_chunk()
    return Store(
        db, model, sum(segments.times), segments.raw_total_s,
        load_device_bytes, load_user_bytes,
    )


def release(store: Store) -> None:
    """Drop a store so the next set-up does not stack on its memory."""
    store.db = None
    store.model = None
    gc.collect()


@dataclass
class Measured:
    """What one measured phase produced."""

    attempted: int
    failed: int
    #: Calibrated wall time of each timed engine call.
    call_s: array
    #: Calibrated wall time of all timed program calls (host_ops_s
    #: denominator), and the raw wall time it came from.
    host_total_s: float
    raw_host_total_s: float
    sim_us: array
    sim_elapsed_us: float
    slo_met: int
    write_amp: float
    space_amp: float
    serve_wait_us: float = 0.0
    serve_rejected: int = 0

    @property
    def host_ops_s(self) -> float:
        return self.attempted / self.host_total_s


def measured_spec(workload: Workload, seed: int, num_ops: int) -> WorkloadSpec:
    return WorkloadSpec(
        name=workload.name, num_operations=num_ops,
        write_ratio=workload.write_ratio, query_type=workload.query,
        key_space=workload.keys, key_bytes=PAPER_KEY_BYTES,
        value_bytes=PAPER_VALUE_BYTES, distribution=workload.distribution,
        zipf_constant=1.0, scan_length=PAPER_SCAN_LENGTH, seed=seed,
    )


def space_amp(db: DB, user_bytes: int) -> float:
    return db.space_bytes() / user_bytes


def measure_closed(
    workload: Workload, store: Store, seed: int, num_ops: int, calibrator: Calibrator
) -> Measured:
    """Closed loop: each call is issued when the previous one returned.

    Every get and scan result is checked against the model outside the
    timed call; a wrong answer raises :class:`OracleError`.  Typed engine
    errors count as failed operations.
    """
    db = store.db
    model = store.model
    # Every key of the key space is preloaded and puts only overwrite, so
    # the sorted key list never changes.
    sorted_keys = sorted(model) if workload.query == "scan" else None
    operations = WorkloadGenerator(measured_spec(workload, seed, num_ops)).operations()
    host = HostTimes(calibrator)
    host_s = host.times
    chunk = max(1, num_ops // MEASURE_CHUNKS)
    sim_us = array("d")
    now = db.clock.now
    perf = time.perf_counter
    put, get, scan = db.put, db.get, db.scan
    failed = 0
    start_us = now()
    for count, operation in enumerate(operations, 1):
        if count % chunk == 0:
            host.end_chunk()
        kind = operation[0]
        key = operation[1]
        try:
            if kind == OP_PUT:
                value = operation[2]
                begin_us = now()
                begin = perf()
                put(key, value)
                end = perf()
                end_us = now()
                model[key] = value
            elif kind == OP_GET:
                begin_us = now()
                begin = perf()
                result = get(key)
                end = perf()
                end_us = now()
                if result != model.get(key):
                    raise OracleError(f"get({key!r}) returned a wrong value")
            elif kind == OP_SCAN:
                count = operation[3]
                begin_us = now()
                begin = perf()
                result = scan(key, count)
                end = perf()
                end_us = now()
                first = bisect.bisect_left(sorted_keys, key)
                expected = [(k, model[k]) for k in sorted_keys[first:first + count]]
                if result != expected:
                    raise OracleError(f"scan({key!r}, {count}) returned wrong records")
            else:
                raise OracleError(f"unexpected operation kind {kind!r}")
        except ReproError:
            failed += 1
            continue
        host_s.append(end - begin)
        sim_us.append(end_us - begin_us)
    elapsed_us = now() - start_us
    host.end_chunk()
    user_bytes = sum(len(key) + len(value) for key, value in model.items())
    return Measured(
        attempted=num_ops,
        failed=failed,
        call_s=host_s,
        host_total_s=sum(host_s),
        raw_host_total_s=host.raw_total_s,
        sim_us=sim_us,
        sim_elapsed_us=elapsed_us,
        slo_met=sum(1 for latency in sim_us if latency <= SLO_US),
        write_amp=store.write_amp(workload.lifetime_write_amp),
        space_amp=space_amp(db, user_bytes),
    )


def check_store(workload: Workload, store: Store) -> None:
    """End-of-run oracle: invariants, and full contents when there were writes."""
    db = store.db
    db.check_invariants()
    if workload.write_ratio:
        expected = sorted(store.model.items())
        if list(db.logical_items()) != expected:
            raise OracleError("store contents differ from the model after the run")


def _timed_engine_calls(db: DB, model: dict, sink: array) -> None:
    """Time and check each put/get the serve loop issues.

    Instance-level wrappers: the timed part is the engine call alone; the
    model is updated with each put and each get result is compared with
    it after the call.  Writes refused by admission never reach ``put``,
    so the model stays exact.
    """
    perf = time.perf_counter
    append = sink.append
    engine_put, engine_get = db.put, db.get

    def put(key, value):
        begin = perf()
        try:
            result = engine_put(key, value)
        finally:
            append(perf() - begin)
        model[key] = value
        return result

    def get(key):
        begin = perf()
        try:
            result = engine_get(key)
        finally:
            append(perf() - begin)
        if result != model.get(key):
            raise OracleError(f"get({key!r}) returned a wrong value")
        return result

    db.put = put
    db.get = get


def measure_serve(
    workload: Workload, store: Store, seed: int, num_ops: int,
    calibrator: Calibrator, serve_call,
) -> Measured:
    """Open loop in virtual time, in rounds of ``SERVE_ROUND_OPS`` requests.

    Each round is one ``serve_workload`` call on the same DB: Poisson
    arrivals at ``serve_rate``, a 64-deep FIFO queue with L0 back-pressure,
    and latency measured from each request's arrival.  Host time is the
    wall time of those calls, calibrated per round; the put/get calls inside
    them are timed too, and every get result is checked against the model
    (see :func:`_timed_engine_calls`).  The queue ledger must balance
    every round.
    """
    db = store.db
    engine = HostTimes(calibrator)
    _timed_engine_calls(db, store.model, engine.times)
    rounds = max(1, math.ceil(num_ops / SERVE_ROUND_OPS))
    round_s = array("d")
    raw_round_s = 0.0
    sim_us = array("d")
    arrived = completed = rejected = violations = 0
    wait_us = elapsed_us = 0.0
    for index in range(rounds):
        spec = WorkloadSpec(
            name=workload.name, num_operations=SERVE_ROUND_OPS,
            write_ratio=workload.write_ratio, key_space=workload.keys,
            seed=seed * 1_000 + index,
        )
        serve = ServeSpec(
            arrival="poisson", rate_ops_s=workload.serve_rate, slo_us=SLO_US,
            seed=arrival_seed(seed) + index,
        )
        begin = time.perf_counter()
        result = serve_call(spec, workload.policy, serve, db=db)
        elapsed = time.perf_counter() - begin
        raw_round_s += elapsed
        round_s.append(elapsed * engine.end_chunk())
        if result.arrived != result.completed + result.rejected:
            raise OracleError(f"serve round {index}: queue ledger does not balance")
        arrived += result.arrived
        completed += result.completed
        rejected += result.rejected
        violations += result.slo_violations
        wait_us += sum(result.wait_latencies.values)
        elapsed_us += result.elapsed_us
        sim_us.extend(result.total_latencies.values)
    for name in ("put", "get"):
        del db.__dict__[name]
    user_bytes = workload.keys * (PAPER_KEY_BYTES + PAPER_VALUE_BYTES)
    return Measured(
        attempted=arrived,
        failed=rejected,
        call_s=engine.times,
        host_total_s=sum(round_s),
        raw_host_total_s=raw_round_s,
        sim_us=sim_us,
        sim_elapsed_us=elapsed_us,
        slo_met=arrived - violations - rejected,
        write_amp=db.metrics().total_write_amplification,
        space_amp=space_amp(db, user_bytes),
        serve_wait_us=wait_us / completed if completed else 0.0,
        serve_rejected=rejected,
    )


def arrival_seed(seed: int) -> int:
    """Seed of the first round's arrival process (rounds add their index)."""
    return 7_919 * seed + 1
