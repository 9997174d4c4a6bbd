"""Wall-time spans recorded from wrappers installed on the program's classes.

The benchmark never edits the program: :func:`install` replaces public
methods of each layer's classes (and two module-level merge functions)
with thin wrappers that time every call.  A span is ``(layer, start,
end, parent)``; spans nest exactly as the calls do, so a layer's *self
time* is its spans' duration minus the part of it that child spans
cover.  Self times are folded online; the raw spans are also kept in
compact arrays (up to a cap) and written out at the end of the run.

Install the wrappers *before* the DB is built: the engine caches some
bound methods (``MetricsRegistry.add``) at construction.  The program's
own ``Tracer`` stays off on purpose — an active tracer disables the
fused WAL-append and point-read charging paths, so turning it on would
measure a different program.  The price: fused charges never reach
``SimulatedSSD.read``/``write``, so ``device.*`` counts miss WAL appends
(plain device) and point-read block reads (plain device, no scheduler).
"""

from __future__ import annotations

import time
from array import array

#: Span layers.  All but "db" have their self time reported; "db" (the
#: DB facade's put/get/delete) only keeps that time out of its caller's
#: self time and counts toward "other".
LAYERS = (
    "workload", "wal", "memtable", "flush", "compaction", "merge", "lookup",
    "bloom", "cache", "scan", "device", "flash", "sched", "serve", "obs",
    "harness", "db",
)

#: Named event counters kept next to the spans (see :func:`install`).
COUNTERS = (
    "wal.appends", "wal.bytes", "memtable.adds", "memtable.gets",
    "flush.count", "ldc.links", "ldc.merges", "merge.calls", "lookup.gets",
    "bloom.probes", "scan.calls", "compaction.rounds", "merge.records_in",
    "merge.records_out", "lookup.tables", "lookup.blocks", "bloom.negatives",
    "cache.hits", "cache.misses", "scan.ranges", "scan.useful_ranges",
    "scan.records", "device.reads", "device.writes", "device.read_bytes",
    "device.write_bytes", "bytes.flush_write", "bytes.compaction_read",
    "bytes.compaction_write",
)

#: Spans kept for the dump; self times keep folding past the cap.
SPAN_CAP = 1_000_000


class SpanRecorder:
    """In-memory span store plus online self-time folding."""

    def __init__(self) -> None:
        self.layer_ids = {name: index for index, name in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.span_layer = array("b")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.in_scan = 0
        # Child-time accumulators of the open spans, innermost last.
        self._open = []

    def span(self, layer: str, fn, count: str = ""):
        """Wrap ``fn`` so every call is one span of ``layer``.

        ``count`` names a counter bumped once per call.
        """
        lid = self.layer_ids[layer]
        counts = self.counts
        perf = time.perf_counter
        open_spans = self._open
        push = open_spans.append
        pop = open_spans.pop
        self_s = self.self_s
        layers = self.span_layer
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        cap = SPAN_CAP
        recorder = self

        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            index = len(layers)
            keep = index < cap
            if keep:
                parent = recorder.current
                layers.append(lid)
                parents.append(parent)
                starts.append(0.0)
                ends.append(0.0)
                recorder.current = index
            push(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                self_s[lid] += duration - pop()
                if open_spans:
                    open_spans[-1] += duration
                if keep:
                    starts[index] = start
                    ends[index] = end
                    recorder.current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        """Cumulative self times and counts (window boundaries)."""
        return {"self_s": dict(zip(LAYERS, self.self_s)), **self.counts}

    def dump(self, path) -> int:
        """Write the kept spans as ``.npz`` arrays; returns the span count."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.span_layer, dtype=np.int8),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_layer)


class TimedIterator:
    """An iterator whose every ``next`` is a span (input generation)."""

    __slots__ = ("_next",)

    def __init__(self, recorder: SpanRecorder, layer: str, iterable) -> None:
        self._next = recorder.span(layer, iter(iterable).__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class Patcher:
    """Replaces attributes and remembers the originals for :meth:`undo`."""

    def __init__(self) -> None:
        self._saved = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap each layer's public entry points; returns the undo handle."""
    from repro.core import primitives as ldc_primitives
    from repro.harness.latency import LatencyRecorder, LatencyTimeline
    from repro.lsm.bloom import BloomFilter
    from repro.lsm.cache import BlockCache
    from repro.lsm.compaction import base as compaction_base
    from repro.lsm.db import DB
    from repro.lsm.memtable import MemTable
    from repro.lsm.record import RECORD_OVERHEAD_BYTES
    from repro.lsm.sstable import SSTable
    from repro.lsm.stats import EngineStats
    from repro.lsm.wal import WriteAheadLog
    from repro.obs.histogram import LatencyHistogram
    from repro.obs.registry import MetricsRegistry
    from repro.obs.snapshot import MetricsSnapshot
    from repro.obs.tracer import Tracer
    from repro.sched.scheduler import CompactionScheduler
    from repro.ssd.device import SimulatedSSD
    from repro.ssd.flash import FlashTranslationLayer
    from repro.ssd.metrics import COMPACTION_READ, COMPACTION_WRITE, FLUSH_WRITE
    from repro.workload.ycsb import WorkloadGenerator

    patch = Patcher()
    span = recorder.span
    counts = recorder.counts

    def wrap(owner, layer: str, *names: str, count: str = "") -> None:
        for name in names:
            patch.replace(owner, name, span(layer, owner.__dict__[name], count))

    # workload: lazy input streams, one span per generated operation.
    for name in ("preload_operations", "operations"):
        def stream(self, _original=WorkloadGenerator.__dict__[name]):
            return TimedIterator(recorder, "workload", _original(self))

        patch.replace(WorkloadGenerator, name, stream)

    # db: the facade's put/get; their own code counts as "other"
    wrap(DB, "db", "put", "get")

    # wal
    append = span("wal", WriteAheadLog.append, "wal.appends")

    def wal_append(self, record):
        counts["wal.bytes"] += len(record[0]) + len(record[3]) + RECORD_OVERHEAD_BYTES
        return append(self, record)

    patch.replace(WriteAheadLog, "append", wal_append)
    wrap(WriteAheadLog, "wal", "reset")

    # memtable
    wrap(MemTable, "memtable", "add", count="memtable.adds")
    wrap(MemTable, "memtable", "get", count="memtable.gets")
    wrap(MemTable, "memtable", "sorted_columns")

    # flush (the SSTable builder runs inside it)
    flush = span("flush", DB.flush)

    def db_flush(self):
        if not self._memtable.is_empty():
            counts["flush.count"] += 1
        return flush(self)

    patch.replace(DB, "flush", db_flush)

    # compaction: rounds (UDC merge-down runs inside them) and LDC
    # link/merge.  A round counts when it moved compaction bytes, as the
    # engine's round log does.
    tracked = span("compaction", compaction_base.CompactionPolicy.compact_one_tracked)

    def compact_one_tracked(self):
        before = counts["bytes.compaction_read"] + counts["bytes.compaction_write"]
        did_work = tracked(self)
        if counts["bytes.compaction_read"] + counts["bytes.compaction_write"] > before:
            counts["compaction.rounds"] += 1
        return did_work

    patch.replace(
        compaction_base.CompactionPolicy, "compact_one_tracked", compact_one_tracked
    )
    wrap(ldc_primitives.LDCLinkMergeMovement, "compaction", "link", count="ldc.links")
    wrap(ldc_primitives.LDCLinkMergeMovement, "compaction", "merge", count="ldc.merges")

    # merge: the columnar k-way merge, imported by name in two modules
    merge_windows = span("merge", compaction_base.merge_windows, "merge.calls")

    def merge(windows):
        merged = merge_windows(windows)
        counts["merge.records_in"] += sum(window[5] - window[4] for window in windows)
        counts["merge.records_out"] += len(merged[0])
        return merged

    patch.replace(compaction_base, "merge_windows", merge)
    patch.replace(ldc_primitives, "merge_windows", merge)

    # lookup: the point-read descent; tables probed and blocks charged
    wrap(DB, "lookup", "_lookup", count="lookup.gets")
    lookup_unit = DB._lookup_unit

    def db_lookup_unit(self, key, table, advance, bloom_us, count):
        counts["lookup.tables"] += 1
        return lookup_unit(self, key, table, advance, bloom_us, count)

    patch.replace(DB, "_lookup_unit", db_lookup_unit)
    charge_point_read = DB._charge_point_read

    def db_charge_point_read(self, table, key):
        counts["lookup.blocks"] += 1
        return charge_point_read(self, table, key)

    patch.replace(DB, "_charge_point_read", db_charge_point_read)

    # bloom: probes, plus the lazy filter builds
    may_contain = span("bloom", BloomFilter.may_contain, "bloom.probes")

    def bloom_may_contain(self, key):
        found = may_contain(self, key)
        if not found:
            counts["bloom.negatives"] += 1
        return found

    patch.replace(BloomFilter, "may_contain", bloom_may_contain)
    wrap(BloomFilter, "bloom", "__init__")

    # cache
    cache_lookup = span("cache", BlockCache.lookup)

    def block_cache_lookup(self, file_id, block_index):
        hit = cache_lookup(self, file_id, block_index)
        counts["cache.hits" if hit else "cache.misses"] += 1
        return hit

    patch.replace(BlockCache, "lookup", block_cache_lookup)
    wrap(BlockCache, "cache", "insert", "evict_file")

    # scan: DB.scan including its iterator merge; ranges probed and useful
    scan = span("scan", DB.scan, "scan.calls")

    def db_scan(self, start_key, count):
        recorder.in_scan += 1
        try:
            results = scan(self, start_key, count)
        finally:
            recorder.in_scan -= 1
        counts["scan.records"] += len(results)
        return results

    patch.replace(DB, "scan", db_scan)
    charge_range_read = DB._charge_range_read

    def db_charge_range_read(self, table, lo, hi):
        counts["scan.ranges"] += 1
        return charge_range_read(self, table, lo, hi)

    patch.replace(DB, "_charge_range_read", db_charge_range_read)
    blocks_in_range = SSTable.blocks_in_range

    def sstable_blocks_in_range(self, lo, hi):
        blocks = blocks_in_range(self, lo, hi)
        if recorder.in_scan and blocks:
            counts["scan.useful_ranges"] += 1
        return blocks

    patch.replace(SSTable, "blocks_in_range", sstable_blocks_in_range)

    # device: the non-fused charges, with flush/compaction bytes by category
    category_bytes = {
        FLUSH_WRITE: "bytes.flush_write",
        COMPACTION_READ: "bytes.compaction_read",
        COMPACTION_WRITE: "bytes.compaction_write",
    }

    def charged(direction: str, original, runs: bool = False):
        timed = span("device", original)
        ops_key = f"device.{direction}s"
        bytes_key = f"device.{direction}_bytes"

        def device_call(self, nbytes, category, **kwargs):
            total = sum(nbytes) if runs else nbytes
            counts[ops_key] += len(nbytes) if runs else 1
            counts[bytes_key] += total
            key = category_bytes.get(category)
            if key is not None:
                counts[key] += total
            return timed(self, nbytes, category, **kwargs)

        return device_call

    patch.replace(SimulatedSSD, "read", charged("read", SimulatedSSD.read))
    patch.replace(SimulatedSSD, "write", charged("write", SimulatedSSD.write))
    patch.replace(
        SimulatedSSD, "read_runs", charged("read", SimulatedSSD.read_runs, runs=True)
    )

    # flash, sched
    wrap(FlashTranslationLayer, "flash", "host_write", "trim")
    wrap(CompactionScheduler, "sched", "on_operation", "stall_until_l0_below")

    # obs: registry, engine activity accounting, events, snapshots
    wrap(MetricsRegistry, "obs", "add", "add_many", "set_counter", "set_gauge")
    wrap(EngineStats, "obs", "charge_activity")
    wrap(Tracer, "obs", "emit")
    wrap(LatencyHistogram, "obs", "record", "record_many")
    capture = span("obs", MetricsSnapshot.__dict__["capture"].__func__)
    patch.replace(MetricsSnapshot, "capture", classmethod(capture))

    # harness: the program's own latency recorders (the serve loop)
    wrap(LatencyRecorder, "harness", "record", "record_many")
    wrap(LatencyTimeline, "harness", "record")
    return patch


def window(before: dict, after: dict) -> dict:
    """What happened between two :meth:`SpanRecorder.snapshot` calls."""
    out = {key: after[key] - before[key] for key in COUNTERS}
    out["self_s"] = {
        layer: after["self_s"][layer] - before["self_s"][layer] for layer in LAYERS
    }
    return out


def layer_metrics(measured: dict, wall_s: float) -> dict:
    """The per-layer figures of one measured :func:`window`.

    ``other.self_s`` is the measured wall time no reported layer covers:
    the DB facade, and the benchmark's own loop and oracle.
    """
    self_s = measured["self_s"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    gets = measured["lookup.gets"]
    scans = measured["scan.calls"]
    cache_probes = measured["cache.hits"] + measured["cache.misses"]
    return {
        "wal.appends": measured["wal.appends"],
        "wal.bytes": measured["wal.bytes"],
        "wal.self_s": self_s["wal"],
        "memtable.adds": measured["memtable.adds"],
        "memtable.gets": measured["memtable.gets"],
        "memtable.self_s": self_s["memtable"],
        "flush.count": measured["flush.count"],
        "flush.bytes": measured["bytes.flush_write"],
        "flush.self_s": self_s["flush"],
        "compaction.rounds": measured["compaction.rounds"],
        "compaction.read_bytes": measured["bytes.compaction_read"],
        "compaction.write_bytes": measured["bytes.compaction_write"],
        "compaction.self_s": self_s["compaction"],
        "ldc.links": measured["ldc.links"],
        "ldc.merges": measured["ldc.merges"],
        "merge.calls": measured["merge.calls"],
        "merge.records_in": measured["merge.records_in"],
        "merge.records_out": measured["merge.records_out"],
        "merge.keep_frac": ratio(measured["merge.records_out"], measured["merge.records_in"]),
        "merge.self_s": self_s["merge"],
        "lookup.gets": gets,
        "lookup.tables_per_get": ratio(measured["lookup.tables"], gets),
        "lookup.blocks_per_get": ratio(measured["lookup.blocks"], gets),
        "lookup.self_s": self_s["lookup"],
        "bloom.probes": measured["bloom.probes"],
        "bloom.negative_frac": ratio(measured["bloom.negatives"], measured["bloom.probes"]),
        "bloom.self_s": self_s["bloom"],
        "cache.hit_frac": ratio(measured["cache.hits"], cache_probes),
        "cache.self_s": self_s["cache"],
        "scan.calls": scans,
        "scan.ranges_per_scan": ratio(measured["scan.ranges"], scans),
        "scan.useful_frac": ratio(measured["scan.useful_ranges"], measured["scan.ranges"]),
        "scan.records_per_scan": ratio(measured["scan.records"], scans),
        "scan.self_s": self_s["scan"],
        "device.reads": measured["device.reads"],
        "device.writes": measured["device.writes"],
        "device.read_bytes": measured["device.read_bytes"],
        "device.write_bytes": measured["device.write_bytes"],
        "device.self_s": self_s["device"],
        "flash.self_s": self_s["flash"],
        "sched.self_s": self_s["sched"],
        "serve.self_s": self_s["serve"],
        "obs.self_s": self_s["obs"],
        "harness.recorder_self_s": self_s["harness"],
        "other.self_s": wall_s - sum(self_s.values()) + self_s["db"],
    }
