"""Latency recording over virtual time.

Collects per-operation latencies (microseconds of virtual time) and
computes exact percentiles — the paper reports P90 through P99.99
(Fig. 8) — plus the per-interval average-latency timeline behind Fig. 1's
fluctuation plot.

Each :class:`LatencyRecorder` also feeds a streaming
:class:`~repro.obs.histogram.LatencyHistogram` (the observability layer's
log-bucketed percentile path): paper figures keep the exact sorted-sample
percentiles, while ``recorder.histogram`` answers the same queries in O(1)
memory for production-scale runs where storing every sample is off the
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ReproError
from ..obs.histogram import LatencyHistogram

#: The percentiles of the paper's Fig. 8.
PAPER_PERCENTILES = (90.0, 99.0, 99.9, 99.99)


class LatencyRecorder:
    """Accumulates latencies and answers percentile/mean queries.

    Exact percentiles come from the stored samples; the parallel
    :attr:`histogram` provides the streaming (bounded-memory) estimates.

    **Sampling mode.**  A 10M-operation run would otherwise hold 10M
    Python floats per recorder.  ``sample_stride=k`` stores every k-th
    sample; ``max_samples=n`` caps the stored list.  The histogram, the
    count, the mean, the minimum and the maximum stay *exact* in every
    mode (they are streamed, not sampled); only the stored-sample list is
    thinned.  Once any sample has been dropped, :meth:`percentile`
    answers from the histogram — within one log-bucket (``growth - 1``,
    5%) of the exact value — instead of pretending the sampled list is
    the population.  The default (``stride=1``, no cap) records exactly
    as before, which the sharded fingerprint tests rely on.
    """

    def __init__(
        self,
        sample_stride: int = 1,
        max_samples: Optional[int] = None,
    ) -> None:
        if sample_stride < 1:
            raise ReproError("sample_stride must be >= 1")
        if max_samples is not None and max_samples < 1:
            raise ReproError("max_samples must be >= 1 when set")
        self._values: List[float] = []
        self._sorted: Optional[np.ndarray] = None
        self._stride = sample_stride
        self._max_samples = max_samples
        #: True once any sample was not stored (strided out or over cap).
        self._lossy = sample_stride > 1
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        #: Streaming log-bucketed view of the same samples.
        self.histogram = LatencyHistogram()

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ReproError(f"negative latency {latency_us!r}")
        count = self._count
        self._count = count + 1
        self._sum += latency_us
        if latency_us > self._max:
            self._max = latency_us
        if latency_us < self._min:
            self._min = latency_us
        self.histogram.record(latency_us)
        if count % self._stride == 0:
            cap = self._max_samples
            if cap is None or len(self._values) < cap:
                self._values.append(latency_us)
                self._sorted = None
            else:
                self._lossy = True

    def record_many(self, latencies: Sequence[float]) -> None:
        """Record a chunk of latencies, in order.

        Equivalent to calling :meth:`record` once per value — same stored
        samples, same histogram, same running aggregates (the float sum
        accumulates sequentially in the same order) — with the per-call
        dispatch amortised for the chunked runner loop.
        """
        if not latencies:
            return
        stride = self._stride
        cap = self._max_samples
        count = self._count
        total = self._sum
        vmin = self._min
        vmax = self._max
        store = self._values
        push = store.append
        stored = len(store)
        for value in latencies:
            if value < 0:
                raise ReproError(f"negative latency {value!r}")
            if value > vmax:
                vmax = value
            if value < vmin:
                vmin = value
            total += value
            if count % stride == 0:
                if cap is None or stored < cap:
                    push(value)
                    stored += 1
                else:
                    self._lossy = True
            count += 1
        self._count = count
        self._sum = total
        self._min = vmin
        self._max = vmax
        self._sorted = None
        self.histogram.record_many(latencies)

    def merge_from(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's state into this one (shard aggregation)."""
        self._values.extend(other._values)
        self._sorted = None
        self._count += other._count
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        if other._min < self._min:
            self._min = other._min
        self._lossy = self._lossy or other._lossy
        self.histogram.merge(other.histogram)

    def __len__(self) -> int:
        """Total number of latencies recorded (not just those stored)."""
        return self._count

    @property
    def is_sampled(self) -> bool:
        """True when the stored-sample list no longer holds every sample."""
        return self._lossy

    @property
    def sample_count(self) -> int:
        """Number of samples actually stored (== ``len`` unless sampled)."""
        return len(self._values)

    def _ensure_sorted(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self._values, dtype=np.float64))
        return self._sorted

    def percentile(self, pct: float) -> float:
        """Percentile (0 < pct <= 100) of the recorded latencies.

        Exact (from the stored samples) until sampling drops any sample;
        after that, answered by the streaming histogram, which is within
        one log-bucket of exact.
        """
        if not 0 < pct <= 100:
            raise ReproError("percentile must lie in (0, 100]")
        if self._count == 0:
            raise ReproError("no latencies recorded")
        if self._lossy:
            return self.histogram.percentile(pct)
        data = self._ensure_sorted()
        index = min(data.size - 1, int(np.ceil(pct / 100.0 * data.size)) - 1)
        return float(data[max(0, index)])

    def percentiles(
        self, pcts: Sequence[float] = PAPER_PERCENTILES
    ) -> Dict[float, float]:
        return {pct: self.percentile(pct) for pct in pcts}

    def streaming_percentiles(
        self, pcts: Sequence[float] = PAPER_PERCENTILES
    ) -> Dict[float, float]:
        """Histogram-estimated percentiles (within one bucket of exact)."""
        return self.histogram.percentiles(pcts)

    def mean(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        if not self._lossy:
            # Exact mode keeps the historical numpy pairwise-sum mean so
            # previously reported numbers reproduce bit for bit.
            return float(np.mean(self._values))
        return self._sum / self._count

    def maximum(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        return self._max

    def minimum(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        return self._min

    @property
    def values(self) -> Sequence[float]:
        """The stored samples (every sample unless sampling is enabled)."""
        return self._values


def merge_recorders(recorders: Iterable[LatencyRecorder]) -> LatencyRecorder:
    """One recorder holding every sample of ``recorders``, in order."""
    merged = LatencyRecorder()
    for recorder in recorders:
        merged.merge_from(recorder)
    return merged


@dataclass
class TimelinePoint:
    """Average latency within one virtual-time bucket (Fig. 1 series).

    ``stall_us`` attributes the bucket's latency to back-pressure: the
    virtual time its operations spent in L0 throttling (slowdown delays,
    stop stalls) plus device-channel waits behind background compaction
    chunks.  Zero whenever the scheduler is off and no stop stall fired —
    a spike with large ``stall_us`` is compaction interference, not
    workload variance.
    """

    start_us: float
    count: int
    mean_latency_us: float
    max_latency_us: float
    stall_us: float = 0.0


class LatencyTimeline:
    """Buckets latencies by virtual time to expose fluctuation (Fig. 1).

    The paper plots "the average latency per second of all the requests";
    the bucket width is configurable because simulated runs compress time.
    """

    def __init__(self, bucket_us: float = 1_000_000.0) -> None:
        if bucket_us <= 0:
            raise ReproError("bucket width must be positive")
        self.bucket_us = bucket_us
        self._sums: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}
        self._maxes: Dict[int, float] = {}
        self._stalls: Dict[int, float] = {}

    def record(
        self, timestamp_us: float, latency_us: float, stall_us: float = 0.0
    ) -> None:
        bucket = int(timestamp_us // self.bucket_us)
        self._sums[bucket] = self._sums.get(bucket, 0.0) + latency_us
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._maxes[bucket] = max(self._maxes.get(bucket, 0.0), latency_us)
        if stall_us:
            self._stalls[bucket] = self._stalls.get(bucket, 0.0) + stall_us

    def merge(self, other: "LatencyTimeline") -> None:
        """Fold ``other``'s buckets into this timeline (same bucket width).

        Shards record against independent virtual clocks over the same
        bucket grid, so merging is bucket-wise: sums and counts add, maxes
        take the max.  Used by the sharded runner to build the aggregate
        Fig. 1-style series.
        """
        if other.bucket_us != self.bucket_us:
            raise ReproError("cannot merge timelines with different bucket widths")
        for bucket, count in other._counts.items():
            self._sums[bucket] = self._sums.get(bucket, 0.0) + other._sums[bucket]
            self._counts[bucket] = self._counts.get(bucket, 0) + count
            self._maxes[bucket] = max(
                self._maxes.get(bucket, 0.0), other._maxes[bucket]
            )
        for bucket, stall in other._stalls.items():
            self._stalls[bucket] = self._stalls.get(bucket, 0.0) + stall

    def points(self) -> List[TimelinePoint]:
        return [
            TimelinePoint(
                start_us=bucket * self.bucket_us,
                count=self._counts[bucket],
                mean_latency_us=self._sums[bucket] / self._counts[bucket],
                max_latency_us=self._maxes[bucket],
                stall_us=self._stalls.get(bucket, 0.0),
            )
            for bucket in sorted(self._counts)
        ]

    def fluctuation_ratio(self) -> float:
        """Largest bucket mean over smallest bucket mean.

        The paper's motivating measurement: "the fluctuation extent of the
        write latency reaches up to 49.13 times compared with the smallest
        latency" (Fig. 1).
        """
        points = self.points()
        if not points:
            raise ReproError("no timeline points recorded")
        means = [point.mean_latency_us for point in points]
        smallest = min(means)
        if smallest <= 0:
            return float("inf")
        return max(means) / smallest


def merge_timelines(
    timelines: Iterable[LatencyTimeline], bucket_us: float
) -> LatencyTimeline:
    """Bucket-wise fold of ``timelines`` (see :meth:`LatencyTimeline.merge`)."""
    merged = LatencyTimeline(bucket_us=bucket_us)
    for timeline in timelines:
        merged.merge(timeline)
    return merged
