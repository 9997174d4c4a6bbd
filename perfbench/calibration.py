"""Host-speed calibration: factor out the shared host's changing speed.

A shared host (a cloud VM, say) changes speed with other tenants' load:
over seconds the same Python code can run up to 1.6x slower or faster,
which swamps the differences the benchmark is meant to show.  So the
measured loop is cut into chunks, and after each chunk (outside the
timed calls) a fixed reference workload runs: bisect searches and dict
lookups over a few MB of keys, a k-way ``heapq`` merge, and a tight
dict-update loop.  The chunk's call times are then scaled by
``REFERENCE_S / (reference time just measured)``, i.e. expressed on a
host where the reference takes ``REFERENCE_S`` seconds.  The reference
never calls the program, so the program getting faster still shows in
full; the host getting slower for everything cancels out.
"""

from __future__ import annotations

import bisect
import heapq
import time

#: Reference workload duration on the nominal host (a 2 GHz x86 VM in
#: its fast state); calibrated times are expressed on that host.
REFERENCE_S = 0.004

_KEY_COUNT = 20_000


class Calibrator:
    """Times the reference workload; hands out per-chunk scale factors."""

    def __init__(self) -> None:
        self._keys = [b"%016d" % (3 * index) for index in range(_KEY_COUNT)]
        self._table = {key: (key, index, 1, key) for index, key in enumerate(self._keys)}
        self.samples = []
        #: Wall time spent calibrating (kept out of traced windows).
        self.spent_s = 0.0

    def _reference(self) -> float:
        keys = self._keys
        table = self._table
        count = len(keys)
        start = time.perf_counter()
        total = 0
        for index in range(2_000):
            key = keys[(index * 7919) % count]
            total += table[keys[bisect.bisect_left(keys, key)]][1]
        runs = [keys[offset:offset + 400:3] for offset in (0, 4_000, 9_000, 15_000)]
        total += len(list(heapq.merge(*runs)))
        counts = {}
        for index in range(8_000):
            counts[index & 1023] = counts.get(index & 511, 0) + index
        elapsed = time.perf_counter() - start
        if total < 0:  # keeps the loops' results alive
            raise AssertionError(total)
        return elapsed

    def scale(self) -> float:
        """Scale for the chunk just measured: REFERENCE_S / reference time.

        The reference runs twice and the faster run counts, so a single
        preemption inside it does not skew the chunk.
        """
        start = time.perf_counter()
        sample = min(self._reference(), self._reference())
        self.samples.append(sample)
        self.spent_s += time.perf_counter() - start
        return REFERENCE_S / sample
