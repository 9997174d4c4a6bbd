"""The bounded, admission-controlled request queue of the serving layer.

A single virtual server (the DB) drains this queue; arrivals that find
it full are *rejected with a typed error* instead of growing an unbounded
backlog — the admission-control half of tail-latency engineering: a
bounded queue turns overload into explicit, measurable rejections rather
than unbounded queue-wait.

Two disciplines:

* ``"fifo"`` — arrival order;
* ``"priority"`` — stable priority order (lower value first, FIFO within
  a priority level), so a latency-critical tenant overtakes batch
  traffic *in the queue* while the service path stays identical.

The queue also carries the conservation ledger the property suite pins:
every request that ever arrived is accounted for as admitted or
rejected, and every admitted request is either completed or still
queued (``arrived == admitted + rejected``, ``admitted == completed +
depth``), at every point in time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigError, QueueFullError

#: Queue disciplines accepted by :class:`RequestQueue`.
DISCIPLINES = ("fifo", "priority")


@dataclass(frozen=True)
class Request:
    """One open-loop request: an operation with an arrival timestamp.

    ``seq`` is the global arrival index — the FIFO order and the
    priority tiebreaker.  ``operation`` is a workload
    :class:`~repro.workload.ycsb.Operation`; the serving loop executes
    it against the DB exactly like the closed-loop runner would.
    """

    seq: int
    arrival_us: float
    tenant_index: int
    operation: object
    priority: int = 0


@dataclass
class QueueStats:
    """The conservation ledger (see module docstring)."""

    arrived: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0

    def check_conservation(self, depth: int) -> None:
        """Raise ``AssertionError`` unless the ledger balances.

        An explicit raise, not ``assert``, so ``python -O`` keeps it.
        """
        if self.arrived != self.admitted + self.rejected:
            raise AssertionError(self)
        if self.admitted != self.completed + depth:
            raise AssertionError((self, depth))


class RequestQueue:
    """Bounded FIFO / priority queue with typed admission rejection."""

    def __init__(self, capacity: int, discipline: str = "fifo") -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity!r}")
        if discipline not in DISCIPLINES:
            known = ", ".join(DISCIPLINES)
            raise ConfigError(
                f"unknown queue discipline {discipline!r}; known: {known}"
            )
        self.capacity = capacity
        self.discipline = discipline
        self.stats = QueueStats()
        self._fifo: List[Request] = []
        self._fifo_head = 0
        self._heap: List[Tuple[int, int, Request]] = []

    @property
    def depth(self) -> int:
        """Requests currently queued (admitted, not yet started)."""
        if self.discipline == "fifo":
            return len(self._fifo) - self._fifo_head
        return len(self._heap)

    def __len__(self) -> int:
        return self.depth

    def offer(
        self, request: Request, effective_capacity: Optional[int] = None
    ) -> None:
        """Admit ``request`` or raise :class:`~repro.errors.QueueFullError`.

        ``effective_capacity`` lets the server shrink the admission bound
        below the configured capacity (the back-pressure hook) without
        mutating queue state; it never exceeds ``capacity``.
        """
        bound = self.capacity
        if effective_capacity is not None and effective_capacity < bound:
            bound = max(1, effective_capacity)
        self.stats.arrived += 1
        if self.depth >= bound:
            self.stats.rejected += 1
            raise QueueFullError(
                f"request queue full (depth {self.depth} >= bound {bound})",
                depth=self.depth,
            )
        self.stats.admitted += 1
        if self.discipline == "fifo":
            self._fifo.append(request)
        else:
            heapq.heappush(
                self._heap, (request.priority, request.seq, request)
            )

    def reject_external(self) -> None:
        """Record an arrival the *server* refused before offering it.

        Back-pressure rejections happen at the server (they need engine
        state the queue cannot see); routing them through the ledger
        keeps conservation exact: every arrival is accounted somewhere.
        """
        self.stats.arrived += 1
        self.stats.rejected += 1

    def pop(self) -> Request:
        """Next request under the discipline (caller checks ``depth``)."""
        if self.discipline == "fifo":
            if self._fifo_head >= len(self._fifo):
                raise ConfigError("pop from an empty request queue")
            request = self._fifo[self._fifo_head]
            self._fifo_head += 1
            # Compact the drained prefix occasionally so a long run's
            # queue list does not grow without bound.
            if self._fifo_head > 4096 and self._fifo_head * 2 > len(self._fifo):
                del self._fifo[: self._fifo_head]
                self._fifo_head = 0
            return request
        if not self._heap:
            raise ConfigError("pop from an empty request queue")
        return heapq.heappop(self._heap)[2]

    def complete(self) -> None:
        """Mark one popped request as finished (ledger bookkeeping)."""
        self.stats.completed += 1
