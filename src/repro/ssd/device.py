"""The simulated SSD: converts engine I/O into virtual time and wear.

The engine performs *logical* I/O (real bytes move through Python data
structures); this device converts each logical transfer into a virtual-time
charge drawn from an :class:`~repro.ssd.profile.SSDProfile` and records it in
:class:`~repro.ssd.metrics.IOStats`.  This is the substitution documented in
DESIGN.md: the paper measured a Memblaze Q520, we measure a parameterised
model of one.

Service time of one request of ``n`` bytes::

    overhead * (sequential_discount if sequential else 1) + n / bandwidth

Reads and writes use their own overheads and bandwidths, preserving the
read/write asymmetry the paper's analysis builds on.

Observability: every charged transfer is recorded in the shared metrics
registry (under ``device.<direction>.<category>.*``) and, when a tracer
with sinks is attached, emitted as a ``device_read`` / ``device_write``
trace event.
"""

from __future__ import annotations

from typing import NoReturn

from .clock import DeviceChannel, SimClock
from .flash import GC_WRITE, DeviceConfig, FlashSpec, FlashTranslationLayer
from .metrics import IOStats
from .profile import ENTERPRISE_PCIE, SSDProfile
from ..errors import DeviceError
from ..obs.events import EV_DEVICE_READ, EV_DEVICE_WRITE
from ..obs.registry import MetricsRegistry
from ..obs.tracer import Tracer


def _reject_size(nbytes: int) -> NoReturn:
    raise DeviceError(f"I/O size must be non-negative, got {nbytes}")


class SimulatedSSD:
    """A virtual-time flash device shared by one database instance.

    Fault injection: the engine is written against this interface, and
    :class:`~repro.faults.device.FaultyDevice` decorates an instance to
    inject crashes, corruption and transient errors.  The two hooks below
    (:attr:`injects_faults`, :meth:`consume_read_corruption`) exist so the
    engine's decode paths can stay fault-aware at near-zero cost when no
    faults are configured.

    Parameters
    ----------
    profile:
        Device performance parameters; defaults to the enterprise PCIe
        profile that mirrors the paper's testbed.  A
        :class:`~repro.ssd.flash.DeviceConfig` is also accepted and
        carries both the profile and an optional flash geometry — the
        form every ``profile=`` parameter up the stack forwards here.
    clock:
        The virtual clock to advance.  A fresh clock is created when omitted
        so standalone device tests need no setup.
    registry:
        The metrics registry backing the I/O counters; a private one is
        created when omitted.  The DB passes its shared registry so device
        counters appear in ``db.metrics()`` and reset with everything else.
    tracer:
        Event tracer for per-transfer ``device_read``/``device_write``
        events; an inert (sink-less) tracer is created when omitted.
    """

    #: True on devices that may inject faults (``FaultyDevice``).  The DB
    #: caches this flag so fault-free read paths skip the corruption check.
    injects_faults = False

    def __init__(
        self,
        profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
        clock: SimClock | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        flash: FlashSpec | None = None,
    ) -> None:
        if isinstance(profile, DeviceConfig):
            if flash is None:
                flash = profile.flash
            profile = profile.profile
        self.profile = profile
        # Per-direction cost terms, fixed with the (frozen) profile: every
        # charge and cost query is one multiply-add over these.
        discount = profile.sequential_discount
        self._read_overhead = profile.read_overhead_us
        self._read_seq_overhead = profile.read_overhead_us * discount
        self._read_per_byte = profile.read_us_per_byte
        self._write_overhead = profile.write_overhead_us
        self._write_seq_overhead = profile.write_overhead_us * discount
        self._write_per_byte = profile.write_us_per_byte
        self.clock = clock if clock is not None else SimClock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = IOStats(registry=self.registry)
        self.tracer = tracer if tracer is not None else Tracer(clock=self.clock)
        #: Optional flash layer (:mod:`repro.ssd.flash`); ``None`` keeps
        #: the device byte-identical to the flash-less simulator.
        self.flash: FlashTranslationLayer | None = (
            FlashTranslationLayer(flash, device=self) if flash is not None else None
        )
        #: Bandwidth arbiter attached by the compaction scheduler
        #: (:mod:`repro.sched`).  ``None`` by default: without a scheduler
        #: nothing else competes for the device and arbitration is skipped
        #: entirely, keeping the scheduler-off timing bit-identical.
        self.channel: DeviceChannel | None = None
        # Category -> registry view, the per-charge counter lookup.
        self._reads = self.stats.reads
        self._writes = self.stats.writes

    # ------------------------------------------------------------------
    # Cost queries (no side effects) — used by planners and the model layer.
    # ------------------------------------------------------------------
    def read_cost_us(self, nbytes: int, *, sequential: bool = False) -> float:
        """Service time of a read request without performing it."""
        if nbytes < 0:
            _reject_size(nbytes)
        overhead = self._read_seq_overhead if sequential else self._read_overhead
        return overhead + nbytes * self._read_per_byte

    def write_cost_us(self, nbytes: int, *, sequential: bool = False) -> float:
        """Service time of a write request without performing it."""
        if nbytes < 0:
            _reject_size(nbytes)
        overhead = self._write_seq_overhead if sequential else self._write_overhead
        return overhead + nbytes * self._write_per_byte

    # ------------------------------------------------------------------
    # Charged operations — advance the clock and update statistics.
    # Every charged I/O of the engine passes through one of these three
    # methods (directly or via FaultyDevice, which forwards to them).
    # ------------------------------------------------------------------
    def read(self, nbytes: int, category: str, *, sequential: bool = False) -> float:
        """Charge a read of ``nbytes`` to ``category``; return elapsed µs.

        With a :class:`~repro.ssd.clock.DeviceChannel` attached (scheduler
        on), a foreground request first waits out the channel's busy
        horizon — background compaction chunks in flight — and then
        occupies the device itself; the wait is recorded under
        ``sched.device_wait_us``.  During a clock capture the charge is
        diverted (the scheduler replays it later), so no arbitration
        happens here.
        """
        if nbytes < 0:
            _reject_size(nbytes)
        overhead = self._read_seq_overhead if sequential else self._read_overhead
        elapsed = overhead + nbytes * self._read_per_byte
        if self.channel is None:
            self.clock.advance_io(elapsed, nbytes)
        else:
            self._arbitrate(elapsed, nbytes)
        view = self._reads.get(category)
        if view is None:
            view = self.stats._stream(self._reads, "read", category)
        view.record(nbytes, elapsed)
        if self.tracer.active:
            self.tracer.emit(
                EV_DEVICE_READ,
                category=category,
                nbytes=nbytes,
                elapsed_us=elapsed,
                sequential=sequential,
            )
        return elapsed

    def write(
        self,
        nbytes: int,
        category: str,
        *,
        sequential: bool = False,
        owner=None,
        stream: bool = False,
    ) -> float:
        """Charge a write of ``nbytes`` to ``category``; return elapsed µs.

        Arbitrates for the device channel exactly like :meth:`read`.

        With a flash layer attached, the write is first mapped into page
        programs tagged with ``owner`` (``stream=True`` appends into the
        owner's partial-page fill buffer — the WAL path); that mapping
        step may trigger garbage collection, whose relocation I/O is
        charged before this write's own service time.  GC's internal
        relocation writes (category ``gc_write``) skip the mapping step
        — the FTL programs those pages itself.
        """
        if nbytes < 0:
            _reject_size(nbytes)
        overhead = self._write_seq_overhead if sequential else self._write_overhead
        elapsed = overhead + nbytes * self._write_per_byte
        flash = self.flash
        if flash is not None and category != GC_WRITE:
            flash.host_write(nbytes, category, owner=owner, stream=stream)
        if self.channel is None:
            self.clock.advance_io(elapsed, nbytes)
        else:
            self._arbitrate(elapsed, nbytes)
        view = self._writes.get(category)
        if view is None:
            view = self.stats._stream(self._writes, "write", category)
        view.record(nbytes, elapsed)
        if self.tracer.active:
            self.tracer.emit(
                EV_DEVICE_WRITE,
                category=category,
                nbytes=nbytes,
                elapsed_us=elapsed,
                sequential=sequential,
            )
        return elapsed

    def read_runs(
        self,
        run_sizes: "list[int]",
        category: str,
        *,
        sequential: bool = False,
    ) -> float:
        """Charge one read per block run; return the total elapsed µs.

        The batched compaction accounting path: each run is charged to the
        clock individually, in order, exactly as the equivalent sequence
        of :meth:`read` calls would be (so scheduler captures see the same
        items and the virtual timeline is bit-identical), but the metrics
        registry is updated once per batch through prebuilt keys
        (:meth:`~repro.ssd.metrics.IOStats.record_read_many`) instead of
        three dict round-trips per run.
        """
        overhead = self._read_seq_overhead if sequential else self._read_overhead
        per_byte = self._read_per_byte
        charge = self.clock.advance_io if self.channel is None else self._arbitrate
        elapsed_runs: "list[float]" = []
        push = elapsed_runs.append
        for nbytes in run_sizes:
            if nbytes < 0:
                _reject_size(nbytes)
            elapsed = overhead + nbytes * per_byte
            charge(elapsed, nbytes)
            push(elapsed)
        self.stats.record_read_many(category, run_sizes, elapsed_runs)
        if self.tracer.active:
            for nbytes, elapsed in zip(run_sizes, elapsed_runs):
                self.tracer.emit(
                    EV_DEVICE_READ,
                    category=category,
                    nbytes=nbytes,
                    elapsed_us=elapsed,
                    sequential=sequential,
                )
        return sum(elapsed_runs)

    def _arbitrate(self, elapsed: float, nbytes: int) -> None:
        """Advance the clock for one transfer through the device channel.

        Outside a clock capture the request waits out the channel's busy
        horizon, then occupies the device; during a capture the charge is
        diverted like any other (the scheduler replays it later).
        """
        clock = self.clock
        if clock.capturing:
            clock.advance_io(elapsed, nbytes)
            return
        wait = self.channel.busy_until_us - clock.now()
        if wait > 0:
            clock.advance(wait)
            self.registry.add("sched.device_wait_us", wait)
            self.registry.add("sched.device_waits", 1)
        clock.advance(elapsed)
        self.channel.occupy_until(clock.now())

    def trim(self, owner) -> None:
        """Invalidate every flash page tagged with ``owner``.

        The engine calls this when a tagged extent dies as a whole — an
        SSTable deleted after compaction, or the WAL reset after a
        flush.  Free on the plain (flash-less) device: dropped data
        costs nothing there, matching the pre-flash simulator exactly.
        """
        if self.flash is not None:
            self.flash.trim(owner)

    # ------------------------------------------------------------------
    # Fault-injection hooks (inert on the plain device)
    # ------------------------------------------------------------------
    def consume_read_corruption(self) -> int:
        """XOR mask the last read's bit flips applied to its block CRC.

        The plain device never corrupts, so this is always 0.  A
        :class:`~repro.faults.device.FaultyDevice` returns a non-zero mask
        exactly once per injected corruption; decode paths call this right
        after charging a read and verify the delivered checksum against
        the stored one, raising
        :class:`~repro.errors.CorruptionError` on mismatch.
        """
        return 0

    # ------------------------------------------------------------------
    @property
    def wear_bytes(self) -> int:
        """Total bytes physically written to flash (endurance proxy).

        With a flash layer attached this is the programmed-page total
        (host pages + GC relocations, whole-page granularity) — the
        quantity erase counts follow.  Without one it falls back to the
        host byte total, the historical proxy.
        """
        if self.flash is not None:
            return self.flash.bytes_programmed
        return self.stats.total_bytes_written

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedSSD(profile={self.profile.name!r}, t={self.clock.now():.1f}us)"
