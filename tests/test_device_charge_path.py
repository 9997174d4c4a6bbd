"""One device charge path: every engine I/O reaches ``SimulatedSSD``.

WAL appends and point reads are charged through ``SimulatedSSD.write`` /
``SimulatedSSD.read`` like every other transfer, so a wrapper on those two
methods sees exactly the I/Os the metrics registry counts.  Tracing only
observes: attaching a sink changes neither the metrics, the per-operation
latencies nor the virtual clock.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import DB, RingBufferSink, Tracer
from repro.lsm.config import LSMConfig
from repro.obs.events import EV_DEVICE_READ, EV_DEVICE_WRITE
from repro.ssd.device import SimulatedSSD
from repro.ssd.metrics import USER_READ, WAL_WRITE

from tests.conftest import key_of


def drive(db: DB, ops: int = 1500, keys: int = 400) -> "list[float]":
    """Seeded puts and gets; returns each operation's virtual latency."""
    rng = random.Random(7)
    latencies = []
    for _ in range(ops):
        key = key_of(rng.randrange(keys))
        start = db.clock.now()
        if rng.random() < 0.6:
            db.put(key, b"v" * rng.randrange(20, 120))
        else:
            db.get(key)
        latencies.append(db.clock.now() - start)
    return latencies


@pytest.fixture(params=[0, 4096], ids=["no_cache", "cache"])
def config(request: pytest.FixtureRequest, tiny_config: LSMConfig) -> LSMConfig:
    return dataclasses.replace(tiny_config, block_cache_bytes=request.param)


@pytest.mark.parametrize("policy", ["udc", "ldc"])
def test_every_wal_append_and_point_read_calls_the_device(
    monkeypatch: pytest.MonkeyPatch, config: LSMConfig, policy: str
) -> None:
    calls = {"read": {}, "write": {}}

    def counting(direction: str, original):
        def shim(self, nbytes, category, **kwargs):
            seen = calls[direction]
            seen[category] = seen.get(category, 0) + 1
            return original(self, nbytes, category, **kwargs)

        return shim

    monkeypatch.setattr(SimulatedSSD, "read", counting("read", SimulatedSSD.read))
    monkeypatch.setattr(SimulatedSSD, "write", counting("write", SimulatedSSD.write))
    db = DB(config=config, policy=policy)
    assert db.sched is None and db.device.flash is None
    drive(db)
    snap = db.metrics()
    user_reads = snap.get(f"device.read.{USER_READ}.ops")
    wal_writes = snap.get(f"device.write.{WAL_WRITE}.ops")
    assert user_reads > 0 and wal_writes > 0
    assert calls["read"].get(USER_READ, 0) == user_reads
    assert calls["write"].get(WAL_WRITE, 0) == wal_writes


@pytest.mark.parametrize("policy", ["udc", "ldc"])
def test_tracing_is_observation_only(config: LSMConfig, policy: str) -> None:
    plain = DB(config=config, policy=policy)
    sink = RingBufferSink()
    traced = DB(config=config, policy=policy, tracer=Tracer([sink]))
    plain_latencies = drive(plain)
    traced_latencies = drive(traced)
    assert sink.events_of(EV_DEVICE_READ) and sink.events_of(EV_DEVICE_WRITE)
    assert traced_latencies == plain_latencies
    assert traced.clock.now() == plain.clock.now()
    plain_snap, traced_snap = plain.metrics(), traced.metrics()
    assert dict(traced_snap.counters) == dict(plain_snap.counters)
    assert dict(traced_snap.gauges) == dict(plain_snap.gauges)
