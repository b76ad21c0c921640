"""The supervised worker cluster: protocol, checkpoints, crash recovery.

Most tests use the supervisor's *inline* mode — the same
:class:`~repro.service.cluster.ShardWorkerState` protocol machine the
real processes run, minus the pipes — so crash/restart/re-hydration
logic is exercised deterministically and fast. A small set of
process-mode tests at the end covers what inline cannot: real SIGKILL,
broken pipes, and the shared-memory blob transport.
"""

import os
import pickle
import signal
import time
import zlib

import numpy as np
import pytest

from repro.errors import CorruptionDetected, UnknownDataset, WorkerUnavailable
from repro.service.cluster import (
    ALIVE,
    DOWN,
    SHM_BLOB_THRESHOLD,
    CheckpointStore,
    ShardCheckpoint,
    ShardWorkerState,
    WorkerSupervisor,
    _pack_lookup_request,
    _pack_lookup_response,
    _recv_blob,
    _send_blob,
    _unpack_lookup_request,
    _unpack_lookup_response,
)
from repro.service.queries import region_sum as local_region_sum
from repro.service.router import ShardRouter, make_placement
from repro.service.store import Dataset
from repro.util.backoff import ExponentialBackoff, FakeClock

TILE = 8


def _dataset(rng, n=32, name="img"):
    a = rng.integers(-50, 50, size=(n, n)).astype(np.float64)
    return Dataset(name, a, TILE)


def _checkpointed(ds):
    """A CheckpointStore holding ``ds`` split into two ranges."""
    store = CheckpointStore()
    nb = ds.values.nb_r * ds.values.nb_c
    ranges = [(lo, hi) for (lo, hi), _ in make_placement(nb, 2, replicas=1)]
    store.register(ds, ranges)
    return store, ranges


def _load_worker(worker, store, ds, name="img", range_ids=None):
    """Install checkpoints into a bare ShardWorkerState, as load_shard would."""
    for i, rid in enumerate(range_ids or range(len(store.ranges(name)))):
        cp = store.payload_for(name, rid)
        meta = {
            "range_id": cp.range_id, "version": cp.version, "crc": cp.crc,
            "t": ds.values.t, "nb_c": ds.values.nb_c,
            "rows": ds.values.rows, "cols": ds.values.cols, "reset": i == 0,
        }
        transport, shm = _send_blob(cp.blob)
        try:
            reply = worker.handle(("load", name, meta, transport))
            assert reply[0] == "ok", reply
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()


def _lookup(worker, name, points):
    """One ``lookup`` op on a bare ShardWorkerState, in the packed wire format."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    status, payload = worker.handle(("lookup", _pack_lookup_request(name, pts)))
    if status != "ok":
        return status, payload
    return status, _unpack_lookup_response(payload)


# --- worker protocol ----------------------------------------------------------


def test_worker_ping_reports_epoch_and_datasets(rng):
    worker = ShardWorkerState(3, epoch=7)
    ok, info = worker.handle(("ping",))
    assert ok == "ok"
    assert info["worker"] == 3 and info["epoch"] == 7 and info["datasets"] == {}


def test_worker_lookup_matches_local_sat(rng):
    ds = _dataset(rng)
    store, _ranges = _checkpointed(ds)
    worker = ShardWorkerState(0)
    _load_worker(worker, store, ds)
    points = [(int(r), int(c)) for r, c in rng.integers(0, 32, size=(16, 2))]
    ok, (values, version) = _lookup(worker, "img", points)
    assert ok == "ok" and version == ds.version
    for (r, c), got in zip(points, values):
        assert got == ds.values.sat_at(r, c)  # bitwise: same addition order


def test_worker_rejects_corrupt_checkpoint(rng):
    ds = _dataset(rng)
    store, _ranges = _checkpointed(ds)
    cp = store.payload_for("img", 0)
    bad = bytearray(cp.blob)
    bad[len(bad) // 2] ^= 0xFF
    meta = {
        "range_id": 0, "version": cp.version, "crc": cp.crc,
        "t": ds.values.t, "nb_c": ds.values.nb_c,
        "rows": ds.values.rows, "cols": ds.values.cols, "reset": True,
    }
    worker = ShardWorkerState(0)
    status, detail = worker.handle(("load", "img", meta, ("inline", bytes(bad))))
    assert status == "error" and "CRC" in detail
    assert worker.datasets == {}  # nothing half-installed


def test_worker_delta_applies_only_owned_tiles(rng):
    ds = _dataset(rng)
    store, ranges = _checkpointed(ds)
    worker = ShardWorkerState(0)
    _load_worker(worker, store, ds, range_ids=[0])  # first range only
    ds.update_point(1, 1, delta=5.0)  # tile (0,0) = lin 0, inside range 0
    comps = ds.values.shard_delta(0, 0, 0, 0)
    ok, version = worker.handle(("delta", "img", ds.version, comps))
    assert ok == "ok" and version == ds.version
    ok, (values, _v) = _lookup(worker, "img", [(1, 1)])
    assert ok == "ok" and values[0] == ds.values.sat_at(1, 1)


def test_worker_lookup_outside_shards_is_an_error_not_a_guess(rng):
    ds = _dataset(rng)
    store, ranges = _checkpointed(ds)
    worker = ShardWorkerState(0)
    _load_worker(worker, store, ds, range_ids=[0])
    (lo, hi) = ranges[1]
    r = (lo // ds.values.nb_c) * TILE  # a point in the uninstalled range
    c = (lo % ds.values.nb_c) * TILE
    status, detail = _lookup(worker, "img", [(r, c)])
    assert status == "error" and "outside this worker" in detail


def test_worker_unknown_op_and_unknown_dataset(rng):
    worker = ShardWorkerState(0)
    assert worker.handle(("warp", 1))[0] == "error"
    assert _lookup(worker, "ghost", [(0, 0)])[0] == "error"
    assert worker.handle(("delta", "ghost", 1, {}))[0] == "error"
    assert worker.handle(("drop", "ghost"))[0] == "ok"  # drop is idempotent


# --- blob transport -----------------------------------------------------------


def test_blob_transport_inline_and_shared_memory():
    small = b"x" * 128
    transport, shm = _send_blob(small)
    assert transport[0] == "inline" and shm is None
    assert _recv_blob(transport) == small

    big = bytes(range(256)) * (SHM_BLOB_THRESHOLD // 256 + 1)
    transport, shm = _send_blob(big)
    try:
        assert transport[0] == "shm"
        assert _recv_blob(transport) == big
    finally:
        shm.close()
        shm.unlink()


# --- checkpoint store ---------------------------------------------------------


def test_checkpoints_are_cached_until_the_version_moves(rng):
    ds = _dataset(rng)
    store, _ranges = _checkpointed(ds)
    first = store.payload_for("img", 0)
    assert store.payload_for("img", 0) is first  # same version: cached
    assert store.rebuilds == 1
    ds.update_point(0, 0, delta=1.0)
    second = store.payload_for("img", 0)
    assert second is not first and second.version == ds.version
    assert store.rebuilds == 2
    # The rebuilt blob reflects the update and round-trips its CRC.
    assert zlib.crc32(second.blob) == second.crc
    state = pickle.loads(second.blob)
    assert state["local"][0, 0, 0] == ds.values.local[0, 0, 0, 0]


def test_checkpoint_store_unknown_dataset():
    store = CheckpointStore()
    with pytest.raises(UnknownDataset):
        store.dataset("ghost")
    with pytest.raises(UnknownDataset):
        store.payload_for("ghost", 0)


# --- supervisor (inline mode) -------------------------------------------------


def test_inline_crash_detection_and_auto_restart(rng):
    sup = WorkerSupervisor(3, inline=True)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        router.ingest("img", a, tile=TILE)
        sup.kill_worker(1)
        # kill_worker leaves detection to the real paths: the handle still
        # *claims* alive until an RPC or health pass touches the corpse.
        assert sup.handles[1].state == ALIVE
        sup.check_health()
        # One pass detects the death; auto_restart re-hydrates on a fresh
        # epoch (inline restart happens within the same pass or the next).
        assert sup.wait_healthy(2.0)
        assert sup.handles[1].epoch == 1
        assert sup.restarts_total == 1
        info = sup.rpc(1, ("ping",))
        assert info["epoch"] == 1 and "img" in info["datasets"]
    finally:
        router.close()


def test_restarted_worker_serves_from_checkpoints_bit_exactly(rng):
    sup = WorkerSupervisor(2, inline=True, auto_restart=False)
    router = ShardRouter(sup, replicas=1)  # no replicas: restart must work
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        ds.update_point(9, 9, delta=4.0)  # direct update: checkpoint is stale
        sup.kill_worker(0)
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("ping",))
        assert sup.handles[0].state == DOWN
        assert sup.restart(0)
        assert sup.handles[0].state == ALIVE and sup.handles[0].epoch == 1
        # Re-hydration pulled a checkpoint at the *current* version.
        values, version = sup.rpc(0, ("lookup", "img", [(9, 9)]))
        assert version == ds.version
        assert values[0] == ds.values.sat_at(9, 9)
    finally:
        router.close()


def test_restart_gives_up_after_max_attempts(rng, monkeypatch):
    clock = FakeClock()
    sup = WorkerSupervisor(
        2, inline=True, auto_restart=False, clock=clock,
        max_restart_attempts=3,
        restart_backoff=ExponentialBackoff(base=0.01, factor=2.0, cap=1.0),
    )
    try:
        sup.kill_worker(0)
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("ping",))

        def explode(handle):
            raise WorkerUnavailable("spawn always fails")

        monkeypatch.setattr(sup, "_rehydrate", explode)
        assert not sup.restart(0)
        assert sup.handles[0].state == DOWN
        # Deterministic backoff schedule between the three attempts.
        assert clock.sleeps == [0.01, 0.02, 0.04]
    finally:
        sup.stop()


def test_load_shard_crc_rejection_raises_corruption_detected(rng):
    sup = WorkerSupervisor(1, inline=True)
    try:
        ds = _dataset(rng)
        store, ranges = _checkpointed(ds)
        sup.checkpoints.register(ds, ranges)
        good = sup.checkpoints.payload_for("img", 0)
        tampered = ShardCheckpoint(
            range_id=good.range_id, lo=good.lo, hi=good.hi,
            version=good.version,
            blob=good.blob[:-1] + bytes([good.blob[-1] ^ 0xFF]),
            crc=good.crc,  # stale CRC: the worker must notice
        )
        with pytest.raises(CorruptionDetected):
            sup.load_shard(0, "img", tampered)
    finally:
        sup.stop()


def test_supervisor_stats_shape(rng):
    with WorkerSupervisor(2, inline=True) as sup:
        stats = sup.stats()
        assert stats["workers"] == 2 and stats["alive"] == 2
        assert stats["restarts"] == 0 and stats["failures"] == 0
        assert set(stats["states"]) == {0, 1}


# --- process mode (real crashes, real pipes) ----------------------------------


def test_process_worker_sigkill_detected_and_restarted(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        sup.kill_worker(0)
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("ping",))  # broken pipe -> marked down
        assert sup.handles[0].state == DOWN
        assert sup.restart(0)
        assert sup.handles[0].epoch == 1
        values, _v = sup.rpc(0, ("lookup", "img", [(31, 31)]))
        assert values[0] == ds.values.sat_at(31, 31)
    finally:
        router.close()


def test_process_shared_memory_checkpoint_transport(rng):
    """A dataset big enough that its shard blobs ride shared memory."""
    n = 96  # 12x12 tiles of 8x8 float64 per range on 1 worker: > 64 KiB
    sup = WorkerSupervisor(1)
    router = ShardRouter(sup, replicas=1)
    try:
        a = rng.integers(-50, 50, size=(n, n)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        cp = router.checkpoints.payload_for("img", 0)
        assert len(cp.blob) >= SHM_BLOB_THRESHOLD  # the test is not vacuous
        values, _v = sup.rpc(0, ("lookup", "img", [(n - 1, n - 1)]))
        assert values[0] == ds.values.sat_at(n - 1, n - 1)
    finally:
        router.close()


def test_process_rpc_times_out_on_a_stalled_worker():
    """A worker that never answers costs the RPC timeout, not a hang,
    and is marked down."""
    sup = WorkerSupervisor(1, auto_restart=False)
    try:
        pid = sup.handles[0].process.pid
        os.kill(pid, signal.SIGSTOP)
        try:
            t0 = time.monotonic()
            with pytest.raises(WorkerUnavailable, match="no reply"):
                sup.rpc(0, ("ping",), timeout=0.2)
            elapsed = time.monotonic() - t0
        finally:
            os.kill(pid, signal.SIGCONT)
        assert 0.19 <= elapsed < 2.0
        assert sup.handles[0].state == DOWN
    finally:
        sup.stop()


def test_monitor_thread_recovers_a_killed_worker(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        sup.start_monitor()
        sup.kill_worker(1)
        # wait_healthy alone is not enough right after a SIGKILL — the
        # corpse still *claims* alive until a heartbeat touches it. The
        # epoch bump is the proof the monitor detected and restarted it.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and sup.handles[1].epoch < 1:
            time.sleep(0.01)
        assert sup.handles[1].epoch >= 1
        assert sup.wait_healthy(10.0)
        values, _v = sup.rpc(1, ("lookup", "img", [(0, 0)]))
        assert values[0] == ds.values.sat_at(0, 0)
    finally:
        router.close()


# --- lookup wire format -------------------------------------------------------


def test_ring_codec_roundtrips_points_and_values():
    pts = np.array([[0, 0], [7, 31], [120, 3]], dtype=np.int64)
    name, got = _unpack_lookup_request(_pack_lookup_request("img", pts))
    assert name == "img" and np.array_equal(got, pts)
    empty_name, empty = _unpack_lookup_request(
        _pack_lookup_request("squares", np.empty((0, 2), dtype=np.int64))
    )
    assert empty_name == "squares" and empty.shape == (0, 2)
    for values in (
        np.array([1.5, -2.5, 1e300], dtype=np.float64),
        np.arange(-3, 3, dtype=np.int64),
        np.array([0.25], dtype=np.float32),
    ):
        got_v, version = _unpack_lookup_response(_pack_lookup_response(values, 7))
        assert version == 7
        assert got_v.dtype == values.dtype
        assert np.array_equal(got_v, values)


def test_process_bulk_lookup_is_exact(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        # Past the scalar cutoff (vectorized serving), and 10 000 points:
        # 160 KB of request, more than any fixed-size transport slot.
        for pts in (
            np.array([[r, c] for r in range(0, 32, 4) for c in (0, 31)],
                     dtype=np.int64),
            rng.integers(0, 32, size=(10_000, 2)),
        ):
            values, version = sup.rpc(0, ("lookup", "img", pts))
            want = ds.values.sat_at_many(pts[:, 0], pts[:, 1])
            assert version == ds.version and values.dtype == want.dtype
            assert np.array_equal(values, want)
        assert sup.stats()["lookups_served"][0] == 2
    finally:
        router.close()


def test_process_tiny_pipe_lookup_preserves_dataset_dtype(rng):
    """Regression: a tiny pipe lookup must restore the dataset dtype.
    Rebuilding float32 corners as float64 made region_sum stitch at the
    wrong precision *and* return the wrong dtype.
    """
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float32)
        ds = router.ingest("img", a, tile=TILE)
        pts = np.array([[3, 3], [9, 9], [31, 31]], dtype=np.int64)
        values, _v = sup.rpc(0, ("lookup", "img", pts))
        assert values.dtype == np.float32
        for (r, c), got in zip(pts, values):
            assert got == ds.values.sat_at(r, c)
        # End-to-end: scalar region_sum (which sums raw corner values)
        # must match the local oracle bit-for-bit, dtype included.
        for top, left, bottom, right in [(0, 0, 31, 31), (5, 7, 20, 22),
                                         (9, 9, 12, 12), (0, 3, 3, 30)]:
            got = router.region_sum("img", top, left, bottom, right)
            want = local_region_sum(ds, top, left, bottom, right)
            assert got == want
            assert np.asarray(got).dtype == np.asarray(want).dtype
        assert router.counters["degraded"] == 0
    finally:
        router.close()


def test_process_lookup_fails_fast_when_worker_dies(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        pts = np.array(
            [[r, c] for r in range(0, 32, 4) for c in (0, 31)], dtype=np.int64
        )
        sup.kill_worker(0)
        # The broken pipe must surface well before the 5s RPC timeout.
        t0 = time.monotonic()
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("lookup", "img", pts))
        assert time.monotonic() - t0 < 4.0
        assert sup.handles[0].state == DOWN
        assert sup.restart(0)
        values, _v = sup.rpc(0, ("lookup", "img", pts))
        want = np.array([ds.values.sat_at(r, c) for r, c in pts])
        assert np.array_equal(values, want)
    finally:
        router.close()
