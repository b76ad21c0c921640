"""The multi-core batch frontend: correctness, edge cases, crash surfacing.

Pool tests use tiny matrices — the point is the plumbing (shared-memory
round trip, ordered delivery, error typing), not throughput; the
throughput claim lives in ``benchmarks/bench_throughput.py`` where it is
gated only on hosts with enough cores.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError, WorkerCrashed
from repro.machine.params import MachineParams
from repro.sat import BatchSession, batch_counters, sat_batch, sat_batch_list
from repro.obs import runtime as obs
from repro.sat.batch import CRASH_ENV_VAR, CRASH_ONCE_ENV_VAR, _stack_batch
from repro.sat.reference import sat_reference

PARAMS = MachineParams(width=8, latency=16)


def _random_batch(rng, k, shape=(16, 16)):
    return [rng.integers(0, 50, size=shape).astype(np.float64) for _ in range(k)]


# --- serial path (workers=1) -------------------------------------------------


def test_serial_batch_matches_reference_in_order(rng):
    mats = _random_batch(rng, 6)
    sats = sat_batch_list(mats, "1R1W", PARAMS, workers=1)
    assert len(sats) == 6
    for m, s in zip(mats, sats):
        assert np.array_equal(s, sat_reference(m))


def test_empty_batch_yields_nothing():
    assert sat_batch_list([], "1R1W", PARAMS) == []
    assert sat_batch_list([], "1R1W", PARAMS, workers=4) == []


def test_single_matrix_batch(rng):
    (m,) = _random_batch(rng, 1)
    sats = sat_batch_list([m], "2R2W", PARAMS)  # pool collapses to serial
    assert len(sats) == 1
    assert np.array_equal(sats[0], sat_reference(m))


def test_mixed_shapes_are_rejected(rng):
    a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
    b = rng.integers(0, 9, size=(8, 16)).astype(np.float64)
    with pytest.raises(ShapeError, match="share one shape"):
        sat_batch_list([a, b], "1R1W", PARAMS)


def test_non_2d_entries_are_rejected(rng):
    with pytest.raises(ShapeError):
        _stack_batch([np.zeros((4, 4)), np.zeros(4)])
    with pytest.raises(ShapeError):
        _stack_batch([np.zeros((0, 4))])


def test_invalid_fused_is_rejected_before_workers_fork():
    before = len(multiprocessing.active_children())
    with pytest.raises(ConfigurationError, match="True, 'numpy', or 'native'"):
        BatchSession("1R1W", PARAMS, workers=2, fast=True, fused="fortran")
    assert len(multiprocessing.active_children()) == before


def test_algorithm_kwargs_and_instances(rng):
    from repro.sat.algo_kr1w import CombinedKR1W

    mats = _random_batch(rng, 3)
    by_name = sat_batch_list(mats, "kR1W", PARAMS, workers=1, p=0.5)
    by_instance = sat_batch_list(mats, CombinedKR1W(p=0.5), PARAMS, workers=1)
    for x, y in zip(by_name, by_instance):
        assert np.array_equal(x, y)
    with pytest.raises(TypeError):
        sat_batch_list(mats, CombinedKR1W(p=0.5), PARAMS, workers=1, p=0.5)


def test_serial_session_reuses_one_plan(rng):
    mats = _random_batch(rng, 5)
    with BatchSession("1R1W", PARAMS, workers=1) as session:
        sats = list(session.map(mats))
        more = list(session.map(mats))
        stats = session._engine.stats()
    assert stats["compiles"] == 1
    assert stats["hits"] == 9  # all but the first of 10 runs
    for m, s, s2 in zip(mats, sats, more):
        assert np.array_equal(s, sat_reference(m))
        assert np.array_equal(s, s2)


# --- pool path ---------------------------------------------------------------


def test_pool_batch_matches_serial_in_order(rng):
    """Multi-worker results are bit-identical to serial and input-ordered."""
    mats = _random_batch(rng, 8)
    serial = sat_batch_list(mats, "1R1W", PARAMS, workers=1)
    pooled = sat_batch_list(mats, "1R1W", PARAMS, workers=3)
    assert len(pooled) == 8
    for s, p in zip(serial, pooled):
        assert np.array_equal(s, p)


def test_pool_delivery_order_is_deterministic(rng):
    """Repeated runs deliver identical streams — position i is matrix i's
    SAT regardless of worker scheduling (distinct matrices make any
    misordering visible)."""
    mats = [np.full((8, 8), float(i + 1)) for i in range(9)]
    first = sat_batch_list(mats, "2R2W", PARAMS, workers=3)
    second = sat_batch_list(mats, "2R2W", PARAMS, workers=2)
    for i, (a, b) in enumerate(zip(first, second)):
        assert a[0, 0] == float(i + 1)
        assert np.array_equal(a, b)


def test_pool_session_survives_multiple_batches(rng):
    mats1 = _random_batch(rng, 4)
    mats2 = _random_batch(rng, 4)
    with BatchSession("1R1W", PARAMS, workers=2) as session:
        out1 = list(session.map(mats1))
        out2 = list(session.map(mats2))
    for m, s in zip(mats1 + mats2, out1 + out2):
        assert np.array_equal(s, sat_reference(m))


def test_worker_crash_surfaces_as_typed_error(rng, monkeypatch):
    """A dying worker must fail the batch with WorkerCrashed, not hang or
    return partial results silently."""
    monkeypatch.setenv(CRASH_ENV_VAR, "2")
    mats = _random_batch(rng, 6, shape=(8, 8))
    with pytest.raises(WorkerCrashed) as excinfo:
        sat_batch_list(mats, "1R1W", PARAMS, workers=2)
    assert excinfo.value.__cause__ is not None


def test_session_map_crash_poisons_batch_but_not_session_teardown(rng, monkeypatch):
    """The poison task kills the batch promptly (no deadlock) and the
    session still closes cleanly afterwards."""
    monkeypatch.setenv(CRASH_ENV_VAR, "1")
    mats = _random_batch(rng, 4, shape=(8, 8))
    session = BatchSession("1R1W", PARAMS, workers=2)
    try:
        with pytest.raises(WorkerCrashed, match="batch worker died"):
            list(session.map(mats))
    finally:
        session.close()  # must return, not hang on a broken pool
    assert session._workers is None


def test_transient_crash_is_retried_once_and_recovers(rng, tmp_path, monkeypatch):
    """A worker that dies once poisons only its attempt: its unfinished
    indices are re-dispatched to a restarted worker, results stay
    complete, ordered, and bit-exact, and the retry is counted."""
    flag = tmp_path / "crash-once"
    flag.touch()
    monkeypatch.setenv(CRASH_ENV_VAR, "2")
    monkeypatch.setenv(CRASH_ONCE_ENV_VAR, str(flag))
    mats = _random_batch(rng, 6, shape=(8, 8))
    obs.enable()
    obs.reset()
    try:
        sats = sat_batch_list(mats, "1R1W", PARAMS, workers=2)
        retries = obs.registry().counter_value("batch_task_retries")
    finally:
        obs.disable()
        obs.reset()
    assert len(sats) == 6
    for m, s in zip(mats, sats):
        assert np.array_equal(s, sat_reference(m))
    assert not flag.exists()  # the poison task fired before recovery
    assert retries == 1


def test_poison_task_second_crash_still_raises(rng, monkeypatch):
    """A task that crashes every attempt must exhaust the single retry and
    surface WorkerCrashed — retry is for transient deaths, not a loop."""
    monkeypatch.setenv(CRASH_ENV_VAR, "1")  # no once-flag: always fatal
    mats = _random_batch(rng, 4, shape=(8, 8))
    obs.enable()
    obs.reset()
    try:
        with pytest.raises(WorkerCrashed, match="retry crashed too"):
            sat_batch_list(mats, "1R1W", PARAMS, workers=2)
        retries = obs.registry().counter_value("batch_task_retries")
        crashes = obs.registry().counter_value("batch_worker_crashes_total")
    finally:
        obs.disable()
        obs.reset()
    assert retries == 1  # exactly one retry, not a loop
    assert crashes == 2


def _tracking_shared_memory(monkeypatch):
    """Patch the batch module's SharedMemory to record created block names."""
    import repro.sat.batch as batch_mod
    from multiprocessing import shared_memory as shm_mod

    real = shm_mod.SharedMemory
    created = []

    def tracking(*args, **kwargs):
        block = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(block.name)
        return block

    monkeypatch.setattr(batch_mod.shared_memory, "SharedMemory", tracking)
    return created, real


def test_crash_releases_shared_memory_blocks(rng, monkeypatch):
    """Both shared blocks of a crashed batch are unlinked — a worker death
    must not leak /dev/shm segments."""
    created, real = _tracking_shared_memory(monkeypatch)
    monkeypatch.setenv(CRASH_ENV_VAR, "0")
    mats = _random_batch(rng, 4, shape=(8, 8))
    with pytest.raises(WorkerCrashed):
        sat_batch_list(mats, "1R1W", PARAMS, workers=2)
    assert len(created) == 2  # one input block, one output block
    for name in created:
        with pytest.raises(FileNotFoundError):
            real(name=name)


def test_successful_batch_releases_shared_memory_blocks(rng, monkeypatch):
    created, real = _tracking_shared_memory(monkeypatch)
    mats = _random_batch(rng, 4, shape=(8, 8))
    sats = sat_batch_list(mats, "1R1W", PARAMS, workers=2)
    assert len(sats) == 4
    assert len(created) == 2
    for name in created:
        with pytest.raises(FileNotFoundError):
            real(name=name)


# --- counters ----------------------------------------------------------------


def test_batch_counters_match_a_direct_run(rng):
    m = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
    from repro.sat import make_algorithm

    direct = make_algorithm("1R1W").compute(m, PARAMS, use_plan_cache=False)
    tallies = batch_counters((16, 16), "1R1W", PARAMS)
    assert tallies.as_dict() == direct.counters.as_dict()
