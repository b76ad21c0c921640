"""Supervised worker cluster for sharded SAT serving.

The paper's 2R1W decomposition gives every tile a self-contained serving
record — local SAT, two edge-prefix vectors, one corner scalar — so a
*contiguous range of row-major tile indices* is a natural shard: a worker
process holding that range answers the global SAT value ``F(r, c)`` for
any point inside its tiles with no other state. This module owns the
process side of that design; routing policy (placement, failover,
circuit breaking) lives in :mod:`repro.service.router`.

Three pieces:

* :class:`ShardWorkerState` — the worker-side state machine: install a
  CRC-verified shard checkpoint, apply update deltas, answer point
  lookups. It is transport-agnostic, so the same code runs inside a real
  worker process (``_worker_main``) and inline in the supervisor's
  process (``inline=True``), which is what the deterministic router
  tests drive.
* :class:`CheckpointStore` — the durable tier the cluster recovers from:
  the authoritative :class:`~repro.service.store.Dataset` per name plus
  lazily rebuilt, CRC-32-tagged serialized shard payloads (the same
  integrity idiom as the streaming layer's
  :class:`~repro.sat.out_of_core.StreamCheckpoint`). A restarted worker
  re-hydrates from here, and the router's degraded mode answers from the
  authoritative matrix when a whole range is dark.
* :class:`WorkerSupervisor` — owns the pool: spawn, heartbeat health
  checks, crash detection (a failed RPC *or* missed pings), automatic
  restart with :class:`~repro.util.backoff.ExponentialBackoff` pacing,
  and re-hydration of every shard the restarted worker is assigned.

Large shard payloads cross the process boundary through a
:mod:`multiprocessing.shared_memory` block (the
:mod:`repro.sat.batch` transport pattern: ship a name, not a pickle);
small ones ride inline. Either way the payload carries its CRC-32 and
the worker verifies before installing — a torn or corrupted checkpoint
is rejected with a typed error, never served.

Every request, corner lookups included, travels over the worker's one
control pipe. Lookups carry a packed binary payload (raw int64 points
in, raw values plus the dataset's dtype tag and version out) instead of
pickled arrays, and the supervisor packs them the same way in inline
mode, so the deterministic tests exercise the real wire format.

Consistency contract: shard installs and update pushes are serialized by
the supervisor's topology lock, so a worker is only marked alive when
its state matches the authoritative version; queries never take that
lock (a mid-rehydration query simply fails over).
"""

from __future__ import annotations

import logging
import pickle
import select
import struct
import threading
import zlib
from dataclasses import dataclass, field
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, CorruptionDetected, UnknownDataset, WorkerUnavailable
from ..obs import runtime as obs
from ..util.backoff import Clock, ExponentialBackoff, SystemClock
from .store import Dataset

__all__ = [
    "CheckpointStore",
    "ShardCheckpoint",
    "ShardWorkerState",
    "WorkerSupervisor",
]

logger = logging.getLogger("repro.service.cluster")

#: Payloads at or above this many serialized bytes travel via a
#: shared-memory block instead of the pipe (one copy, no pickle of the
#: bulk arrays through the connection buffer).
SHM_BLOB_THRESHOLD = 64 * 1024

#: Worker states, supervisor-side.
ALIVE = "alive"
DOWN = "down"
RESTARTING = "restarting"

#: Point batches at or under this size take scalar (non-vectorized)
#: serving: a single rectangle's <= 4 corners does not amortize numpy's
#: fixed per-call costs.
_SCALAR_LOOKUP_MAX = 8


# =============================================================================
# Worker side
# =============================================================================


@dataclass
class _ShardBlock:
    """One installed shard: per-tile serving state for lins ``[lo, hi)``."""

    lo: int
    hi: int
    local: np.ndarray   # (k, t, t)
    col: np.ndarray     # (k, t)
    row: np.ndarray     # (k, t)
    corner: np.ndarray  # (k,)


@dataclass
class _WorkerDataset:
    """A worker's view of one dataset: geometry + its installed shards."""

    t: int
    nb_c: int
    rows: int
    cols: int
    version: int
    blocks: Dict[int, _ShardBlock] = field(default_factory=dict)  # range_id ->


class ShardWorkerState:
    """The transport-agnostic worker state machine.

    ``handle(msg) -> reply`` implements the whole protocol; both the real
    process loop and the supervisor's inline mode call it. Messages are
    tuples ``(op, *args)``; replies are ``("ok", payload)`` or
    ``("error", detail)`` — a worker never lets an exception escape its
    loop (the supervisor treats a dead pipe, not a reply, as a crash).
    """

    def __init__(self, worker_id: int, epoch: int = 0):
        self.worker_id = worker_id
        self.epoch = epoch
        self.datasets: Dict[str, _WorkerDataset] = {}

    # -- protocol -------------------------------------------------------------

    def handle(self, msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
        op = msg[0]
        try:
            if op == "ping":
                return ("ok", {
                    "worker": self.worker_id,
                    "epoch": self.epoch,
                    "datasets": {n: d.version for n, d in self.datasets.items()},
                })
            if op == "load":
                return self._load(*msg[1:])
            if op == "delta":
                return self._delta(*msg[1:])
            if op == "lookup":
                return self._lookup(msg[1])
            if op == "drop":
                self.datasets.pop(msg[1], None)
                return ("ok", None)
            return ("error", f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — reply, don't die
            return ("error", f"{type(exc).__name__}: {exc}")

    def _load(self, name: str, meta: Dict[str, Any],
              transport: Tuple[Any, ...]) -> Tuple[Any, ...]:
        blob = _recv_blob(transport)
        crc = zlib.crc32(blob)
        if crc != meta["crc"]:
            return ("error",
                    f"shard checkpoint for {name!r} range {meta['range_id']} "
                    f"failed its CRC (expected {meta['crc']}, got {crc})")
        state = pickle.loads(blob)
        ds = self.datasets.get(name)
        if ds is None or meta["reset"]:
            ds = _WorkerDataset(
                t=meta["t"], nb_c=meta["nb_c"],
                rows=meta["rows"], cols=meta["cols"], version=meta["version"],
            )
            self.datasets[name] = ds
        ds.blocks[meta["range_id"]] = _ShardBlock(
            lo=state["lo"], hi=state["hi"], local=state["local"],
            col=state["col"], row=state["row"], corner=state["corner"],
        )
        ds.version = meta["version"]
        return ("ok", meta["version"])

    def _delta(self, name: str, version: int,
               components: Dict[str, Tuple[np.ndarray, np.ndarray]]) -> Tuple[Any, ...]:
        ds = self.datasets.get(name)
        if ds is None:
            return ("error", f"no dataset {name!r} installed on this worker")
        for block in ds.blocks.values():
            for comp, (lins, values) in components.items():
                mask = (lins >= block.lo) & (lins < block.hi)
                if not mask.any():
                    continue
                k = lins[mask] - block.lo
                getattr(block, comp)[k] = values[mask]
        ds.version = version
        return ("ok", version)

    def _lookup(self, request: bytes) -> Tuple[Any, ...]:
        """Packed point batch in, ``("ok", packed values)`` out."""
        name, pts = _unpack_lookup_request(request)
        ok, payload = self._lookup_values(name, pts)
        if not ok:
            return ("error", payload)
        values, version = payload
        return ("ok", _pack_lookup_response(values, version))

    def _lookup_values(self, name: str,
                       pts: np.ndarray) -> Tuple[bool, Any]:
        """Vectorized point-batch SAT lookup: ``(True, (values, version))``.

        ``pts`` is ``(k, 2)`` int64 row/col pairs. Errors come back as
        ``(False, message)``.
        """
        ds = self.datasets.get(name)
        if ds is None:
            return (False, f"no dataset {name!r} installed on this worker")
        if len(pts) == 0:
            return (True, (np.zeros(0, dtype=np.float64), ds.version))
        if len(pts) <= _SCALAR_LOOKUP_MAX:
            return self._lookup_values_scalar(ds, name, pts)
        i_tile, i = np.divmod(pts[:, 0], ds.t)
        j_tile, j = np.divmod(pts[:, 1], ds.t)
        lins = i_tile * ds.nb_c + j_tile
        out: Optional[np.ndarray] = None
        unserved = np.ones(len(pts), dtype=bool)
        for block in ds.blocks.values():
            mask = (lins >= block.lo) & (lins < block.hi)
            if not mask.any():
                continue
            k = lins[mask] - block.lo
            # Same addition order as TileAggregates.sat_at — the stitched
            # answer must be bit-identical to the single-store path.
            values = (block.local[k, i[mask], j[mask]] + block.col[k, j[mask]]
                      + block.row[k, i[mask]] + block.corner[k])
            if out is None:
                out = np.zeros(len(pts), dtype=values.dtype)
            out[mask] = values
            unserved[mask] = False
        if unserved.any():
            lin = int(lins[unserved][0])
            return (False,
                    f"tile {lin} of {name!r} is outside this worker's "
                    f"shards — routing bug or stale placement")
        assert out is not None  # len(pts) >= 1 and all points served
        return (True, (out, ds.version))

    def _lookup_values_scalar(self, ds: "_WorkerDataset", name: str,
                              pts: np.ndarray) -> Tuple[bool, Any]:
        """Scalar-indexed variant of :meth:`_lookup_values` for tiny batches.

        A handful of points (a single rectangle's corners) does not
        amortize the vectorized path's fixed numpy cost; plain indexing
        is ~2x faster per RPC. Same addition order, so the values are
        bit-identical with the vectorized path.
        """
        t = ds.t
        blocks = ds.blocks.values()
        vals: List[Any] = []
        for r, c in pts:
            i_tile, i = divmod(int(r), t)
            j_tile, j = divmod(int(c), t)
            lin = i_tile * ds.nb_c + j_tile
            for block in blocks:
                if block.lo <= lin < block.hi:
                    k = lin - block.lo
                    vals.append(block.local[k, i, j] + block.col[k, j]
                                + block.row[k, i] + block.corner[k])
                    break
            else:
                return (False,
                        f"tile {lin} of {name!r} is outside this worker's "
                        f"shards — routing bug or stale placement")
        out = np.empty(len(vals), dtype=vals[0].dtype)
        out[:] = vals
        return (True, (out, ds.version))


def _worker_main(worker_id: int, epoch: int, conn) -> None:
    """Entry point of a shard worker process: recv → handle → send."""
    state = ShardWorkerState(worker_id, epoch)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg[0] == "shutdown":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        try:
            conn.send(state.handle(msg))
        except (BrokenPipeError, OSError):
            break


# -- blob transport -----------------------------------------------------------


def _send_blob(blob: bytes) -> Tuple[Tuple[Any, ...], Optional[shared_memory.SharedMemory]]:
    """Pick a transport for ``blob``: inline bytes, or a shared block.

    Returns ``(transport, shm)``; the caller must ``close()``/``unlink()``
    the block (if any) once the receiver acknowledged.
    """
    if len(blob) < SHM_BLOB_THRESHOLD:
        return ("inline", blob), None
    shm = shared_memory.SharedMemory(create=True, size=len(blob))
    shm.buf[: len(blob)] = blob
    return ("shm", shm.name, len(blob)), shm


def _recv_blob(transport: Tuple[Any, ...]) -> bytes:
    """Materialize a blob from its transport descriptor."""
    if transport[0] == "inline":
        return transport[1]
    _, name, nbytes = transport
    shm = shared_memory.SharedMemory(name=name)
    try:
        return bytes(shm.buf[:nbytes])
    finally:
        shm.close()


# -- lookup codec -------------------------------------------------------------
#
# Corner lookups are the hot RPC: the latency-`l` term of the paper's
# C/w + S + (B+1)l cost, charged per round trip. Their payload skips
# pickling numpy arrays: a request is the dataset name plus raw int64
# (row, col) pairs, a reply is the raw values plus the dataset's dtype tag
# and version. The tag rebuilds the exact serving dtype on the supervisor
# side, so a float32 corner never comes back as float64 and the router's
# stitch stays bit-identical to the local store.

_REQ_HEADER = struct.Struct("<HI")       # name_len, n_points
_RESP_HEADER = struct.Struct("<QI8s")    # version, n_values, dtype str


def _pack_lookup_request(name: str, pts: np.ndarray) -> bytes:
    name_bytes = name.encode("utf-8")
    return (_REQ_HEADER.pack(len(name_bytes), len(pts))
            + name_bytes
            + np.ascontiguousarray(pts, dtype=np.int64).tobytes())


def _unpack_lookup_request(payload: bytes) -> Tuple[str, np.ndarray]:
    name_len, n_points = _REQ_HEADER.unpack_from(payload, 0)
    off = _REQ_HEADER.size
    name = payload[off:off + name_len].decode("utf-8")
    pts = np.frombuffer(
        payload, dtype=np.int64, count=2 * n_points, offset=off + name_len
    ).reshape(n_points, 2)
    return name, pts


def _pack_lookup_response(values: np.ndarray, version: int) -> bytes:
    dtype_str = values.dtype.str.encode("ascii")
    return (_RESP_HEADER.pack(version, len(values), dtype_str)
            + np.ascontiguousarray(values).tobytes())


def _unpack_lookup_response(payload: bytes) -> Tuple[np.ndarray, int]:
    version, n_values, dtype_str = _RESP_HEADER.unpack_from(payload, 0)
    dtype = np.dtype(dtype_str.rstrip(b"\x00").decode("ascii"))
    values = np.frombuffer(
        payload, dtype=dtype, count=n_values, offset=_RESP_HEADER.size
    ).copy()
    return values, version


# =============================================================================
# Checkpoint store (the durable tier)
# =============================================================================


@dataclass
class ShardCheckpoint:
    """One serialized shard at one dataset version, CRC-32 tagged."""

    range_id: int
    lo: int
    hi: int
    version: int
    blob: bytes
    crc: int


class _CheckpointEntry:
    __slots__ = ("dataset", "ranges", "checkpoints")

    def __init__(self, dataset: Dataset, ranges: List[Tuple[int, int]]):
        self.dataset = dataset
        self.ranges = ranges  # range_id -> (lo, hi)
        self.checkpoints: Dict[int, ShardCheckpoint] = {}


class CheckpointStore:
    """Authoritative datasets plus CRC-verified shard checkpoints.

    The store is what the cluster *recovers from*: ingest registers the
    dataset and its range decomposition here, updates mutate the
    authoritative copy (through the ordinary bit-exact incremental-update
    paths), and :meth:`payload_for` serves a serialized shard at the
    current version — rebuilt lazily, so steady-state updates never pay
    for checkpoints nobody is restoring.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _CheckpointEntry] = {}
        self._lock = threading.RLock()
        self.rebuilds = 0

    def register(self, dataset: Dataset, ranges: List[Tuple[int, int]]) -> None:
        with self._lock:
            self._entries[dataset.name] = _CheckpointEntry(dataset, ranges)

    def drop(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def dataset(self, name: str) -> Dataset:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownDataset(
                f"no dataset named {name!r} is registered with the cluster "
                f"(held: {self.names() or 'none'})"
            )
        return entry.dataset

    def ranges(self, name: str) -> List[Tuple[int, int]]:
        self.dataset(name)  # raises UnknownDataset
        with self._lock:
            return list(self._entries[name].ranges)

    def payload_for(self, name: str, range_id: int) -> ShardCheckpoint:
        """The shard's checkpoint at the dataset's *current* version."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownDataset(f"no dataset named {name!r} is registered")
            ds = entry.dataset
            with ds.lock:
                version = ds.version
                cp = entry.checkpoints.get(range_id)
                if cp is not None and cp.version == version:
                    return cp
                lo, hi = entry.ranges[range_id]
                blob = pickle.dumps(
                    ds.values.shard_state(lo, hi), protocol=pickle.HIGHEST_PROTOCOL
                )
            cp = ShardCheckpoint(
                range_id=range_id, lo=lo, hi=hi, version=version,
                blob=blob, crc=zlib.crc32(blob),
            )
            entry.checkpoints[range_id] = cp
            self.rebuilds += 1
            obs.inc("cluster_checkpoints_built_total")
            obs.observe("cluster_checkpoint_bytes", len(blob))
            return cp

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "datasets": len(self._entries),
                "checkpoint_rebuilds": self.rebuilds,
                "checkpoint_bytes": sum(
                    len(cp.blob)
                    for e in self._entries.values()
                    for cp in e.checkpoints.values()
                ),
            }


# =============================================================================
# Supervisor
# =============================================================================


def _readable(conn, timeout: float) -> bool:
    """``conn.poll(timeout)`` without its per-call selector object.

    ``Connection.poll`` builds and tears down a ``selectors`` selector on
    every call, about a third of the client's CPU per lookup RPC; under
    concurrent load that CPU is what bounds the router's throughput.
    """
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    return bool(poller.poll(max(0.0, timeout) * 1000.0))


@dataclass
class WorkerHandle:
    """Supervisor-side record of one worker slot."""

    worker_id: int
    state: str = DOWN
    epoch: int = -1
    process: Any = None
    conn: Any = None
    inline_state: Optional[ShardWorkerState] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    missed_pings: int = 0
    lookups_served: int = 0
    restarts: int = 0


class WorkerSupervisor:
    """Owns a pool of shard workers: health, crashes, restart, rehydrate.

    ``inline=True`` swaps the worker processes for in-process
    :class:`ShardWorkerState` objects behind the same RPC seam — the
    deterministic mode the router unit tests (and any single-process
    deployment) use; a "crash" there is the supervisor dropping the
    worker's state object, which loses its shards exactly like a killed
    process does.

    Crash detection is two-pronged: any failed RPC marks the worker down
    immediately (the common case — the router trips over the corpse), and
    the heartbeat monitor catches workers that die while idle. Restarts
    re-hydrate every assigned shard from the :class:`CheckpointStore`
    (CRC-verified on install) under the topology lock, so a restarted
    worker is only marked alive with state at the authoritative version.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        checkpoints: Optional[CheckpointStore] = None,
        inline: bool = False,
        clock: Optional[Clock] = None,
        rpc_timeout: float = 5.0,
        heartbeat_interval: float = 0.1,
        heartbeat_misses: int = 3,
        auto_restart: bool = True,
        restart_backoff: Optional[ExponentialBackoff] = None,
        max_restart_attempts: int = 3,
    ):
        if workers < 1:
            raise ConfigurationError(f"cluster needs >= 1 worker, got {workers}")
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointStore()
        self.inline = inline
        self.clock = clock if clock is not None else SystemClock()
        self.rpc_timeout = rpc_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.auto_restart = auto_restart
        self.restart_backoff = restart_backoff or ExponentialBackoff(
            base=0.01, factor=2.0, cap=0.25
        )
        self.max_restart_attempts = max_restart_attempts
        #: worker_id -> [(dataset, range_id), ...], maintained by the router.
        self.assignments: Dict[int, List[Tuple[str, int]]] = {
            w: [] for w in range(workers)
        }
        #: Serializes topology changes (ingest pushes, update pushes,
        #: rehydration) so a restarting worker cannot install a payload
        #: that an in-flight update has already superseded. Queries never
        #: take it.
        self.topology_lock = threading.RLock()
        self._ctx = get_context()
        if not inline:
            # Start the shared-memory resource tracker *before* forking any
            # worker. Forked workers then inherit it, so their attach-time
            # registrations dedupe against the sender's create-time one and
            # the single unlink() balances the books. A worker forked with
            # no tracker running would lazily start its own and warn at
            # exit about segments the sender already unlinked.
            resource_tracker.ensure_running()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self.restarts_total = 0
        self.failures_total = 0
        self.handles = [WorkerHandle(worker_id=w) for w in range(workers)]
        for handle in self.handles:
            self._spawn(handle)

    # -- lifecycle ------------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self.handles)

    def handle(self, worker_id: int) -> WorkerHandle:
        return self.handles[worker_id]

    def _spawn(self, handle: WorkerHandle) -> None:
        """(Re)create the worker behind ``handle`` with a fresh epoch."""
        handle.epoch += 1
        handle.missed_pings = 0
        if self.inline:
            handle.inline_state = ShardWorkerState(handle.worker_id, handle.epoch)
        else:
            parent, child = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(handle.worker_id, handle.epoch, child),
                daemon=True,
                name=f"repro-shard-worker-{handle.worker_id}",
            )
            process.start()
            child.close()
            handle.process = process
            handle.conn = parent
        handle.state = ALIVE

    def stop(self) -> None:
        """Stop the monitor and terminate every worker."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self.handles:
            if self.inline:
                handle.inline_state = None
            else:
                with handle.lock:
                    if handle.conn is not None:
                        try:
                            handle.conn.send(("shutdown",))
                        except (BrokenPipeError, OSError):
                            pass
                        handle.conn.close()
                        handle.conn = None
                if handle.process is not None:
                    handle.process.join(timeout=2.0)
                    if handle.process.is_alive():
                        handle.process.kill()
                        handle.process.join(timeout=2.0)
                    handle.process = None
            handle.state = DOWN

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- RPC ------------------------------------------------------------------

    def rpc(self, worker_id: int, msg: Tuple[Any, ...],
            timeout: Optional[float] = None) -> Any:
        """One request/reply exchange; failures mark the worker down.

        Raises :class:`~repro.errors.WorkerUnavailable` when the worker is
        not alive, its pipe breaks, the reply times out, or it answers
        with an error envelope. The caller (router) treats that as "this
        replica is gone": record the failure and try the next one.
        """
        handle = self.handles[worker_id]
        if handle.state != ALIVE:
            raise WorkerUnavailable(
                f"worker {worker_id} is {handle.state} (epoch {handle.epoch})"
            )
        timeout = self.rpc_timeout if timeout is None else timeout
        op = msg[0]
        if op == "lookup":
            _op, name, points = msg
            pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
            msg = ("lookup", _pack_lookup_request(name, pts))
        if self.inline:
            reply = self._rpc_inline(handle, msg)
        else:
            reply = self._rpc_process(handle, msg, timeout)
        if reply[0] != "ok":
            self._mark_down(handle, f"error reply: {reply[1]}")
            raise WorkerUnavailable(
                f"worker {worker_id} rejected {op!r}: {reply[1]}"
            )
        if op == "lookup":
            handle.lookups_served += 1
            return _unpack_lookup_response(reply[1])
        return reply[1]

    def _rpc_inline(self, handle: WorkerHandle, msg) -> Tuple[Any, ...]:
        state = handle.inline_state
        if state is None:
            self._mark_down(handle, "inline state dropped")
            raise WorkerUnavailable(f"worker {handle.worker_id} has no state")
        return state.handle(msg)

    def _rpc_process(self, handle: WorkerHandle, msg, timeout: float):
        # No state check here: the public rpc() gates on ALIVE, while the
        # supervisor's own rehydration path talks to a RESTARTING worker.
        with handle.lock:
            conn = handle.conn
            if conn is None:
                raise WorkerUnavailable(
                    f"worker {handle.worker_id} has no connection "
                    f"(state {handle.state})"
                )
            try:
                conn.send(msg)
                if not _readable(conn, timeout):
                    raise TimeoutError(
                        f"no reply to {msg[0]!r} within {timeout}s"
                    )
                return conn.recv()
            except (BrokenPipeError, ConnectionResetError, EOFError, OSError,
                    TimeoutError) as exc:
                self._mark_down(handle, f"{type(exc).__name__}: {exc}")
                raise WorkerUnavailable(
                    f"worker {handle.worker_id} (epoch {handle.epoch}) is "
                    f"unreachable: {exc}"
                ) from exc

    def _mark_down(self, handle: WorkerHandle, reason: str) -> None:
        if handle.state == ALIVE:
            handle.state = DOWN
            self.failures_total += 1
            obs.inc("cluster_worker_failures_total")
            logger.warning(
                "worker %d (epoch %d) marked down: %s",
                handle.worker_id, handle.epoch, reason,
            )

    # -- chaos ----------------------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL a worker (chaos hook) — no cleanup, like a real crash.

        The supervisor does *not* mark the worker down here: detection
        must go through the same paths a real crash exercises (a failed
        RPC or missed heartbeats).
        """
        handle = self.handles[worker_id]
        if self.inline:
            handle.inline_state = None  # its memory — and shards — are gone
        elif handle.process is not None:
            handle.process.kill()
            handle.process.join(timeout=2.0)
        obs.inc("cluster_workers_killed_total")
        logger.info("chaos: killed worker %d (epoch %d)", worker_id, handle.epoch)

    # -- recovery -------------------------------------------------------------

    def restart(self, worker_id: int) -> bool:
        """Restart a down worker and re-hydrate its shards; True on success."""
        handle = self.handles[worker_id]
        if handle.state == ALIVE:
            return True
        handle.state = RESTARTING
        for attempt in range(self.max_restart_attempts):
            try:
                self._teardown_process(handle)
                with self.topology_lock:
                    self._spawn(handle)
                    handle.state = RESTARTING  # not routable until hydrated
                    self._rehydrate(handle)
                    handle.state = ALIVE
                handle.restarts += 1
                self.restarts_total += 1
                obs.inc("cluster_worker_restarts_total")
                logger.info(
                    "worker %d restarted (epoch %d, %d shard(s) re-hydrated)",
                    worker_id, handle.epoch, len(self.assignments[worker_id]),
                )
                return True
            except (WorkerUnavailable, CorruptionDetected, OSError) as exc:
                logger.warning(
                    "restart attempt %d for worker %d failed: %s",
                    attempt, worker_id, exc,
                )
                self.restart_backoff.pause(self.clock, attempt)
        handle.state = DOWN
        return False

    def _teardown_process(self, handle: WorkerHandle) -> None:
        if self.inline:
            handle.inline_state = None
            return
        with handle.lock:
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=2.0)
            handle.process = None

    def _rehydrate(self, handle: WorkerHandle) -> None:
        """Install every assigned shard from its current checkpoint."""
        seen: set = set()
        for name, range_id in self.assignments[handle.worker_id]:
            cp = self.checkpoints.payload_for(name, range_id)
            self.load_shard(handle.worker_id, name, cp, reset=name not in seen)
            seen.add(name)
            obs.inc("cluster_shards_rehydrated_total")

    def load_shard(self, worker_id: int, name: str, cp: ShardCheckpoint,
                   *, reset: bool = False) -> None:
        """Ship one checkpoint to a worker (shared-memory for big blobs).

        The worker verifies the CRC before installing; ``reset=True``
        drops any state the worker already holds for the dataset (the
        first shard of a rehydration, so a half-dead epoch's leftovers
        can never mix with fresh state).
        """
        ds = self.checkpoints.dataset(name)
        meta = {
            "range_id": cp.range_id, "version": cp.version, "crc": cp.crc,
            "t": ds.values.t, "nb_c": ds.values.nb_c,
            "rows": ds.values.rows, "cols": ds.values.cols,
            "reset": reset,
        }
        transport, shm = _send_blob(cp.blob)
        try:
            handle = self.handles[worker_id]
            state = handle.state
            if state != ALIVE and state != RESTARTING:
                raise WorkerUnavailable(f"worker {worker_id} is {state}")
            if self.inline:
                reply = self._rpc_inline(handle, ("load", name, meta, transport))
            else:
                reply = self._rpc_process(
                    handle, ("load", name, meta, transport), self.rpc_timeout
                )
            if reply[0] != "ok":
                self._mark_down(handle, f"load rejected: {reply[1]}")
                if "CRC" in str(reply[1]):
                    raise CorruptionDetected(str(reply[1]))
                raise WorkerUnavailable(
                    f"worker {worker_id} rejected shard load: {reply[1]}"
                )
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()

    # -- health monitoring ----------------------------------------------------

    def start_monitor(self) -> None:
        """Run heartbeat checks (and auto-restarts) on a background thread."""
        if self._monitor is not None:
            return
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.check_health()
            except Exception:  # noqa: BLE001 — the monitor must survive
                logger.exception("cluster health check failed")

    def check_health(self) -> Dict[int, str]:
        """One health pass: ping alive workers, restart down ones."""
        for handle in self.handles:
            if handle.state == ALIVE:
                try:
                    self.rpc(handle.worker_id, ("ping",),
                             timeout=self.rpc_timeout)
                    handle.missed_pings = 0
                    obs.inc("cluster_heartbeats_total", result="ok")
                except WorkerUnavailable:
                    handle.missed_pings += 1
                    obs.inc("cluster_heartbeats_total", result="missed")
                    # rpc already marked it down on transport failure; a
                    # worker that is alive but slow gets `heartbeat_misses`
                    # grace before the monitor declares it dead.
                    if (handle.state == ALIVE
                            and handle.missed_pings >= self.heartbeat_misses):
                        self._mark_down(handle, "missed heartbeats")
            if handle.state == DOWN and self.auto_restart:
                self.restart(handle.worker_id)
        return {h.worker_id: h.state for h in self.handles}

    def wait_healthy(self, timeout: float = 10.0) -> bool:
        """Block until every worker is alive (or the timeout passes)."""
        deadline = self.clock.now() + timeout
        while self.clock.now() < deadline:
            if all(h.state == ALIVE for h in self.handles):
                return True
            if self._monitor is None:
                self.check_health()
            self.clock.sleep(min(self.heartbeat_interval, 0.05))
        return all(h.state == ALIVE for h in self.handles)

    # -- accounting -----------------------------------------------------------

    def alive_workers(self) -> List[int]:
        return [h.worker_id for h in self.handles if h.state == ALIVE]

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "alive": len(self.alive_workers()),
            "restarts": self.restarts_total,
            "failures": self.failures_total,
            "states": {h.worker_id: h.state for h in self.handles},
            "epochs": {h.worker_id: h.epoch for h in self.handles},
            "lookups_served": {
                h.worker_id: h.lookups_served for h in self.handles
            },
            # Always zero: the pipe is the only lookup transport. Kept
            # because perfbench/layers.py reads it for cluster.ring_share.
            "ring_lookups": {h.worker_id: 0 for h in self.handles},
        }
