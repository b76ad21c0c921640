"""Shared machinery for the repo benchmark: spans, statistics, references.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has pointed every cache the program keeps at a per-run
directory inside the checkout.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import math
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def tail_percentile(samples: int) -> float:
    """The highest whole percentile, at most 99, with at least ten of
    ``samples`` beyond it (0 when there are too few samples for any).

    Past the 99th a sample rarely says more about the system than about
    the host.
    """
    for candidate in range(99, 0, -1):
        if samples * (100 - candidate) / 100.0 >= 10:
            return float(candidate)
    return 0.0


def geomean(values: Sequence[float]) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.exp(np.mean(np.log(arr))))


# --------------------------------------------------------------------------- #
# tracing: spans recorded from the benchmark's own files
# --------------------------------------------------------------------------- #

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """In-memory span recorder: ``(id, name, start, end, parent, rid)``.

    Parents follow a context variable, so spans opened inside an asyncio
    task or an ``asyncio.to_thread`` call nest under the span that was
    current when the task or thread call started.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[int]]] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = clock()
        try:
            yield sid
        finally:
            end = clock()
            _CURRENT.reset(token)
            self.spans.append((sid, name, start, end, parent, rid))

    def wrap(self, owner: Any, attr: str, name: str) -> Callable[[], None]:
        """Replace ``owner.attr`` with a span-recording wrapper; returns
        the function that puts the original back."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid,
                }) + "\n")


class NullTracer:
    """The untraced run's tracer: spans cost one generator frame."""

    enabled = False
    spans: Tuple = ()

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        yield None


def self_times(spans: Iterable[tuple], root: int) -> Dict[str, float]:
    """Self time per layer (span-name prefix) within the root span's tree.

    A span's self time is its duration minus the union of its children's
    intervals, clipped to its own. Spans outside the root's subtree are
    ignored.
    """
    spans = list(spans)
    children: Dict[Optional[int], List[tuple]] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    by_id = {s[0]: s for s in spans}
    out: Dict[str, float] = {}
    stack = [by_id[root]]
    while stack:
        sid, name, start, end, _parent, _rid = stack.pop()
        kids = children.get(sid, [])
        stack.extend(kids)
        covered = _union_length(
            (max(k[2], start), min(k[3], end)) for k in kids
        )
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + max(0.0, (end - start) - covered)
    return out


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total



# --------------------------------------------------------------------------- #
# host record and in-run references
# --------------------------------------------------------------------------- #


def llc_bytes() -> Optional[int]:
    """Size of the largest cache level sysfs reports for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                raw = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(raw[-1:], 1)
        try:
            size = int(raw.rstrip("KMG")) * scale
        except ValueError:
            continue
        best = size if best is None else max(best, size)
    return best


def host_record(seed: int) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "llc_bytes": llc_bytes(),
        "seed": seed,
    }


def native_toolchain() -> Optional[str]:
    """The toolchain the program's native kernel backend resolves to
    (``None`` when it has none). Resolving it builds the backend once if
    the workload did not; callers ask after the measured window."""
    from repro.machine.engine import native

    native.ensure_backend()
    return native.native_stats()["toolchain"]


def host_reference_s() -> float:
    """Seconds for a fixed piece of Python and numpy work. Printed at the
    start and end of every run, so a host that slowed down under other
    tenants shows beside the metrics it moved."""
    a = np.arange(512 * 512, dtype=np.float64).reshape(512, 512)
    start = clock()
    for _ in range(5):
        np.cumsum(np.cumsum(a, axis=0), axis=1)
    total = 0
    for i in range(200_000):
        total += i
    return clock() - start


def copy_gbps(nbytes: int, repeats: int = 15) -> float:
    """Host copy bandwidth at a working-set size: bytes read plus bytes
    written per second by ``np.copyto``, median of ``repeats``."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        start = clock()
        np.copyto(dst, src)
        times.append(clock() - start)
    return 2.0 * src.nbytes / median(times) / 1e9


def cumsum_ms(matrices: Sequence[np.ndarray], repeats: int = 3) -> float:
    """``np.cumsum`` along both axes on the same matrices, median ms."""
    times = []
    for _ in range(repeats):
        for a in matrices:
            start = clock()
            np.cumsum(np.cumsum(a, axis=0), axis=1)
            times.append(clock() - start)
    return median(times) * 1e3


# --------------------------------------------------------------------------- #
# result accumulation
# --------------------------------------------------------------------------- #


class Outcome:
    """Operation tally: attempted, failed and wrong operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20 and what:
                self.errors.append(what)

    def mismatch(self, what: str) -> None:
        """An operation returned a wrong value: counted failed, and the
        run is reported incorrect."""
        self.mismatches += 1
        self.op(False, what)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0


def stop_children(timeout: float = 5.0) -> None:
    """Stop and reap every process this run started.

    The program's worker pools join their workers on close, but
    ``multiprocessing`` also starts a resource-tracker process that
    otherwise exits only after this process has, unreaped. It is stopped
    here, then any child still left is terminated (killed after
    ``timeout``) and waited for.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    pids = proc_pids("ppid", os.getpid())
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except OSError:
            pass
    deadline = clock() + timeout
    while pids:
        for pid in list(pids):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done == pid:
                pids.remove(pid)
            elif clock() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pids.remove(pid)
        time.sleep(0.01)


def proc_pids(field: str, value: int) -> List[int]:
    """Pids of the processes, zombies included, whose ``/proc/<pid>/stat``
    ``field`` (``"ppid"`` or ``"session"``) equals ``value``."""
    index = {"ppid": 1, "session": 3}[field]
    out = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return out
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[index]) == value:
            out.append(int(entry))
    return out


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return float(value)
