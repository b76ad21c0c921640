"""The open-loop serving driver of the server probe.

Every request has a due time drawn from a seeded Poisson schedule, is
submitted when due whatever the server is doing, and is timed from its
due time. After the phase every answer is replayed against a shadow copy
of the dataset in submission order (the order the server executes
same-dataset requests in) and compared exactly: region sums as integers,
local statistics as the same float64 expressions over exact integer
window sums.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import List

import numpy as np

from harness import Outcome, clock
from sat_workloads import PIXEL_MAX

DATASET = "img"

#: Request mix weights of a local server.
LOCAL_MIX = (("region_sum", 70), ("local_stats", 10), ("update_point", 13),
             ("update_region", 5))


class Rec:
    """One request: what was sent, when it was due, what came back."""

    __slots__ = ("kind", "payload", "due", "submit", "done", "value",
                 "error", "latency", "batch")

    def __init__(self, kind: str, payload, due: float):
        self.kind = kind
        self.payload = payload
        self.due = due
        self.submit = None
        self.done = None
        self.value = None
        self.error = None
        self.latency = None
        self.batch = None


def make_schedule(rng: np.random.Generator, mix, rate: float, duration: float,
                  n: int, cfg) -> List[Rec]:
    """Seeded Poisson arrivals at ``rate`` for ``duration`` seconds."""
    count = max(1, int(rng.poisson(rate * duration)))
    dues = np.sort(rng.random(count) * duration)
    names = [k for k, _ in mix]
    weights = np.array([w for _, w in mix], dtype=np.float64)
    kinds = rng.choice(len(names), size=count, p=weights / weights.sum())
    out = []
    for due, kind_index in zip(dues.tolist(), kinds.tolist()):
        kind = names[kind_index]
        if kind == "region_sum":
            h, w = (int(v) for v in rng.integers(1, cfg.max_rect + 1, size=2))
            top = int(rng.integers(0, n - h + 1))
            left = int(rng.integers(0, n - w + 1))
            payload = (top, left, top + h - 1, left + w - 1)
        elif kind == "local_stats":
            r, c = (int(v) for v in rng.integers(0, n, size=2))
            payload = (r, c, int(rng.integers(1, cfg.max_radius + 1)))
        elif kind == "update_point":
            r, c = (int(v) for v in rng.integers(0, n, size=2))
            payload = {"r": r, "c": c, "delta": None,
                       "value": int(rng.integers(0, PIXEL_MAX + 1))}
        else:
            b = cfg.region_block
            top, left = (int(v) for v in rng.integers(0, n - b + 1, size=2))
            payload = {"top": top, "left": left, "add": False,
                       "values": rng.integers(0, PIXEL_MAX + 1, size=(b, b),
                                              dtype=np.int64)}
        out.append(Rec(kind, payload, due))
    return out


def run_loop(coro):
    """Run ``coro`` on a ``select()``-based event loop.

    The default epoll loop rounds every timer up to a whole millisecond,
    which the generator would charge to every request as lateness;
    ``select()`` takes microsecond timeouts.
    """
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
    ) as runner:
        return runner.run(coro)


async def drive(server, recs: List[Rec]) -> None:
    """Submit every request at its due time; wait for all to resolve."""
    from repro.errors import Overloaded

    t0 = clock() + 0.002
    pending = []

    def finish(fut, rec: Rec) -> None:
        rec.done = clock()
        if fut.cancelled():
            rec.error = "cancelled"
            return
        exc = fut.exception()
        if exc is not None:
            rec.error = f"{type(exc).__name__}: {exc}"
            return
        response = fut.result()
        rec.value = response.value
        rec.latency = response.latency
        rec.batch = response.batch_size

    for rec in recs:
        rec.due = t0 + rec.due
        delay = rec.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        rec.submit = clock()
        try:
            fut = server.submit(rec.kind, DATASET, rec.payload)
        except Overloaded as exc:
            rec.done = rec.submit
            rec.error = f"shed: {exc}"
            continue
        fut.add_done_callback(lambda f, rec=rec: finish(f, rec))
        pending.append(fut)
    if pending:
        await asyncio.wait(pending)
    await asyncio.sleep(0)  # let the last done-callbacks run


def verify(initial: np.ndarray, recs: List[Rec], outcome: Outcome) -> None:
    """Replay every request in submission order against a shadow copy.

    Each request counts as one attempted operation; shed, typed errors,
    lost (never resolved) and wrong answers count failed, and a wrong
    answer also marks the run incorrect.
    """
    shadow = initial.copy()
    rows, cols = shadow.shape
    for rec in sorted((r for r in recs if r.submit is not None), key=lambda r: r.submit):
        if rec.error is not None or rec.done is None:
            outcome.op(False, f"{rec.kind}: {rec.error or 'lost'}")
            continue
        kind, p = rec.kind, rec.payload
        if kind == "region_sum":
            top, left, bottom, right = p
            good = rec.value == int(shadow[top:bottom + 1, left:right + 1].sum())
        elif kind == "local_stats":
            r, c, radius = p
            top, bottom = max(r - radius, 0), min(r + radius, rows - 1)
            left, right = max(c - radius, 0), min(c + radius, cols - 1)
            window = shadow[top:bottom + 1, left:right + 1]
            sums = np.float64(window.sum())
            sums_sq = np.float64(np.square(window).sum())
            area = np.float64((bottom - top + 1) * (right - left + 1))
            mean = sums / area
            var = max(sums_sq / area - mean * mean, 0.0)
            good = rec.value == (float(mean), float(var))
        elif kind == "update_point":
            shadow[p["r"], p["c"]] = p["value"]
            good = True
        else:
            b = p["values"]
            shadow[p["top"]:p["top"] + b.shape[0], p["left"]:p["left"] + b.shape[1]] = b
            good = True
        if good:
            outcome.op(True)
        else:
            outcome.mismatch(f"{kind} {p if kind != 'update_region' else ''} -> {rec.value}")
