"""The SAT compute workloads: ``sat-warm`` and ``sat-cold``.

Both are closed loops with one client: the next call is issued when the
previous one returns. Inputs come from the seed alone; the program only
ever sees the generated matrices.

The int64 inputs are pixel-range integers (0..65535) by design. Their
SATs stay below 2**53, so the float64 result of ``compute`` must equal
the exact integer oracle bit for bit; magnitudes near 2**53 or 2**63
are the numeric contract's own tests, not this benchmark's.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from harness import Outcome, clock, geomean, median, percentile, tail_percentile

ALGORITHMS = ("1R1W", "2R1W", "1.25R1W")
MODES = (
    ("counted", {}),
    ("fused", {"fast": True, "fused": "numpy"}),
    ("native", {"fast": True, "fused": "native"}),
)
PIXEL_MAX = 65535


def make_matrix(rng: np.random.Generator, shape, integer: bool) -> np.ndarray:
    if integer:
        return rng.integers(0, PIXEL_MAX + 1, size=shape, dtype=np.int64)
    return rng.random(shape)


def oracle(a: np.ndarray) -> np.ndarray:
    """Exact for the int64 inputs; ``sat_reference`` order for float64."""
    return np.cumsum(np.cumsum(a, axis=0), axis=1)


def sat_matches(result: np.ndarray, expected: np.ndarray) -> bool:
    if result.shape != expected.shape:
        return False
    if expected.dtype.kind == "i":
        return bool(np.array_equal(result, expected))
    return bool(np.allclose(result, expected, rtol=1e-9, atol=1e-6))


def fresh_native(workdir: str, tag: str) -> float:
    """Forget the native backend and rebuild it into an empty on-disk
    cache; returns the build (toolchain probe + compile + self-check) s."""
    from repro.machine.engine import native

    os.environ["REPRO_NATIVE_CACHE_DIR"] = os.path.join(workdir, f"native-{tag}")
    native.reset()
    start = clock()
    backend = native.ensure_backend()
    elapsed = clock() - start
    if backend is None:
        raise RuntimeError(
            f"native backend unavailable: {native.native_stats()['failure']}"
        )
    return elapsed


# --------------------------------------------------------------------------- #
# sat-warm
# --------------------------------------------------------------------------- #


class WarmState:
    """Everything a sat-warm window needs, built by one set-up."""

    def __init__(self, cfg, inputs, workdir: str, tag: str):
        self.cfg, self.inputs, self.workdir, self.tag = cfg, inputs, workdir, tag
        self.session = None

    async def start(self) -> None:
        from repro.machine.engine import ExecutionEngine, PlanCache
        from repro.sat import BatchSession, make_algorithm

        cfg, inputs = self.cfg, self.inputs
        self.native_build_s = fresh_native(self.workdir, self.tag)
        self.engine = ExecutionEngine(cache=PlanCache())
        self.algorithms = {name: make_algorithm(name) for name in ALGORITHMS}
        # Plans are keyed by shape, so one dtype per size warms them all.
        for (_size, integer), (a, _expected) in inputs.items():
            if integer:
                continue
            for algo in self.algorithms.values():
                for _mode, kwargs in MODES:
                    algo.compute(a, engine=self.engine, **kwargs)
        self.session = BatchSession(
            "1R1W", workers=cfg.batch_workers,
            warm_shapes=[(n, n) for n in cfg.warm_sizes],
        )

    async def close(self) -> None:
        if self.session is not None:
            self.session.close()


def warm_inputs(cfg, seed: int) -> Dict[Tuple[int, bool], Tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng([seed, 1])
    out = {}
    for size in cfg.warm_sizes:
        for integer in (False, True):
            a = make_matrix(rng, (size, size), integer)
            out[(size, integer)] = (a, oracle(a))
    return out


def run_sat_warm(cfg, state: WarmState, inputs, tracer, outcome: Outcome,
                 seconds: float) -> Dict[str, object]:
    """Closed loop over the fixed mix until ``seconds`` of timed calls.

    One pass takes one dtype (alternating) at every size through every
    algorithm and mode, then the same matrices through the warm pool.
    Every pass does the same work, so a run that fits more passes in
    ``seconds`` only adds samples. The loop stops after an even number of
    passes, so both dtypes weigh the same, and after at least
    ``cfg.warm_min_passes``, which fixes the tail percentile whatever the
    speed.
    """
    calls: List[Tuple[str, str, int, float, int]] = []  # mode, alg, n, s, reads+writes
    batch_calls: List[Tuple[int, float]] = []
    busy = 0.0
    passes = 0
    while busy < seconds or passes % 2 or passes < cfg.warm_min_passes:
        integer = bool(passes % 2)
        for size in cfg.warm_sizes:
            a, expected = inputs[(size, integer)]
            for name, algo in state.algorithms.items():
                for mode, kwargs in MODES:
                    with tracer.span("sat.compute"):
                        start = clock()
                        result = algo.compute(a, engine=state.engine, **kwargs)
                        elapsed = clock() - start
                    busy += elapsed
                    with tracer.span("bench.check"):
                        ok = sat_matches(result.sat, expected)
                    if ok:
                        outcome.op(True)
                    else:
                        outcome.mismatch(f"{mode} {name} {size}x{size} int={integer}")
                    calls.append((mode, name, size, elapsed,
                                  result.counters.global_reads_writes))
            with tracer.span("batch.map"):
                start = clock()
                sats = list(state.session.map([a, a]))
                elapsed = clock() - start
            busy += elapsed
            batch_calls.append((size, elapsed))
            with tracer.span("bench.check"):
                for sat in sats:
                    if sat_matches(sat, expected):
                        outcome.op(True)
                    else:
                        outcome.mismatch(f"batch {size}x{size} int={integer}")
        passes += 1
    # Latency per 2**20 input elements: the 1024² and 2048² calls of one
    # entry point then fall together, so the median lands inside a group
    # of calls instead of on the gap between the two sizes.
    rates = [c[2] * c[2] / c[3] for c in calls] + [2 * n * n / s for n, s in batch_calls]
    latencies = [2 ** 20 / rate * 1e3 for rate in rates]
    pct = tail_percentile(cfg.warm_min_passes * len(latencies) // passes)
    tail_value = percentile(latencies, pct)
    per_mode = {}
    for mode, _kwargs in MODES:
        elems = sum(c[2] * c[2] for c in calls if c[0] == mode)
        secs = sum(c[3] for c in calls if c[0] == mode)
        per_mode[f"{mode}_melem_per_s"] = elems / secs / 1e6
    per_mode["batch_melem_per_s"] = (
        sum(2 * n * n for n, _ in batch_calls) / sum(s for _, s in batch_calls) / 1e6
    )
    return {
        "metrics": {
            "p50_ms": median(latencies),
            "tail_ms": tail_value,
            "throughput": geomean(rates),
        },
        "detail": {
            "passes": passes,
            "calls": len(latencies),
            "tail_percentile": pct,
            "tail_samples": len(latencies),
            **per_mode,
        },
        "calls": calls,
        "batch_calls": batch_calls,
    }


# --------------------------------------------------------------------------- #
# sat-cold
# --------------------------------------------------------------------------- #

def cold_shapes(count: int, rectangular: int, k_range: Tuple[int, int]) -> List[Tuple[int, int]]:
    """The shapes of one sat-cold round: ``count`` distinct shapes with
    sides 32*k, k in ``k_range``.

    Sizes follow weight 1/k**2, so each size band carries about the same
    expected compute time (a call costs about k**2): the small shapes give
    the sample count and the large ones set the tail. The sizes are the
    quantiles i/(count-1) of that weight, so the smallest and the largest
    size are always in the set; a size already taken moves up to the next
    free one. ``rectangular`` of them, spread over the range, become
    non-square shapes of about the same area, taller than wide.
    """
    k_min, k_max = k_range
    ks = np.arange(k_min, k_max + 1)
    cdf = np.cumsum(1.0 / ks.astype(np.float64) ** 2)
    cdf /= cdf[-1]
    step = count // max(1, rectangular)
    rect_slots = {count - 2 - j * step for j in range(rectangular)}
    shapes: List[Tuple[int, int]] = []
    taken = set()
    for i in range(count):
        k = int(ks[min(int(np.searchsorted(cdf, i / (count - 1))), len(ks) - 1)])
        while k in taken and k < k_max:
            k += 1
        taken.add(k)
        if i in rect_slots:
            a = max(k_min, int(round(k * 0.75)))
            b = min(k_max, max(a + 1, int(round(k * 4 / 3))))
            shape = (32 * b, 32 * a)
        else:
            shape = (32 * k, 32 * k)
        shapes.append(shape)
    if len(set(shapes)) != count:
        raise ValueError(f"{count} shapes do not fit in sides {k_range}")
    return shapes


class ColdState:
    """Set-up of sat-cold: the shape set. Every round then starts from a
    new planner, engine and sidecar."""

    def __init__(self, cfg, workdir: str, tag: str):
        self.cfg, self.workdir, self.tag = cfg, workdir, tag
        self.rounds = 0

    async def start(self) -> None:
        cfg = self.cfg
        self.shapes = cold_shapes(cfg.cold_per_round, cfg.cold_rectangular,
                                  cfg.cold_k_range)

    def new_round(self) -> None:
        """A planner with an empty sidecar in a new directory, a new plan
        cache and a new ``auto`` instance, so no shape of the round was
        seen by anything that could cache it."""
        from repro.autotune import AutotunePlanner, set_default_planner
        from repro.machine.engine import ExecutionEngine, PlanCache
        from repro.sat import make_algorithm

        self.rounds += 1
        path = os.path.join(self.workdir, f"autotune-{self.tag}-{self.rounds}",
                            "autotune.json")
        os.environ["REPRO_AUTOTUNE_PATH"] = path
        self.planner = AutotunePlanner(path=path)
        set_default_planner(self.planner)
        self.engine = ExecutionEngine(cache=PlanCache())
        self.auto = make_algorithm("auto")

    async def close(self) -> None:
        from repro.autotune import set_default_planner

        set_default_planner(None)


def run_sat_cold(cfg, state: ColdState, seed: int, tracer, outcome: Outcome,
                 seconds: float) -> Dict[str, object]:
    """Whole rounds of the same shape set, each in its own order and with
    new matrices and a new planner, until ``seconds`` of timed calls and
    at least ``cfg.cold_min_rounds``. Every round does the same work, so
    a faster program only adds samples of the same distribution. A shape
    is int64 in every other round, starting from alternate shapes, so two
    rounds take each shape once in each dtype whatever the seed."""
    rng = np.random.default_rng([seed, 3])
    firsts: List[Tuple[Tuple[int, int], float, str]] = []
    compiles = 0
    busy = 0.0
    rounds = 0
    while busy < seconds or rounds < cfg.cold_min_rounds:
        state.new_round()
        order = rng.permutation(len(state.shapes))
        for index in order.tolist():
            shape = state.shapes[index]
            integer = bool((index + rounds) % 2)
            with tracer.span("bench.input"):
                a = make_matrix(rng, shape, integer)
            with tracer.span("sat.compute"):
                start = clock()
                result = state.auto.compute(a, engine=state.engine)
                elapsed = clock() - start
            busy += elapsed
            with tracer.span("bench.check"):
                ok = sat_matches(result.sat, oracle(a))
            if ok:
                outcome.op(True)
            else:
                outcome.mismatch(f"auto {shape} int={integer} via {result.algorithm}")
            firsts.append((shape, elapsed, result.algorithm))
        compiles += state.engine.stats()["compiles"]
        rounds += 1
    # The gated latencies are per 2**20 input elements, as on sat-warm.
    # Raw first-result times form one group per shape, and the median and
    # the tail then sit on the gap between two shapes' groups, jumping
    # from one to the other with the host's speed; per element, the shapes
    # fall together (about 100..200 ms per 2**20 on the development host).
    first_ms = [f[1] * 1e3 for f in firsts]
    latencies = [ms * 2 ** 20 / (s[0] * s[1]) for (s, _, _), ms in zip(firsts, first_ms)]
    pct = tail_percentile(cfg.cold_min_rounds * len(state.shapes))
    return {
        "metrics": {
            "p50_ms": median(latencies),
            "tail_ms": percentile(latencies, pct),
            "throughput": geomean([s[0] * s[1] / t for s, t, _ in firsts]),
        },
        "detail": {
            "first_sat_p50_ms": median(first_ms),
            "first_sat_tail_ms": percentile(first_ms, pct),
            "tail_percentile": pct,
            "tail_samples": len(latencies),
            "rounds": rounds,
            "shapes": len(firsts),
            "plan_compiles": compiles,
            "chosen": sorted({f[2] for f in firsts}),
        },
    }
