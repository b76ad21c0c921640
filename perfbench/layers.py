"""Per-layer probes for traced runs: timed calls into each layer's
public functions, with the same seed-derived inputs on every workload.

The plan-hit ratio comes from the workload window's own engine and, on
sat-warm, the native build time from its set-up; the ``detail`` line
names the source of each group.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from harness import clock, copy_gbps, cumsum_ms, llc_bytes, median, percentile
from sat_workloads import (ALGORITHMS, MODES, fresh_native, make_matrix, oracle,
                           sat_matches)

UNITS: Dict[str, str] = {
    "analysis.kr1w_counts_ms": "ms",
    "autotune.decide_ms": "ms",
    "autotune.arms_priced": "count",
    "engine.plan_compile_ms": "ms",
    "engine.plan_hit_us": "us",
    "engine.plan_hit_ratio": "ratio",
    "engine.native_build_s": "s",
    **{f"kernel.{mode}.{alg}_ms": "ms" for mode, _ in MODES for alg in ALGORITHMS},
    **{f"kernel.{mode}.roofline_frac": "ratio" for mode, _ in MODES},
    **{f"kernel.bytes_per_elem.{alg}": "B" for alg in ALGORITHMS},
    "ref.copy_gbps": "GB/s",
    "ref.cumsum_ms": "ms",
    "batch.map_ms": "ms",
    "batch.pool_over_serial": "ratio",
    "batch.worker_restarts": "count",
    "store.region_sums_us_per_q": "us",
    "store.local_stats_us": "us",
    "store.update_point_us": "us",
    "store.update_region_us": "us",
    "store.put_ms": "ms",
    "server.latency_ms": "ms",
    "server.overhead_ms": "ms",
    "server.batch_size_mean": "count",
    "server.max_queue_depth": "count",
    "server.shed": "count",
    "server.deadline_missed": "count",
    "loadgen.lag_ms": "ms",
    "router.region_sum_us": "us",
    "router.region_sums_us_per_q": "us",
    "router.update_point_us": "us",
    "router.update_region_us": "us",
    "router.coalesced_points_per_batch": "count",
    "router.fast_path_ratio": "ratio",
    "router.retries": "count",
    "cluster.ring_share": "ratio",
    "cluster.restarts": "count",
    "cluster.ingest_ms": "ms",
}

RECT_BATCH = 16


def _time(fn, repeats: int) -> float:
    """Median seconds of ``repeats`` calls (after one untimed call)."""
    fn()
    times = []
    for _ in range(repeats):
        start = clock()
        fn()
        times.append(clock() - start)
    return median(times)


async def probe_all(cfg, seed: int, workdir: str, outcome, workload: str, state,
                    detail) -> Dict[str, float]:
    out: Dict[str, float] = {}
    sources: Dict[str, str] = {}
    out.update(probe_model(cfg))
    out.update(probe_engine_and_kernels(cfg, seed, workdir, outcome, state, workload, sources))
    out.update(probe_batch(cfg, seed, outcome))
    store_metrics, service_us = probe_store(cfg, seed, outcome)
    out.update(store_metrics)
    sources["server"] = "local serve probe"
    out.update(await probe_server(cfg, seed, outcome, service_us))
    sources["router"] = "cluster probe"
    out.update(probe_cluster(cfg, seed, outcome))
    detail["layer_sources"] = sources
    missing = set(UNITS) - set(out)
    if missing:
        raise RuntimeError(f"layer probes did not produce {sorted(missing)}")
    return {name: out[name] for name in UNITS}


# --------------------------------------------------------------------------- #
# analysis, autotune
# --------------------------------------------------------------------------- #


def probe_model(cfg) -> Dict[str, float]:
    from repro.analysis.formulas import predicted_counters
    from repro.autotune import AutotunePlanner, compute_arms
    from repro.machine import MachineParams

    n = cfg.probe_n
    params = MachineParams()
    kr1w = _time(lambda: predicted_counters("kR1W", n, params, 0.5), 5)
    planner = AutotunePlanner(path=None)
    decide = []
    for k in range(3):
        side = n + 32 * (k + 1)  # never seen by this planner
        start = clock()
        planner.decide_compute(side, side, np.float64, None, explore=False)
        decide.append(clock() - start)
    arms = compute_arms(n + 32, n + 32, None, model=planner.model)
    return {
        "analysis.kr1w_counts_ms": kr1w * 1e3,
        "autotune.decide_ms": median(decide) * 1e3,
        "autotune.arms_priced": float(len(arms)),
    }


# --------------------------------------------------------------------------- #
# engine, kernels, references
# --------------------------------------------------------------------------- #


def probe_engine_and_kernels(cfg, seed, workdir, outcome, state, workload, sources):
    from repro.machine import MachineParams
    from repro.machine.engine import ExecutionEngine, PlanCache
    from repro.sat import MATRIX_BUFFER, make_algorithm

    out: Dict[str, float] = {}
    n = cfg.probe_n
    params = MachineParams()
    if workload == "sat-warm":
        out["engine.native_build_s"] = state.native_build_s
        sources["engine.native_build_s"] = "sat-warm set-up"
    else:
        out["engine.native_build_s"] = fresh_native(workdir, "probe")
        sources["engine.native_build_s"] = "probe build into an empty cache"

    algo = make_algorithm("1R1W")
    compile_times = []
    for _ in range(3):
        engine = ExecutionEngine(cache=PlanCache())
        start = clock()
        engine.plan_for(algo, n, n, params, input_buffer=MATRIX_BUFFER)
        compile_times.append(clock() - start)
    out["engine.plan_compile_ms"] = median(compile_times) * 1e3
    hit = _time(lambda: engine.plan_for(algo, n, n, params, input_buffer=MATRIX_BUFFER), 200)
    out["engine.plan_hit_us"] = hit * 1e6

    a = make_matrix(np.random.default_rng([seed, 7]), (n, n), False)
    expected = oracle(a)
    gbps = copy_gbps(a.nbytes)
    out["ref.copy_gbps"] = gbps
    out["ref.cumsum_ms"] = cumsum_ms([a])
    engine = ExecutionEngine(cache=PlanCache())
    repeats = {"counted": 2, "fused": 3, "native": 5}
    bandwidth: Dict[str, list] = {mode: [] for mode, _ in MODES}
    for name in ALGORITHMS:
        algorithm = make_algorithm(name)
        for mode, kwargs in MODES:
            result = algorithm.compute(a, engine=engine, **kwargs)
            times = []
            for _ in range(repeats[mode]):
                start = clock()
                result = algorithm.compute(a, engine=engine, **kwargs)
                times.append(clock() - start)
            if sat_matches(result.sat, expected):
                outcome.op(True)
            else:
                outcome.mismatch(f"probe {mode} {name} {n}")
            seconds = median(times)
            moved = result.counters.global_reads_writes * 8
            out[f"kernel.{mode}.{name}_ms"] = seconds * 1e3
            out[f"kernel.bytes_per_elem.{name}"] = moved / (n * n)
            bandwidth[mode].append(moved / seconds / 1e9)
    for mode, values in bandwidth.items():
        out[f"kernel.{mode}.roofline_frac"] = float(np.mean(values)) / gbps
    llc = llc_bytes()
    sources["roofline"] = (
        f"bytes computed from SATResult.counters (8 B per global access) over "
        f"np.copyto bandwidth at {a.nbytes} B; arrays are "
        + ("smaller than" if llc and a.nbytes < 4 * llc else "at least")
        + f" 4x the reported LLC ({llc} B)"
    )
    stats = state.engine.stats()
    sources["engine.plan_hit_ratio"] = f"{workload} window engine"
    lookups = stats["hits"] + stats["misses"]
    out["engine.plan_hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    return out


# --------------------------------------------------------------------------- #
# batch pool
# --------------------------------------------------------------------------- #


def probe_batch(cfg, seed, outcome) -> Dict[str, float]:
    from repro.sat import BatchSession

    n, k = cfg.batch_probe_n, cfg.batch_probe_k
    rng = np.random.default_rng([seed, 8])
    mats = [make_matrix(rng, (n, n), True) for _ in range(k)]
    expected = [oracle(m) for m in mats]
    times = {}
    restarts = 0
    for workers in (cfg.batch_workers, 0):
        with BatchSession("1R1W", workers=workers, warm_shapes=[(n, n)]) as session:
            results = []

            def run():
                results[:] = list(session.map(mats))

            times[workers] = _time(run, 3)
            for got, want in zip(results, expected):
                if sat_matches(got, want):
                    outcome.op(True)
                else:
                    outcome.mismatch(f"probe batch workers={workers}")
            if workers:
                restarts = session.describe()["worker_restarts"]
    return {
        "batch.map_ms": times[cfg.batch_workers] * 1e3,
        "batch.pool_over_serial": times[0] / times[cfg.batch_workers],
        "batch.worker_restarts": float(restarts),
    }


# --------------------------------------------------------------------------- #
# store: the serve-local op stream replayed directly on a Dataset
# --------------------------------------------------------------------------- #


def probe_store(cfg, seed, outcome):
    from repro.service import TiledSATStore, local_stats, region_sums
    from serving import LOCAL_MIX, make_schedule

    n = cfg.serve_n
    matrix = make_matrix(np.random.default_rng([seed, 6]), (n, n), True)
    store = TiledSATStore(capacity_bytes=cfg.store_capacity)
    put = _time(lambda: store.put("img", matrix, tile=cfg.tile, track_squares=True), 3)
    ds = store.get("img")
    shadow = matrix.copy()
    recs = make_schedule(np.random.default_rng([seed, 9]), LOCAL_MIX, 1.0,
                         cfg.store_probe_ops, n, cfg)
    times: Dict[str, list] = {}
    rects = []
    for rec in recs:
        p = rec.payload
        start = clock()
        if rec.kind == "region_sum":
            rects.append(p)
            if len(rects) < RECT_BATCH:
                continue
            got = region_sums(ds, np.array(rects, dtype=np.int64))
            elapsed = (clock() - start) / len(rects)
            want = [int(shadow[t:b + 1, l:r + 1].sum()) for t, l, b, r in rects]
            _check(outcome, got.tolist() == want, "probe store region_sums")
            rects = []
        elif rec.kind == "local_stats":
            local_stats(ds, *p)
            elapsed = clock() - start
        elif rec.kind == "update_point":
            ds.update_point(p["r"], p["c"], value=p["value"])
            elapsed = clock() - start
            shadow[p["r"], p["c"]] = p["value"]
        else:
            ds.update_region(p["top"], p["left"], p["values"])
            elapsed = clock() - start
            b = p["values"]
            shadow[p["top"]:p["top"] + b.shape[0], p["left"]:p["left"] + b.shape[1]] = b
        times.setdefault(rec.kind, []).append(elapsed)
    _check(outcome, np.array_equal(ds.values.materialize(), oracle(shadow)),
           "probe store final SAT")
    us = {kind: median(values) * 1e6 for kind, values in times.items()}
    return {
        "store.region_sums_us_per_q": us["region_sum"],
        "store.local_stats_us": us["local_stats"],
        "store.update_point_us": us["update_point"],
        "store.update_region_us": us["update_region"],
        "store.put_ms": put * 1e3,
    }, us


def _check(outcome, ok: bool, what: str) -> None:
    if ok:
        outcome.op(True)
    else:
        outcome.mismatch(what)


def server_overhead_ms(recs, service_us: Dict[str, float]) -> float:
    """Median server-side latency minus the store's own service time for
    the request's kind (from the direct replay)."""
    over = [r.latency * 1e3 - service_us.get(r.kind, 0.0) / 1e3
            for r in recs if r.latency is not None and r.kind in service_us]
    return median(over)


async def probe_server(cfg, seed, outcome, service_us) -> Dict[str, float]:
    """A short open-loop phase of the local mix through a ``SATServer``."""
    from repro.service import SATServer, TiledSATStore
    from serving import DATASET, LOCAL_MIX, drive, make_schedule, verify

    matrix = make_matrix(np.random.default_rng([seed, 6]), (cfg.serve_n,) * 2, True)
    server = SATServer(TiledSATStore(capacity_bytes=cfg.store_capacity),
                       max_queue=cfg.max_queue)
    await server.start()
    try:
        await server.ingest(DATASET, matrix, tile=cfg.tile, track_squares=True)
        recs = make_schedule(np.random.default_rng([seed, 10]), LOCAL_MIX,
                             cfg.serve_probe_rate, cfg.serve_probe_s, cfg.serve_n, cfg)
        await drive(server, recs)
        verify(matrix, recs, outcome)
        stats = server.stats.as_dict()
    finally:
        await server.close()
    served = [r for r in recs if r.latency is not None]
    return {
        "server.latency_ms": median([r.latency * 1e3 for r in served]),
        "server.overhead_ms": server_overhead_ms(recs, service_us),
        "server.batch_size_mean": float(np.mean([r.batch for r in served])),
        "server.max_queue_depth": float(stats["max_queue_depth"]),
        "server.shed": float(stats["shed"]),
        "server.deadline_missed": float(stats["deadline_missed"]),
        "loadgen.lag_ms": percentile([(r.submit - r.due) * 1e3 for r in recs], 99),
    }


# --------------------------------------------------------------------------- #
# router and cluster
# --------------------------------------------------------------------------- #


def probe_cluster(cfg, seed, outcome) -> Dict[str, float]:
    from repro.service import ShardRouter, WorkerSupervisor

    matrix = make_matrix(np.random.default_rng([seed, 6]), (cfg.serve_n,) * 2, True)
    router = ShardRouter(WorkerSupervisor(cfg.cluster_workers), replicas=cfg.replicas)
    try:
        start = clock()
        router.ingest("img", matrix, tile=cfg.tile)
        ingest_ms = (clock() - start) * 1e3
        return probe_router(cfg, seed, outcome, router, matrix, ingest_ms)
    finally:
        router.close()


def probe_router(cfg, seed, outcome, router, matrix, ingest_ms) -> Dict[str, float]:
    """Direct calls on a live router holding ``matrix`` as ``img``, then
    its and its supervisor's statistics."""
    n = matrix.shape[0]
    name = "img"
    shadow = matrix.copy()
    rng = np.random.default_rng([seed, 11])
    times: Dict[str, list] = {"one": [], "many": [], "point": [], "region": []}
    for _ in range(cfg.router_probe_ops):
        h, w = (int(v) for v in rng.integers(1, cfg.max_rect + 1, size=2))
        t, l = int(rng.integers(0, n - h + 1)), int(rng.integers(0, n - w + 1))
        start = clock()
        got = router.region_sum(name, t, l, t + h - 1, l + w - 1)
        times["one"].append(clock() - start)
        _check(outcome, int(got) == int(shadow[t:t + h, l:l + w].sum()), "probe router region_sum")
    for _ in range(max(1, cfg.router_probe_ops // RECT_BATCH)):
        rects = []
        for _ in range(RECT_BATCH):
            h, w = (int(v) for v in rng.integers(1, cfg.max_rect + 1, size=2))
            t, l = int(rng.integers(0, n - h + 1)), int(rng.integers(0, n - w + 1))
            rects.append((t, l, t + h - 1, l + w - 1))
        start = clock()
        got = router.region_sums(name, np.array(rects, dtype=np.int64))
        times["many"].append((clock() - start) / RECT_BATCH)
        want = [int(shadow[t:b + 1, l:r + 1].sum()) for t, l, b, r in rects]
        _check(outcome, [int(v) for v in got] == want, "probe router region_sums")
    for _ in range(max(1, cfg.router_probe_ops // 4)):
        r, c = (int(v) for v in rng.integers(0, n, size=2))
        value = int(rng.integers(0, 65536))
        start = clock()
        router.update_point(name, r, c, value=value)
        times["point"].append(clock() - start)
        shadow[r, c] = value
        b = cfg.region_block
        t, l = (int(v) for v in rng.integers(0, n - b + 1, size=2))
        block = rng.integers(0, 65536, size=(b, b), dtype=np.int64)
        start = clock()
        router.update_region(name, t, l, block)
        times["region"].append(clock() - start)
        shadow[t:t + b, l:l + b] = block
    got = router.region_sum(name, 0, 0, n - 1, n - 1)
    _check(outcome, int(got) == int(shadow.sum()), "probe router total after writes")
    stats = router.stats()
    sup = stats["supervisor"]
    served = sum(sup["lookups_served"].values())
    return {
        "router.region_sum_us": median(times["one"]) * 1e6,
        "router.region_sums_us_per_q": median(times["many"]) * 1e6,
        "router.update_point_us": median(times["point"]) * 1e6,
        "router.update_region_us": median(times["region"]) * 1e6,
        "router.coalesced_points_per_batch": (
            stats["coalesced_points"] / stats["coalesced_batches"]
            if stats["coalesced_batches"] else 0.0),
        "router.fast_path_ratio": (stats["fast_path"] / stats["requests"]
                                   if stats["requests"] else 0.0),
        "router.retries": float(stats["retries"]),
        "cluster.ring_share": (sum(sup["ring_lookups"].values()) / served
                               if served else 0.0),
        "cluster.restarts": float(sup["restarts"]),
        "cluster.ingest_ms": ingest_ms,
    }
