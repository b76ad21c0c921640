"""Per-workload orchestration: set-up (repeated), the measured window,
and in traced runs the span analysis plus the layer probes."""

from __future__ import annotations

from typing import Dict, List

import layers
from harness import NullTracer, Outcome, clock, log, median, self_times
from sat_workloads import (ColdState, WarmState, run_sat_cold, run_sat_warm,
                           warm_inputs)
from serving import run_loop

#: Units of every metric the benchmark emits; BENCHMARK.json lists the
#: same names (the benchmark's test checks that they agree).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput": "1/s",
}

#: Layers spans are attributed to (span-name prefix). ``sat`` and
#: ``bench`` are the benchmark's own spans: ``sat`` is the catch-all
#: around each timed ``compute`` call, ``bench`` its input making and
#: output checking.
LAYERS = ("sat", "analysis", "autotune", "engine", "kernel", "batch", "bench")

#: Layers whose spans wrap calls into the program's own modules.
PROGRAM_LAYERS = ("analysis", "autotune", "engine", "kernel", "batch")

#: Spans around the calls the end-to-end metrics time.
TIMED_SPANS = ("sat.compute", "batch.map")


def units() -> Dict[str, str]:
    out = dict(END_TO_END)
    out.update(layers.UNITS)
    for layer in LAYERS:
        out[f"trace.self_frac.{layer}"] = "ratio"
    out["trace.coverage"] = "ratio"
    out["trace.overhead_frac"] = "ratio"
    return out


def run_workload(name: str, cfg, seed: int, seconds: float, tracer, outcome: Outcome,
                 workdir: str, *, traced: bool) -> Dict[str, object]:
    return run_loop(_run(name, cfg, seed, seconds, tracer, outcome, workdir, traced))


async def _run(name, cfg, seed, seconds, tracer, outcome, workdir, traced):
    if name == "sat-warm":
        inputs = warm_inputs(cfg, seed)
        new = lambda tag: WarmState(cfg, inputs, workdir, tag)  # noqa: E731
        window = lambda state, tracer: run_sat_warm(  # noqa: E731
            cfg, state, inputs, tracer, outcome, seconds)
    else:
        new = lambda tag: ColdState(cfg, workdir, tag)  # noqa: E731
        window = lambda state, tracer: run_sat_cold(  # noqa: E731
            cfg, state, seed, tracer, outcome, seconds)
    setup_times: List[float] = []
    state = None
    try:
        # Each set-up starts from empty caches; the last one is measured.
        for k in range(1 if traced else cfg.setup_repeats):
            if state is not None:
                await state.close()
            start = clock()
            state = new(str(k))
            await state.start()
            setup_times.append(clock() - start)
        if traced:
            # The same window untraced first: the tracing overhead is the
            # difference between the two windows' end-to-end metrics.
            plain = window(state, NullTracer())
        with instrumented(tracer):
            with tracer.span("workload") as root:
                result = window(state, tracer)
        report = {"metrics": result["metrics"], "detail": result["detail"],
                  "setup_s": median(setup_times)}
        report["detail"]["setup_repeats_s"] = setup_times
        if traced:
            layer = trace_metrics(tracer, root)
            untraced, traced_m = plain["metrics"], result["metrics"]
            layer["trace.overhead_frac"] = untraced["throughput"] / traced_m["throughput"] - 1.0
            report["detail"]["tracing_overhead"] = {
                metric: {"untraced": untraced[metric], "traced": traced_m[metric]}
                for metric in untraced
            }
            layer.update(await layers.probe_all(cfg, seed, workdir, outcome, name, state,
                                                report["detail"]))
            report["layer"] = layer
            report["checks_ok"] = trace_check(cfg, layer, report["detail"])
        return report
    finally:
        if state is not None:
            await state.close()


# --------------------------------------------------------------------------- #
# instrumentation and span analysis
# --------------------------------------------------------------------------- #


class instrumented:
    """Span wrappers around the calls into each layer, for the window only."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo: List = []

    def __enter__(self):
        if not self.tracer.enabled:
            return self
        from repro.analysis.model import RuntimeModel
        from repro.autotune import AutotunePlanner
        from repro.machine import engine as engine_mod
        from repro.machine.engine import ExecutionEngine

        targets = [
            (ExecutionEngine, "plan_for", "engine.plan_for"),
            (engine_mod, "compile_plan", "engine.compile"),
            (ExecutionEngine, "execute", "kernel.execute"),
            (AutotunePlanner, "decide_compute", "autotune.decide"),
            (AutotunePlanner, "observe", "autotune.observe"),
            (RuntimeModel, "predict_ms", "analysis.predict"),
        ]
        for owner, attr, span_name in targets:
            self.undo.append(self.tracer.wrap(owner, attr, span_name))
        return self

    def __exit__(self, *exc):
        for undo in reversed(self.undo):
            undo()
        self.undo.clear()
        return False


def trace_metrics(tracer, root_id: int) -> Dict[str, float]:
    """Per-layer self-time shares of the window, and the share of the
    timed calls' wall time that the program layers' spans account for.

    Time inside a timed call that no program-layer span covers is the
    self time of the ``sat`` catch-all and counts as not covered; the
    benchmark's own checking runs between timed calls, outside both.
    """
    spans = tracer.spans
    root = next(s for s in spans if s[0] == root_id)
    window = root[3] - root[2]
    selfs = self_times(spans, root_id)
    out = {f"trace.self_frac.{layer}": selfs.get(layer, 0.0) / window for layer in LAYERS}
    timed = sum(s[3] - s[2] for s in spans if s[1] in TIMED_SPANS)
    out["trace.coverage"] = sum(selfs.get(layer, 0.0) for layer in PROGRAM_LAYERS) / timed
    return out


def trace_check(cfg, layer: Dict[str, float], detail: Dict[str, object]) -> bool:
    detail["trace_dominant_layer"] = max(
        PROGRAM_LAYERS, key=lambda l: layer[f"trace.self_frac.{l}"])
    ok = layer["trace.coverage"] >= cfg.trace_coverage_min
    detail["trace_coverage_ok"] = ok
    if not ok:
        log(f"trace check failed: program-layer spans cover {layer['trace.coverage']:.3f} "
            f"of the timed calls, below {cfg.trace_coverage_min}")
    return ok
