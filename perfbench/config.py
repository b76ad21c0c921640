"""Sizes and limits of the benchmark, fixed here so every run of every
commit measures the same thing. ``quick`` shrinks them for the
benchmark's own test; its numbers are not comparable with a full run."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class Config:
    # set-up and interpreter start-up: repeated, medians reported
    setup_repeats: int = 3
    import_repeats: int = 7
    # sat-warm; the window runs at least warm_min_passes passes
    warm_sizes: Tuple[int, ...] = (1024, 2048)
    warm_min_passes: int = 4
    batch_workers: int = 2
    # sat-cold: shapes per round, of which rectangular; the window runs
    # at least cold_min_rounds rounds
    cold_per_round: int = 30
    cold_rectangular: int = 5
    cold_k_range: Tuple[int, int] = (16, 128)  # sides 512 .. 4096
    cold_min_rounds: int = 3
    # serving layers, measured by the traced runs' probes
    serve_n: int = 1024
    tile: int = 64
    max_rect: int = 256
    max_radius: int = 8
    region_block: int = 64
    cluster_workers: int = 2
    replicas: int = 2
    max_queue: int = 1_000_000  # backlog grows instead of shedding
    store_capacity: int = 1 << 30
    # per-layer probes (traced runs)
    probe_n: int = 2048
    batch_probe_n: int = 1024
    batch_probe_k: int = 4
    store_probe_ops: int = 3000
    router_probe_ops: int = 200
    serve_probe_rate: float = 300.0
    serve_probe_s: float = 1.0
    #: Share of the timed calls' wall time that the program layers' own
    #: spans must account for in a traced run; the rest is the self time
    #: of the benchmark's catch-all ``sat.compute`` span.
    trace_coverage_min: float = 0.8


FULL = Config()

QUICK = replace(
    FULL,
    setup_repeats=1,
    import_repeats=1,
    warm_sizes=(128, 256),
    warm_min_passes=2,
    cold_per_round=4,
    cold_rectangular=1,
    cold_k_range=(2, 8),
    cold_min_rounds=1,
    serve_n=256,
    tile=32,
    max_rect=64,
    region_block=32,
    probe_n=256,
    batch_probe_n=128,
    store_probe_ops=300,
    router_probe_ops=20,
    serve_probe_s=0.2,
)
