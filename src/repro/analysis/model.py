"""Runtime prediction and crossover analysis from the cost model.

The cost model yields *time units*; converting to milliseconds needs two
hardware constants — the length of one unit (set by the achievable
coalesced bandwidth) and the effective barrier latency (dominated by CUDA
kernel-launch overhead, hence far larger than the DRAM latency alone).
:class:`RuntimeModel` packages a calibrated ``(unit_ns, latency,
stride_discount)`` triple; :func:`repro.analysis.calibration.calibrate`
fits it to the paper's published Table II.

``stride_discount`` exists because a real GTX 780 Ti does not serialize
stride warps a full ``w``-fold — the L2 cache absorbs part of the penalty
— so the pure model over-penalizes 2R2W/4R1W by ~2-4x. The discount only
affects those two rows; the all-coalesced algorithms the paper's
conclusions rest on are insensitive to it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..machine.params import MachineParams
from .formulas import PredictedCounts, predicted_counters
from .published import TABLE2_GPU_ALGORITHMS


@dataclasses.dataclass(frozen=True)
class RuntimeModel:
    """Calibrated conversion from cost-model units to milliseconds."""

    params: MachineParams
    unit_ns: float  # wall-clock length of one cost unit
    stride_discount: float = 1.0  # fraction of the full w-fold stride penalty

    def cost_units(self, counts: PredictedCounts) -> float:
        w, l = self.params.width, self.params.latency
        return (
            counts.coalesced / w
            + counts.stride * self.stride_discount
            + (counts.barriers + 1) * l
        )

    def milliseconds(self, counts: PredictedCounts) -> float:
        return self.cost_units(counts) * self.unit_ns * 1e-6

    def predict_ms(self, name: str, n: int, p: Optional[float] = None) -> float:
        return self.milliseconds(predicted_counters(name, n, self.params, p=p))


def best_p_for_size(model: RuntimeModel, n: int, ps: Optional[Sequence[float]] = None):
    """The mixing parameter minimizing predicted kR1W time at size ``n``.

    Returns ``(p, ms)``. Candidates default to the feasible diagonal
    counts, thinned to at most 257 as in
    :func:`repro.sat.tuning.candidate_ps`; each is priced by the O(1)
    closed form :func:`repro.analysis.formulas.counts_kr1w`, so the whole
    sweep takes a few milliseconds even at 18K.
    """
    from ..sat.tuning import candidate_ps

    if ps is None:
        ps = candidate_ps(n, model.params.width, max_candidates=257)
    best = min(((p, model.predict_ms("kR1W", n, p=p)) for p in ps), key=lambda t: t[1])
    return best


def predict_table2_row(model: RuntimeModel, n: int) -> Dict[str, float]:
    """Predicted milliseconds for every GPU algorithm at size ``n``.

    The ``kR1W`` entry is the best over the mixing-parameter sweep, and
    ``best_p`` records its argmin, mirroring Table II's two bottom GPU rows.
    """
    row: Dict[str, float] = {}
    for name in TABLE2_GPU_ALGORITHMS:
        if name == "kR1W":
            p, ms = best_p_for_size(model, n)
            row["kR1W"] = ms
            row["best_p"] = p
        else:
            row[name] = model.predict_ms(name, n)
    return row


def crossover_size(
    model: RuntimeModel,
    slower_small: str = "1R1W",
    faster_small: str = "2R1W",
    *,
    n_max: int = 1 << 15,
    step: Optional[int] = None,
) -> Optional[int]:
    """Size above which ``slower_small`` permanently overtakes ``faster_small``.

    The paper observes 1R1W overtaking 2R1W between 6K and 7K. Evaluated
    as the grid point after the *largest* size at which ``faster_small``
    still wins (at degenerate tiny sizes both algorithms have the same
    barrier count and the comparison is meaningless, so a first-win search
    would misfire). Returns ``None`` when ``faster_small`` still wins at
    ``n_max``.
    """
    w = model.params.width
    if step is None:
        step = 8 * w
    step = max(w, step // w * w)
    grid = range(step, n_max + 1, step)
    last_fast_win = None
    for n in grid:
        if model.predict_ms(faster_small, n) <= model.predict_ms(slower_small, n):
            last_fast_win = n
    if last_fast_win is None:
        return grid.start  # slower_small wins everywhere sampled
    if last_fast_win >= n_max:
        return None
    return last_fast_win + step
