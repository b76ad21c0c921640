"""Analytic access-count formulas for every SAT algorithm (Table I).

Two layers:

* ``paper_*`` functions give the paper's dominant-term expressions
  (Lemmas 2-5, Theorems 6-7) — good for intuition and documentation.
* :func:`predicted_counters` computes the *exact* counts this package's
  implementations produce, as closed forms derived from their kernel
  structure (no data is moved, no block is enumerated; every predictor
  is O(1) in ``n`` except 2R1W's O(log n) recursion). Tests assert
  measured == predicted at many ``(algorithm, n, w)`` points, and kR1W's
  closed form against a block-enumerating oracle, which both validates the
  implementations against the model and lets Table II evaluate 18K-size
  costs instantly.

Counts returned are ``(C, S, K)``: coalesced element accesses, stride
operations, and kernel launches (barriers are ``K - 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..layout.blocking import triangle_diagonals
from ..machine.cost import cost_formula
from ..machine.params import MachineParams
from ..util.validation import require_multiple


@dataclass(frozen=True)
class PredictedCounts:
    """Exact predicted traffic of one algorithm run."""

    coalesced: int
    stride: int
    kernels: int

    @property
    def barriers(self) -> int:
        return max(0, self.kernels - 1)

    def cost(self, params: MachineParams) -> float:
        return cost_formula(self.coalesced, self.stride, self.barriers, params)

    @property
    def global_accesses(self) -> int:
        return self.coalesced + self.stride


# --------------------------------------------------------------------------
# exact per-algorithm predictors (mirroring the implementations)
# --------------------------------------------------------------------------


def counts_2r2w(n: int, w: int) -> PredictedCounts:
    """2R2W: coalesced column scan, stride row scan, one barrier."""
    scan = n * n + n * (n - 1)  # reads + writes (first line not rewritten)
    return PredictedCounts(coalesced=scan, stride=scan, kernels=2)


def counts_4r4w(n: int, w: int) -> PredictedCounts:
    """4R4W: two scans (2n^2 - n each) + two transposes (2n^2 each)."""
    scan = n * n + n * (n - 1)
    return PredictedCounts(coalesced=2 * scan + 4 * n * n, stride=0, kernels=4)


def counts_4r1w(n: int, w: int) -> PredictedCounts:
    """4R1W: Formula (1) per element, all stride, a kernel per diagonal."""
    stride = (
        n * n  # read a[i][j]
        + 2 * n * (n - 1)  # left and up neighbors
        + (n - 1) ** 2  # diagonal neighbor
        + n * n  # write
    )
    return PredictedCounts(coalesced=0, stride=stride, kernels=2 * n - 1)


def counts_2r1w(n: int, w: int) -> PredictedCounts:
    """2R1W with its merged-kernel recursion (see ``algo_2r1w``)."""
    if n <= w:
        return PredictedCounts(coalesced=2 * n * n, stride=0, kernels=1)
    m = n // w
    mm = m - 1
    # Step 1: every block but the last is read; CS/RS rows written.
    coalesced = (m * m - 1) * w * w + 2 * mm * m * w
    stride = mm * mm  # single-word block-sum writes into M
    kernels = 2  # step1 + step2
    # Step 2: column scans of C and R^T.
    coalesced += 2 * (mm * n + (mm - 1) * n)
    if mm <= w:
        coalesced += 2 * mm * mm  # single-DMM SAT of M, merged into step2
    else:
        mp = -(-mm // w) * w  # M padded to a block multiple
        sub = counts_2r1w(mp, w)
        coalesced += sub.coalesced
        stride += sub.stride
        kernels += sub.kernels - 1  # first sub-kernel merged into step2
    # Step 3: re-read blocks + boundary rows, write final blocks.
    coalesced += 2 * m * m * w * w + 2 * m * mm * w
    stride += mm * mm  # corner reads from M
    kernels += 1
    return PredictedCounts(coalesced=coalesced, stride=stride, kernels=kernels)


def counts_1r1w(n: int, w: int) -> PredictedCounts:
    """1R1W: closed form over all blocks.

    Each block task moves ``2w^2`` (block read + write), a corner-prefixed
    ``w + 1`` read per neighbour above or left (``w`` at a matrix edge,
    where the corner prefix is absent), and ``w`` per boundary row it
    publishes for a neighbour below or right.
    """
    m = n // w
    coalesced = (
        2 * m * m * w * w  # block reads + writes
        + 2 * (m * (m - 1) * w + (m - 1) ** 2)  # neighbor rows + corners
        + 2 * m * (m - 1) * w  # published boundary rows
    )
    return PredictedCounts(coalesced=coalesced, stride=0, kernels=2 * m - 1)


def counts_kr1w(n: int, w: int, p: float) -> PredictedCounts:
    """kR1W in closed form over ``m = n/w``, ``t`` and ``w``.

    With ``t = triangle_diagonals(m, p)`` anti-diagonals per corner
    triangle, ``t = 0`` is exactly 1R1W. Otherwise each triangle is a
    staircase of ``T = t(t+1)/2`` blocks whose ``t`` block-columns and
    ``t`` block-rows are contiguous runs of lengths ``t, t-1, ..., 1``,
    run in four kernels (see :mod:`repro.sat.triangle2r1w`):

    * sums: ``T (w^2 + 2w)`` (block read, CS/RS row writes);
    * scans: ``2Lw`` per column run and per row run, ``4wT`` in all, plus
      ``L`` stride writes of ``t`` per column run (``T``);
    * corners: ``2L`` per row run, ``2T`` in all;
    * fix: ``T (2w^2 + 2w)`` plus one stride corner read per block
      (``T``), plus ``w`` per published aux row.

    The top-left triangle (``t <= m-1``) touches neither terminal edge, so
    it publishes ``2wT``: ``C = 3w^2 T + 10wT + 2T``, ``S = 2T``. The seeded
    bottom-right triangle starts every run at block index ``m-t >= 1``, so
    each of its ``2t`` scans reads a ``w + 1`` seed, each corner run
    strides one seed read, and its ``t`` blocks on each terminal edge skip
    a publish: ``C = 3w^2 T + 10wT + 2T + 2t``, ``S = 2T + t``.

    The band is 1R1W (``C_1 = counts_1r1w(n, w).coalesced``) less the
    ``2t`` clipped stages. A stage of ``L`` blocks moves
    ``2w^2 L + (4L - 2)w + 2c`` (see :func:`counts_1r1w`), where
    ``c`` counts blocks with both an upper and a left neighbour:
    ``max(L - 2, 0)`` on the top stages (``L = s + 1 <= m - 1``) and
    ``L`` on the bottom stages. Over ``L = 1..t`` the top stages sum to
    ``2w^2 T + 4wT - 2wt + (t-1)(t-2)`` and the bottom ones to
    ``2w^2 T + 4wT - 2wt + 2T``. Adding the triangles, with
    ``2T = t^2 + t``:

    * ``C = C_1 + 2w^2 T + 12wT + 4wt + 6t - 2``
    * ``S = 4T + t``
    * ``K = 8 + (2m - 1 - 2t) = 2m + 7 - 2t``
    """
    if p is None:
        raise ConfigurationError("kR1W requires the mixing parameter p")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    require_multiple(n, w)
    band = counts_1r1w(n, w)
    m = n // w
    t = triangle_diagonals(m, p)
    if t == 0:
        return band
    tri = t * (t + 1) // 2
    return PredictedCounts(
        coalesced=band.coalesced
        + 2 * w * w * tri + 12 * w * tri + 4 * w * t + 6 * t - 2,
        stride=4 * tri + t,
        kernels=2 * m + 7 - 2 * t,
    )


_PREDICTORS = {
    "2R2W": counts_2r2w,
    "4R4W": counts_4r4w,
    "4R1W": counts_4r1w,
    "2R1W": counts_2r1w,
    "1R1W": counts_1r1w,
}


def predicted_counters(
    name: str, n: int, params: MachineParams, p: Optional[float] = None
) -> PredictedCounts:
    """Exact predicted ``(C, S, kernels)`` for algorithm ``name`` at size ``n``."""
    w = params.width
    if name != "4R1W":
        require_multiple(n, w)
    if name in ("kR1W", "1.25R1W"):
        return counts_kr1w(n, w, 0.5 if name == "1.25R1W" else p)
    try:
        return _PREDICTORS[name](n, w)
    except KeyError:
        raise ConfigurationError(f"no predictor for algorithm {name!r}") from None


def kr1w_cost(n: int, params: MachineParams, p: float) -> float:
    """kR1W's model cost ``C/w + S + (B+1)l`` from :func:`counts_kr1w`.

    O(1) in ``n``, so the analytic tuner and the autotuner's priors can
    price every feasible ``p`` of a new shape in microseconds.
    """
    return counts_kr1w(n, params.width, p).cost(params)


# --------------------------------------------------------------------------
# the paper's dominant-term Table I expressions
# --------------------------------------------------------------------------


def paper_table1_row(name: str, n: int, params: MachineParams, p: float = 0.5):
    """Dominant-term (C, S, B, cost) as Table I states them.

    Returned counts drop lower-order terms exactly as the paper's table
    does ("we omit small terms to focus on dominant terms").
    """
    w, l = params.width, params.latency
    n2 = float(n) * n
    if name == "2R2W":
        c, s, b = 2 * n2, 2 * n2, 1
    elif name == "4R4W":
        c, s, b = 8 * n2, 0.0, 3
    elif name == "4R1W":
        c, s, b = 0.0, 5 * n2, 2 * n - 1
    elif name == "2R1W":
        c, s, b = 3 * n2 * (1 + 1 / w**2), 0.0, 2 * _practical_depth(n, w) + 2
    elif name == "1R1W":
        c, s, b = 2 * n2 * (1 + 2 / w), 0.0, 2 * n / w - 2
    elif name in ("kR1W", "1.25R1W"):
        if name == "1.25R1W":
            p = 0.5
        c = (2 + p * p) * n2 * (1 + 2 / w)
        s = 0.0
        b = 2 * (1 - p) * n / w + 6
    else:
        raise ConfigurationError(f"unknown algorithm {name!r}")
    return c, s, b, cost_formula(c, s, b, params)


def _practical_depth(n: int, w: int) -> int:
    from ..sat.algo_2r1w import recursion_depth

    return recursion_depth(n, w)
