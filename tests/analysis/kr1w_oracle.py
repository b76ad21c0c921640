"""Block-enumerating kR1W access counts: the oracle for the closed form.

This walks Figure 12's partition block by block and mirrors the kR1W
executor's phase structure (triangle sums/scans/corners/fix around the
1R1W band), so it is O((n/w)^2) and only fit for tests.
:func:`repro.analysis.formulas.counts_kr1w` must agree with it exactly.
"""

from repro.analysis.formulas import PredictedCounts
from repro.errors import ConfigurationError
from repro.layout.blocking import BlockGrid, triangle_diagonals
from repro.sat import triangle2r1w


def _block_stage_traffic(bi: int, bj: int, m: int, w: int) -> int:
    """Coalesced words moved by one 1R1W block-stage task."""
    c = 2 * w * w  # block read + write
    if bi > 0:
        c += w + (1 if bj > 0 else 0)  # corner-prefixed bottom row above
    if bj > 0:
        c += w + (1 if bi > 0 else 0)  # corner-prefixed right column left
    if bi < m - 1:
        c += w  # publish bottom row
    if bj < m - 1:
        c += w  # publish right column
    return c


def counts_kr1w_enumerated(n: int, w: int, p: float) -> PredictedCounts:
    """kR1W's exact ``(C, S, K)`` by enumerating every block."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    grid = BlockGrid(n, w)
    m = grid.blocks_per_side
    t = triangle_diagonals(m, p)
    top, mid, bottom = grid.triangle_partition(p)
    coalesced = 0
    stride = 0
    kernels = 0

    for blocks, seeded in ((top, False), (bottom, True)):
        if not blocks:
            continue
        kernels += 4
        n_blocks = len(blocks)
        # sums phase: block read + CS/RS row writes.
        coalesced += n_blocks * (w * w + 2 * w)
        # scans phase: runs by column and by row.
        col_runs = triangle2r1w._runs_by_column(blocks)
        row_runs = triangle2r1w._runs_by_row(blocks)
        for bj, run in col_runs.items():
            length = len(run)
            coalesced += 2 * length * w  # CS strip read + colAbove write
            stride += length  # t written down a T-buffer column
            if seeded:
                coalesced += w + 1 if bj > 0 else w
        for bi, run in row_runs.items():
            length = len(run)
            coalesced += 2 * length * w  # RS strip read + rowLeft write
            if seeded:
                coalesced += w + 1 if bi > 0 else w
        # corners phase: per row-run, t read + G write (+ seed).
        for bi, run in row_runs.items():
            length = len(run)
            coalesced += 2 * length
            if seeded and run.start > 0:
                stride += 1
        # fix phase: block read/write + top/left rows + corner + aux rows.
        for bi, bj in blocks:
            coalesced += 2 * w * w + 2 * w
            stride += 1
            if bi < m - 1:
                coalesced += w
            if bj < m - 1:
                coalesced += w

    # middle band: 1R1W stages t .. 2(m-1) - t.
    for stage in range(t, 2 * (m - 1) - t + 1):
        kernels += 1
        for bi, bj in grid.diagonal(stage):
            coalesced += _block_stage_traffic(bi, bj, m, w)

    return PredictedCounts(coalesced=coalesced, stride=stride, kernels=kernels)
