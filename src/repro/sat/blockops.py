"""Per-block (in-DMM) computations shared by the block-based SAT algorithms.

2R1W, 1R1W, and kR1W all stage ``w x w`` blocks into shared memory and run
the same small set of block-local computations there: column/row sums, the
block SAT, and the offset application of Figure 9 (add column offsets to
the top row, row offsets to the left column, the corner sum to the top-left
element, then take the block SAT). These helpers centralize both the math
and the shared-memory accounting.

All block-local scans are conflict-free under the diagonal arrangement
(Lemma 1; proved cycle-exactly in ``tests/layout/test_diagonal.py``), so the
macro model performs them with numpy and charges shared traffic without
serialization penalties — consistent with the paper's observation that
in-DMM work "is so small that it can be hidden by latency overhead".
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..machine.macro.executor import BlockContext
from ..machine.macro.shared import SharedArray


def stage_block_in(
    ctx: BlockContext, buf: str, r0: int, c0: int, h: int, w: int
) -> SharedArray:
    """Read a block from global memory into fresh shared memory (coalesced)."""
    tile = ctx.shared.alloc((h, w))
    data = ctx.gm.read_strip(buf, r0, c0, h, w)
    tile.fill(data)
    return tile


def column_sums(tile: SharedArray) -> np.ndarray:
    """Column sums of a staged block. Charges one shared read per element."""
    tile.charge(reads=tile.data.size)
    return tile.data.sum(axis=0)


def row_sums(tile: SharedArray) -> np.ndarray:
    """Row sums of a staged block. Charges one shared read per element."""
    tile.charge(reads=tile.data.size)
    return tile.data.sum(axis=1)


def block_total(tile: SharedArray) -> float:
    """Sum of a staged block. Charges one shared read per element."""
    tile.charge(reads=tile.data.size)
    return tile.data.sum()


def block_sat_inplace(tile: SharedArray) -> None:
    """Replace a staged block's contents with its SAT.

    Two scan passes (column-wise then row-wise), each reading and writing
    every element once — ``2 h w`` shared reads and writes, conflict-free
    under the diagonal arrangement.
    """
    data = tile.data
    np.cumsum(data, axis=0, out=data)
    np.cumsum(data, axis=1, out=data)
    tile.charge(reads=2 * data.size, writes=2 * data.size)


def apply_offsets(
    tile: SharedArray,
    top: Optional[np.ndarray] = None,
    left: Optional[np.ndarray] = None,
    corner: Optional[float] = None,
) -> None:
    """Figure 9's Step 3-1: fold boundary offsets into a staged block.

    ``top[j]`` is the sum of all elements strictly above the block in
    global column ``c0 + j``; ``left[i]`` the sum strictly to the left in
    global row ``r0 + i``; ``corner`` the sum of everything strictly
    above-left. After :func:`block_sat_inplace`, the block then holds its
    final global SAT values.

    Each offset is ``None`` when the block has no such neighbour. The
    shared-memory charge follows that position alone, never the values,
    so the tally a plan memoizes is the same for every input; a zero
    corner is charged but skipped in the arithmetic.
    """
    data = tile.data
    h, w = data.shape
    writes = 0
    if top is not None:
        data[0, :] += top
        writes += w
    if left is not None:
        data[:, 0] += left
        writes += h
    if corner is not None:
        if corner:
            data[0, 0] += corner
        writes += 1
    tile.charge(reads=writes, writes=writes)


def offsets_from_neighbor_rows(
    above: Optional[np.ndarray], left_t: Optional[np.ndarray]
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], float]:
    """Reconstruct (top, left, corner) offsets from neighbors' final SAT rows.

    This is the pairwise-subtraction step of Section VI. ``above`` is the
    bottom SAT row of the block above *prefixed with the corner value*
    ``F(r0-1, c0-1)``, i.e. ``w + 1`` entries
    ``[F(r0-1, c0-1), F(r0-1, c0), ..., F(r0-1, c0+w-1)]``; at the left
    matrix edge the corner prefix is 0. ``left_t`` is the right SAT column
    of the block to the left, transposed and likewise corner-prefixed.
    Either may be ``None`` when the block touches the top/left matrix edge.

    Because SAT values accumulate monotonically along a row or column,
    adjacent differences recover the per-column sums-above and per-row
    sums-to-the-left, and the shared first entry is the corner sum.
    """
    top = left = None
    corner = 0.0
    if above is not None:
        corner = float(above[0])
        top = np.diff(above)
    if left_t is not None:
        if above is None:
            corner = float(left_t[0])
        left = np.diff(left_t)
    return top, left, corner
