"""1R1W SAT algorithm (Section VI) — the paper's main contribution.

Extends 4R1W's diagonal recurrence from elements to ``w x w`` blocks:
Stage ``s`` computes the *final* SAT of every block on anti-diagonal
``I + J == s``, using only the already-final SAT values of its upper and
left neighbors (Figure 11). Since each input element is read exactly once
and each output element written exactly once (plus ``O(n^2/w)`` boundary
traffic), the algorithm is optimal in global memory accesses — every SAT
algorithm must read all of ``A`` and write all of ``S``.

Boundary bookkeeping: a finished block writes its bottom SAT row into
``AuxB`` (an ``m x n`` buffer; row ``I`` holds matrix row ``(I+1)w - 1``)
and its right SAT column, transposed, into ``AuxR`` — both coalesced.
A later block recovers its offsets by *pairwise subtraction* of those rows
(Section VI's ``cs``/``rs``/``s`` reconstruction, here
:func:`~repro.sat.blockops.offsets_from_neighbor_rows`), folds them in as
in 2R1W's Step 3, takes the block SAT, and writes back.

Measured traffic (Theorem 6, dominant terms): ``(1 + 2/w) n^2`` coalesced
reads and writes each — the ``2w + 2`` boundary reads and ``2w`` boundary
writes per block are the ``4w`` words the paper cites — with ``2 n/w - 2``
barriers. The barrier term ``(2n/w) l`` is why 1R1W loses to 2R1W on small
matrices and wins past the crossover (Table II).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..layout.blocking import BlockGrid
from ..machine.engine.fused import BlockStageSpec, attach_fused_spec
from ..machine.macro.executor import BlockContext, BlockTask, HMMExecutor
from .base import MATRIX_BUFFER, SATAlgorithm
from .blockops import (
    apply_offsets,
    block_sat_inplace,
    offsets_from_neighbor_rows,
    stage_block_in,
)

#: Bottom SAT rows, one buffer row per block-row.
AUX_BOTTOM = "AuxB"
#: Right SAT columns (transposed), one buffer row per block-column.
AUX_RIGHT = "AuxR"


def read_corner_prefixed(
    ctx: BlockContext, aux: str, aux_row: int, start: int, w: int
) -> np.ndarray:
    """Read ``w + 1`` aux words ``[corner, run of w]``, or zero-prefix at the edge.

    ``start`` is the first of the ``w`` in-block positions; the corner
    value sits at ``start - 1`` and is part of the same horizontal run
    (one extra coalesced word), except at the matrix edge where it is an
    implicit zero.
    """
    if start > 0:
        return ctx.gm.read_hrun(aux, aux_row, start - 1, w + 1)
    vals = ctx.gm.read_hrun(aux, aux_row, 0, w)
    return np.concatenate(([0.0], vals))


def make_block_stage_task(
    buf: str, grid: BlockGrid, bi: int, bj: int
) -> BlockTask:
    """Task computing the final SAT of block ``(bi, bj)`` from its neighbors.

    Shared by 1R1W (all blocks) and kR1W (middle-band blocks); handles
    rectangular grids (edge tests use the grid's row/column block counts).
    """
    w = grid.w

    def task(ctx: BlockContext) -> None:
        r0, c0 = grid.origin(bi, bj)
        tile = stage_block_in(ctx, buf, r0, c0, w, w)
        above = (
            read_corner_prefixed(ctx, AUX_BOTTOM, bi - 1, c0, w) if bi > 0 else None
        )
        left_t = (
            read_corner_prefixed(ctx, AUX_RIGHT, bj - 1, r0, w) if bj > 0 else None
        )
        top, left, corner = offsets_from_neighbor_rows(above, left_t)
        apply_offsets(tile, top, left, corner if bi > 0 and bj > 0 else None)
        block_sat_inplace(tile)
        ctx.gm.write_strip(buf, r0, c0, tile.data)
        if bi < grid.block_rows - 1:
            tile.charge(reads=w)
            ctx.gm.write_hrun(AUX_BOTTOM, bi, c0, tile.data[w - 1, :])
        if bj < grid.block_cols - 1:
            tile.charge(reads=w)
            ctx.gm.write_hrun(AUX_RIGHT, bj, r0, tile.data[:, w - 1])

    return task


def block_stage_tasks(buf: str, grid: BlockGrid, blocks) -> List[BlockTask]:
    """Stage tasks for a set of blocks, fused as one batched group.

    The fused spec precomputes the whole set's gather/scatter index
    arrays and boundary masks, so a warm plan executes the entire
    anti-diagonal as a handful of numpy calls.
    """
    blocks = list(blocks)
    tasks = [make_block_stage_task(buf, grid, bi, bj) for bi, bj in blocks]
    return attach_fused_spec(
        tasks,
        BlockStageSpec(
            buf, grid.w, blocks, grid.block_rows, grid.block_cols,
            AUX_BOTTOM, AUX_RIGHT,
        ),
    )


def alloc_aux_buffers(executor: HMMExecutor, rows: int, cols: int = None) -> None:
    """Allocate the boundary buffers (idempotent; kR1W shares them).

    ``AuxB`` holds one published bottom row per non-terminal block-row
    (length = column count); ``AuxR`` one transposed right column per
    non-terminal block-column (length = row count).
    """
    if cols is None:
        cols = rows
    w = executor.params.width
    if not executor.gm.has(AUX_BOTTOM):
        executor.gm.alloc(AUX_BOTTOM, (max(rows // w - 1, 1), cols))
    if not executor.gm.has(AUX_RIGHT):
        executor.gm.alloc(AUX_RIGHT, (max(cols // w - 1, 1), rows))


class OneReadOneWrite(SATAlgorithm):
    """The 1R1W SAT algorithm (block-diagonal stages, memory-access optimal).

    ``snapshot_after_stage=k`` captures the matrix after stage ``k`` for
    the Figure 11 reproduction.
    """

    name = "1R1W"
    supports_rectangular = True

    def __init__(self, snapshot_after_stage: Optional[int] = None) -> None:
        self.snapshot_after_stage = snapshot_after_stage
        self.snapshot: Optional[np.ndarray] = None

    @property
    def plan_safe(self) -> bool:
        # Capturing a mid-run snapshot reads global memory between
        # kernels, which a reusable plan cannot express.
        return self.snapshot_after_stage is None

    def _run(self, executor: HMMExecutor, rows: int, cols: int) -> None:
        grid = BlockGrid(rows, executor.params.width, cols)
        alloc_aux_buffers(executor, rows, cols)
        for stage in range(grid.num_diagonals):
            tasks = block_stage_tasks(MATRIX_BUFFER, grid, grid.diagonal(stage))
            executor.run_kernel(tasks, label=f"stage{stage}")
            if self.snapshot_after_stage is not None and stage == self.snapshot_after_stage:
                self.snapshot = executor.gm.array(MATRIX_BUFFER).copy()
