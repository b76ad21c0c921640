"""2R1W SAT algorithm (Section V; Nehab et al. 2011): block sums, scans, fix-up.

The matrix is partitioned into ``(n/w)^2`` blocks of ``w x w``:

* **Step 1** — every block is staged into shared memory; its column sums,
  row sums, and total are written to three small auxiliary matrices
  (``C`` of shape ``(m-1) x n``, ``R^T`` of shape ``(m-1) x n`` — stored
  transposed so Step 2's row scan becomes a coalesced column scan — and
  the block-sum matrix ``M``).
* **Step 2** — column scans of ``C`` and ``R^T``, plus the SAT of ``M``:
  computed by a single DMM when ``M`` fits a block, otherwise by a
  *recursive* 2R1W invocation whose Step 1 is merged into this kernel
  (hence exactly two extra barriers per recursion level, Lemma 4).
* **Step 3** — every block is staged again, the scanned boundary values
  are folded in (Figure 9: column offsets onto the top row, row offsets
  onto the left column, the corner sum onto the top-left element), the
  block SAT is taken, and the final values are written back.

Measured traffic (Lemma 4, dominant terms): ``2 n^2`` block reads +
``n^2`` block writes + ``O(n^2 / w)`` auxiliary traffic, all coalesced;
``3 + 2r`` kernels (``2 + 2r`` barriers) at recursion depth ``r``, with
``r <= 1`` for every realistic size (``r = 0`` iff ``n <= w^2 + w``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..layout.blocking import BlockGrid
from ..machine.engine.fused import (
    SingleBlockSatSpec,
    Step1Spec,
    Step3Spec,
    attach_fused_spec,
)
from ..machine.macro.executor import BlockContext, BlockTask, HMMExecutor
from ..machine.macro.global_memory import GlobalMemory
from .base import MATRIX_BUFFER, SATAlgorithm
from .blockops import (
    apply_offsets,
    block_sat_inplace,
    block_total,
    column_sums,
    row_sums,
    stage_block_in,
)
from .scan import column_scan_tasks

Phase = Tuple[str, List[BlockTask]]


def recursion_depth(n: int, w: int) -> int:
    """Depth ``r`` of the Step 2 recursion for an ``n x n`` matrix.

    The block-sum matrix has side ``m - 1 = n/w - 1``; recursion happens
    while that exceeds ``w``, shrinking roughly by a factor ``w`` per
    level — so ``r <= 1`` up to ``n = w^2 (w + 1)`` (528K at ``w=32``).
    """
    depth = 0
    side = n // w - 1
    while side > w:
        depth += 1
        side = -(-side // w) - 1  # ceil-pad to blocks, minus one
    return depth


def _pad_to_multiple(x: int, w: int) -> int:
    return -(-x // w) * w


def _single_block_sat_task(buf: str, side: int) -> BlockTask:
    """SAT of a whole (at most ``w x w``) buffer region by one DMM."""

    def task(ctx: BlockContext) -> None:
        tile = stage_block_in(ctx, buf, 0, 0, side, side)
        block_sat_inplace(tile)
        ctx.gm.write_strip(buf, 0, 0, tile.data)

    return attach_fused_spec([task], SingleBlockSatSpec(buf, side))[0]


class TwoReadOneWrite(SATAlgorithm):
    """The 2R1W SAT algorithm (block decomposition with scanned boundaries).

    Set ``keep_intermediates=True`` to capture the auxiliary buffers after
    each top-level phase (used by the Figure 8 reproduction).
    """

    name = "2R1W"

    def __init__(self, keep_intermediates: bool = False) -> None:
        self.keep_intermediates = keep_intermediates
        self.intermediates: Dict[str, Dict[str, np.ndarray]] = {}

    @property
    def plan_safe(self) -> bool:
        # Keeping intermediates reads the auxiliary buffers after every
        # phase, which a reusable plan cannot express.
        return not self.keep_intermediates

    # --- step tasks ---------------------------------------------------------

    def _step1_tasks(
        self, buf: str, grid: BlockGrid, c_buf: str, rt_buf: str, m_buf: str
    ) -> List[BlockTask]:
        m, w = grid.blocks_per_side, grid.w
        tasks = []
        for bi, bj in grid.all_blocks():
            if bi == m - 1 and bj == m - 1:
                continue  # its sums feed nothing downstream

            def task(ctx: BlockContext, bi=bi, bj=bj) -> None:
                r0, c0 = grid.origin(bi, bj)
                tile = stage_block_in(ctx, buf, r0, c0, w, w)
                if bi < m - 1:
                    ctx.gm.write_hrun(c_buf, bi, c0, column_sums(tile))
                if bj < m - 1:
                    ctx.gm.write_hrun(rt_buf, bj, r0, row_sums(tile))
                if bi < m - 1 and bj < m - 1:
                    ctx.gm.write_at(m_buf, bi, bj, block_total(tile))

            tasks.append(task)
        return attach_fused_spec(
            tasks, Step1Spec(buf, c_buf, rt_buf, m_buf, m, w)
        )

    def _step3_tasks(
        self, buf: str, grid: BlockGrid, c_buf: str, rt_buf: str, m_buf: str
    ) -> List[BlockTask]:
        w = grid.w
        tasks = []
        for bi, bj in grid.all_blocks():

            def task(ctx: BlockContext, bi=bi, bj=bj) -> None:
                r0, c0 = grid.origin(bi, bj)
                tile = stage_block_in(ctx, buf, r0, c0, w, w)
                top = ctx.gm.read_hrun(c_buf, bi - 1, c0, w) if bi > 0 else None
                left = ctx.gm.read_hrun(rt_buf, bj - 1, r0, w) if bj > 0 else None
                corner = (
                    ctx.gm.read_at(m_buf, bi - 1, bj - 1) if bi > 0 and bj > 0 else None
                )
                apply_offsets(tile, top, left, corner)
                block_sat_inplace(tile)
                ctx.gm.write_strip(buf, r0, c0, tile.data)

            tasks.append(task)
        return attach_fused_spec(
            tasks,
            Step3Spec(buf, c_buf, rt_buf, m_buf, grid.blocks_per_side, w),
        )

    # --- phase generation -----------------------------------------------------

    def _phases(self, gm: GlobalMemory, buf: str, n: int, w: int) -> Iterator[Phase]:
        """Yield the kernel phases; recursion merges its Step 1 into Step 2."""
        if n <= w:
            yield f"{buf}:sat-single-block", [_single_block_sat_task(buf, n)]
            return
        grid = BlockGrid(n, w)
        m = grid.blocks_per_side
        mm = m - 1  # side of the auxiliary matrices
        c_buf, rt_buf, m_buf = f"{buf}.C", f"{buf}.Rt", f"{buf}.M"
        gm.alloc(c_buf, (mm, n))
        gm.alloc(rt_buf, (mm, n))
        m_side = mm if mm <= w else _pad_to_multiple(mm, w)
        gm.alloc(m_buf, (m_side, m_side))

        yield f"{buf}:step1", self._step1_tasks(buf, grid, c_buf, rt_buf, m_buf)

        scans = column_scan_tasks(c_buf, mm, n, w) + column_scan_tasks(rt_buf, mm, n, w)
        if mm <= w:
            yield f"{buf}:step2", scans + [_single_block_sat_task(m_buf, mm)]
        else:
            sub = self._phases(gm, m_buf, m_side, w)
            first_label, first_tasks = next(sub)
            yield f"{buf}:step2+{first_label}", scans + first_tasks
            for label, tasks in sub:
                yield label, tasks

        yield f"{buf}:step3", self._step3_tasks(buf, grid, c_buf, rt_buf, m_buf)

    def _run(self, executor: HMMExecutor, n: int, cols: int) -> None:
        w = executor.params.width
        for label, tasks in self._phases(executor.gm, MATRIX_BUFFER, n, w):
            executor.run_kernel(tasks, label=label)
            if self.keep_intermediates:
                self.intermediates[label] = {
                    name: executor.gm.array(name).copy()
                    for name in (MATRIX_BUFFER, "A.C", "A.Rt", "A.M")
                    if executor.gm.has(name)
                }
