"""2R1W-style SAT computation of a *triangular* block region (for kR1W).

Section VII applies "the 2R1W SAT algorithm" to the two corner triangles
of Figure 12. A triangle is not a full matrix, so this module generalizes
2R1W's three steps to an arbitrary *run-contiguous* block region ``R``
(every row and column of ``R`` is a contiguous run of blocks) whose
upper/left boundary blocks are already final and have published their
boundary rows in the 1R1W auxiliary buffers:

1. **sums** — each ``R`` block writes its column sums ``CS`` and row sums
   ``RS`` (transposed) to scratch buffers.
2. **scans** — per block-column, a seeded *exclusive* scan of ``CS``
   yields each block's global sums-above vector (``colAbove``); per
   block-row, the symmetric scan of ``RS`` yields ``rowLeft``. The scan
   seeds are pairwise differences of the final boundary rows (zero for
   the top-left triangle). Each column scan also emits
   ``t[I][J] = sum_j colAbove[I][J](j)`` — the total mass above block
   ``(I, J)`` — into a tiny per-block buffer.
3. **corners** — per block-row, an exclusive scan of ``t`` seeded with the
   boundary corner value gives every block's corner sum
   ``G[I][J] = F(I w - 1, J w - 1)``, via the identity
   ``G[I][J] = G[I][J-1] + t[I][J-1]``.
4. **fix** — each block folds in (``colAbove``, ``rowLeft``, ``G``) as in
   Figure 9, takes its block SAT, writes back, and publishes its boundary
   rows for downstream 1R1W stages.

This keeps the triangle at ``O(1)`` barrier steps (4 kernels) and
``~(3 + O(1/w))`` global accesses per element — the 2R1W profile — without
the M-matrix recursion (the corner scan replaces it at one extra barrier;
the deviation from the paper's ``2 + 2r`` triangle barriers is noted in
DESIGN.md and is immaterial next to the ``2(1-p) n/w`` stage barriers).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from ..layout.blocking import BlockGrid
from ..machine.engine.fused import (
    TriangleFixSpec,
    TriangleSumsSpec,
    attach_fused_spec,
)
from ..machine.macro.executor import BlockContext, BlockTask
from ..machine.macro.global_memory import GlobalMemory
from .algo_1r1w import AUX_BOTTOM, AUX_RIGHT
from .blockops import (
    apply_offsets,
    block_sat_inplace,
    column_sums,
    row_sums,
    stage_block_in,
)

Phase = Tuple[str, List[BlockTask]]

#: Scratch buffer names (shared by both triangles; each overwrites only the
#: entries it later reads).
CS_BUF = "kTri.CS"
RS_BUF = "kTri.RSt"
COL_ABOVE_BUF = "kTri.colAbove"
ROW_LEFT_BUF = "kTri.rowLeft"
T_BUF = "kTri.t"
G_BUF = "kTri.G"


def _runs_by_column(blocks: Sequence[Tuple[int, int]]) -> Dict[int, range]:
    """Map block-column J -> contiguous range of block-rows I in the region."""
    per_col: Dict[int, List[int]] = {}
    for i, j in blocks:
        per_col.setdefault(j, []).append(i)
    runs = {}
    for j, rows in per_col.items():
        rows.sort()
        if rows[-1] - rows[0] + 1 != len(rows):
            raise ShapeError(f"block-column {j} of the region is not contiguous")
        runs[j] = range(rows[0], rows[-1] + 1)
    return runs


def _runs_by_row(blocks: Sequence[Tuple[int, int]]) -> Dict[int, range]:
    """Map block-row I -> contiguous range of block-columns J in the region."""
    return _runs_by_column([(j, i) for i, j in blocks])


def alloc_triangle_buffers(gm: GlobalMemory, grid: BlockGrid) -> None:
    """Allocate the triangle scratch buffers once (idempotent)."""
    m, n = grid.blocks_per_side, grid.n
    for name, shape in (
        (CS_BUF, (m, n)),
        (RS_BUF, (m, n)),
        (COL_ABOVE_BUF, (m, n)),
        (ROW_LEFT_BUF, (m, n)),
        (T_BUF, (m, m)),
        (G_BUF, (m, m)),
    ):
        if not gm.has(name):
            gm.alloc(name, shape)


def triangle_phases(
    buf: str,
    grid: BlockGrid,
    blocks: Sequence[Tuple[int, int]],
    *,
    seeded: bool,
    label: str,
) -> Iterator[Phase]:
    """Yield the four kernel phases computing final SAT values on ``blocks``.

    ``seeded=False`` is the top-left triangle (all boundary sums are zero);
    ``seeded=True`` reads boundary seeds from the 1R1W aux buffers, which
    every already-final block is required to have populated.
    """
    if not blocks:
        return
    w = grid.w
    col_runs = _runs_by_column(blocks)
    row_runs = _runs_by_row(blocks)

    # --- phase 1: per-block sums -------------------------------------------
    def make_sums_task(bi: int, bj: int) -> BlockTask:
        def task(ctx: BlockContext) -> None:
            r0, c0 = grid.origin(bi, bj)
            tile = stage_block_in(ctx, buf, r0, c0, w, w)
            ctx.gm.write_hrun(CS_BUF, bi, c0, column_sums(tile))
            ctx.gm.write_hrun(RS_BUF, bj, r0, row_sums(tile))

        return task

    yield f"{label}:sums", attach_fused_spec(
        [make_sums_task(bi, bj) for bi, bj in blocks],
        TriangleSumsSpec(buf, CS_BUF, RS_BUF, w, blocks),
    )

    # --- phase 2: seeded exclusive scans ------------------------------------
    def make_col_scan_task(bj: int, run: range) -> BlockTask:
        def task(ctx: BlockContext) -> None:
            c0 = bj * w
            i0, length = run.start, len(run)
            cs = ctx.gm.read_strip(CS_BUF, i0, c0, length, w)
            if seeded:
                if i0 == 0:
                    raise ShapeError(
                        "seeded triangle region touches the top edge; "
                        "no final boundary row exists above it"
                    )
                border = ctx.gm.read_hrun(
                    AUX_BOTTOM, i0 - 1, c0 - 1, w + 1
                ) if c0 > 0 else np.concatenate(
                    ([0.0], ctx.gm.read_hrun(AUX_BOTTOM, i0 - 1, 0, w))
                )
                seed = np.diff(border)
            else:
                seed = np.zeros(w)
            above = np.empty((length, w))
            above[0] = seed
            if length > 1:
                above[1:] = seed + np.cumsum(cs[:-1], axis=0)
            ctx.gm.write_strip(COL_ABOVE_BUF, i0, c0, above)
            ctx.gm.write_vrun(T_BUF, bj, i0, above.sum(axis=1))

        return task

    def make_row_scan_task(bi: int, run: range) -> BlockTask:
        def task(ctx: BlockContext) -> None:
            r0 = bi * w
            j0, length = run.start, len(run)
            rs = ctx.gm.read_strip(RS_BUF, j0, r0, length, w)
            if seeded:
                if j0 == 0:
                    raise ShapeError(
                        "seeded triangle region touches the left edge; "
                        "no final boundary column exists left of it"
                    )
                border = ctx.gm.read_hrun(
                    AUX_RIGHT, j0 - 1, r0 - 1, w + 1
                ) if r0 > 0 else np.concatenate(
                    ([0.0], ctx.gm.read_hrun(AUX_RIGHT, j0 - 1, 0, w))
                )
                seed = np.diff(border)
            else:
                seed = np.zeros(w)
            left = np.empty((length, w))
            left[0] = seed
            if length > 1:
                left[1:] = seed + np.cumsum(rs[:-1], axis=0)
            ctx.gm.write_strip(ROW_LEFT_BUF, j0, r0, left)

        return task

    yield f"{label}:scans", [
        make_col_scan_task(j, run) for j, run in sorted(col_runs.items())
    ] + [make_row_scan_task(i, run) for i, run in sorted(row_runs.items())]

    # --- phase 3: corner sums ------------------------------------------------
    def make_corner_task(bi: int, run: range) -> BlockTask:
        def task(ctx: BlockContext) -> None:
            j0, length = run.start, len(run)
            t_row = ctx.gm.read_hrun(T_BUF, bi, j0, length)
            if seeded and j0 > 0:
                # F(bi*w - 1, j0*w - 1): published by the final block
                # above-left of the run's first block.
                g0 = float(ctx.gm.read_at(AUX_BOTTOM, bi - 1, j0 * w - 1))
            else:
                g0 = 0.0
            g = np.empty(length)
            g[0] = g0
            if length > 1:
                g[1:] = g0 + np.cumsum(t_row[:-1])
            ctx.gm.write_hrun(G_BUF, bi, j0, g)

        return task

    yield f"{label}:corners", [
        make_corner_task(i, run) for i, run in sorted(row_runs.items())
    ]

    # --- phase 4: block fix-up ------------------------------------------------
    m = grid.blocks_per_side

    def make_fix_task(bi: int, bj: int) -> BlockTask:
        def task(ctx: BlockContext) -> None:
            r0, c0 = grid.origin(bi, bj)
            tile = stage_block_in(ctx, buf, r0, c0, w, w)
            top = ctx.gm.read_hrun(COL_ABOVE_BUF, bi, c0, w)
            left = ctx.gm.read_hrun(ROW_LEFT_BUF, bj, r0, w)
            corner = float(ctx.gm.read_at(G_BUF, bi, bj))
            apply_offsets(tile, top, left, corner if bi > 0 and bj > 0 else None)
            block_sat_inplace(tile)
            ctx.gm.write_strip(buf, r0, c0, tile.data)
            if bi < m - 1:
                tile.charge(reads=w)
                ctx.gm.write_hrun(AUX_BOTTOM, bi, c0, tile.data[w - 1, :])
            if bj < m - 1:
                tile.charge(reads=w)
                ctx.gm.write_hrun(AUX_RIGHT, bj, r0, tile.data[:, w - 1])

        return task

    yield f"{label}:fix", attach_fused_spec(
        [make_fix_task(bi, bj) for bi, bj in blocks],
        TriangleFixSpec(
            buf, COL_ABOVE_BUF, ROW_LEFT_BUF, G_BUF,
            AUX_BOTTOM, AUX_RIGHT, w, m, blocks,
        ),
    )
