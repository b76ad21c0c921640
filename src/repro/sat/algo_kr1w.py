"""The combined (1+p^2)R1W SAT algorithm (Section VII, Figure 12).

1R1W's weakness is latency: its early and late anti-diagonal stages hold
only a few blocks each, so the per-stage barrier latency ``l`` is not
amortized. kR1W therefore clips both corners: for a mixing parameter
``p`` in ``[0, 1]``, the first ``t = round(p (m-1))`` block diagonals (the
top-left triangle A) and the last ``t`` (the bottom-right triangle B) are
computed 2R1W-style in O(1) barriers each, and only the wide middle band C
runs 1R1W's diagonal stages.

The triangles hold ``~p^2 n^2`` elements touched ``~3`` times per element
and the band ``~(1-p^2) n^2`` elements touched ``~2`` times, so the
algorithm performs ``(1 + p^2) n^2`` reads and ``n^2`` writes — hence the
name: ``p = 1/2`` gives the paper's 1.25R1W. Barriers drop from
``2 n/w`` to ``2 (1-p) n/w + O(1)`` (Theorem 7). The optimal ``p``
balances the extra triangle bandwidth against the saved stage latency and
therefore *decreases* as ``n`` grows — the trend Table II's best-``p`` row
shows and :mod:`repro.sat.tuning` reproduces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from ..layout.blocking import BlockGrid, triangle_diagonals
from ..machine.macro.executor import HMMExecutor
from .algo_1r1w import alloc_aux_buffers, block_stage_tasks
from .base import MATRIX_BUFFER, SATAlgorithm
from .triangle2r1w import alloc_triangle_buffers, triangle_phases


class CombinedKR1W(SATAlgorithm):
    """The (1+p^2)R1W SAT algorithm: 2R1W triangles around a 1R1W band.

    Parameters
    ----------
    p:
        Mixing parameter in ``[0, 1]``: the fraction of the ``m - 1``
        off-main diagonals assigned to each corner triangle. ``p = 0``
        degenerates to pure 1R1W; ``p = 0.5`` is the paper's 1.25R1W.
    """

    name = "kR1W"

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 <= p <= 1.0:
            raise ShapeError(f"p must be in [0, 1], got {p}")
        self.p = p

    @property
    def k(self) -> float:
        """Reads per element: ``1 + p^2`` (the 'k' in kR1W)."""
        return 1.0 + self.p**2

    def plan_extras(self):
        # p changes the triangle/band partition, i.e. the kernel structure:
        # two instances with different p must never share a cached plan.
        return {"p": self.p}

    @property
    def display_name(self) -> str:
        return f"{self.k:.4g}R1W(p={self.p:g})"

    def _run(self, executor: HMMExecutor, n: int, cols: int) -> None:
        w = executor.params.width
        grid = BlockGrid(n, w)
        top, mid, bottom = grid.triangle_partition(self.p)
        alloc_aux_buffers(executor, n)
        if top or bottom:
            alloc_triangle_buffers(executor.gm, grid)

        # (A) top-left triangle, 2R1W-style with zero seeds.
        for label, tasks in triangle_phases(
            MATRIX_BUFFER, grid, top, seeded=False, label="A"
        ):
            executor.run_kernel(tasks, label=label)

        # (C) middle band, 1R1W diagonal stages.
        m = grid.blocks_per_side
        t = triangle_diagonals(m, self.p)
        for stage in range(t, 2 * (m - 1) - t + 1):
            tasks = block_stage_tasks(MATRIX_BUFFER, grid, grid.diagonal(stage))
            executor.run_kernel(tasks, label=f"C:stage{stage}")

        # (B) bottom-right triangle, 2R1W-style seeded from the band.
        for label, tasks in triangle_phases(
            MATRIX_BUFFER, grid, bottom, seeded=True, label="B"
        ):
            executor.run_kernel(tasks, label=label)


class OnePointTwoFiveR1W(CombinedKR1W):
    """The paper's named 1.25R1W instance (``p = 1/2``)."""

    name = "1.25R1W"

    def __init__(self) -> None:
        super().__init__(p=0.5)
