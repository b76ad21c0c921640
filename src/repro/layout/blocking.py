"""Block decomposition of an ``n x n`` matrix into ``w x w`` tiles.

Every block-based algorithm in the paper (2R1W, 1R1W, kR1W, the HMM
transpose) partitions the input into ``(n/w) x (n/w)`` blocks of ``w x w``
elements; block ``(I, J)`` covers rows ``I*w .. (I+1)*w - 1`` and columns
``J*w .. (J+1)*w - 1``. This module centralizes that coordinate math plus
the diagonal-stage enumeration used by 1R1W (all blocks with
``I + J == stage``) and the triangle partition used by kR1W (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..errors import ShapeError


def triangle_diagonals(m: int, p: float) -> int:
    """Anti-diagonals in each kR1W corner triangle: ``t = round(p (m - 1))``.

    The single rounding rule behind Figure 12's partition; the kR1W
    algorithm, its kernel profiles and its closed-form access counts all
    derive ``t`` here so they cannot disagree on a rounding tie.
    """
    return int(round(p * (m - 1)))


@dataclass(frozen=True)
class BlockGrid:
    """A grid of ``w x w`` blocks covering an ``n x n_cols`` matrix.

    Square by default (``n_cols = n``, the paper's setting); a rectangular
    grid supports the extensions that generalize 2R2W/4R1W/1R1W to
    non-square inputs. The kR1W triangle partition remains square-only.
    """

    n: int
    w: int
    n_cols: int = None

    def __post_init__(self) -> None:
        if self.n_cols is None:
            object.__setattr__(self, "n_cols", self.n)
        if self.n < 1 or self.n_cols < 1 or self.w < 1:
            raise ShapeError(
                f"sizes must be positive, got n={self.n}, n_cols={self.n_cols}, w={self.w}"
            )
        if self.n % self.w != 0 or self.n_cols % self.w != 0:
            raise ShapeError(
                f"matrix shape ({self.n}, {self.n_cols}) must be a multiple of "
                f"block width w={self.w}; pad the input "
                "(repro.util.matrices.pad_to_multiple) first"
            )

    @property
    def is_square(self) -> bool:
        return self.n == self.n_cols

    @property
    def block_rows(self) -> int:
        return self.n // self.w

    @property
    def block_cols(self) -> int:
        return self.n_cols // self.w

    @property
    def blocks_per_side(self) -> int:
        """Square-only alias matching the paper's ``m = n/w``."""
        if not self.is_square:
            raise ShapeError("blocks_per_side is defined for square grids only")
        return self.n // self.w

    @property
    def num_blocks(self) -> int:
        return self.block_rows * self.block_cols

    def origin(self, block_row: int, block_col: int) -> Tuple[int, int]:
        """Top-left element coordinate of block ``(block_row, block_col)``."""
        if not (0 <= block_row < self.block_rows and 0 <= block_col < self.block_cols):
            raise ShapeError(
                f"block ({block_row}, {block_col}) outside "
                f"{self.block_rows} x {self.block_cols} grid"
            )
        return block_row * self.w, block_col * self.w

    def all_blocks(self) -> Iterator[Tuple[int, int]]:
        """All block coordinates in row-major order."""
        for i in range(self.block_rows):
            for j in range(self.block_cols):
                yield i, j

    def diagonal(self, stage: int) -> List[Tuple[int, int]]:
        """Blocks on anti-diagonal ``stage`` (``I + J == stage``), as 1R1W visits them.

        Stages run from 0 to ``block_rows + block_cols - 2``.
        """
        last = self.block_rows + self.block_cols - 2
        if not 0 <= stage <= last:
            raise ShapeError(f"stage {stage} outside [0, {last}]")
        lo = max(0, stage - (self.block_cols - 1))
        hi = min(stage, self.block_rows - 1)
        return [(i, stage - i) for i in range(lo, hi + 1)]

    @property
    def num_diagonals(self) -> int:
        """Number of 1R1W stages: ``block_rows + block_cols - 1``."""
        return self.block_rows + self.block_cols - 1

    def triangle_partition(
        self, p: float
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]], List[Tuple[int, int]]]:
        """Figure 12's kR1W partition for mixing parameter ``p`` in ``[0, 1]``.

        Returns ``(top_left, middle, bottom_right)`` where the top-left
        triangle contains blocks with ``I + J < t``, the bottom-right
        triangle blocks with ``I + J > 2(m-1) - t``, and the middle band
        the rest, with ``t = round(p * (m - 1))`` diagonals assigned to
        each triangle. ``p = 0`` sends everything to the middle (pure
        1R1W); ``p = 1`` sends everything to the triangles (pure 2R1W on
        two halves).
        """
        if not 0.0 <= p <= 1.0:
            raise ShapeError(f"p must be in [0, 1], got {p}")
        m = self.blocks_per_side  # raises on rectangular grids (kR1W is square-only)
        t = triangle_diagonals(m, p)
        top, mid, bot = [], [], []
        for i, j in self.all_blocks():
            s = i + j
            if s < t:
                top.append((i, j))
            elif s > 2 * (m - 1) - t:
                bot.append((i, j))
            else:
                mid.append((i, j))
        return top, mid, bot
