"""The closed-form kR1W access counts against the block-enumerating oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.formulas import counts_1r1w, counts_kr1w, predicted_counters
from repro.layout.blocking import BlockGrid, triangle_diagonals
from repro.machine.params import MachineParams
from repro.sat import triangle2r1w

from .kr1w_oracle import counts_kr1w_enumerated

WIDTHS = (2, 4, 8, 16, 32)


@pytest.mark.parametrize("w", WIDTHS)
def test_closed_form_matches_oracle_exhaustively(w):
    """Every ``m`` in 1..64 and every diagonal count ``t`` in 0..m-1."""
    for m in range(1, 65):
        for t in range(m):
            p = t / (m - 1) if m > 1 else 0.0
            assert triangle_diagonals(m, p) == t
            n = m * w
            assert counts_kr1w(n, w, p) == counts_kr1w_enumerated(n, w, p), (m, t)


@settings(max_examples=200, deadline=None)
@given(
    w=st.sampled_from(WIDTHS),
    m=st.integers(1, 64),
    p=st.floats(0.0, 1.0, allow_nan=False),
)
@example(w=8, m=2, p=0.5)  # round(0.5) == 0: a tie that clips nothing
@example(w=8, m=4, p=0.5)  # round(1.5) == 2
@example(w=4, m=1, p=1.0)  # a single block: no triangle to clip
def test_closed_form_matches_oracle_for_any_p(w, m, p):
    n = m * w
    assert counts_kr1w(n, w, p) == counts_kr1w_enumerated(n, w, p)


@pytest.mark.parametrize("m, p, t", [(2, 0.5, 0), (4, 0.5, 2), (6, 0.5, 2), (1, 1.0, 0)])
def test_rounding_ties_are_shared_with_the_partition(m, p, t):
    assert triangle_diagonals(m, p) == t
    top, _, bottom = BlockGrid(m * 4, 4).triangle_partition(p)
    assert len(top) == len(bottom) == t * (t + 1) // 2
    assert counts_kr1w(m * 4, 4, p).kernels == (
        counts_1r1w(m * 4, 4).kernels if t == 0 else 2 * m + 7 - 2 * t
    )


def test_large_size_is_priced_without_enumerating_blocks(monkeypatch):
    """The 18K prediction never walks the block grid."""
    params = MachineParams(width=32)
    expected = counts_kr1w_enumerated(18432, 32, 0.07)

    def refuse(*args, **kwargs):
        raise AssertionError("closed form must not enumerate blocks")

    monkeypatch.setattr(BlockGrid, "triangle_partition", refuse)
    monkeypatch.setattr(triangle2r1w, "_runs_by_column", refuse)
    assert predicted_counters("kR1W", 18432, params, p=0.07) == expected
