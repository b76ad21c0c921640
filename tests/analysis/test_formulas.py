"""Tests for analytic formulas beyond the measured-vs-predicted core
(which lives in tests/sat/test_algo_counts.py)."""

import pytest

from repro.errors import ConfigurationError
from repro.analysis.formulas import (
    PredictedCounts,
    counts_1r1w,
    counts_2r1w,
    counts_2r2w,
    counts_4r1w,
    counts_4r4w,
    counts_kr1w,
    paper_table1_row,
    predicted_counters,
)
from repro.machine.params import MachineParams


class TestPredictedCounts:
    def test_cost_formula(self):
        p = MachineParams(width=4, latency=10)
        c = PredictedCounts(coalesced=40, stride=3, kernels=3)
        assert c.barriers == 2
        assert c.cost(p) == 10 + 3 + 30
        assert c.global_accesses == 43

    def test_zero_kernels(self):
        assert PredictedCounts(0, 0, 0).barriers == 0


class TestDominantTermConsistency:
    """Exact counts converge to the paper's dominant terms as n grows."""

    W = 32

    def _per_elt(self, counts, n):
        return counts.global_accesses / n**2

    def test_2r2w_approaches_4_accesses(self):
        n = 64 * self.W
        c = counts_2r2w(n, self.W)
        assert self._per_elt(c, n) == pytest.approx(4.0, rel=0.01)
        assert c.coalesced == c.stride

    def test_4r4w_approaches_8_coalesced(self):
        n = 64 * self.W
        c = counts_4r4w(n, self.W)
        assert self._per_elt(c, n) == pytest.approx(8.0, rel=0.01)
        assert c.stride == 0

    def test_4r1w_approaches_5_stride(self):
        n = 1024
        c = counts_4r1w(n, self.W)
        assert self._per_elt(c, n) == pytest.approx(5.0, rel=0.01)
        assert c.coalesced == 0

    def test_2r1w_approaches_3_plus_aux(self):
        """3 block accesses per element plus 8/w of auxiliary traffic
        (CS/RS writes in step 1, their scans in step 2, re-reads in step 3)."""
        n = 64 * self.W
        c = counts_2r1w(n, self.W)
        assert self._per_elt(c, n) == pytest.approx(3.0 + 8.0 / self.W, rel=0.01)

    def test_1r1w_approaches_2_plus_4_over_w(self):
        n = 64 * self.W
        c = counts_1r1w(n, self.W)
        assert self._per_elt(c, n) == pytest.approx(2 * (1 + 2 / self.W), rel=0.01)

    def test_kr1w_read_count_tracks_1_plus_p_squared(self):
        """(1+p^2) reads + 1 write per element, up to O(1/w) boundary slop."""
        n = 64 * self.W
        for p in (0.0, 0.5, 1.0):
            c = counts_kr1w(n, self.W, p)
            expected = (2 + p * p) * (1 + 2 / self.W)
            assert self._per_elt(c, n) == pytest.approx(expected, rel=0.06)

    def test_1r1w_is_min_traffic(self):
        n = 32 * self.W
        per = {
            "1R1W": counts_1r1w(n, self.W).global_accesses,
            "2R1W": counts_2r1w(n, self.W).global_accesses,
            "2R2W": counts_2r2w(n, self.W).global_accesses,
            "4R4W": counts_4r4w(n, self.W).global_accesses,
            "4R1W": counts_4r1w(n, self.W).global_accesses,
        }
        assert min(per, key=per.get) == "1R1W"
        # and it sits within 2/w of the 2n^2 lower bound
        assert per["1R1W"] <= 2 * n * n * (1 + 2 / self.W) + 2 * n


class TestBarrierFormulas:
    def test_1r1w_barriers(self):
        assert counts_1r1w(32 * 10, 32).barriers == 2 * 10 - 2

    def test_4r1w_barriers(self):
        assert counts_4r1w(100, 32).barriers == 198

    def test_kr1w_barriers_shrink_with_p(self):
        n, w = 32 * 32, 32
        b = [counts_kr1w(n, w, p).barriers for p in (0.0, 0.5, 1.0)]
        assert b[0] > b[1] > b[2]

    def test_kr1w_p0_equals_1r1w(self):
        n, w = 640, 32
        assert counts_kr1w(n, w, 0.0).barriers == counts_1r1w(n, w).barriers
        assert counts_kr1w(n, w, 0.0).coalesced == counts_1r1w(n, w).coalesced


class TestInterface:
    def test_predicted_counters_dispatch(self):
        p = MachineParams(width=8, latency=3)
        assert predicted_counters("2R2W", 16, p).stride > 0
        assert predicted_counters("1.25R1W", 64, p).stride >= 0

    def test_kr1w_requires_p(self):
        p = MachineParams(width=8, latency=3)
        with pytest.raises(ConfigurationError, match="p"):
            predicted_counters("kR1W", 16, p)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            predicted_counters("9R9W", 16, MachineParams(width=8))

    def test_bad_p(self):
        with pytest.raises(ConfigurationError):
            counts_kr1w(32, 8, 1.2)

    def test_paper_table1_rows_exist_for_all(self):
        p = MachineParams(width=32, latency=100)
        for name in ("2R2W", "4R4W", "4R1W", "2R1W", "1R1W", "1.25R1W", "kR1W"):
            c, s, b, cost = paper_table1_row(name, 1024, p)
            assert cost > 0

    def test_paper_table1_unknown(self):
        with pytest.raises(ConfigurationError):
            paper_table1_row("xR1W", 64, MachineParams(width=32))
