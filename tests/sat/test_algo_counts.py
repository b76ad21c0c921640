"""Measured-vs-predicted traffic: the cost model validation (Table I core).

Every analytic predictor in ``repro.analysis.formulas`` must match the
macro executor's measured counters *exactly*, for every algorithm, at
several sizes and widths. This is the load-bearing test of the repo: it
ties the implementations to the formulas Table II's 18K-scale rows are
computed from.
"""

import numpy as np
import pytest

from repro.analysis.formulas import predicted_counters
from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.params import MachineParams
from repro.sat import CombinedKR1W, make_algorithm
from repro.util.matrices import random_matrix

WIDTHS = [(4, 7), (8, 13)]
NAMED = ["2R2W", "4R4W", "4R1W", "2R1W", "1R1W", "1.25R1W"]


@pytest.mark.parametrize("w,l", WIDTHS)
@pytest.mark.parametrize("blocks", [1, 2, 4, 6])
@pytest.mark.parametrize("name", NAMED)
def test_exact_counter_match(name, blocks, w, l):
    params = MachineParams(width=w, latency=l)
    n = blocks * w
    result = make_algorithm(name).compute(random_matrix(n, seed=blocks), params)
    pred = predicted_counters(name, n, params)
    assert result.counters.coalesced_elements == pred.coalesced
    assert result.counters.stride_ops == pred.stride
    assert result.counters.kernels_launched == pred.kernels
    assert result.counters.barriers == pred.barriers


@pytest.mark.parametrize("p", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
def test_kr1w_counter_match_over_p(p):
    params = MachineParams(width=4, latency=7)
    n = 32
    result = CombinedKR1W(p=p).compute(random_matrix(n, seed=3), params)
    pred = predicted_counters("kR1W", n, params, p=p)
    assert result.counters.coalesced_elements == pred.coalesced
    assert result.counters.stride_ops == pred.stride
    assert result.counters.kernels_launched == pred.kernels


def test_2r1w_recursive_counter_match():
    """Depth-2 recursion at w=4 (n=128): formulas must track the recursion."""
    params = MachineParams(width=4, latency=7)
    n = 128
    result = make_algorithm("2R1W").compute(random_matrix(n), params)
    pred = predicted_counters("2R1W", n, params)
    assert result.counters.coalesced_elements == pred.coalesced
    assert result.counters.stride_ops == pred.stride
    assert result.counters.kernels_launched == pred.kernels


def test_transactions_never_below_element_bound():
    """Exact transactions >= ceil(elements / w) on every algorithm run."""
    params = MachineParams(width=8, latency=3)
    for name in NAMED:
        res = make_algorithm(name).compute(random_matrix(16), params)
        c = res.counters
        assert c.coalesced_transactions >= -(-c.coalesced_elements // params.width)


BLOCK_ALGOS = [
    ("1R1W", {}),
    ("2R1W", {}),
    ("1.25R1W", {}),
    ("kR1W", {"p": 0.7}),
]


@pytest.mark.parametrize("name,kwargs", BLOCK_ALGOS)
def test_tally_is_independent_of_the_data(name, kwargs):
    """Zero corners are charged like non-zero ones, so the tally a counted
    run memoizes holds for every later fast run at that plan key."""
    params = MachineParams()
    n = 4 * params.width
    zeros, ones = np.zeros((n, n)), np.ones((n, n))
    algo = make_algorithm(name, **kwargs)
    on_ones = algo.compute(ones, params, engine=ExecutionEngine(PlanCache()))
    engine = ExecutionEngine(PlanCache())
    on_zeros = algo.compute(zeros, params, engine=engine)
    assert on_zeros.counters == on_ones.counters
    fast = algo.compute(ones, params, engine=engine, fast=True, fused="numpy")
    assert np.array_equal(fast.sat, on_ones.sat)
    assert fast.counters == on_ones.counters
