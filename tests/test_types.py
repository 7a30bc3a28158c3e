import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pavcal import (
    BlockSolution,
    Label,
    LlrCalibration,
    WeightPair,
    pav_fit,
    pav_posteriors,
    pooled_value,
)

T = Label.TARGET
N = Label.NONTARGET

labels_st = st.lists(st.sampled_from([T, N]), min_size=1, max_size=50)


def test_label_parse():
    assert Label.parse("target") is T
    assert Label.parse("TARGET") is T
    assert Label.parse(" NonTarget ") is N
    with pytest.raises(ValueError):
        Label.parse("bogus")


def test_weight_pair_must_be_positive_finite():
    WeightPair(2.5, 0.7)
    for v1, v2 in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            WeightPair(v1, v2)


@pytest.mark.parametrize("make", [lambda m, n: BlockSolution(m, n, (1.0, 1.0)), LlrCalibration],
                         ids=["BlockSolution", "LlrCalibration"])
def test_bad_counts_are_turned_down(make):
    # Counts come from callers: each fault raises ValueError or TypeError,
    # never OverflowError, and no count is truncated or wraps in int64.
    make((0, 1), (2, 0))
    for m, n in (((0, 1.0), (2, 0)), ((0, 1), (2.5, 0)), ((0, np.float64(1)), (2, 0))):
        with pytest.raises(TypeError):
            make(m, n)
    faults = [
        (((), ()), "equal nonempty columns, got 0 and 0"),
        (((0, 1), (2,)), "got 2 and 1"),
        (((-1, 2), (2, 0)), "nonnegative"),
        (((0, 0, 1), (1, 0, 0)), "hold a trial"),
        (((0, 2**63), (1, 0)), "too many"),
        (((0, 3_037_000_500), (3_037_000_500, 0)), "too many"),  # past int64's product range
        (((1, 1), (1, 1)), "strictly rise"),
        (((1, 10**9), (2, 2 * 10**9 + 1)), "strictly rise"),  # 1/3, then a hair less
    ]
    for (m, n), message in faults:
        with pytest.raises(ValueError, match=message):
            make(m, n)
    # Just inside the bound (an LlrCalibration would hold 6e9 llrs).
    assert BlockSolution((0, 3_037_000_499), (3_037_000_499, 0), (1, 1)).total == 6_074_000_998


def test_solution_checks_partition_and_value_order():
    w = WeightPair(1.0, 1.0)
    sol = BlockSolution(np.array([0, 2]), np.array([2, 0]), w)
    assert (sol.m, sol.n, sol.values, sol.total) == ((0, 2), (2, 0), (0.0, 1.0), 4)
    assert type(sol.m[1]) is int and sol.weights is w
    assert BlockSolution([0, 2], [2, 0], (1, 1)) == sol
    # The proportions 1/33279 and 3/99828 rise, but at these weights their
    # pooled values round out of order; the right one takes the left's.
    w = WeightPair(128966366102271.88, 0.0019820270764152525)
    left = pooled_value(1, 33_278, w.v1, w.v2)
    assert pooled_value(3, 99_825, w.v1, w.v2) < left
    assert BlockSolution((1, 3), (33_278, 99_825), w).values == (left, left)


def test_expand_simple_blocks():
    w = WeightPair(1.0, 1.0)
    sol = BlockSolution((1,), (1,), w)
    assert sol.values == (0.5,)
    assert pav_posteriors([T, N], w) == [0.5, 0.5]
    # The fit on (T, N, N, T): one block of 1/3, one of 1.
    sol = pav_fit([T, N, N, T], w)
    assert (sol.m, sol.n, sol.values) == ((1, 1), (2, 0), (1 / 3, 1.0))
    assert pav_posteriors([T, N, N, T], w) == [1 / 3, 1 / 3, 1 / 3, 1.0]


def test_block_value_matches_count_formula_exactly():
    sol = pav_fit([T, N, N, T, N, T, T], WeightPair(2.5, 0.7))
    for m, n, value in zip(sol.m, sol.n, sol.values):
        assert value == pooled_value(m, n, 2.5, 0.7)


@given(labels=labels_st, wpair=st.sampled_from([(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)]))
def test_expand_round_trip_recovers_boundaries(labels, wpair):
    # At these weights adjacent blocks carry distinct values, so grouping
    # equal adjacent expanded values must rebuild the same partition.
    sol = pav_fit(labels, wpair)
    seq = pav_posteriors(labels, wpair)
    bounds = [0]
    for i in range(1, len(seq)):
        if seq[i] != seq[i - 1]:
            bounds.append(i)
    assert bounds == list(itertools.accumulate(map(operator.add, sol.m, sol.n), initial=0))[:-1]
    assert len(seq) == sol.total


@given(labels=labels_st)
def test_expansion_is_nondecreasing_within_unit_interval(labels):
    seq = pav_posteriors(labels, (1.0, 1.0))
    assert all(0.0 <= x <= 1.0 for x in seq)
    assert all(a <= b for a, b in zip(seq, seq[1:]))
