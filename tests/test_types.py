import math

import pytest
from hypothesis import given, strategies as st

from pavcal import Block, BlockSolution, Label, WeightPair, expand, pav_fit, pooled_value

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


def test_block_validation():
    Block(start=0, end=2, m=1, n=2, value=1 / 3)
    with pytest.raises(ValueError):
        Block(start=2, end=1, m=0, n=0, value=0.5)  # reversed span
    with pytest.raises(ValueError):
        Block(start=0, end=2, m=1, n=1, value=0.5)  # counts != span size
    with pytest.raises(ValueError):
        Block(start=0, end=0, m=1, n=0, value=1.5)  # value out of range


def test_solution_checks_partition_and_value_order():
    w = WeightPair(1.0, 1.0)
    b1 = Block(0, 1, 0, 2, 0.0)
    b2 = Block(2, 3, 2, 0, 1.0)
    BlockSolution(blocks=(b1, b2), weights=w, total=4)
    with pytest.raises(ValueError):  # gap between blocks
        BlockSolution(blocks=(b1, Block(3, 3, 1, 0, 1.0)), weights=w, total=4)
    with pytest.raises(ValueError):  # values not strictly increasing
        BlockSolution(blocks=(Block(0, 0, 1, 0, 1.0), Block(1, 1, 1, 0, 1.0)), weights=w, total=2)
    with pytest.raises(ValueError):  # stored value contradicts the counts
        BlockSolution(blocks=(Block(0, 1, 1, 1, 0.25),), weights=w, total=2)


def test_expand_simple_blocks():
    w = WeightPair(1.0, 1.0)
    sol = BlockSolution(blocks=(Block(0, 1, 1, 1, 0.5),), weights=w, total=2)
    assert expand(sol) == [0.5, 0.5]

    # Same pooled values as the fit on (T, N, N, T): one block of 1/3, one of 1.
    sol2 = BlockSolution(
        blocks=(Block(0, 2, 1, 2, 1 / 3), Block(3, 3, 1, 0, 1.0)), weights=w, total=4
    )
    assert expand(sol2) == expand(pav_fit([T, N, N, T], w))


def test_block_value_matches_count_formula_exactly():
    sol = pav_fit([T, N, N, T, N, T, T], WeightPair(2.5, 0.7))
    for blk in sol.blocks:
        assert blk.value == pooled_value(blk.m, blk.n, 2.5, 0.7)


@given(labels=labels_st, wpair=st.sampled_from([(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)]))
def test_expand_round_trip_recovers_boundaries(labels, wpair):
    # Adjacent blocks always carry distinct values, so grouping equal
    # adjacent expanded values must rebuild the same partition.
    sol = pav_fit(labels, wpair)
    seq = expand(sol)
    bounds = [0]
    for i in range(1, len(seq)):
        if seq[i] != seq[i - 1]:
            bounds.append(i)
    assert bounds == [blk.start for blk in sol.blocks]
    assert len(seq) == sol.total


@given(labels=labels_st)
def test_expansion_is_nondecreasing_within_unit_interval(labels):
    seq = expand(pav_fit(labels, (1.0, 1.0)))
    assert all(0.0 <= x <= 1.0 for x in seq)
    assert all(a <= b for a, b in zip(seq, seq[1:]))
