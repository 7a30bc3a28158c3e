"""Property tests of the array pooling core and of build_map's tie pooling.

The core prunes vertices of the cumulative diagram with vectorised passes
and finishes with a stack pass, so these tests aim at the cases where
either stage could go wrong: weights far from 1 or within one ulp of each
other, label patterns that the prune passes barely shrink, and inputs
where the passes have nothing to delete.  The reference is always
something computed another way: the max-min closed form, or a plain
sorted-and-loop tie pool.
"""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavcal import (
    CustomDensity,
    Label,
    WeightPair,
    build_map,
    logit,
    maxmin_oracle,
    objective,
    pav_fit,
    pav_posteriors,
)
from pavcal import pooled_value
from pavcal.calmap import _apply, _fit, _map
from pavcal.pav import _pool_counts, _price
from pavcal.rules import _total_cost
from pavcal.selfcheck import STANDARD_RULES

T = Label.TARGET
N = Label.NONTARGET

NEAR_EQUAL = (3.0, math.nextafter(3.0, math.inf))

# The Brier rule's density, with costs by quadrature.
PARABOLIC_DENSITY = CustomDensity(lambda e: 6.0 * e * (1.0 - e), True, True)

weight_pairs = st.one_of(
    st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)).map(
        lambda e: (10.0 ** e[0], 10.0 ** e[1])
    ),
    st.sampled_from([NEAR_EQUAL, NEAR_EQUAL[::-1], (1e-6, 1e6), (1e6, 1e-6)]),
)


def _assert_matches_oracle(labels, weights):
    got = pav_posteriors(labels, weights)
    want = maxmin_oracle(labels, weights)
    assert len(got) == len(want)
    for t, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300), (t, a, b, weights)


@given(labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=80), weights=weight_pairs)
def test_extreme_and_near_equal_weights_match_oracle(labels, weights):
    _assert_matches_oracle(labels, weights)


@settings(max_examples=25)
@given(
    head=st.integers(0, 5),
    first_gap=st.integers(1, 40),
    step=st.integers(1, 3),
    tail=st.integers(0, 600),
    weights=st.one_of(st.just((1.0, 1.0)), weight_pairs),
)
def test_slowly_rising_targets_then_long_nontarget_run(head, first_gap, step, tail, weights):
    # Targets separated by shrinking gaps rise slowly in value, so the
    # prune passes keep almost every segment; the non-target run at the
    # end then has to pool backwards through them in the stack pass.
    labels = [N] * head
    for gap in range(first_gap, 0, -step):
        labels += [T] + [N] * gap
    labels += [T] + [N] * tail
    assert len(labels) <= 1500
    _assert_matches_oracle(labels, weights)


def test_stack_pass_merges_on_an_exact_tie():
    # Targets at gaps 12..1 rise in value as 1/(g+1); the closing run of
    # 21 non-targets pools back through the gaps 1..6, one vertex per
    # prune pass and the rest in the stack, to 6/48 = 1/8, exactly the
    # value of the gap-7 segment, which must then merge as well.
    labels = []
    for gap in range(12, 0, -1):
        labels += [T] + [N] * gap
    labels += [N] * 21
    sol = pav_fit(labels, (1.0, 1.0))
    assert list(zip(sol.m, sol.n)) == [(1, g) for g in range(12, 7, -1)] + [(7, 49)]
    assert sol.values[-1] == 0.125
    _assert_matches_oracle(labels, (1.0, 1.0))


@given(
    items=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).filter(lambda c: c != (0, 0)),
        min_size=1,
        max_size=60,
    ),
    weights=weight_pairs,
)
def test_strictly_increasing_items_come_back_unpooled(items, weights):
    # When item proportions already rise strictly, no vertex can be pruned
    # and the stack merges nothing: every item is its own block.  Items of
    # equal proportion pool whatever their rounded values, so the items
    # are keyed by their exact proportion.
    v1, v2 = weights
    by_share = {Fraction(m, m + n): (m, n) for m, n in items}
    ms = [by_share[p][0] for p in sorted(by_share)]
    ns = [by_share[p][1] for p in sorted(by_share)]
    starts, bm, bn = _pool_counts(ms, ns)
    assert starts.tolist() == list(range(len(ms)))
    assert bm.tolist() == ms and bn.tolist() == ns
    assert _price(bm, bn, v1, v2).tolist() == [pooled_value(m, n, v1, v2) for m, n in zip(ms, ns)]


def test_pools_of_equal_proportion_pool_at_any_weights():
    # The blocks (3, 3) and (1, 1) have one proportion, but at (0.3, 4.0)
    # their values round one ulp apart: 0.0697674418604651 and
    # 0.06976744186046512.  Compared by counts, they pool.
    sol = pav_fit([T, T, N, T, N, N, T, N], (0.3, 4.0))
    assert (sol.m, sol.n) == ((4,), (4,))


# Up to 60 items of 1-50 trials each.
counted_items = st.lists(
    st.integers(1, 50).flatmap(lambda k: st.integers(0, k).map(lambda m: (m, k - m))),
    min_size=1,
    max_size=60,
)


# Any weights at which the items' total weight (at most 3,000 trials) does not overflow.
accepted_weight = st.floats(0.0, 1e300, exclude_min=True)
accepted_weights = st.one_of(
    st.tuples(accepted_weight, accepted_weight),
    st.sampled_from(
        [(1e-300, 1e300), (1e300, 1e-300), (1e20, 1.0), (1.0, 1e-16), (5e-324, 1.0), (1.0, 5e-324)]
    ),
)


@given(items=counted_items, weights=accepted_weights)
def test_blocks_do_not_depend_on_the_weights(items, weights):
    # Blocks are found from the class counts alone, so pav_fit finds the
    # unit-weight blocks at any weights.  _price then prices them:
    # nondecreasing, and each its block's pooled value unless rounding put
    # that below its left neighbour's value, which it then takes.
    v1, v2 = weights
    labels = [lab for m, n in items for lab in [T] * m + [N] * n]
    counts = [(sol.m, sol.n) for sol in (pav_fit(labels, w) for w in (weights, (1, 1)))]
    assert counts[0] == counts[1]
    _, bm, bn = _pool_counts(*zip(*items))
    vals = _price(bm, bn, v1, v2).tolist()
    assert vals == sorted(vals)
    for k, (m, n, v) in enumerate(zip(bm.tolist(), bn.tolist(), vals)):
        assert v == max([pooled_value(m, n, v1, v2), *vals[k - 1 : k]]), (k, v)
    total = len(labels)
    if total > 1:  # the weight of two trials at the largest double overflows
        big = sys.float_info.max
        message = f"weights {big!r},{big!r} overflow the weight of {total} trials"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _price(bm, bn, big, big)


@given(labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=200), weights=weight_pairs)
def test_blocks_carry_exact_counts_and_values(labels, weights):
    sol = pav_fit(labels, weights)
    v1, v2 = sol.weights.v1, sol.weights.v2
    start = 0
    for m, n, value in zip(sol.m, sol.n, sol.values):
        span = labels[start : start + m + n]
        start += m + n
        assert m == sum(1 for lab in span if lab is T)
        assert type(m) is int and type(n) is int
        assert value == pooled_value(m, n, v1, v2)
    assert start == sol.total == len(labels)


def _reference_tie_pool(scores, labels):
    """Score-sorted items of the trials, pooling equal scores, in plain Python.
    An item of -0.0 and 0.0 has the score 0.0."""
    items, ms, ns = [], [], []
    for score, label in sorted(zip(scores, labels), key=lambda t: t[0]):
        if items and score == items[-1]:
            if label is T:
                ms[-1] += 1
            else:
                ns[-1] += 1
        else:
            items.append(0.0 if score == 0.0 else score)
            ms.append(1 if label is T else 0)
            ns.append(0 if label is T else 1)
    return items, ms, ns


# Score and label columns of equal length.
tied_trials = st.lists(
    st.tuples(
        st.sampled_from([-0.0, 0.0, -1.5, 1.5, 2.0, -1e-300, 1e-300, 7.25]),
        st.sampled_from([T, N]),
    ),
    min_size=1,
    max_size=60,
).map(lambda pairs: tuple(map(list, zip(*pairs))))


@given(trials=tied_trials, weights=weight_pairs, mode=st.sampled_from(["posterior", "llr"]))
def test_fit_matches_sorted_reference(trials, weights, mode):
    scores, flags = np.array(trials[0]), np.array([lab is T for lab in trials[1]])
    t1 = int(flags.sum())
    if mode == "llr" and not 0 < t1 < flags.size:
        return  # llr mode needs both classes
    fit = _fit(scores, flags)
    cmap = _map(fit, WeightPair(*weights), mode, "linear")
    items, ms, ns = _reference_tie_pool(*trials)
    v1, v2 = (1.0, 1.0) if mode == "llr" else weights
    starts, bm, bn = _pool_counts(ms, ns)
    assert repr([a.tolist() for a in fit]) == repr([items] + [a.tolist() for a in (starts, bm, bn)])
    vals = _price(bm, bn, v1, v2).tolist()
    if mode == "llr":
        # Each block's llr in the map is logit(v) - logit(t1 / T) of its unit-weight value v.
        vals = [logit(v) - logit(t1 / flags.size) for v in vals]
    got = _apply(cmap, np.array([items[s] for s in starts.tolist()]))
    assert repr(got.tolist()) == repr(vals)


@given(
    trials=tied_trials,
    weights=st.one_of(weight_pairs, st.sampled_from([(1e-300, 1e300), (1e300, 1e-300)])),
    mode=st.sampled_from(["posterior", "llr"]),
)
def test_block_sums_equal_the_objective_on_the_rows(trials, weights, mode):
    # The fit is constant on each block, so a block's counts stand for its
    # rows: the same terms go into one exactly rounded fsum either way.
    scores, flags = np.array(trials[0]), np.array([lab is T for lab in trials[1]])
    t1 = int(flags.sum())
    if mode == "llr" and not 0 < t1 < flags.size:
        return  # llr mode needs both classes
    w = WeightPair(*weights)
    fit = _fit(scores, flags)
    cmap, (m, n) = _map(fit, w, mode, "step"), fit[2:]
    q = _price(m, n, *weights)  # each block's posterior at w, whichever the mode
    # Each block's first score is a knot; a row belongs to the last block
    # starting at or below its score.  (Map values cannot tell the blocks
    # apart: far from unit weights neighbouring blocks may share a value.)
    firsts = np.sort(scores)[np.cumsum(m + n) - (m + n)]
    assert np.isin(firsts, cmap._knots[0]).all()
    rows = q[np.searchsorted(firsts, scores, side="right") - 1]
    for rule in (*STANDARD_RULES, PARABOLIC_DENSITY):
        got = _total_cost(rule, w, (q, m), (q, n))
        assert repr(got) == repr(objective(rule, flags, w, rows)), rule


def test_prune_passes_stop_when_they_stop_halving(monkeypatch):
    # Targets at gaps 1000, 999, ..., 1 rise slowly in value, and a huge
    # closing non-target count pools back through all of them.  Each prune
    # pass deletes one vertex, so a prune loop run until nothing is left to
    # delete takes 1000 passes; passes that must halve the segments stop
    # after the first.  Each pass looks for rises with one np.flatnonzero
    # call over the segments' neighbour pairs, so those calls are counted.
    sizes = []
    flatnonzero = np.flatnonzero

    def counting(a):
        sizes.append(a.size)
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", counting)
    ms = [1] * 1000 + [0]
    ns = list(range(1000, 0, -1)) + [10**9]
    starts, bm, bn = _pool_counts(ms, ns)
    assert (starts.tolist(), bm.tolist(), bn.tolist()) == ([0], [1000], [sum(ns)])
    assert len(sizes) <= math.log2(len(ms)) + 2  # prune passes
    assert sum(sizes) <= 3 * len(ms)


@given(trials=tied_trials, weights=weight_pairs, policy=st.sampled_from(["step", "linear"]))
def test_build_map_knots_match_sorted_reference(trials, weights, policy):
    scores, ms, ns = _reference_tie_pool(*trials)
    starts, bm, bn = _pool_counts(ms, ns)
    ends = [s - 1 for s in starts[1:].tolist()] + [len(ms) - 1]
    want = []
    for s, e, v in zip(starts.tolist(), ends, _price(bm, bn, *weights).tolist()):
        want.append((scores[s], v))
        if e > s:
            want.append((scores[e], v))
    cmap = build_map(*trials, weights, policy=policy)
    assert repr(cmap.knots) == repr(tuple(want))
