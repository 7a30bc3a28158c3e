"""Property tests of the array pooling core and of build_map's tie pooling.

The core prunes vertices of the cumulative diagram with vectorised passes
and finishes with a stack pass, so these tests aim at the cases where
either stage could go wrong: weights far from 1 or within one ulp of each
other, label patterns that the prune passes barely shrink, and inputs
where the passes have nothing to delete.  The reference is always
something computed another way: the max-min closed form, a plain
sorted-and-loop tie pool, or scipy's isotonic regression at scale.  The
passes' own bounds, on the segments they hand to the stack and the
segments they visit, are checked on periodic label motifs.
"""

import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from pavcal.pav import _items, _pool_counts, _price, _prune
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
        got = _total_cost(rule, w, q, m, n)
        assert repr(got) == repr(objective(rule, flags, w, rows)), rule


@given(
    scores=st.one_of(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60, unique=True),
        st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0]), min_size=1, max_size=60),
    ),
    flags=st.lists(st.booleans(), min_size=60, max_size=60),
    one_class=st.sampled_from([None, True, False]),
)
@example(scores=[-0.0, 0.0], flags=[True, False] * 30, one_class=None)
@example(scores=[0.0, -0.0, 1.0], flags=[False, True] * 30, one_class=None)
@example(scores=[1.5], flags=[True] * 60, one_class=None)
def test_a_tie_free_fit_pools_the_flags_to_the_fit_of_the_counts(scores, flags, one_class):
    # With no tie, _fit pools the trials' bool flags; its fit must be the
    # one that int64 per-item counts give.  -0.0 and 0.0 tie.
    scores = np.array(scores)
    flags = np.array(flags[: scores.size] if one_class is None else [one_class] * scores.size)
    pooled = []

    def spy(*columns):
        pooled.append(columns[0].dtype)
        return _pool_counts(*columns)

    with mock.patch("pavcal.calmap._pool_counts", spy):
        fit = _fit(scores, flags)
    items, ms, ns = _reference_tie_pool(scores.tolist(), [T if f else N for f in flags.tolist()])
    assert pooled == [bool if len(items) == scores.size else np.int64]
    want = _pool_counts(np.array(ms, np.int64), np.array(ns, np.int64))
    assert repr([a.tolist() for a in fit]) == repr([items] + [a.tolist() for a in want])


def test_a_tie_free_fit_holds_no_per_item_counts():
    # Single trials pool from their sorted flags: no int64 item heads or
    # counts, which took 48 B a row at the peak.  The scores and flags
    # passed in are not counted.
    size = 200_000
    rng = np.random.default_rng(11)
    scores, flags = rng.normal(0.0, 3.0, size), rng.random(size) < 0.3
    tracemalloc.start()
    try:
        fit = _fit(scores, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit[0].size == size
    assert peak < 30 * size, peak / size


@given(
    values=st.one_of(
        st.lists(st.floats(allow_nan=False), max_size=60),
        st.lists(st.sampled_from([-0.0, 0.0, -math.inf, 0.25, 1.0]), max_size=60),
    ),
    flags=st.lists(st.booleans(), min_size=60, max_size=60),
    one_class=st.sampled_from([None, True, False]),
)
@example(values=[], flags=[True] * 60, one_class=None)
@example(values=[0.5], flags=[False] * 60, one_class=None)
@example(values=[-0.0, 0.0, 0.0], flags=[True, False] * 30, one_class=None)
def test_items_are_each_class_distinct_values_counted(values, flags, one_class):
    # The reference is np.unique of each class's values, placed among the
    # distinct values of both; -0.0 and 0.0 tie, as 0.0.  The inputs, which
    # may be a caller's own arrays, are left as they are.
    values = np.array(values, float)
    flags = np.array(flags[: values.size] if one_class is None else [one_class] * values.size, bool)
    given_values = repr(values.tolist())
    xs, m, n = _items(values, flags)
    assert repr(values.tolist()) == given_values
    want = np.unique(values) + 0.0
    counts = []
    for side in (flags, ~flags):
        u, c = np.unique(values[side], return_counts=True)
        counts.append(np.zeros(want.size, np.int64))
        counts[-1][np.searchsorted(want, u)] = c
    assert repr(xs.tolist()) == repr(want.tolist())
    assert [m.tolist(), n.tolist()] == [c.tolist() for c in counts]
    tie_free = want.size == values.size
    assert [m.dtype, n.dtype] == [np.dtype(bool) if tie_free else np.dtype(np.int64)] * 2


@pytest.mark.parametrize("decimals", [None, 2])
def test_items_hold_no_int64_copy_of_the_order_or_the_flags(decimals):
    # The sort order is freed before the values are sorted, and tied items
    # count their targets from the targets' positions: 11 B a value at the
    # peak, distinct or rounded to 2 decimals, where a gather of the values
    # beside the order took 17, and int64 heads and counts for distinct
    # values, or the flags cast to int64 for ties, add 8 or more.  The
    # inputs are not counted.
    size = 1_000_000
    rng = np.random.default_rng(13)
    values, flags = rng.normal(0.0, 3.0, size), rng.random(size) < 0.1
    if decimals is not None:
        values = np.round(values, decimals)
    _items(values[:1000], flags[:1000])  # warm
    tracemalloc.start()
    try:
        xs, m, n = _items(values, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dtype == n.dtype == (bool if decimals is None else np.int64)
    assert xs.size == (size if decimals is None else np.unique(values).size)
    assert peak <= 12 * size, peak / size


@given(
    q=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=12),
    flags=st.lists(st.booleans(), min_size=12, max_size=12),
    weights=st.one_of(weight_pairs, st.sampled_from([(1.7e308, 1.7e308), (1e-300, 1e300)])),
)
@example(q=[0.0, 1.0, 0.5], flags=[True, False, True] * 4, weights=(1.7e308, 1.7e308))
@example(q=[0.0, 1.0], flags=[False, True] * 6, weights=(1.0, 1.0))
def test_bool_flags_are_counts_of_0_and_1(q, flags, weights):
    # A tie-free column's items carry bool flags, and _total_cost reads them
    # as the int64 counts 0 and 1, infinite costs and overflow included.
    q, w = np.array(q, float), WeightPair(*weights)
    m = np.array(flags[: q.size], bool)
    for rule in (*STANDARD_RULES, PARABOLIC_DENSITY):
        got = _total_cost(rule, w, q, m, ~m)
        assert repr(got) == repr(_total_cost(rule, w, q, m.astype(np.int64), (~m).astype(np.int64)))


def test_prune_passes_stop_at_few_segments_an_idle_pass_or_the_visit_budget(monkeypatch):
    # Targets at gaps 1000, 999, ..., 1 rise slowly in value, and a huge
    # closing non-target count pools back through all of them.  Each prune
    # pass deletes one vertex, so a prune loop run until nothing is left to
    # delete takes 1000 passes.  The passes stop instead once 4096 or fewer
    # segments remain, at a pass that pools nothing, or before their visits
    # pass 3 per item; these 1001 items stop after the first pass, which
    # always runs.  Each pass looks for rises with one np.flatnonzero call
    # over the segments' neighbour pairs, so those calls are counted.
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


def _motif(motif, size):
    """size single trials' target flags: motif, a string of T and N, repeated."""
    return np.resize(np.array([c == "T" for c in motif]), size)


def _rise_then_fall(k, size):
    """The groups T N^(k+1), ..., T N^2 repeated: k rises in value, then a fall."""
    return _motif("".join("T" + "N" * gap for gap in range(k + 1, 1, -1)), size)


def _one_merge_per_pass(size):
    """Targets at gaps K, ..., 1, then enough non-targets to pool back through
    them all: each prune pass could delete one vertex only."""
    head = "".join("T" + "N" * gap for gap in range(math.isqrt(size) - 1, 0, -1))
    flags = np.zeros(size, bool)
    flags[: len(head)] = _motif(head, len(head))
    return flags


SHAPES = {
    "NT": lambda size: _motif("NT", size),
    "TTNTNN": lambda size: _motif("TTNTNN", size),
    **{
        f"rise-{k}-then-fall": lambda size, k=k: _rise_then_fall(k, size)
        for k in (2, 4, 7, 16, 50)
    },
    "one-merge-per-pass": _one_merge_per_pass,
}


@pytest.mark.parametrize("shape", SHAPES)
def test_blocks_at_scale_match_scipy_isotonic_regression(shape):
    # A third implementation, on the trials' flags as floats at unit weights;
    # loaded here only, as the package itself never needs it.
    from scipy.optimize import isotonic_regression

    flags = SHAPES[shape](200_000)
    starts, m, n = _pool_counts(flags, ~flags)
    want = isotonic_regression(flags.astype(float))
    assert np.abs(np.repeat(_price(m, n, 1.0, 1.0), m + n) - want.x).max() <= 2.2e-16
    # scipy pools in floating point, so two pools of one proportion can
    # round an ulp apart and stay split (on rise-50-then-fall they do).
    # Proportions of at most 2e5 trials that differ do so by 1/4e10 or more.
    heads = want.blocks[:-1]
    apart = np.diff(want.x[heads]) > 2.2e-16
    assert starts.tolist() == heads[np.concatenate(([True], apart))].tolist()


def _assert_prune_bounds(flags):
    # The prune passes hand over at most 4096 segments, or only blocks, and
    # visit at most 3 segments per trial: each pass looks for rises with one
    # np.flatnonzero call over its segments' neighbour pairs.
    sizes = []
    flatnonzero = np.flatnonzero

    def counting(a):
        sizes.append(a.size)
        return flatnonzero(a)

    with mock.patch.object(np, "flatnonzero", counting):
        survivors = _prune(flags, ~flags)[0].size
    assert survivors <= max(4096, _pool_counts(flags, ~flags)[0].size)
    assert sum(sizes) <= 3 * flags.size


MOTIFS = ["".join(m) for k in range(1, 9) for m in itertools.product("TN", repeat=k)]


def test_prune_bounds_on_every_short_motif():
    # 2**16 trials: a motif of 8 with one non-target -> target step leaves
    # 8192 segments after the first pass.
    for motif in MOTIFS:
        _assert_prune_bounds(_motif(motif, 2**16))


@pytest.mark.parametrize("shape", SHAPES)
def test_prune_bounds_on_each_shape(shape):
    _assert_prune_bounds(SHAPES[shape](2**17))


@settings(max_examples=30)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from(MOTIFS), st.integers(1, 2048)), min_size=1, max_size=16
    )
)
def test_prune_bounds_on_concatenated_motifs(runs):
    _assert_prune_bounds(np.concatenate([_motif(motif, len(motif) * k) for motif, k in runs]))


def _prune_of_counts(flags):
    """_prune of single trials given as int64 counts, not as bool flags."""
    return _prune(flags.astype(np.int64), (~flags).astype(np.int64))


@settings(max_examples=60)
@given(
    size=st.integers(1, 30_000),
    seed=st.integers(0, 2**32 - 1),
    share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    run=st.sampled_from([1, 3, 40, 5000]),
)
@example(size=1, seed=0, share=1.0, run=1)  # one target
@example(size=1, seed=0, share=0.0, run=1)  # one non-target
@example(size=9000, seed=0, share=1.0, run=1)  # all targets
@example(size=9000, seed=0, share=0.0, run=1)  # all non-targets
def test_prune_of_bool_flags_is_prune_of_their_counts(size, seed, share, run):
    # Bool flags are counted from their steps, with no int64 copy of the
    # column; the survivors must be those the int64 counts of the same
    # trials give, values and dtypes both.  Flags come in runs of about
    # `run` equal flags, each a target with probability `share`.
    rng = np.random.default_rng(seed)
    flags = np.repeat(rng.random(size // run + 1) < share, rng.integers(1, 2 * run, size // run + 1))
    flags = np.resize(flags, size)
    for got, want in zip(_prune(flags, flags), _prune_of_counts(flags)):
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("motif", ["T", "N", "TN", "NT", "TTTNNN", "NNNTTT"])
@pytest.mark.parametrize("size", [1, 2, 3, 4097, 20_000])
def test_prune_of_alternating_and_constant_flags_is_prune_of_their_counts(motif, size):
    flags = _motif(motif, size)
    assert repr(_prune(flags, flags)) == repr(_prune_of_counts(flags))


def test_pooling_bool_flags_makes_no_int64_copy_of_them():
    # An int64 cast of the flags alone would be 8 B a row; the flags passed
    # in are not counted.
    size = 1_000_000
    flags = np.random.default_rng(5).random(size) < 0.1
    _pool_counts(flags[:1000])  # warm
    tracemalloc.start()
    try:
        blocks = _pool_counts(flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(blocks[1].sum()) == np.count_nonzero(flags)
    assert peak <= 8 * size, peak / size
