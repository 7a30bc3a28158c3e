"""Stack-based monotone fit against independent references.

Expected vectors below were frozen from an exact-rational brute force of
the max-min closed form (max over i<=t of min over j>=t of the weighted
target proportion of trials i..j), computed separately from the package.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pavcal import (
    Brier,
    CostAt,
    DiracMixture,
    Label,
    Logarithmic,
    WeightPair,
    maxmin_oracle,
    objective,
    pav_fit,
    pav_posteriors,
)

T = Label.TARGET
N = Label.NONTARGET

WEIGHT_PAIRS = [(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)]

FROZEN = [
    # (labels, weights, expected)
    ([N, T], (1.0, 1.0), [0.0, 1.0]),
    ([T, N], (1.0, 1.0), [0.5, 0.5]),
    ([T, N], (2.0, 1.0), [2 / 3, 2 / 3]),
    ([N, T, N, T], (1.0, 1.0), [0.0, 0.5, 0.5, 1.0]),
    ([T, N, N, T], (1.0, 1.0), [1 / 3, 1 / 3, 1 / 3, 1.0]),
    ([T, T, N], (1.0, 1.0), [2 / 3, 2 / 3, 2 / 3]),
    ([T, T, N, T], (1.0, 1.0), [2 / 3, 2 / 3, 2 / 3, 1.0]),
    ([T], (1.0, 1.0), [1.0]),
    ([N], (1.0, 1.0), [0.0]),
]


@pytest.mark.parametrize("labels,weights,expected", FROZEN)
def test_frozen_solutions(labels, weights, expected):
    got = pav_posteriors(labels, weights)
    assert got == pytest.approx(expected, abs=1e-15)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        pav_fit([], (1.0, 1.0))


@pytest.mark.filterwarnings("error")
def test_weights_whose_total_overflows_are_named():
    message = r"^weights 1e\+308,1e\+308 overflow the weight of 3 trials$"
    with pytest.raises(ValueError, match=message):
        pav_fit([T, N, T], (1e308, 1e308))
    # A total weight just below the largest double is accepted.
    sol = pav_fit([T, N], (1e308, 7e307))
    assert sol.values == (1e308 / (1e308 + 7e307),)
    assert pav_fit([T], (1.7e308, 1.7e308)).values == (1.0,)


def test_labels_that_are_not_labels_rejected():
    with pytest.raises(TypeError, match="label must be a Label, got 'target'"):
        pav_fit(["target", "nontarget"], (1.0, 1.0))
    with pytest.raises(TypeError, match="got 'x'"):
        pav_fit([T, N, "x"], (1.0, 1.0))


def test_equal_values_merge_into_one_block():
    # (T, N, T, N): every pooling step hits an exact tie at 0.5; merging
    # on equality must collapse the whole thing into a single block.
    sol = pav_fit([T, N, T, N], (1.0, 1.0))
    assert (sol.m, sol.n, sol.values) == ((2,), (2,), (0.5,))
    assert pav_posteriors([T, N, T, N], (1.0, 1.0)) == [0.5, 0.5, 0.5, 0.5]
    assert maxmin_oracle([T, N, T, N], (1.0, 1.0)) == [0.5] * 4


def test_exhaustive_oracle_equivalence_small():
    for v1, v2 in WEIGHT_PAIRS:
        w = WeightPair(v1, v2)
        for size in range(1, 8):
            for labels in itertools.product((T, N), repeat=size):
                got = pav_posteriors(labels, w)
                want = maxmin_oracle(labels, w)
                assert got == pytest.approx(want, abs=1e-12), (labels, v1, v2)


@given(
    labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=60),
    wpair=st.one_of(
        st.sampled_from(WEIGHT_PAIRS),
        st.tuples(
            st.floats(0.05, 20.0, allow_nan=False),
            st.floats(0.05, 20.0, allow_nan=False),
        ),
    ),
)
def test_matches_closed_form_on_random_instances(labels, wpair):
    got = pav_posteriors(labels, wpair)
    want = maxmin_oracle(labels, wpair)
    assert got == pytest.approx(want, abs=1e-12)


@given(labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=80))
def test_block_and_pool_counts(labels):
    sol = pav_fit(labels, (1.0, 1.0))
    assert 1 <= len(sol.m) == len(sol.n) == len(sol.values) <= len(labels)


@given(
    labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=50),
    v1=st.floats(0.1, 10.0),
    v2=st.floats(0.1, 10.0),
)
def test_label_swap_symmetry(labels, v1, v2):
    # Reversing the sequence and swapping the classes (and their weights)
    # mirrors the solution: p -> 1 - p, read backwards.
    p = pav_posteriors(labels, (v1, v2))
    swapped = [N if lab is T else T for lab in reversed(labels)]
    q = pav_posteriors(swapped, (v2, v1))
    for a, b in zip(p, reversed(q)):
        assert abs(a - (1.0 - b)) <= 1e-15


@given(
    labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=60),
    v1=st.floats(0.1, 10.0),
    v2=st.floats(0.1, 10.0),
)
def test_log_objective_of_fit_is_finite(labels, v1, v2):
    p = pav_posteriors(labels, (v1, v2))
    val = objective(Logarithmic(), labels, (v1, v2), p)
    assert math.isfinite(val)


@settings(max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_never_beaten_by_random_monotone_candidates(seed):
    rng = random.Random(seed)
    labels = [T if rng.random() < 0.5 else N for _ in range(50)]
    wpair = (math.exp(rng.uniform(-1.5, 1.5)), math.exp(rng.uniform(-1.5, 1.5)))
    rules = [
        Logarithmic(),
        Brier(),
        CostAt(0.37),
        DiracMixture(((0.5, 0.21), (0.5, 0.68))),
    ]
    fit = pav_posteriors(labels, wpair)
    candidates = [sorted(rng.random() for _ in labels) for _ in range(100)]
    for rule in rules:
        fit_obj = objective(rule, labels, wpair, fit)
        for cand in candidates:
            assert fit_obj <= objective(rule, labels, wpair, cand) + 1e-9
