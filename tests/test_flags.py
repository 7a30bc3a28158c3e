"""Labels and the equivalent bool target-flag array give the same results.

Every routine that takes labels turns them into target flags through one
conversion, which returns a 1-D bool array (True = target) as it is.  So
the Labels and their flags must give identical results, compared by
repr, and anything else must still raise TypeError.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pavcal import (
    Label,
    build_map,
    grid_minimizer,
    llr_calibrate,
    maxmin_oracle,
    objective,
    pav_fit,
    pav_posteriors,
)
from pavcal.selfcheck import STANDARD_RULES

T = Label.TARGET
N = Label.NONTARGET

labels_st = st.lists(st.sampled_from([T, N]), min_size=1, max_size=80)
weights_st = st.sampled_from([(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)])


def _flags(labels):
    return np.array([lab is T for lab in labels], dtype=bool)


@given(labels=labels_st, weights=weights_st)
def test_pav_fit_and_posteriors(labels, weights):
    flags = _flags(labels)
    assert repr(pav_fit(flags, weights)) == repr(pav_fit(labels, weights))
    assert repr(pav_posteriors(flags, weights)) == repr(pav_posteriors(labels, weights))


@given(labels=labels_st)
def test_llr_calibrate(labels):
    labels = labels + [T, N]  # both classes
    got, want = llr_calibrate(_flags(labels)), llr_calibrate(labels)
    assert repr((got.w, got.prior_logodds, got.t1, got.t2)) == repr(
        (want.w, want.prior_logodds, want.t1, want.t2)
    )


@given(labels=labels_st, weights=weights_st, seed=st.integers(0, 2**32 - 1))
def test_objective(labels, weights, seed):
    p = np.random.default_rng(seed).uniform(size=len(labels))
    p[: len(p) // 4] = 0.0  # infinite log costs for some targets
    flags = _flags(labels)
    for rule in STANDARD_RULES:
        assert repr(objective(rule, flags, weights, p)) == repr(objective(rule, labels, weights, p))


@given(labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=40), weights=weights_st)
def test_oracles(labels, weights):
    assert repr(maxmin_oracle(_flags(labels), weights)) == repr(maxmin_oracle(labels, weights))
    few = labels[:5]
    for rule in STANDARD_RULES:
        got = grid_minimizer(rule, _flags(few), weights, 11)
        assert repr(got) == repr(grid_minimizer(rule, few, weights, 11))


@given(
    labels=labels_st,
    weights=weights_st,
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["posterior", "llr"]),
    policy=st.sampled_from(["step", "linear"]),
)
def test_build_map(labels, weights, seed, mode, policy):
    labels = labels + [T, N]  # llr mode needs both classes
    scores = np.round(np.random.default_rng(seed).normal(size=len(labels)), 1)  # with ties
    got = build_map(scores, _flags(labels), weights, mode, policy)
    assert repr(got.knots) == repr(build_map(scores, labels, weights, mode, policy).knots)


NOT_FLAGS = [
    np.array([1, 0, 1]),  # ints, not bools
    np.array([[True], [False], [True]]),  # 2-D
    [True, False, True],  # Python bools, not Labels
]


@pytest.mark.parametrize("bad", NOT_FLAGS, ids=["int-array", "2d-bool-array", "bool-list"])
def test_anything_but_labels_or_1d_bool_flags_raises_type_error(bad):
    calls = [
        lambda: pav_fit(bad, (1.0, 1.0)),
        lambda: pav_posteriors(bad, (1.0, 1.0)),
        lambda: llr_calibrate(bad),
        lambda: objective(STANDARD_RULES[0], bad, (1.0, 1.0), [0.5] * 3),
        lambda: maxmin_oracle(bad, (1.0, 1.0)),
        lambda: grid_minimizer(STANDARD_RULES[0], bad, (1.0, 1.0), 5),
        lambda: build_map([0.0, 1.0, 2.0], bad, (1.0, 1.0)),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
