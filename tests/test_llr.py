import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pavcal import (
    Label,
    LlrCalibration,
    llr_calibrate,
    logit,
    pav_posteriors,
    posterior_from_llr,
    sigmoid,
    weights_from_prior,
)
from pavcal.llr import _posteriors

T = Label.TARGET
N = Label.NONTARGET

PRIORS = (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0)


def test_logit_known_values():
    assert logit(0.5) == 0.0
    assert logit(0.75) == pytest.approx(math.log(3), abs=1e-15)
    assert logit(0.0) == -math.inf
    assert logit(1.0) == math.inf
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            logit(bad)


def test_sigmoid_known_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-15)
    assert sigmoid(-math.inf) == 0.0
    assert sigmoid(math.inf) == 1.0
    assert sigmoid(-800.0) == 0.0  # no overflow on extreme finite inputs
    assert sigmoid(800.0) == 1.0


@given(p=st.floats(1e-9, 1.0 - 1e-9))
def test_sigmoid_inverts_logit(p):
    assert sigmoid(logit(p)) == pytest.approx(p, abs=1e-12)


def test_weights_from_prior_balanced_case():
    w = weights_from_prior(0.0, 10, 10)
    assert (w.v1, w.v2) == (0.05, 0.05)


@pytest.mark.parametrize("pi", PRIORS)
def test_priors_share_out_unit_total_weight(pi):
    w = weights_from_prior(pi, 7, 13)
    assert 7 * w.v1 + 13 * w.v2 == pytest.approx(1.0, abs=1e-12)
    assert logit(7 * w.v1) == pytest.approx(pi, abs=1e-9)


def test_weights_from_prior_rejects_bad_input():
    with pytest.raises(ValueError):
        weights_from_prior(math.inf, 10, 10)
    with pytest.raises(ValueError):
        weights_from_prior(math.nan, 10, 10)
    with pytest.raises(ValueError):
        weights_from_prior(0.0, 0, 10)


@pytest.mark.parametrize("pi", [37.0, 100.0, 700.0, -37.0, -100.0, -700.0])
def test_extreme_priors_give_positive_weights(pi):
    # Above a prior of about 36.7, sigmoid(pi) rounds to 1, and the
    # non-target share must not be computed as 1 - sigmoid(pi).
    w = weights_from_prior(pi, 7, 13)
    assert 7 * w.v1 / (13 * w.v2) == pytest.approx(math.exp(pi), rel=1e-12)


@pytest.mark.parametrize("pi", [746.0, -746.0, 1e300, -1e300])
def test_priors_whose_share_underflows_are_named(pi):
    with pytest.raises(ValueError, match=re.escape(f"prior log-odds {pi!r} gives a class weight")):
        weights_from_prior(pi, 7, 13)


def test_priors_that_worked_keep_their_bits():
    for pi in np.linspace(-36.0, 36.0, 1441).tolist():
        for t1, t2 in [(1, 1), (7, 13), (1000, 3)]:
            p = sigmoid(pi)
            w = weights_from_prior(pi, t1, t2)
            assert (w.v1, w.v2) == (p / t1, (1.0 - p) / t2), pi


def test_llr_calibrate_frozen_examples():
    # Perfectly separated pair: infinite evidence both ways.
    assert llr_calibrate([N, T]).w == (-math.inf, math.inf)
    # Fully pooled pair at the empirical prior: zero evidence.
    assert llr_calibrate([T, N]).w == (0.0, 0.0)
    # One pooled block of 1/3 plus a pure target block.
    cal = llr_calibrate([T, N, N, T])
    assert cal.w[:3] == pytest.approx([-math.log(2)] * 3, abs=1e-12)
    assert cal.w[3] == math.inf
    assert cal.prior_logodds == 0.0


def test_llr_calibrate_needs_both_classes():
    with pytest.raises(ValueError):
        llr_calibrate([T, T, T])
    with pytest.raises(ValueError):
        llr_calibrate([N])


def test_llr_calibrate_rejects_labels_that_are_not_labels():
    with pytest.raises(TypeError, match="label must be a Label, got 'target'"):
        llr_calibrate(["target", "nontarget", "x"])


def test_posterior_from_llr():
    assert posterior_from_llr(math.log(3), -math.log(3)) == pytest.approx(0.5, abs=1e-15)
    assert posterior_from_llr(-math.inf, 2.0) == 0.0
    assert posterior_from_llr(math.inf, -2.0) == 1.0


def test_scalar_api_rejects_a_nan_llr():
    with pytest.raises(ValueError, match="^llr must not be NaN$"):
        sigmoid(math.nan)
    with pytest.raises(ValueError, match="^llr must not be NaN$"):
        posterior_from_llr(math.nan, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w,prior", [(0.5, math.nan), (0.5, math.inf), (0.5, -math.inf),
                                     (math.inf, -math.inf), (-math.inf, math.inf)])
def test_posterior_from_llr_rejects_a_prior_that_is_not_finite(w, prior):
    message = f"prior log-odds must be finite, got {prior!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        posterior_from_llr(w, prior)


def _reference_sigmoid(w):
    """The scalar sigmoid that the array path replaced, kept as the reference."""
    if w >= 0.0:
        return 1.0 / (1.0 + math.exp(-w))
    e = math.exp(w)
    return e / (1.0 + e)


_EDGES = [math.inf, 0.0, 5e-324, 709.0, 745.0, 746.0, 1e308]
EDGE_LLRS = _EDGES + [-x for x in _EDGES] + [math.nan]
REF_PRIORS = (0.0, -2.0, 1.3, -1e-3)


@pytest.mark.parametrize("prior", REF_PRIORS)
@given(extra=st.lists(st.floats(), max_size=40))
def test_posteriors_match_the_scalar_reference_bit_for_bit(prior, extra):
    w = EDGE_LLRS + extra
    want = [repr(_reference_sigmoid(x + prior)) for x in w]
    assert list(map(repr, _posteriors(np.array(w), prior).tolist())) == want
    # The scalar API turns NaN down (see test_scalar_api_rejects_a_nan_llr).
    want = [v for x, v in zip(w, want) if not math.isnan(x)]
    assert [repr(posterior_from_llr(x, prior)) for x in w if not math.isnan(x)] == want
    assert [repr(sigmoid(x + prior)) for x in w if not math.isnan(x)] == want


@pytest.mark.parametrize("prior", REF_PRIORS)
def test_posteriors_match_the_scalar_reference_on_a_seeded_sweep(prior):
    # Enough values that a last-bit difference (np.exp against math.exp,
    # say) shows up on some of them.
    w = np.random.default_rng(6).normal(scale=10.0, size=20_000)
    want = [repr(_reference_sigmoid(x + prior)) for x in w.tolist()]
    assert list(map(repr, _posteriors(w, prior).tolist())) == want


@given(labels=st.lists(st.sampled_from([T, N]), min_size=2, max_size=60))
def test_round_trip_back_to_posteriors(labels):
    if not (any(l is T for l in labels) and any(l is N for l in labels)):
        labels = labels + [T, N]
    cal = llr_calibrate(labels)
    p = pav_posteriors(labels, (1.0, 1.0))
    for w, want in zip(cal.w, p):
        assert posterior_from_llr(w, cal.prior_logodds) == pytest.approx(want, abs=1e-12)


@given(labels=st.lists(st.sampled_from([T, N]), min_size=2, max_size=60))
def test_llrs_are_nondecreasing(labels):
    if not (any(l is T for l in labels) and any(l is N for l in labels)):
        labels = labels + [T, N]
    w = llr_calibrate(labels).w
    assert all(a <= b for a, b in zip(w, w[1:]))


def test_calibration_type_rejects_non_monotone_values():
    # Block counts whose target proportions do not strictly rise, and one class.
    with pytest.raises(ValueError, match="^block target proportions must strictly rise$"):
        LlrCalibration((1, 0), (0, 1))
    with pytest.raises(ValueError, match="^block target proportions must strictly rise$"):
        LlrCalibration((1, 1), (1, 1))
    with pytest.raises(ValueError, match="^both classes are needed, got 0 targets and 1 non-targets$"):
        LlrCalibration((0,), (1,))


def test_prior_independence_over_reweighted_fits():
    # Shifting the prior reweights every trial, but logit(fit) - prior
    # lands on the same LLR values regardless, including the infinities.
    rng = random.Random(42)
    for _ in range(20):
        labels = [T if rng.random() < 0.4 else N for _ in range(40)]
        if not (any(l is T for l in labels) and any(l is N for l in labels)):
            continue
        t1 = sum(1 for l in labels if l is T)
        ref = llr_calibrate(labels).w
        for pi in PRIORS:
            p = pav_posteriors(labels, weights_from_prior(pi, t1, len(labels) - t1))
            for pt, want in zip(p, ref):
                got = logit(pt) - pi
                if math.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("llrs", [[1.0, 0.0], [0.0, math.nan]], ids=["decreasing", "nan"])
def test_llr_calibrate_checks_its_block_values(monkeypatch, llrs):
    # The order is checked on the block values only, so it must still be
    # checked there: a faulty pair of block llrs is turned down.
    monkeypatch.setattr("pavcal.llr._block_llrs", lambda m, n: (llrs, 0.0))
    with pytest.raises(ValueError, match="^llr values must be nondecreasing$"):
        llr_calibrate([N, T, T])  # two blocks, of 1 and 2 trials


_mixed = st.lists(st.tuples(st.sampled_from([T, N]), st.integers(1, 5)), min_size=1, max_size=30)
_mixed = _mixed.map(lambda runs: [lab for lab, k in runs for _ in range(k)] + [T, N])
_one_block = st.tuples(st.integers(1, 20), st.integers(1, 20))
_one_block = _one_block.map(lambda ab: [T] * ab[0] + [N] * ab[1])


@given(
    labels=st.one_of(_mixed, _one_block),
    lead=st.sampled_from([[], [N]]),  # a leading non-target gives a -inf end
    tail=st.sampled_from([[], [T]]),  # a trailing target gives a +inf end
)
def test_llr_calibrate_equals_the_checked_constructor(labels, lead, tail):
    labels = lead + labels + tail
    cal = llr_calibrate(labels)
    built = LlrCalibration(cal.m, cal.n)
    assert cal == built and cal.w == built.w
    assert repr(cal) == repr(built) and "w=" not in repr(cal)
    assert type(cal.w) is tuple and len(cal.w) == len(labels)
    assert (cal.t1, cal.t2) == (labels.count(T), labels.count(N))
    assert cal.prior_logodds == logit(cal.t1 / len(labels))
