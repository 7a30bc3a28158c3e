import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pavcal import (
    CalibrationMap,
    Label,
    apply_map,
    build_map,
    llr_calibrate,
    pav_posteriors,
)
from pavcal.calmap import _apply

T = Label.TARGET
N = Label.NONTARGET


def _columns(pairs):
    """The (score, label) pairs as a score column and a label column."""
    scores, labels = zip(*pairs)
    return list(scores), list(labels)


class TestBuild:
    def test_build_map_rejects_bad_columns(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
                build_map([0.0, bad], [T, N], (1.0, 1.0))
        with pytest.raises(TypeError, match="label must be a Label, got 'target'"):
            build_map([0.0, 1.0], [T, "target"], (1.0, 1.0))
        with pytest.raises(ValueError, match="do not match"):
            build_map([0.0, 1.0, 2.0], [T, N], (1.0, 1.0))
        with pytest.raises(ValueError, match="do not match"):
            build_map(np.zeros(2), np.array([True, False, True]), (1.0, 1.0))
        with pytest.raises(ValueError, match="at least one trial"):
            build_map([], [], (1.0, 1.0))

    def test_build_map_accepts_int_scores(self):
        got = build_map([-3, 2], [N, T], (1.0, 1.0))
        assert got == build_map([-3.0, 2.0], [N, T], (1.0, 1.0))
        assert repr(got.knots) == "((-3.0, 0.0), (2.0, 1.0))"

    def test_constant_map_from_one_pooled_block(self):
        cmap = build_map(*_columns([(0.0, T), (1.0, N)]), (1.0, 1.0))
        assert cmap.knots == ((0.0, 0.5), (1.0, 0.5))
        for s in (-10.0, 0.0, 0.3, 1.0, 99.0):
            assert apply_map(cmap, s) == 0.5

    def test_two_block_step_map(self):
        cmap = build_map(*_columns([(-1.0, N), (1.0, T)]), (1.0, 1.0), policy="step")
        assert cmap.knots == ((-1.0, 0.0), (1.0, 1.0))
        assert apply_map(cmap, 0.0) == 0.0
        assert apply_map(cmap, 0.999) == 0.0
        assert apply_map(cmap, 1.0) == 1.0
        assert apply_map(cmap, -5.0) == 0.0
        assert apply_map(cmap, 5.0) == 1.0

    def test_two_block_linear_map(self):
        cmap = build_map(*_columns([(-1.0, N), (1.0, T)]), (1.0, 1.0), policy="linear")
        assert apply_map(cmap, 0.0) == 0.5
        assert apply_map(cmap, -1.0) == 0.0
        assert apply_map(cmap, 1.0) == 1.0
        assert apply_map(cmap, -5.0) == 0.0  # clamped outside the knots
        assert apply_map(cmap, 5.0) == 1.0

    def test_exact_score_ties_are_pooled(self):
        cmap = build_map(*_columns([(0.0, T), (0.0, N)]), (1.0, 1.0))
        assert cmap.knots == ((0.0, 0.5),)
        assert apply_map(cmap, -1.0) == apply_map(cmap, 1.0) == 0.5

    def test_unsorted_input_is_sorted_first(self):
        a = build_map(*_columns([(3.0, T), (1.0, N), (2.0, N)]), (1.0, 1.0))
        b = build_map(*_columns([(1.0, N), (2.0, N), (3.0, T)]), (1.0, 1.0))
        assert a == b

    def test_llr_map_matches_llr_calibrate_on_training_scores(self):
        pairs = [(1.0, T), (2.0, N), (3.0, N), (4.0, T)]
        cmap = build_map(*_columns(pairs), (1.0, 1.0), mode="llr")
        want = llr_calibrate([lab for _, lab in pairs]).w
        for (s, _), expect in zip(pairs, want):
            assert apply_map(cmap, s) == pytest.approx(expect, abs=1e-12)
        assert apply_map(cmap, 4.0) == math.inf

    def test_llr_mode_needs_both_classes(self):
        with pytest.raises(ValueError):
            build_map(*_columns([(0.0, T), (1.0, T)]), (1.0, 1.0), mode="llr")

    @pytest.mark.filterwarnings("error")
    def test_weights_whose_total_overflows_are_named(self):
        # Each class weight is finite, but the three trials weigh 3e308 in
        # all, and a pool of one target and one non-target would read 0.0.
        message = r"^weights 1e\+308,1e\+308 overflow the weight of 3 trials$"
        with pytest.raises(ValueError, match=message):
            build_map([1.0, 2.0, 3.0], [T, N, T], (1e308, 1e308))
        for mode in ("posterior", "llr"):  # llr mode fits at unit weights
            cmap = build_map([1.0, 2.0, 3.0], [T, N, T], (1e-308, 1e308), mode=mode)
            assert len(cmap.knots) == 3

    def test_empty_and_bad_arguments(self):
        with pytest.raises(ValueError):
            build_map([], [], (1.0, 1.0))
        with pytest.raises(ValueError):
            build_map(*_columns([(0.0, T)]), (1.0, 1.0), mode="probability")
        with pytest.raises(ValueError):
            build_map(*_columns([(0.0, T)]), (1.0, 1.0), policy="cubic")


class TestApply:
    def test_rejects_non_finite_scores(self):
        cmap = build_map(*_columns([(0.0, T), (1.0, N)]), (1.0, 1.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                apply_map(cmap, bad)

    def test_step_is_right_continuous_at_knots(self):
        cmap = build_map(
            *_columns([(0.0, N), (1.0, N), (2.0, T), (3.0, T)]), (1.0, 1.0), policy="step"
        )
        assert cmap.knots == ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 1.0))
        assert apply_map(cmap, 2.0) == 1.0
        assert apply_map(cmap, 1.9999999) == 0.0

    def test_linear_ramp_between_infinite_knots_degenerates_to_step(self):
        cmap = build_map(*_columns([(0.0, N), (1.0, T)]), (1.0, 1.0), mode="llr", policy="linear")
        assert cmap.knots == ((0.0, -math.inf), (1.0, math.inf))
        assert apply_map(cmap, 0.5) == -math.inf
        assert apply_map(cmap, 1.0) == math.inf

    def test_linear_ramp_across_a_gap_wider_than_the_largest_double(self):
        # 1e308 - -1e308 overflows, yet the ramp must still run from 0 to 1.
        cmap = build_map([-1e308, 1e308], [N, T], (1.0, 1.0), policy="linear")
        assert apply_map(cmap, 0.0) == 0.5
        assert apply_map(cmap, 9e307) == pytest.approx(0.95, rel=1e-15)
        probes = [-1e308, -9e307, -1e300, -1.0, 0.0, 1e-300, 1.0, 1e300, 9e307, 1.7e308]
        values = _apply(cmap, np.array(probes)).tolist()
        assert not any(map(math.isnan, values))
        assert values == sorted(values)
        assert values == [apply_map(cmap, s) for s in probes]

    @given(
        seed=st.integers(0, 999),
        policy=st.sampled_from(["step", "linear"]),
        mode=st.sampled_from(["posterior", "llr"]),
    )
    def test_apply_is_monotone_in_the_score(self, seed, policy, mode):
        rng = random.Random(seed)
        trials = [
            (round(rng.uniform(-2, 2), 1), T if rng.random() < 0.5 else N)
            for _ in range(40)
        ]
        trials += [(0.5, T), (-0.5, N)]
        cmap = build_map(*_columns(trials), (1.0, 1.0), mode=mode, policy=policy)
        probes = sorted(rng.uniform(-3, 3) for _ in range(60))
        values = [apply_map(cmap, s) for s in probes]
        for a, b in zip(values, values[1:]):
            assert a <= b or (math.isnan(a) and math.isnan(b))

    @given(seed=st.integers(0, 999), policy=st.sampled_from(["step", "linear"]))
    def test_training_scores_reproduce_fitted_values(self, seed, policy):
        # Without ties, applying the map at a training score must return
        # that trial's fitted value under either policy.
        rng = random.Random(seed)
        scores = sorted({round(rng.uniform(-5, 5), 6) for _ in range(50)})
        labels = [T if rng.random() < 0.5 else N for _ in scores]
        wpair = (math.exp(rng.uniform(-1, 1)), 1.0)
        cmap = build_map(scores, labels, wpair, policy=policy)
        fitted = pav_posteriors(labels, wpair)
        for s, want in zip(scores, fitted):
            assert apply_map(cmap, s) == want


class TestSerialization:
    def test_text_format_is_stable(self):
        cmap = build_map(*_columns([(-1.0, N), (1.0, T)]), (1.0, 1.0))
        assert cmap.to_text() == "pavcal-map v1 posterior step\n-1.0\t0.0\n1.0\t1.0\n"

    def test_round_trip_is_bit_exact(self):
        rng = random.Random(3)
        scores, labels = _columns(
            (rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-12, 3), T if rng.random() < 0.5 else N)
            for _ in range(120)
        )
        for mode in ("posterior", "llr"):
            for policy in ("step", "linear"):
                cmap = build_map(scores, labels, (2.5, 0.7), mode=mode, policy=policy)
                back = CalibrationMap.from_text(cmap.to_text())
                assert back == cmap
                for _ in range(200):
                    s = rng.uniform(-2e3, 2e3)
                    assert apply_map(back, s) == apply_map(cmap, s)

    def test_infinite_values_serialize_in_llr_mode(self):
        cmap = build_map(*_columns([(0.0, N), (1.0, T)]), (1.0, 1.0), mode="llr")
        text = cmap.to_text()
        assert "-inf" in text and "inf" in text
        assert CalibrationMap.from_text(text) == cmap

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not-a-map v1 posterior step\n0.0\t0.5\n",
            "pavcal-map v2 posterior step\n0.0\t0.5\n",
            "pavcal-map v1 posterior step\n0.0 0.5\n",  # missing tab
            "pavcal-map v1 posterior step\n0.0\tx\n",
            "pavcal-map v1 posterior step\n",  # no knots
            "pavcal-map v1 posterior step\n1.0\t0.2\n0.5\t0.4\n",  # scores not increasing
            "pavcal-map v1 posterior step\n0.0\t0.4\n1.0\t0.2\n",  # values decreasing
            "pavcal-map v1 posterior step\n0.0\tinf\n",  # inf posterior
            "pavcal-map v1 posterior step\n0.0\tnan\n",
            "pavcal-map v1 llr step\ninf\t0.0\n",  # knot score must be finite
        ],
    )
    def test_malformed_maps_rejected(self, text):
        with pytest.raises(ValueError):
            CalibrationMap.from_text(text)

    def test_save_and_load(self, tmp_path):
        cmap = build_map(*_columns([(-1.0, N), (1.0, T)]), (1.0, 1.0), policy="linear")
        path = tmp_path / "cal.map"
        cmap.save(str(path))
        assert CalibrationMap.load(str(path)) == cmap


def _reference_apply(cmap, score):
    """The scalar bisect-based apply that the array path replaced."""
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {score!r}")
    knots = cmap.knots
    i = bisect_right(knots, (score, math.inf)) - 1
    if i < 0:
        return knots[0][1]
    if cmap.policy == "step" or i == len(knots) - 1:
        return knots[i][1]
    x0, v0 = knots[i]
    x1, v1 = knots[i + 1]
    if score == x0 or v0 == v1:
        return v0
    if math.isinf(v0) or math.isinf(v1):
        return v0
    if math.isinf(x1 - x0):  # knots further apart than the largest double
        t = (score / 2 - x0 / 2) / (x1 / 2 - x0 / 2)
    else:
        t = (score - x0) / (x1 - x0)
    v = v0 + t * (v1 - v0)
    return min(max(v, v0), v1)


_SPECIAL = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0, -1.0]
_knot_scores = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-1e6, 1e6),
    st.floats(-1e308, 1e308),
)


@st.composite
def calibration_maps(draw):
    mode = draw(st.sampled_from(["posterior", "llr"]))
    policy = draw(st.sampled_from(["step", "linear"]))
    scores = sorted(draw(st.lists(_knot_scores, min_size=1, max_size=8, unique_by=float)))
    n = len(scores)
    if mode == "posterior":
        value = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    else:
        value = st.one_of(st.sampled_from([-0.0, 0.0, -2.0, 3.5]), st.floats(-50.0, 50.0))
    values = sorted(draw(st.lists(value, min_size=n, max_size=n)))
    if mode == "llr":
        low = draw(st.integers(0, n))
        high = draw(st.integers(low, n))
        values = [-math.inf] * low + values[low:high] + [math.inf] * (n - high)
    return CalibrationMap(knots=tuple(zip(scores, values)), mode=mode, policy=policy)


def _probes(cmap, extra):
    xs = [s for s, _ in cmap.knots]
    probes = list(_SPECIAL) + [-1e308, 1e308] + extra
    for a, b in zip(xs, xs[1:]):
        probes.append(a + (b - a) / 2 if math.isfinite(b - a) else a / 2 + b / 2)
    for x in xs:
        probes += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf), x - 1.0, x + 1.0]
    return [p for p in probes if math.isfinite(p)]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(cmap=calibration_maps(), extra=st.lists(finite_floats, max_size=10))
def test_array_and_scalar_apply_match_the_bisect_reference(cmap, extra):
    probes = _probes(cmap, extra)
    want = [repr(_reference_apply(cmap, s)) for s in probes]
    assert [repr(apply_map(cmap, s)) for s in probes] == want
    assert [repr(v) for v in _apply(cmap, np.array(probes)).tolist()] == want
