import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pavcal import (
    Brier,
    CostAt,
    CustomDensity,
    DiracMixture,
    Label,
    Logarithmic,
    ScoringRule,
    WeightPair,
    expected_cost,
    objective,
    parse_rule,
)
from pavcal import rules
from pavcal.rules import _total_cost

T = Label.TARGET
N = Label.NONTARGET

STANDARD = [
    Logarithmic(),
    Brier(),
    CostAt(0.37),
    DiracMixture(((0.5, 0.21), (0.5, 0.68))),
]


class TestClosedForms:
    def test_logarithmic(self):
        rule = Logarithmic()
        assert rule.cost(T, 0.25) == pytest.approx(math.log(4), abs=1e-15)
        assert rule.cost(T, 1.0) == 0.0
        assert rule.cost(T, 0.0) == math.inf
        assert rule.cost(N, 0.0) == 0.0
        assert rule.cost(N, 1.0) == math.inf

    def test_brier(self):
        rule = Brier()
        assert rule.cost(T, 0.25) == 1.6875  # 3 * 0.75**2
        assert rule.cost(N, 0.3) == pytest.approx(0.27, abs=1e-15)
        assert rule.cost(T, 1.0) == 0.0
        assert rule.cost(T, 0.0) == 3.0
        assert rule.cost(N, 1.0) == 3.0

    def test_cost_at(self):
        rule = CostAt(0.5)
        assert rule.cost(T, 0.3) == 2.0
        assert rule.cost(N, 0.3) == 0.0
        assert rule.cost(T, 0.7) == 0.0
        assert rule.cost(N, 0.7) == 2.0
        # A point mass sitting exactly at q charges the non-target side.
        assert rule.cost(T, 0.5) == 0.0
        assert rule.cost(N, 0.5) == 2.0

    def test_cost_at_prices_as_its_one_spike_mixture_without_building_one(self, monkeypatch):
        # Bit for bit, at q == t and its neighbours too, for either class.
        for t in (1e-300, 0.1, 0.37, 0.5, 2 / 3, 1 - 2**-53):
            q = np.array([0.0, np.nextafter(t, 0.0), t, np.nextafter(t, 1.0), 0.5, 1.0, math.nan])
            spike = DiracMixture(((1.0, t),))
            for target in (True, False):
                assert CostAt(t)._costs(q, target).tobytes() == spike._costs(q, target).tobytes()

        def no_mixture(components):
            raise AssertionError("CostAt built a DiracMixture")

        want = objective(CostAt(0.37), [T, N, T], (1.0, 2.0), [0.2, 0.37, 0.9])
        monkeypatch.setattr(rules, "DiracMixture", no_mixture)
        assert objective(CostAt(0.37), [T, N, T], (1.0, 2.0), [0.2, 0.37, 0.9]) == want > 0.0

    def test_cost_at_threshold_must_be_interior(self):
        for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError):
                CostAt(bad)

    def test_cost_at_takes_any_real_threshold_as_a_float(self):
        # numpy scalars and Fractions are real numbers inside (0, 1) too.
        for t in (np.float32(0.5), Fraction(1, 2)):
            assert CostAt(t) == CostAt(0.5) and type(CostAt(t).threshold) is float
        assert str(CostAt(np.float64(0.25))) == "cost@0.25"
        for bad in ("0.5", None, 0.5j):
            with pytest.raises(TypeError, match="^threshold must be a real number"):
                CostAt(bad)

    def test_probability_domain_enforced(self):
        for rule in STANDARD:
            for bad in (-0.1, 1.1, math.nan, math.inf):
                with pytest.raises(ValueError):
                    rule.cost(T, bad)


class TestDiracMixture:
    def test_cost_is_exact_weighted_sum_of_components(self):
        comps = ((0.5, 0.21), (0.3, 0.5), (0.2, 0.68))
        mix = DiracMixture(comps)
        for q in (0.0, 0.1, 0.21, 0.33, 0.5, 0.68, 0.9, 1.0):
            for lab in (T, N):
                want = 0.0
                for a, t in comps:
                    want += a * CostAt(t).cost(lab, q)
                assert mix.cost(lab, q) == want

    def test_component_validation(self):
        with pytest.raises(ValueError):
            DiracMixture(())
        with pytest.raises(ValueError):
            DiracMixture(((0.5, 0.2), (0.6, 0.7)))  # weights sum to 1.1
        with pytest.raises(ValueError):
            DiracMixture(((-0.5, 0.2), (1.5, 0.7)))
        with pytest.raises(ValueError):
            DiracMixture(((1.0, 0.0),))  # threshold on the boundary


class TestCustomDensity:
    def test_uniform_density_reproduces_logarithmic(self):
        rule = CustomDensity(lambda e: 1.0, integrable_at_zero=False, integrable_at_one=False)
        log = Logarithmic()
        rng = random.Random(7)
        for _ in range(25):
            q = rng.uniform(1e-3, 1 - 1e-3)
            assert rule.cost(T, q) == pytest.approx(log.cost(T, q), abs=1e-9)
            assert rule.cost(N, q) == pytest.approx(log.cost(N, q), abs=1e-9)
        assert rule.cost(T, 0.0) == math.inf
        assert rule.cost(N, 1.0) == math.inf

    @pytest.mark.parametrize("q", [1e-13, 1e-20, 1e-100, 1e-300])
    def test_uniform_density_below_the_endpoint_margin(self, q):
        rule = CustomDensity(lambda e: 1.0, integrable_at_zero=False, integrable_at_one=False)
        assert rule.cost(T, q) == pytest.approx(Logarithmic().cost(T, q), rel=1e-9)

    @pytest.mark.parametrize("gap", [1e-13, 1e-15])
    def test_uniform_density_above_the_endpoint_margin(self, gap):
        rule = CustomDensity(lambda e: 1.0, integrable_at_zero=False, integrable_at_one=False)
        q = 1.0 - gap
        assert rule.cost(N, q) == pytest.approx(Logarithmic().cost(N, q), rel=1e-12)

    def test_parabolic_density_reproduces_brier(self):
        rule = CustomDensity(
            lambda e: 6.0 * e * (1.0 - e), integrable_at_zero=True, integrable_at_one=True
        )
        brier = Brier()
        rng = random.Random(8)
        for q in [0.0, 1.0] + [rng.random() for _ in range(25)]:
            assert rule.cost(T, q) == pytest.approx(brier.cost(T, q), abs=1e-9)
            assert rule.cost(N, q) == pytest.approx(brier.cost(N, q), abs=1e-9)

    def test_unnormalized_density_rejected_on_first_use(self):
        rule = CustomDensity(lambda e: 2.0, integrable_at_zero=False, integrable_at_one=False)
        with pytest.raises(ValueError):
            rule.cost(T, 0.5)

    def test_negative_density_rejected_on_first_use(self):
        rule = CustomDensity(lambda e: e - 0.5, integrable_at_zero=True, integrable_at_one=True)
        with pytest.raises(ValueError):
            rule.cost(N, 0.5)

    def test_density_singular_at_both_ends_is_accepted(self):
        # The arcsine density is infinite at 0 and 1 but integrates to 1;
        # rho/eta diverges at 0 and rho/(1-eta) at 1.
        rule = CustomDensity(
            lambda e: 1.0 / (math.pi * math.sqrt(e * (1.0 - e))),
            integrable_at_zero=False,
            integrable_at_one=False,
        )
        for lab in (T, N):
            cost = rule.cost(lab, 0.3)
            assert math.isfinite(cost) and cost > 0.0
        assert rule.cost(T, 0.0) == math.inf
        assert rule.cost(N, 1.0) == math.inf

    @pytest.mark.parametrize("q", [1e-12, 1e-11, 1e-6, 1.0 - 1e-6])
    def test_arcsine_density_matches_its_closed_form(self, q):
        # Costs near 6e5 at q = 1e-12, so the quadrature must judge its error
        # relative to the cost; the abs term is its own absolute target.
        rule = CustomDensity(
            lambda e: 1.0 / (math.pi * math.sqrt(e * (1.0 - e))),
            integrable_at_zero=False,
            integrable_at_one=False,
        )
        target = 2.0 / math.pi * math.sqrt((1.0 - q) / q)
        nontarget = 2.0 / math.pi * math.sqrt(q / (1.0 - q))
        assert rule.cost(T, q) == pytest.approx(target, rel=1e-9, abs=1e-10)
        assert rule.cost(N, q) == pytest.approx(nontarget, rel=1e-9, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_arcsine_density_near_one_is_a_documented_limit(self):
        # The density sees eta, whose 1 - eta has lost its digits there.
        rule = CustomDensity(
            lambda e: 1.0 / (math.pi * math.sqrt(e * (1.0 - e))),
            integrable_at_zero=False,
            integrable_at_one=False,
        )
        with pytest.raises(ValueError, match="^density could not be evaluated: ZeroDivisionError"):
            rule.cost(T, 1.0 - 1e-9)
        for q in (1.0 - 1e-9, 1.0 - 1e-10, 1.0 - 1e-11):  # up to 2e-8 relative off
            nontarget = 2.0 / math.pi * math.sqrt(q / (1.0 - q))
            assert rule.cost(N, q) == pytest.approx(nontarget, rel=1e-7)
        with pytest.raises(ValueError, match="^cost quadrature did not converge$"):
            rule.cost(N, 1.0 - 1e-12)

    def test_density_arithmetic_errors_become_value_errors(self):
        # Positive wherever it is defined, but 1/0 at the probe eta = 0.5.
        rule = CustomDensity(
            lambda e: 1.0 / (e - 0.5) ** 2, integrable_at_zero=True, integrable_at_one=True
        )
        with pytest.raises(ValueError):
            rule.cost(T, 0.5)


class TestExpectedCost:
    def test_point_values(self):
        assert expected_cost(Brier(), 0.5, 0.5) == 0.75
        # Zero-probability classes contribute nothing, even at infinite cost.
        assert expected_cost(Logarithmic(), 0.0, 0.0) == 0.0
        assert expected_cost(Logarithmic(), 1.0, 1.0) == 0.0
        assert expected_cost(Logarithmic(), 0.0, 1.0) == math.inf
        with pytest.raises(ValueError):
            expected_cost(Brier(), -0.1, 0.5)

    @pytest.mark.parametrize("rule", STANDARD, ids=str)
    def test_proper_on_grid(self, rule):
        # Reporting the true probability is never worse than lying.
        for i in range(21):
            r = i / 20
            base = expected_cost(rule, r, r)
            for j in range(201):
                q = j / 200
                assert expected_cost(rule, r, q) >= base - 1e-12

    @pytest.mark.parametrize("rule", [Logarithmic(), Brier()], ids=str)
    def test_strictly_proper_rules_punish_every_lie(self, rule):
        for i in range(21):
            r = i / 20
            base = expected_cost(rule, r, r)
            for j in range(201):
                q = j / 200
                if q != r:
                    assert expected_cost(rule, r, q) > base

    @pytest.mark.parametrize("rule", STANDARD, ids=str)
    def test_expected_cost_is_quasiconvex_in_q(self, rule):
        # Nonincreasing up to q = r, nondecreasing after.
        for i in range(21):
            r = i / 20
            vals = [expected_cost(rule, r, j / 200) for j in range(201)]
            k = round(r * 200)
            for a, b in zip(vals[: k + 1], vals[1 : k + 1]):
                assert b <= a + 1e-12
            for a, b in zip(vals[k:], vals[k + 1 :]):
                assert b >= a - 1e-12

    def test_brier_grid_minimum_sits_at_r(self):
        grid = [j / 200 for j in range(201)]
        for r in (0.0, 0.3, 0.55, 1.0):
            vals = [expected_cost(Brier(), r, q) for q in grid]
            assert grid[vals.index(min(vals))] == r


class TestObjective:
    def test_simple_sum(self):
        assert objective(Brier(), [T, N], (1.0, 1.0), [0.5, 0.5]) == 1.5

    def test_weighted_sum_matches_manual_total(self):
        labels = [T, N, N, T]
        p = [0.2, 0.4, 0.6, 0.9]
        v1, v2 = 2.5, 0.7
        rule = Brier()
        want = sum(
            (v1 if lab is T else v2) * rule.cost(lab, q) for lab, q in zip(labels, p)
        )
        assert objective(rule, labels, (v1, v2), p) == pytest.approx(want, rel=1e-15)

    def test_saturates_at_infinity(self):
        assert objective(Logarithmic(), [T, N], (1.0, 1.0), [0.0, 0.5]) == math.inf
        # Counted: the value 0.0 of a block with no targets has an infinite
        # target cost, which counts only when a target holds it.
        q, w = np.array([0.0, 0.5]), WeightPair(1.0, 1.0)
        got = _total_cost(Logarithmic(), w, q, np.array([0, 2]), np.array([3, 1]))
        assert got == objective(Logarithmic(), [T, T, N, N, N, N], w, [0.5, 0.5, 0, 0, 0, 0.5])
        assert math.isfinite(got)
        assert _total_cost(Logarithmic(), w, q, np.array([1, 2]), np.array([3, 1])) == math.inf

    def test_overflowing_total_saturates_at_infinity(self):
        # Each term is finite; only their sum overflows.
        assert objective(Logarithmic(), [T, N], (1.7e308, 1.7e308), [0.5, 0.5]) == math.inf
        # Counted: 2 + 3 rows overflow, 1 row does not.
        q, w = np.array([0.5]), WeightPair(1.7e308, 1.7e308)
        assert _total_cost(Brier(), w, q, np.array([2]), np.array([3])) == math.inf
        assert _total_cost(Brier(), w, q, np.array([1]), np.array([0])) == 1.7e308 * 0.75

    @pytest.mark.parametrize(
        "term,count,total",
        [
            (8.98846567431158e307, 1, 8.98846567431158e307),  # 2**1023
            (8.98846567431158e307, 2, math.inf),
            (5e-324, 10**6, 10**6 * 5e-324),  # an exact subnormal
            (0.1, 10**6 - 1, None),
        ],
    )
    def test_counted_terms_sum_as_the_expanded_rows(self, term, count, total):
        # A term t counted k times enters the sum as t * 2**i per set bit i
        # of k: 2**1023 twice overflows, 5e-324 a million times stays exact.
        class Unit(ScoringRule):
            def _costs(self, q, target):
                return np.ones(q.shape)

        w, q = WeightPair(term, 1.0), np.array([0.5])
        got = _total_cost(Unit(), w, q, np.array([count]), np.array([0]))
        try:  # the expanded rows, one term each
            want = math.fsum([term * 1.0] * count)
        except OverflowError:
            want = math.inf
        assert repr(got) == repr(want)
        assert total is None or got == total

    def test_total_does_not_depend_on_trial_order(self):
        rng = random.Random(4)
        rows = [(T if rng.random() < 0.3 else N, rng.uniform(0.01, 0.99)) for _ in range(2000)]
        totals = set()
        for _ in range(5):
            rng.shuffle(rows)
            labels, p = zip(*rows)
            totals.add(objective(Logarithmic(), labels, (2.5, 0.7), p))
        assert len(totals) == 1

    def test_length_mismatch_rejected(self):
        # Values that are not one column of the labels' length, named by shape.
        for p, shape in (([0.5], "(1,)"), ([[0.5], [0.5]], "(2, 1)"), (0.5, "()")):
            with pytest.raises(ValueError, match=re.escape(f"values of shape {shape} do not")):
                objective(Brier(), [T, N], (1.0, 1.0), p)

    def test_first_bad_probability_in_row_order_is_named(self):
        for p in ([0.5, 1.5, math.nan], np.array([0.5, 1.5, math.nan])):
            with pytest.raises(ValueError, match=r"^probability 1\.5 outside \[0, 1\]$"):
                objective(Brier(), [T, N, T], (1.0, 1.0), p)
        with pytest.raises(ValueError, match=r"^probability nan outside \[0, 1\]$"):
            objective(Brier(), [T, N, T], (1.0, 1.0), [0.5, math.nan, -0.5])

    def test_labels_that_are_not_labels_rejected(self):
        with pytest.raises(TypeError, match="label must be a Label, got 'nontarget'"):
            objective(Brier(), [T, "nontarget"], (1.0, 1.0), [0.5, 0.5])
        with pytest.raises(TypeError, match="label must be a Label, got 'target'"):
            Brier().cost("target", 0.5)

    def test_a_class_with_no_rows_evaluates_no_cost(self):
        class Recording(ScoringRule):
            def __init__(self):
                self.calls = []

            def _costs(self, q, target):
                self.calls.append((target, q.tolist()))
                return np.ones(q.shape)

        rule = Recording()
        assert objective(rule, [T, T], (2.0, 1.0), [0.25, 0.5]) == 4.0
        assert rule.calls == [(True, [0.25, 0.5])]
        assert objective(rule, [], (1.0, 1.0), []) == 0.0
        assert len(rule.calls) == 1
        # The density is validated on first use only, and here there is none.
        unnormalized = CustomDensity(lambda e: 2.0, False, False)
        assert objective(unnormalized, [], (1.0, 1.0), []) == 0.0
        # Counted values: a class whose counts are all 0 evaluates no cost,
        # and a value counted 0 times is not evaluated either.
        w = WeightPair(2.0, 1.0)
        q = np.array([0.25, 0.5])
        assert _total_cost(rule, w, q, np.array([3, 0]), np.array([0, 0])) == 6.0
        assert rule.calls[1:] == [(True, [0.25])]
        assert _total_cost(unnormalized, w, q, np.array([0, 0]), np.array([0, 0])) == 0.0

    @pytest.mark.parametrize("rule", [Logarithmic(), Brier()], ids=str)
    def test_items_are_priced_a_slice_at_a_time(self, rule):
        # 1e6 distinct items, a tenth of them targets: each class's terms are
        # made a slice of items at a time as fsum reads them, so no array of
        # all terms is held, and the total is the fsum of all terms at once.
        rng = np.random.default_rng(11)
        q = np.sort(rng.random(10**6))
        m = rng.random(q.size) < 0.1
        n = ~m
        w = WeightPair(0.3, 7.0)
        tracemalloc.start()
        try:
            got = _total_cost(rule, w, q, m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = math.fsum(np.concatenate([0.3 * rule._costs(q[m], True), 7.0 * rule._costs(q[n], False)]))
        assert repr(got) == repr(want)
        assert peak <= 4 * q.size, f"{peak / q.size:.2f} B an item"
        # Counts of 0 to 5 across the slices sum as the rows they count.
        k1, k2 = rng.integers(0, 6, q.size), rng.integers(0, 6, q.size)
        want = math.fsum(np.concatenate([np.repeat(0.3 * rule._costs(q, True), k1),
                                         np.repeat(7.0 * rule._costs(q, False), k2)]))
        assert repr(_total_cost(rule, w, q, k1, k2)) == repr(want)


def _reference_cost(rule, label, q):
    """The closed-form rules' costs, one probability at a time, written as
    scalar formulas independently of ScoringRule._costs."""
    if isinstance(rule, Logarithmic):
        if label is T:
            return math.inf if q == 0.0 else -math.log(q)
        return math.inf if q == 1.0 else -math.log(1.0 - q)
    if isinstance(rule, Brier):
        if label is T:
            d = 1.0 - q
            return 3.0 * d * d
        return 3.0 * q * q
    if isinstance(rule, CostAt):
        t = rule.threshold
        if label is T:
            return 1.0 / t if q < t else 0.0
        return 1.0 / (1.0 - t) if q >= t else 0.0
    s = 0.0
    for a, t in rule.components:
        if label is T and q < t:
            s += a * (1.0 / t)
        elif label is N and q >= t:
            s += a * (1.0 / (1.0 - t))
    return s


_thresholds = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _mixtures(draw):
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
    ts = draw(st.lists(_thresholds, min_size=len(raw), max_size=len(raw)))
    total = math.fsum(raw)
    return DiracMixture(tuple((a / total, t) for a, t in zip(raw, ts)))


_rules = st.one_of(st.just(Logarithmic()), st.just(Brier()), _thresholds.map(CostAt), _mixtures())


def _probabilities(rule):
    """[0, 1], its ends and edge values, and each threshold with its neighbours."""
    if isinstance(rule, CostAt):
        ts = [rule.threshold]
    else:
        ts = [t for _, t in getattr(rule, "components", ())]
    edges = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
    edges += [x for t in ts for x in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0))]
    uniform = st.integers(0, 2**53).map(lambda k: k / 2**53)
    return st.one_of(st.floats(0.0, 1.0), uniform, st.sampled_from(edges))


class TestAgainstScalarReference:
    @given(rule=_rules, data=st.data())
    def test_costs_match_bit_for_bit(self, rule, data):
        qs = data.draw(st.lists(_probabilities(rule), min_size=1, max_size=30))
        for target, label in ((True, T), (False, N)):
            want = [repr(_reference_cost(rule, label, q)) for q in qs]
            assert [repr(rule.cost(label, q)) for q in qs] == want
            assert list(map(repr, rule._costs(np.array(qs), target).tolist())) == want

    @given(rule=_rules, data=st.data())
    def test_objective_matches_the_exactly_rounded_reference_sum(self, rule, data):
        rows = data.draw(st.lists(st.tuples(st.sampled_from([T, N]), _probabilities(rule))))
        v1, v2 = data.draw(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)))
        labels = [lab for lab, _ in rows]
        qs = [q for _, q in rows]
        terms = [(v1 if lab is T else v2) * _reference_cost(rule, lab, q) for lab, q in rows]
        try:
            want = math.fsum(terms)
        except OverflowError:
            want = math.inf
        assert repr(objective(rule, labels, (v1, v2), qs)) == repr(want)
        assert repr(objective(rule, labels, (v1, v2), np.array(qs))) == repr(want)

    @given(rule=_rules, data=st.data())
    def test_objective_of_repeated_values_matches_the_per_row_sum(self, rule, data):
        # At most five values, so that rows share them, drawn among the edges
        # (both zeros, 5e-324, each threshold); weights up to 1.7e308, where
        # a sum overflows.
        pool = data.draw(st.lists(_probabilities(rule), min_size=1, max_size=5))
        rows = data.draw(st.lists(st.tuples(st.sampled_from([T, N]), st.sampled_from(pool))))
        v1, v2 = data.draw(st.tuples(st.floats(1e-3, 1.7e308), st.floats(1e-3, 1.7e308)))
        terms = [(v1 if lab is T else v2) * _reference_cost(rule, lab, q) for lab, q in rows]
        try:
            want = math.fsum(terms)
        except OverflowError:
            want = math.inf
        labels = [lab for lab, _ in rows]
        assert repr(objective(rule, labels, (v1, v2), [q for _, q in rows])) == repr(want)

    @pytest.mark.parametrize("rule", STANDARD, ids=str)
    def test_costs_match_on_a_seeded_sweep(self, rule):
        # Enough values that a last-bit difference (np.log against
        # math.log, say) shows up on some of them.
        q = np.random.default_rng(5).uniform(size=20_000)
        for target, label in ((True, T), (False, N)):
            want = [repr(_reference_cost(rule, label, x)) for x in q.tolist()]
            assert list(map(repr, rule._costs(q, target).tolist())) == want


class TestParse:
    def test_named_rules(self):
        assert parse_rule("log") == Logarithmic()
        assert parse_rule(" brier ") == Brier()
        assert parse_rule("cost@0.37") == CostAt(0.37)
        assert parse_rule("mix(0.5@0.21,0.5@0.68)") == DiracMixture(((0.5, 0.21), (0.5, 0.68)))

    def test_round_trips_through_str(self):
        for rule in STANDARD:
            assert parse_rule(str(rule)) == rule

    @pytest.mark.parametrize(
        "bad",
        ["", "foo", "cost@", "cost@x", "cost@1.5", "mix()", "mix(0.5@0.2)", "mix(a@b)"],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)
