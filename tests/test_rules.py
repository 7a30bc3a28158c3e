import math
import random

import pytest

from pavcal import (
    Brier,
    CostAt,
    CustomDensity,
    DiracMixture,
    Label,
    Logarithmic,
    expected_cost,
    objective,
    parse_rule,
    rule_cost,
)

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
        assert rule_cost(rule, T, 0.25) == pytest.approx(math.log(4), abs=1e-15)
        assert rule_cost(rule, T, 1.0) == 0.0
        assert rule_cost(rule, T, 0.0) == math.inf
        assert rule_cost(rule, N, 0.0) == 0.0
        assert rule_cost(rule, N, 1.0) == math.inf

    def test_brier(self):
        rule = Brier()
        assert rule_cost(rule, T, 0.25) == 1.6875  # 3 * 0.75**2
        assert rule_cost(rule, N, 0.3) == pytest.approx(0.27, abs=1e-15)
        assert rule_cost(rule, T, 1.0) == 0.0
        assert rule_cost(rule, T, 0.0) == 3.0
        assert rule_cost(rule, N, 1.0) == 3.0

    def test_cost_at(self):
        rule = CostAt(0.5)
        assert rule_cost(rule, T, 0.3) == 2.0
        assert rule_cost(rule, N, 0.3) == 0.0
        assert rule_cost(rule, T, 0.7) == 0.0
        assert rule_cost(rule, N, 0.7) == 2.0
        # A point mass sitting exactly at q charges the non-target side.
        assert rule_cost(rule, T, 0.5) == 0.0
        assert rule_cost(rule, N, 0.5) == 2.0

    def test_cost_at_threshold_must_be_interior(self):
        for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError):
                CostAt(bad)

    def test_probability_domain_enforced(self):
        for rule in STANDARD:
            for bad in (-0.1, 1.1, math.nan, math.inf):
                with pytest.raises(ValueError):
                    rule_cost(rule, T, bad)


class TestDiracMixture:
    def test_cost_is_exact_weighted_sum_of_components(self):
        comps = ((0.5, 0.21), (0.3, 0.5), (0.2, 0.68))
        mix = DiracMixture(comps)
        for q in (0.0, 0.1, 0.21, 0.33, 0.5, 0.68, 0.9, 1.0):
            for lab in (T, N):
                want = 0.0
                for a, t in comps:
                    want += a * rule_cost(CostAt(t), lab, q)
                assert rule_cost(mix, lab, q) == want

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
            assert rule_cost(rule, T, q) == pytest.approx(rule_cost(log, T, q), abs=1e-9)
            assert rule_cost(rule, N, q) == pytest.approx(rule_cost(log, N, q), abs=1e-9)
        assert rule_cost(rule, T, 0.0) == math.inf
        assert rule_cost(rule, N, 1.0) == math.inf

    def test_parabolic_density_reproduces_brier(self):
        rule = CustomDensity(
            lambda e: 6.0 * e * (1.0 - e), integrable_at_zero=True, integrable_at_one=True
        )
        brier = Brier()
        rng = random.Random(8)
        for q in [0.0, 1.0] + [rng.random() for _ in range(25)]:
            assert rule_cost(rule, T, q) == pytest.approx(rule_cost(brier, T, q), abs=1e-9)
            assert rule_cost(rule, N, q) == pytest.approx(rule_cost(brier, N, q), abs=1e-9)

    def test_unnormalized_density_rejected_on_first_use(self):
        rule = CustomDensity(lambda e: 2.0, integrable_at_zero=False, integrable_at_one=False)
        with pytest.raises(ValueError):
            rule_cost(rule, T, 0.5)

    def test_negative_density_rejected_on_first_use(self):
        rule = CustomDensity(lambda e: e - 0.5, integrable_at_zero=True, integrable_at_one=True)
        with pytest.raises(ValueError):
            rule_cost(rule, N, 0.5)

    def test_density_singular_at_both_ends_is_accepted(self):
        # The arcsine density is infinite at 0 and 1 but integrates to 1;
        # rho/eta diverges at 0 and rho/(1-eta) at 1.
        rule = CustomDensity(
            lambda e: 1.0 / (math.pi * math.sqrt(e * (1.0 - e))),
            integrable_at_zero=False,
            integrable_at_one=False,
        )
        for lab in (T, N):
            cost = rule_cost(rule, lab, 0.3)
            assert math.isfinite(cost) and cost > 0.0
        assert rule_cost(rule, T, 0.0) == math.inf
        assert rule_cost(rule, N, 1.0) == math.inf

    def test_density_arithmetic_errors_become_value_errors(self):
        # Positive wherever it is defined, but 1/0 at the probe eta = 0.5.
        rule = CustomDensity(
            lambda e: 1.0 / (e - 0.5) ** 2, integrable_at_zero=True, integrable_at_one=True
        )
        with pytest.raises(ValueError):
            rule_cost(rule, T, 0.5)


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
            (v1 if lab is T else v2) * rule_cost(rule, lab, q) for lab, q in zip(labels, p)
        )
        assert objective(rule, labels, (v1, v2), p) == pytest.approx(want, rel=1e-15)

    def test_saturates_at_infinity(self):
        assert objective(Logarithmic(), [T, N], (1.0, 1.0), [0.0, 0.5]) == math.inf

    def test_overflowing_total_saturates_at_infinity(self):
        # Each term is finite; only their sum overflows.
        assert objective(Logarithmic(), [T, N], (1.7e308, 1.7e308), [0.5, 0.5]) == math.inf

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
        with pytest.raises(ValueError):
            objective(Brier(), [T, N], (1.0, 1.0), [0.5])


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
