"""Release acceptance suite.

Eight criteria, each with a pinned tolerance, each printing one PASS/FAIL
line (run with `pytest -s` to see the lines as they happen).  These are
intentionally heavier than the unit tests: exhaustive enumeration, large
random sweeps, timing, and a full command-line round trip.
"""

import itertools
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from pavcal import (
    Brier,
    CostAt,
    CustomDensity,
    DiracMixture,
    Label,
    Logarithmic,
    Trial,
    WeightPair,
    apply_map,
    build_map,
    CalibrationMap,
    expected_cost,
    grid_minimizer,
    llr_calibrate,
    logit,
    maxmin_oracle,
    objective,
    pav_fit,
    pav_posteriors,
    weights_from_prior,
)

T = Label.TARGET
N = Label.NONTARGET

RULES = [
    Logarithmic(),
    Brier(),
    CostAt(0.37),
    DiracMixture(((0.5, 0.21), (0.5, 0.68))),
]
WEIGHT_PAIRS = [(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)]


SUMMARY_LINES = []


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    SUMMARY_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_equivalence_exhaustive():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for v1, v2 in WEIGHT_PAIRS:
        w = WeightPair(v1, v2)
        for size in range(1, 11):
            for labels in itertools.product((T, N), repeat=size):
                got = pav_posteriors(labels, w)
                want = maxmin_oracle(labels, w)
                worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
                cases += 1
    took = time.perf_counter() - t0
    ok = worst <= 1e-12 and took < 10.0
    report(1, "oracle-equivalence", ok, f"{cases} cases, max dev {worst:.2e}, {took:.1f}s")


def _vector_costs(rule, Q):
    """Vectorized closed-form costs, (target, nontarget), elementwise in Q."""
    if isinstance(rule, Logarithmic):
        with np.errstate(divide="ignore"):
            return -np.log(Q), -np.log(1.0 - Q)
    if isinstance(rule, Brier):
        return 3.0 * (1.0 - Q) ** 2, 3.0 * Q**2
    if isinstance(rule, CostAt):
        t = rule.threshold
        return (
            np.where(Q < t, 1.0 / t, 0.0),
            np.where(Q >= t, 1.0 / (1.0 - t), 0.0),
        )
    if isinstance(rule, DiracMixture):
        c1 = np.zeros_like(Q)
        c2 = np.zeros_like(Q)
        for a, t in rule.components:
            c1 += np.where(Q < t, a / t, 0.0)
            c2 += np.where(Q >= t, a / (1.0 - t), 0.0)
        return c1, c2
    raise AssertionError(rule)


def test_criterion_2_simultaneous_optimality():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    nprng = np.random.default_rng(1001)
    worst = -math.inf

    # Sanity-tie the vectorized candidate scorer to the scalar objective.
    labels0 = [T if rng.random() < 0.5 else N for _ in range(50)]
    flags0 = np.array([lab is T for lab in labels0])
    probe = np.sort(nprng.uniform(size=(5, 50)), axis=1)
    for rule in RULES:
        c1, c2 = _vector_costs(rule, probe)
        wvec = np.where(flags0, 2.5, 0.7)
        batch = (wvec * np.where(flags0, c1, c2)).sum(axis=1)
        for row, got in zip(probe, batch):
            want = objective(rule, labels0, (2.5, 0.7), row.tolist())
            assert got == pytest.approx(want, rel=1e-12)

    for _ in range(200):
        labels = [T if rng.random() < 0.5 else N for _ in range(50)]
        flags = np.array([lab is T for lab in labels])
        v1 = math.exp(rng.uniform(-1.5, 1.5))
        v2 = math.exp(rng.uniform(-1.5, 1.5))
        wvec = np.where(flags, v1, v2)
        fit = pav_posteriors(labels, (v1, v2))
        cand = np.sort(nprng.uniform(size=(1000, 50)), axis=1)
        for rule in RULES:
            fit_obj = objective(rule, labels, (v1, v2), fit)
            c1, c2 = _vector_costs(rule, cand)
            best = float((wvec * np.where(flags, c1, c2)).sum(axis=1).min())
            worst = max(worst, fit_obj - best)
    random_ok = worst <= 1e-9

    # Exhaustive grid cross-check on small instances.
    grid_worst = -math.inf
    for rule in RULES:
        for size in (3, 4, 5, 6):
            labels = [T if rng.random() < 0.5 else N for _ in range(size)]
            wpair = (math.exp(rng.uniform(-1.0, 1.0)), 1.0)
            fit = pav_posteriors(labels, wpair)
            fit_obj = objective(rule, labels, wpair, fit)
            grid_sol = grid_minimizer(rule, labels, wpair, 21)
            grid_obj = objective(rule, labels, wpair, grid_sol)
            # Slack: what the objective loses by rounding the true fit to
            # the same grid (a grid-feasible witness near the optimum).
            rounded = [round(p * 20) / 20 for p in fit]
            slack_obj = objective(rule, labels, wpair, rounded)
            if math.isinf(grid_obj) and math.isinf(slack_obj):
                excesses = (fit_obj - grid_obj,)
            else:
                excesses = (fit_obj - grid_obj, grid_obj - slack_obj)
            grid_worst = max(grid_worst, *excesses)
    grid_ok = grid_worst <= 1e-12

    took = time.perf_counter() - t0
    ok = random_ok and grid_ok and took < 60.0
    report(
        2,
        "simultaneous-optimality",
        ok,
        f"200x1000 candidates max excess {worst:.2e}, grid max excess {grid_worst:.2e}, {took:.1f}s",
    )


def test_criterion_3_properness_and_quasiconvexity():
    worst_proper = -math.inf
    worst_leg = -math.inf
    for rule in RULES:
        for i in range(21):
            r = i / 20
            vals = [expected_cost(rule, r, j / 200) for j in range(201)]
            base = vals[round(r * 200)]
            for v in vals:
                if not math.isinf(v):
                    worst_proper = max(worst_proper, base - v)
            k = round(r * 200)
            for a, b in zip(vals[: k + 1], vals[1 : k + 1]):
                if not (math.isinf(a) and math.isinf(b)):
                    worst_leg = max(worst_leg, b - a)
            for a, b in zip(vals[k:], vals[k + 1 :]):
                if not (math.isinf(a) and math.isinf(b)):
                    worst_leg = max(worst_leg, a - b)
    ok = worst_proper <= 1e-12 and worst_leg <= 1e-12
    report(
        3,
        "properness-quasiconvexity",
        ok,
        f"max properness violation {worst_proper:.2e}, max leg violation {worst_leg:.2e}",
    )


def test_criterion_4_prior_independence():
    priors = (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0)
    rng = random.Random(404)
    worst = 0.0
    bad_inf = 0
    for _ in range(100):
        labels = [T if rng.random() < 0.5 else N for _ in range(40)]
        if not (any(l is T for l in labels) and any(l is N for l in labels)):
            labels[0], labels[-1] = T, N
        t1 = sum(1 for l in labels if l is T)
        ref = llr_calibrate(labels).w
        for pi in priors:
            p = pav_posteriors(labels, weights_from_prior(pi, t1, len(labels) - t1))
            for pt, want in zip(p, ref):
                got = logit(pt) - pi
                if math.isinf(got) or math.isinf(want):
                    bad_inf += got != want
                else:
                    worst = max(worst, abs(got - want))
    ok = worst <= 1e-9 and bad_inf == 0
    report(
        4,
        "prior-independence",
        ok,
        f"100 instances x {len(priors)} priors, max dev {worst:.2e}, inf mismatches {bad_inf}",
    )


def test_criterion_5_closed_forms_match_quadrature():
    quad_log = CustomDensity(lambda e: 1.0, integrable_at_zero=False, integrable_at_one=False)
    quad_brier = CustomDensity(
        lambda e: 6.0 * e * (1.0 - e), integrable_at_zero=True, integrable_at_one=True
    )
    rng = random.Random(55)
    worst = 0.0
    for _ in range(100):
        lab = T if rng.random() < 0.5 else N
        q = rng.random()
        worst = max(worst, abs(Brier().cost(lab, q) - quad_brier.cost(lab, q)))
        q_safe = rng.uniform(1e-3, 1.0 - 1e-3)
        worst = max(
            worst, abs(Logarithmic().cost(lab, q_safe) - quad_log.cost(lab, q_safe))
        )
    ok = worst <= 1e-9
    report(5, "quadrature-agreement", ok, f"100 points per rule, max dev {worst:.2e}")


def test_criterion_6_near_linear_runtime():
    rng = random.Random(66)
    w = WeightPair(1.0, 1.0)

    def best_of(size, reps=3):
        labels = [T if rng.random() < 0.5 else N for _ in range(size)]
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            pav_fit(labels, w)
            best = min(best, time.perf_counter() - t0)
        return best

    best_of(10_000)  # warm-up
    t_small = best_of(100_000)
    t_big = best_of(1_000_000)
    ratio = t_big / t_small
    ok = ratio <= 15.0 and t_big < 1.0
    report(
        6,
        "near-linear-runtime",
        ok,
        f"T=1e5 {t_small * 1e3:.0f}ms, T=1e6 {t_big * 1e3:.0f}ms, ratio {ratio:.1f}",
    )


def test_criterion_7_map_round_trip_bit_exact():
    rng = random.Random(77)
    probes = [rng.uniform(-6.0, 6.0) for _ in range(1000)]
    checked = 0
    exact = True
    for mode in ("posterior", "llr"):
        for policy in ("step", "linear"):
            trials = [
                Trial(round(rng.uniform(-4, 4), 2), T if rng.random() < 0.5 else N)
                for _ in range(300)
            ]
            trials += [Trial(5.0, T), Trial(-5.0, N)]
            cmap = build_map(trials, (2.5, 0.7), mode=mode, policy=policy)
            back = CalibrationMap.from_text(cmap.to_text())
            exact = exact and back == cmap
            for s in probes:
                a, b = apply_map(cmap, s), apply_map(back, s)
                exact = exact and a == b
                checked += 1
    report(7, "map-round-trip", exact, f"{checked} probe applications bit-identical")


def test_criterion_8_cli_end_to_end(tmp_path):
    rng = random.Random(88)
    scores = sorted(rng.uniform(-10, 10) for _ in range(60))
    labels = [T if rng.random() < (i / 60) * 0.8 + 0.1 else N for i, _ in enumerate(scores)]
    train = tmp_path / "train.csv"
    train.write_text(
        "score,label\n"
        + "".join(
            f"{s!r},{'target' if lab is T else 'nontarget'}\n" for s, lab in zip(scores, labels)
        ),
        encoding="utf-8",
    )
    map_path = tmp_path / "cal.map"
    out_path = tmp_path / "out.csv"

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pavcal", *argv], capture_output=True, text=True
        )

    r_fit = cli("fit", str(train), "--out", str(map_path))
    r_apply = cli("apply", str(map_path), str(train), "--out", str(out_path))
    fit_ok = r_fit.returncode == 0 and r_apply.returncode == 0

    expected = pav_posteriors(labels, (1.0, 1.0))
    got = [float(line.split(",")[1]) for line in out_path.read_text().splitlines()[1:]]
    max_dev = max(abs(a - b) for a, b in zip(got, expected)) if fit_ok else math.inf
    apply_ok = fit_ok and len(got) == len(expected) and max_dev <= 1e-12

    ev_input = tmp_path / "ev.csv"
    ev_input.write_text(
        "score,label,calibrated\n"
        + "".join(
            f"{s!r},{'target' if lab is T else 'nontarget'},{p!r}\n"
            for s, lab, p in zip(scores, labels, expected)
        ),
        encoding="utf-8",
    )
    r_ev = cli("evaluate", str(ev_input), "--calibrated", "calibrated", "--rule", "log")
    ratios = [
        float(line.rpartition("ratio=")[2])
        for line in r_ev.stdout.strip().splitlines()
        if "ratio=" in line
    ]
    ev_ok = r_ev.returncode == 0 and ratios and all(abs(x - 1.0) <= 1e-12 for x in ratios)

    r_sc = cli("selfcheck", "--max-len", "6", "--instances", "5", "--candidates", "50")
    sc_ok = r_sc.returncode == 0

    ok = fit_ok and apply_ok and ev_ok and sc_ok
    report(
        8,
        "cli-end-to-end",
        ok,
        f"apply max dev {max_dev:.2e}, evaluate ratios {ratios}, selfcheck rc {r_sc.returncode}",
    )
