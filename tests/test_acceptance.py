"""Release acceptance suite.

Eight criteria, each with a pinned tolerance, each printing one PASS/FAIL
line (run with `pytest -s` to see the lines as they happen).  These are
intentionally heavier than the unit tests: exhaustive enumeration, large
random sweeps, timing, and a full command-line round trip.  Criteria 1,
2, 4, 6 and 7 are the suites of pavcal.selfcheck, run here at the release
sizes and seeds, through the same run_suite, so a suite that raises
prints a FAIL line naming the exception; `pavcal selfcheck` runs the same
functions at its own, smaller defaults.
"""

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
    expected_cost,
    objective,
    pav_posteriors,
)
from pavcal.selfcheck import (
    DEFAULT_WEIGHT_PAIRS,
    STANDARD_RULES as RULES,
    check_map_round_trip,
    check_optimality,
    check_oracle_equivalence,
    check_performance,
    check_prior_independence,
    run_suite,
)

T = Label.TARGET
N = Label.NONTARGET


SUMMARY_LINES = []


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    SUMMARY_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_equivalence_exhaustive():
    t0 = time.perf_counter()
    ok, detail = run_suite(lambda: check_oracle_equivalence(10, DEFAULT_WEIGHT_PAIRS))
    took = time.perf_counter() - t0
    report(1, "oracle-equivalence", ok and took < 10.0, f"{detail}, {took:.1f}s")


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

    # Tie the package's costs, which the search below scores the fit and
    # the candidates with, to independent closed-form ones.
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

    ok, detail = run_suite(lambda: check_optimality(200, 1000, 1001))
    took = time.perf_counter() - t0
    report(2, "simultaneous-optimality", ok and took < 60.0, f"{detail}, {took:.1f}s")


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
    ok, detail = run_suite(lambda: check_prior_independence(100, 404))
    report(4, "prior-independence", ok, detail)


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
    ok, detail = run_suite(lambda: check_performance(66))
    report(6, "near-linear-runtime", ok, detail)


def test_criterion_7_map_round_trip_bit_exact():
    ok, detail = run_suite(lambda: check_map_round_trip(77))
    report(7, "map-round-trip", ok, detail)


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
