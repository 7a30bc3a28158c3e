"""Built-in verification suites, runnable via the selfcheck subcommand.

Each suite is one acceptance criterion, checked against an independent
reference: oracle-equivalence is criterion 1, optimality 2,
prior-independence 4, performance 6 (with --perf only) and map-round-trip
7.  tests/test_acceptance.py runs these functions at the release sizes
and seeds; `pavcal selfcheck` runs them with fewer random instances and
candidates.  Both run each suite through run_suite, which reports a
suite that raises as failed, so every suite always prints its line.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import Callable, Sequence

import numpy as np

from .calmap import MODES, POLICIES, CalibrationMap, apply_map, build_map
from .llr import llr_calibrate, logit, weights_from_prior
from .oracle import grid_minimizer, maxmin_oracle
from .pav import _target_flags, pav_fit, pav_posteriors
from .rules import Brier, CostAt, DiracMixture, Logarithmic, objective
from .types import Label, WeightPair

_T = Label.TARGET
_N = Label.NONTARGET

DEFAULT_WEIGHT_PAIRS = ((1.0, 1.0), (2.5, 0.7), (0.3, 4.0))
STANDARD_RULES = (
    Logarithmic(),
    Brier(),
    CostAt(0.37),
    DiracMixture(((0.5, 0.21), (0.5, 0.68))),
)


def _random_labels(rng: random.Random, size: int) -> list[Label]:
    return [_T if rng.random() < 0.5 else _N for _ in range(size)]


def check_oracle_equivalence(
    max_len: int, weight_pairs: Sequence[tuple[float, float]]
) -> tuple[bool, str]:
    """Exhaustive: the PAV fit equals the closed form for every sequence."""
    cases = 0
    worst = 0.0
    for v1, v2 in weight_pairs:
        w = WeightPair(v1, v2)
        for size in range(1, max_len + 1):
            for labs in itertools.product((_T, _N), repeat=size):
                got = pav_posteriors(labs, w)
                want = maxmin_oracle(labs, w)
                worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
                cases += 1
    ok = worst <= 1e-12
    return ok, f"{cases} cases, max dev {worst:.2e}"


def check_optimality(instances: int, candidates: int, seed: int) -> tuple[bool, str]:
    """No random monotone candidate and no grid sequence beats the fit, for
    all standard rules at once."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(instances):
        labs = _random_labels(rng, 50)
        flags = _target_flags(labs)
        w = WeightPair(math.exp(rng.uniform(-1.5, 1.5)), math.exp(rng.uniform(-1.5, 1.5)))
        fit = pav_posteriors(labs, w)
        cand = np.sort(nprng.uniform(size=(candidates, len(labs))), axis=1)
        sides = ((cand[:, flags], True, w.v1), (cand[:, ~flags], False, w.v2))
        for rule in STANDARD_RULES:
            # Every candidate's objective at once: one _costs call per class.
            totals = sum(
                v * rule._costs(q.ravel(), target).reshape(q.shape).sum(axis=1)
                for q, target, v in sides
            )
            worst = max(worst, objective(rule, labs, w, fit) - float(totals.min()))

    grid_worst = -math.inf
    for rule in STANDARD_RULES:
        for size in (3, 4, 5, 6):
            labs = _random_labels(rng, size)
            w = WeightPair(math.exp(rng.uniform(-1.0, 1.0)), 1.0)
            fit = pav_posteriors(labs, w)
            grid_obj = objective(rule, labs, w, grid_minimizer(rule, labs, w, 21))
            grid_worst = max(grid_worst, objective(rule, labs, w, fit) - grid_obj)
            # Slack: the fit rounded to the same grid is a grid-feasible
            # witness near the optimum, which the grid answer must not lose to.
            slack_obj = objective(rule, labs, w, [round(p * 20) / 20 for p in fit])
            if not (math.isinf(grid_obj) and math.isinf(slack_obj)):
                grid_worst = max(grid_worst, grid_obj - slack_obj)
    ok = worst <= 1e-9 and grid_worst <= 1e-12
    return ok, (
        f"{instances}x{candidates} candidates max excess {worst:.2e}, "
        f"grid max excess {grid_worst:.2e}"
    )


def check_prior_independence(instances: int, seed: int) -> tuple[bool, str]:
    """logit(fit) - prior is one function, whatever prior reweights the fit."""
    rng = random.Random(seed)
    priors = (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0)
    worst = 0.0
    bad_inf = 0
    for _ in range(instances):
        labs = _random_labels(rng, 40)
        if not (_T in labs and _N in labs):
            labs[0], labs[-1] = _T, _N
        t1 = labs.count(_T)
        ref = llr_calibrate(labs).w
        for pi in priors:
            p = pav_posteriors(labs, weights_from_prior(pi, t1, len(labs) - t1))
            for pt, want in zip(p, ref):
                got = logit(pt) - pi
                if math.isinf(got) or math.isinf(want):
                    bad_inf += got != want
                else:
                    worst = max(worst, abs(got - want))
    ok = worst <= 1e-9 and bad_inf == 0
    return ok, (
        f"{instances} instances x {len(priors)} priors, max dev {worst:.2e}, "
        f"inf mismatches {bad_inf}"
    )


def check_map_round_trip(seed: int) -> tuple[bool, str]:
    """serialize -> parse -> apply is bit-identical to the original map."""
    rng = random.Random(seed)
    probes = [rng.uniform(-6.0, 6.0) for _ in range(1000)]
    for mode in MODES:
        for policy in POLICIES:
            trials = [
                (round(rng.uniform(-4.0, 4.0), 2), _T if rng.random() < 0.5 else _N)
                for _ in range(300)
            ]
            trials += [(5.0, _T), (-5.0, _N)]  # both classes, one at each end
            scores, labels = zip(*trials)
            cmap = build_map(scores, labels, (2.5, 0.7), mode=mode, policy=policy)
            back = CalibrationMap.from_text(cmap.to_text())
            if back != cmap:
                return False, f"{mode}/{policy}: reparsed map differs"
            for s in probes:
                if apply_map(cmap, s) != apply_map(back, s):
                    return False, f"{mode}/{policy}: value changed at score {s!r}"
    return True, f"{len(MODES) * len(POLICIES) * len(probes)} probe applications bit-identical"


def check_performance(seed: int) -> tuple[bool, str]:
    """Fit time is linear-ish in T and absolutely small at T = 1e6."""
    rng = random.Random(seed)
    w = WeightPair(1.0, 1.0)

    def best_time(size: int) -> float:
        labs = _random_labels(rng, size)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            pav_fit(labs, w)
            best = min(best, time.perf_counter() - t0)
        return best

    best_time(10_000)  # warm-up
    t_small = best_time(100_000)
    t_big = best_time(1_000_000)
    ratio = t_big / t_small
    ok = ratio <= 15.0 and t_big < 1.0
    return ok, f"T=1e5 {t_small * 1e3:.0f}ms, T=1e6 {t_big * 1e3:.0f}ms, ratio {ratio:.1f}"


def run_suite(fn: Callable[[], tuple[bool, str]]) -> tuple[bool, str]:
    """fn's (ok, detail), or a failure naming the exception if fn raises."""
    try:
        return fn()
    except Exception as exc:  # a crashed suite is a failed suite
        return False, f"raised {type(exc).__name__}: {exc}"


def run_selfcheck(
    max_len: int = 10,
    weight_pairs: Sequence[tuple[float, float]] = DEFAULT_WEIGHT_PAIRS,
    instances: int = 25,
    candidates: int = 100,
    seed: int = 20260819,
    perf: bool = False,
) -> bool:
    """Run all suites, print one line per suite, return overall pass."""
    suites: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("oracle-equivalence", lambda: check_oracle_equivalence(max_len, weight_pairs)),
        ("optimality", lambda: check_optimality(instances, candidates, seed)),
        ("prior-independence", lambda: check_prior_independence(instances, seed + 1)),
        ("map-round-trip", lambda: check_map_round_trip(seed + 2)),
    ]
    if perf:
        suites.append(("performance", lambda: check_performance(seed + 3)))
    all_ok = True
    for name, fn in suites:
        ok, detail = run_suite(fn)
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"selfcheck: {'PASS' if all_ok else 'FAIL'}")
    return all_ok


__all__ = ["run_selfcheck", "run_suite", "DEFAULT_WEIGHT_PAIRS", "STANDARD_RULES"]
