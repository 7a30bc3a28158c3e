"""Built-in verification suites, runnable via the selfcheck subcommand.

Each suite rechecks one advertised property of the package against an
independent reference: the closed-form max-min solution, brute-force
candidate search, prior reweighting, and serialization round trips.
Failures are collected and reported, not raised, so a run always prints
one line per suite.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import Callable, Sequence

from .calmap import CalibrationMap, apply_map, build_map
from .llr import llr_calibrate, logit, weights_from_prior
from .oracle import grid_minimizer, maxmin_oracle
from .pav import pav_fit, pav_posteriors
from .rules import Brier, CostAt, DiracMixture, Logarithmic, objective
from .types import Label, Trial, WeightPair

_T = Label.TARGET
_N = Label.NONTARGET

DEFAULT_WEIGHT_PAIRS = ((1.0, 1.0), (2.5, 0.7), (0.3, 4.0))
STANDARD_RULES = (
    Logarithmic(),
    Brier(),
    CostAt(0.37),
    DiracMixture(((0.5, 0.21), (0.5, 0.68))),
)


def _random_labels(rng: random.Random, size: int, require_both: bool = False) -> list[Label]:
    while True:
        labs = [_T if rng.random() < 0.5 else _N for _ in range(size)]
        if not require_both:
            return labs
        if any(l is _T for l in labs) and any(l is _N for l in labs):
            return labs


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
    return ok, f"{cases} cases, max deviation {worst:.3e}"


def check_optimality(
    instances: int, candidates: int, seed: int, trials_per_instance: int = 50
) -> tuple[bool, str]:
    """Random search never beats the fit, for all standard rules at once."""
    rng = random.Random(seed)
    worst = -math.inf
    for _ in range(instances):
        labs = _random_labels(rng, trials_per_instance)
        w = WeightPair(math.exp(rng.uniform(-1.6, 1.6)), math.exp(rng.uniform(-1.6, 1.6)))
        fit = pav_posteriors(labs, w)
        cand = [sorted(rng.random() for _ in labs) for _ in range(candidates)]
        for rule in STANDARD_RULES:
            fit_obj = objective(rule, labs, w, fit)
            best = min(objective(rule, labs, w, c) for c in cand)
            worst = max(worst, fit_obj - best)
    ok = worst <= 1e-9
    return ok, f"{instances} instances x {candidates} candidates, max excess {worst:.3e}"


def check_grid_optimality(seed: int) -> tuple[bool, str]:
    """Tiny instances: the fit is no worse than the exhaustive grid answer."""
    rng = random.Random(seed)
    worst = -math.inf
    cases = 0
    for rule in STANDARD_RULES:
        for size in (3, 5, 6):
            labs = _random_labels(rng, size)
            w = WeightPair(math.exp(rng.uniform(-1.0, 1.0)), 1.0)
            fit_obj = objective(rule, labs, w, pav_posteriors(labs, w))
            grid_obj = objective(rule, labs, w, grid_minimizer(rule, labs, w, 21))
            if math.isinf(grid_obj) and math.isinf(fit_obj):
                excess = 0.0
            else:
                excess = fit_obj - grid_obj
            worst = max(worst, excess)
            cases += 1
    ok = worst <= 1e-12
    return ok, f"{cases} cases, max excess over grid {worst:.3e}"


def check_prior_independence(instances: int, seed: int) -> tuple[bool, str]:
    """logit(fit) - prior is one function, whatever prior reweights the fit."""
    rng = random.Random(seed)
    priors = (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0)
    worst = 0.0
    for _ in range(instances):
        labs = _random_labels(rng, 40, require_both=True)
        t1 = sum(1 for l in labs if l is _T)
        t2 = len(labs) - t1
        ref = llr_calibrate(labs).w
        for pi in priors:
            p = pav_posteriors(labs, weights_from_prior(pi, t1, t2))
            for a, b in zip((logit(x) - pi for x in p), ref):
                if math.isinf(a) or math.isinf(b):
                    if a != b:
                        return False, f"infinity mismatch {a!r} vs {b!r}"
                else:
                    worst = max(worst, abs(a - b))
    ok = worst <= 1e-9
    return ok, f"{instances} instances x {len(priors)} priors, max deviation {worst:.3e}"


def check_map_round_trip(seed: int) -> tuple[bool, str]:
    """serialize -> parse -> apply is bit-identical to the original map."""
    rng = random.Random(seed)
    probes = [rng.uniform(-4.0, 4.0) for _ in range(250)]
    cases = 0
    for mode in ("posterior", "llr"):
        for policy in ("step", "linear"):
            trials = [
                Trial(round(rng.uniform(-3.0, 3.0), 1), _T if rng.random() < 0.5 else _N)
                for _ in range(80)
            ]
            trials += [Trial(0.0, _T), Trial(0.0, _N)]  # guaranteed tie
            cmap = build_map(trials, (1.0, 1.0), mode=mode, policy=policy)
            back = CalibrationMap.from_text(cmap.to_text())
            if back != cmap:
                return False, f"{mode}/{policy}: reparsed map differs"
            for s in probes:
                a, b = apply_map(cmap, s), apply_map(back, s)
                if a != b:
                    return False, f"{mode}/{policy}: value changed at score {s!r}"
                cases += 1
    return True, f"{cases} probes bit-identical across modes and policies"


def check_performance(seed: int) -> tuple[bool, str]:
    """Fit time is linear-ish in T and absolutely small at T = 1e6."""
    rng = random.Random(seed)
    w = WeightPair(1.0, 1.0)

    def best_time(size: int) -> float:
        labs = [_T if rng.random() < 0.5 else _N for _ in range(size)]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            pav_fit(labs, w)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = best_time(100_000)
    t_big = best_time(1_000_000)
    ratio = t_big / t_small
    ok = ratio <= 15.0 and t_big < 1.0
    return ok, f"T=1e5: {t_small:.3f}s, T=1e6: {t_big:.3f}s, ratio {ratio:.1f}"


def run_selfcheck(
    max_len: int = 10,
    weight_pairs: Sequence[tuple[float, float]] = DEFAULT_WEIGHT_PAIRS,
    instances: int = 25,
    candidates: int = 100,
    seed: int = 20260819,
    perf: bool = False,
    emit: Callable[[str], None] = print,
) -> bool:
    """Run all suites, emit one line per suite, return overall pass."""
    suites: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("oracle-equivalence", lambda: check_oracle_equivalence(max_len, weight_pairs)),
        ("optimality", lambda: check_optimality(instances, candidates, seed)),
        ("grid-optimality", lambda: check_grid_optimality(seed + 1)),
        ("prior-independence", lambda: check_prior_independence(instances, seed + 2)),
        ("map-round-trip", lambda: check_map_round_trip(seed + 3)),
    ]
    if perf:
        suites.append(("performance", lambda: check_performance(seed + 4)))
    all_ok = True
    for name, fn in suites:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    emit(f"selfcheck: {'PASS' if all_ok else 'FAIL'}")
    return all_ok


__all__ = ["run_selfcheck", "DEFAULT_WEIGHT_PAIRS", "STANDARD_RULES"]
