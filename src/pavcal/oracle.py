"""Independent reference solutions used to cross-check the PAV fit.

maxmin_oracle evaluates the classic closed form of the monotone solution:

    p_t = max over i <= t of ( min over j >= t of r(i, j) )
        = min over j >= t of ( max over i <= t of r(i, j) )

where r(i, j) is the weighted target proportion of trials i..j.  Both
nestings are computed and required to agree; the first is returned.  The
sweep is O(T^2) time with prefix count arrays and O(T) extra memory per
row, intended for T up to a couple of thousand.

grid_minimizer is a brute-force check of a different kind: it enumerates
every nondecreasing sequence over a uniform probability grid and returns
one with minimal objective for a single scoring rule.  Deliberately dumb
and exponential, so keep T and the grid tiny.
"""

from __future__ import annotations

import itertools

import numpy as np

from .pav import Labels, _target_flags
from .rules import ScoringRule
from .types import WeightPair, as_weights

_AGREE_TOL = 1e-12


def maxmin_oracle(labels: Labels, weights: WeightPair | tuple[float, float]) -> list[float]:
    """Closed-form monotone solution, one value per trial.

    Raises TypeError on a label that is not a Label, ValueError on an
    empty sequence, or if the max-min and min-max nestings disagree
    beyond 1e-12 (which would indicate a broken build).
    """
    w = as_weights(weights)
    flags = _target_flags(labels)
    T = flags.size
    if T == 0:
        raise ValueError("maxmin_oracle needs at least one trial")
    # M[i] / N[i]: targets / non-targets among the first i trials.
    M = np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))
    N = np.concatenate(([0], np.cumsum(~flags, dtype=np.int64)))
    v1, v2 = w.v1, w.v2

    p = np.full(T, -np.inf)
    for i in range(1, T + 1):
        a = (M[i:] - M[i - 1]) * v1          # r(i, j) for j = i..T
        r = a / (a + (N[i:] - N[i - 1]) * v2)
        suffix_min = np.minimum.accumulate(r[::-1])[::-1]
        np.maximum(p[i - 1 :], suffix_min, out=p[i - 1 :])

    q = np.full(T, np.inf)
    for j in range(1, T + 1):
        a = (M[j] - M[:j]) * v1              # r(i, j) for i = 1..j
        r = a / (a + (N[j] - N[:j]) * v2)
        prefix_max = np.maximum.accumulate(r)
        np.minimum(q[:j], prefix_max, out=q[:j])

    gap = float(np.max(np.abs(p - q)))
    if not gap <= _AGREE_TOL:
        raise ValueError(f"max-min and min-max forms disagree by {gap!r}")
    return p.tolist()


def grid_minimizer(
    rule: ScoringRule,
    labels: Labels,
    weights: WeightPair | tuple[float, float],
    grid_size: int,
) -> list[float]:
    """Exhaustive objective minimizer over nondecreasing grid sequences.

    The grid is {k / (grid_size - 1)}.  Refuses more than 8 labels or
    grid_size > 21; the enumeration is combinatorial.  Ties are broken
    toward the lexicographically first sequence.
    """
    flags = _target_flags(labels)
    T = flags.size
    if T == 0:
        raise ValueError("grid_minimizer needs at least one trial")
    if T > 8:
        raise ValueError(f"grid_minimizer refuses T={T} (max 8)")
    if not 2 <= grid_size <= 21:
        raise ValueError(f"grid_minimizer refuses grid_size={grid_size} (range 2..21)")
    w = as_weights(weights)
    grid = [k / (grid_size - 1) for k in range(grid_size)]
    # Per-trial weighted cost of placing that trial at each grid value.
    pairs = ((True, w.v1), (False, w.v2))
    side = {target: (v * rule._costs(np.array(grid), target)).tolist() for target, v in pairs}
    table = [side[flag] for flag in flags.tolist()]
    best: tuple[int, ...] | None = None
    best_obj = None
    for combo in itertools.combinations_with_replacement(range(grid_size), T):
        s = 0.0
        for t in range(T):
            s += table[t][combo[t]]
        if best_obj is None or s < best_obj:
            best, best_obj = combo, s
    assert best is not None
    return [grid[k] for k in best]


__all__ = ["maxmin_oracle", "grid_minimizer"]
