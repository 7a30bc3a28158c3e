"""Score-to-value calibration maps: building, applying, serializing.

A map is a sorted list of (score, value) knots produced from a labeled
training set.  Trials are sorted by score, exact score ties are pooled
into single items up front (a function of the score cannot separate
them), and the monotone fit runs over the pooled items.  Every fitted
block then contributes one knot at each end of its score span (a single
knot if the span is one score).  Knot scores strictly increase and knot
values never decrease, with equal values marking the two ends of one
block.

Applying a map:

  step    right-continuous steps: the value of the last knot at or below
          the score.
  linear  piecewise-linear through the knots, which is flat across each
          block's span and ramps across the gap between blocks.  Where a
          gap endpoint is infinite (possible for llr maps) the ramp
          degenerates to a right-continuous step.

Scores outside the knot range clamp to the first / last knot value under
both policies.

Serialized form (UTF-8 text):

    pavcal-map v1 <mode> <policy>
    <score>TAB<value>
    ...

one line per knot, floats written in shortest round-trip form, so parsing
a dump reproduces the map bit for bit.  'inf' / '-inf' values are valid
in llr mode only.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .llr import logit
from .pav import _pool_counts
from .types import Trial, WeightPair, Label, as_weights

MODES = ("posterior", "llr")
POLICIES = ("step", "linear")

_HEADER_TAG = "pavcal-map"
_FORMAT_VERSION = "v1"


@dataclass(frozen=True, slots=True)
class CalibrationMap:
    """Monotone score-to-value map with an application policy."""

    knots: tuple[tuple[float, float], ...]
    mode: str
    policy: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not self.knots:
            raise ValueError("a map needs at least one knot")
        prev_s = -math.inf
        prev_v = -math.inf
        for s, v in self.knots:
            if not math.isfinite(s):
                raise ValueError(f"knot score must be finite, got {s!r}")
            if s <= prev_s:
                raise ValueError("knot scores must strictly increase")
            if math.isnan(v) or v < prev_v:
                raise ValueError("knot values must be nondecreasing")
            if self.mode == "posterior" and not 0.0 <= v <= 1.0:
                raise ValueError(f"posterior knot value {v!r} outside [0, 1]")
            prev_s, prev_v = s, v

    def __call__(self, score: float) -> float:
        return apply_map(self, score)

    def to_text(self) -> str:
        lines = [f"{_HEADER_TAG} {_FORMAT_VERSION} {self.mode} {self.policy}"]
        lines.extend(f"{s!r}\t{v!r}" for s, v in self.knots)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CalibrationMap":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty map file")
        head = lines[0].split()
        if len(head) != 4 or head[0] != _HEADER_TAG or head[1] != _FORMAT_VERSION:
            raise ValueError(f"bad map header {lines[0]!r}")
        mode, policy = head[2], head[3]
        knots = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"map line {lineno}: expected 'score<TAB>value'")
            try:
                s, v = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"map line {lineno}: bad number")
            knots.append((s, v))
        return cls(knots=tuple(knots), mode=mode, policy=policy)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "CalibrationMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def _tie_pool(trials: Sequence[Trial]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort trials by score and pool exact score ties into items.

    Returns each item's score and its target / non-target counts, in
    ascending score order.  Runs are split where sorted scores differ by
    !=, so -0.0 and 0.0 pool together; the stable sort makes the item's
    score the first of its trials in input order.
    """
    size = len(trials)
    scores = np.fromiter(map(operator.attrgetter("score"), trials), float, size)
    labels = map(operator.attrgetter("label"), trials)
    flags = np.fromiter(map(operator.is_, labels, repeat(Label.TARGET)), bool, size)
    order = np.argsort(scores, kind="stable")
    scores = scores[order]
    flags = flags[order]
    heads = np.flatnonzero(np.concatenate(([True], scores[1:] != scores[:-1])))
    ms = np.add.reduceat(flags, heads, dtype=np.int64)
    ns = np.diff(heads, append=size)
    ns -= ms
    return scores[heads], ms, ns


def build_map(
    trials: Sequence[Trial],
    weights: WeightPair | tuple[float, float],
    mode: str = "posterior",
    policy: str = "step",
) -> CalibrationMap:
    """Fit a calibration map from labeled trials.

    posterior mode fits with the given weights and stores fitted
    probabilities.  llr mode ignores the weights (the result provably
    does not depend on them), fits with unit weights, and stores
    logit(fit) - logit(t1 / T); it needs both classes present.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    if not trials:
        raise ValueError("build_map needs at least one trial")
    w = as_weights(weights)

    scores, ms, ns = _tie_pool(trials)
    if mode == "llr":
        t1 = int(ms.sum())
        t2 = len(trials) - t1
        if t1 < 1 or t2 < 1:
            raise ValueError(
                f"llr mode needs both classes (got {t1} targets, {t2} non-targets)"
            )
        offset = logit(t1 / (t1 + t2))
        starts, ends, _, _, vals = _pool_counts(ms, ns, 1.0, 1.0)
        vals = [logit(v) - offset for v in vals]
    else:
        starts, ends, _, _, vals = _pool_counts(ms, ns, w.v1, w.v2)

    knots: list[tuple[float, float]] = []
    for s, e, v in zip(starts, ends, vals):
        knots.append((float(scores[s]), v))
        if e > s:
            knots.append((float(scores[e]), v))
    return CalibrationMap(knots=tuple(knots), mode=mode, policy=policy)


def apply_map(cmap: CalibrationMap, score: float) -> float:
    """Calibrated value for one score (which must be finite)."""
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
    t = (score - x0) / (x1 - x0)
    v = v0 + t * (v1 - v0)
    # Rounding in the interpolation must not poke above the right knot
    # (or below the left one), or monotonicity across probes could break
    # by an ulp.
    return min(max(v, v0), v1)


__all__ = ["CalibrationMap", "build_map", "apply_map", "MODES", "POLICIES"]
