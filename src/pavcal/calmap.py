"""Score-to-value calibration maps: building, applying, serializing.

A map is a sorted list of (score, value) knots produced from a labeled
training set.  Trials are sorted by score, exact score ties are pooled
into single items up front (a function of the score cannot separate
them), and the monotone fit runs over the pooled items.  Every fitted
block then contributes one knot at each end of its score span (a single
knot if the span is one score).  Knot scores strictly increase and knot
values never decrease.  Equal values mark the two ends of one block, and
may also join neighbouring blocks whose prices rounding put out of order
far from unit weights (see pav._price).

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .llr import _block_llrs
from .pav import Labels, _items, _pool_counts, _price, _target_flags
from .types import WeightPair, as_weights

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
    # Row 0 the knot scores, row 1 the knot values, as float64 for _apply.
    _knots: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_knots", np.array(self.knots, float).T.copy())

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


def _fit(scores: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, ...]:
    """The fit to finite scores and their target flags: each item's score (see
    pav._items), then each block's start item, target count and non-target
    count.  No weight enters: _map prices the blocks."""
    xs, m, n = _items(scores, flags)
    return (xs, *_pool_counts(m, n))


def _map(fit: tuple, weights: WeightPair, mode: str, policy: str) -> CalibrationMap:
    """The map of a fit: each block priced at the weights, or in llr mode its
    LLR, which does not depend on them; a knot at each end of its span."""
    xs, starts, m, n = fit
    vals = _block_llrs(m, n)[0] if mode == "llr" else _price(m, n, weights.v1, weights.v2).tolist()
    ends = np.append(starts[1:], xs.size) - 1
    wide = ends > starts  # a block over more than one item has a knot at each end
    at = np.sort(np.concatenate((starts, ends[wide])))
    knots = zip(xs[at].tolist(), np.repeat(vals, wide + 1).tolist())
    return CalibrationMap(knots=tuple(knots), mode=mode, policy=policy)


def build_map(
    scores: Sequence[float] | np.ndarray,
    labels: Labels,
    weights: WeightPair | tuple[float, float],
    mode: str = "posterior",
    policy: str = "step",
) -> CalibrationMap:
    """Fit a calibration map from a column of finite scores and their labels.

    posterior mode fits with the given weights and stores fitted
    probabilities.  llr mode ignores the weights (the result provably
    does not depend on them), fits with unit weights, and stores
    logit(fit) - logit(t1 / T); it needs both classes present.
    """
    flags = _target_flags(labels)
    xs = np.asarray(scores, dtype=float)
    if xs.shape != flags.shape:
        raise ValueError(f"scores of shape {xs.shape} do not match {flags.size} labels")
    if not xs.size:
        raise ValueError("build_map needs at least one trial")
    i = int(np.argmax(~np.isfinite(xs)))  # the first score that is not finite, if any
    if not math.isfinite(xs[i]):
        raise ValueError(f"trial score must be finite, got {xs[i].item()!r}")
    return _map(_fit(xs, flags), as_weights(weights), mode, policy)


def _apply(cmap: CalibrationMap, scores: np.ndarray) -> np.ndarray:
    """Calibrated values for an array of finite scores, by elementwise IEEE
    operations only, so each one equals the scalar formula's bit for bit."""
    xs, vs = cmap._knots
    i = np.searchsorted(xs, scores, side="right") - 1
    out = vs[np.maximum(i, 0)]
    if cmap.policy == "step" or xs.size == 1:
        return out
    j = np.clip(i, 0, xs.size - 2)
    x0, v0, x1, v1 = xs[j], vs[j], xs[j + 1], vs[j + 1]
    ramp = (i == j) & (scores != x0) & (v0 != v1) & np.isfinite(v0) & np.isfinite(v1)
    with np.errstate(all="ignore"):
        wide = np.flatnonzero(np.isinf(x1 - x0))  # knots further apart than the largest double
        v = (scores - x0) / (x1 - x0)
        v[wide] = (scores[wide] / 2 - x0[wide] / 2) / (x1[wide] / 2 - x0[wide] / 2)
        v *= v1 - v0  # in place: v0 + v * (v1 - v0) would add an array to the peak
        v += v0
    # min(max(v, v0), v1): rounding in the interpolation must not poke
    # outside [v0, v1], or monotonicity across probes could break by an ulp.
    v = np.where(v0 > v, v0, v)
    return np.where(ramp, np.where(v1 < v, v1, v), out)


def apply_map(cmap: CalibrationMap, score: float) -> float:
    """Calibrated value for one score (which must be finite)."""
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {score!r}")
    return _apply(cmap, np.array([score], float))[0].item()


__all__ = ["CalibrationMap", "build_map", "apply_map", "MODES", "POLICIES"]
