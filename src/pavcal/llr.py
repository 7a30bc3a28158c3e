"""Log-likelihood-ratio calibration on top of the monotone fit.

A fit's posteriors bake in the training set's class proportions, and
reweighting the trials by any prior shifts the logit of every fitted value
by exactly that prior's log-odds.  So llr_calibrate fits at unit weights and
subtracts the empirical log-odds logit(t1 / (t1 + t2)), which leaves LLRs
that no prior enters.  A block of non-targets only carries -inf evidence,
one of targets only +inf; clamping is the consumer's choice (the command
line offers --clamp-llr).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import pav
from .pav import Labels
from .types import WeightPair


def logit(p: float) -> float:
    """log(p / (1-p)); -inf at p=0, +inf at p=1; rejects p outside [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.log(p / (1.0 - p))


def _posteriors(w: np.ndarray, prior_logodds: float) -> np.ndarray:
    """sigmoid(w + prior_logodds) elementwise.  math.exp is mapped, not np.exp, whose
    kernel numpy picks by CPU: the two differ in the last bit on some inputs, so the
    bits would depend on the host.  A memoryview yields Python floats, with no list."""
    x = np.asarray(w, dtype=float) + prior_logodds
    e = np.fromiter(map(math.exp, memoryview(-np.abs(x))), float, x.size)
    up = x >= 0.0
    return np.where(up, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(w: float) -> float:
    """Inverse of logit, numerically stable for large |w|; maps +-inf to 1/0, rejects NaN."""
    return posterior_from_llr(w, 0.0)


def _class_log_odds(t1: int, t2: int) -> float:
    """Empirical log-odds logit(t1 / (t1 + t2)); ValueError unless t1, t2 >= 1."""
    if t1 < 1 or t2 < 1:
        raise ValueError(f"both classes are needed, got {t1} targets and {t2} non-targets")
    return logit(t1 / (t1 + t2))


def _block_llrs(m: np.ndarray, n: np.ndarray) -> tuple[list[float], float]:
    """Each block's llr from its counts, logit(v) - offset of its unit-weight value v,
    and the offset, the class log-odds; ValueError unless both classes are present."""
    offset = _class_log_odds(int(m.sum()), int(n.sum()))
    return [logit(v) - offset for v in pav._price(m, n, 1.0, 1.0).tolist()], offset


def weights_from_prior(prior_logodds: float, t1: int, t2: int) -> WeightPair:
    """Per-trial weights pi/t1 for targets and (1 - pi)/t2 for non-targets, with
    pi = sigmoid(prior_logodds), so each class weighs what the prior gives it.
    ValueError unless the prior is finite, t1, t2 >= 1, and neither weight
    underflows to 0, as it does for a prior beyond about +-745."""
    pi = posterior_from_llr(0.0, prior_logodds)  # rejects a prior that is not finite
    _class_log_odds(t1, t2)  # rejects a missing class
    # 1 - pi cancels to 0 once pi rounds to 1, above a prior of about 36.7.
    v1, v2 = pi / t1, (1.0 - pi or sigmoid(-prior_logodds)) / t2
    if v1 == 0.0 or v2 == 0.0:
        raise ValueError(f"prior log-odds {prior_logodds!r} gives a class weight of 0")
    return WeightPair(v1, v2)


@dataclass(frozen=True, slots=True)
class LlrCalibration:
    """The prior-free calibration of blocks of m targets and n non-targets each,
    in score order, checked by pav._check_counts; ValueError unless both classes
    are present.  w holds each trial's log-likelihood ratio, its block's llr
    repeated; prior_logodds is the class log-odds that was subtracted, so
    sigmoid(w[t] + prior_logodds) recovers the unit-weight posterior fit; t1
    and t2 count the targets and non-targets."""

    m: tuple[int, ...]
    n: tuple[int, ...]
    w: tuple[float, ...] = field(init=False, repr=False, compare=False)
    prior_logodds: float = field(init=False)
    t1: int = field(init=False)
    t2: int = field(init=False)

    def __post_init__(self) -> None:
        m, n = pav._check_counts(self.m, self.n)
        llrs, offset = _block_llrs(np.array(m, np.int64), np.array(n, np.int64))
        # w repeats each block's llr, so it is ordered exactly when the llrs are.
        if not all(map(operator.le, llrs, llrs[1:])):
            raise ValueError("llr values must be nondecreasing")
        w = tuple(pav._expand(llrs, map(operator.add, m, n)))
        fields = {"m": m, "n": n, "w": w, "prior_logodds": offset, "t1": sum(m), "t2": sum(n)}
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def llr_calibrate(labels: Labels) -> LlrCalibration:
    """Prior-independent monotone LLR assignment for labels in score order.
    Needs a trial of each class; w may hold -inf and +inf at its ends."""
    flags = pav._target_flags(labels)
    if not flags.size:
        raise ValueError("llr_calibrate needs at least one trial")
    # Through the module, so that a wrapper on pav._pool_counts (a tracer) sees it.
    _, m, n = pav._pool_counts(flags, ~flags)
    return LlrCalibration(m, n)


def posterior_from_llr(w: float, prior_logodds: float) -> float:
    """Posterior target probability from an LLR (not NaN) and a finite prior log-odds."""
    if math.isnan(w):
        raise ValueError("llr must not be NaN")
    if not math.isfinite(prior_logodds):
        raise ValueError(f"prior log-odds must be finite, got {prior_logodds!r}")
    return _posteriors(np.array([w], float), prior_logodds)[0].item()


__all__ = [
    "logit",
    "sigmoid",
    "weights_from_prior",
    "LlrCalibration",
    "llr_calibrate",
    "posterior_from_llr",
]
