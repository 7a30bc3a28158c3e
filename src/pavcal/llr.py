"""Log-likelihood-ratio calibration on top of the monotone fit.

The monotone fit returns posterior probabilities, which bake in the class
proportions of the training set.  Subtracting the prior log-odds in logit
space leaves a log-likelihood ratio, and that quantity does not depend on
which prior was used for the fit: reweighting trials by any prior shifts
every fitted value by exactly that prior's log-odds.  llr_calibrate
therefore fits with unit weights and removes the empirical log-odds
logit(t1 / (t1 + t2)).

Both infinities are legitimate outputs here: a trial pooled only with
non-targets genuinely carries -inf evidence under the monotone model.
Clamping, if a consumer needs it, is the consumer's decision (the command
line offers --clamp-llr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pav
from .pav import Labels
from .types import WeightPair, _expand


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
    """sigmoid(w + prior_logodds) elementwise, by the scalar formula's IEEE operations:
    math.exp is mapped, not np.exp, as the two differ in the last bit on some inputs.
    A memoryview of an array yields Python floats one at a time, with no list."""
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


def _block_llrs(values: Sequence[float], t1: int, t2: int) -> tuple[list[float], float]:
    """logit(v) - offset for each unit-weight block value v, and that offset."""
    offset = _class_log_odds(t1, t2)
    return [logit(v) - offset for v in values], offset


def weights_from_prior(prior_logodds: float, t1: int, t2: int) -> WeightPair:
    """Per-trial weights that make a fit behave as if the prior were pi.

    Targets get sigmoid(pi)/t1 each and non-targets (1-sigmoid(pi))/t2,
    so each class's total weight matches the prior probability it should
    carry.  The prior must be finite, both counts at least 1, and neither
    weight may underflow to 0, as it does for a prior beyond about +-745.
    """
    pi = posterior_from_llr(0.0, prior_logodds)  # rejects a prior that is not finite
    _class_log_odds(t1, t2)  # rejects a missing class
    # 1 - pi cancels to 0 once pi rounds to 1, above a prior of about 36.7.
    v1, v2 = pi / t1, (1.0 - pi or sigmoid(-prior_logodds)) / t2
    if v1 == 0.0 or v2 == 0.0:
        raise ValueError(f"prior log-odds {prior_logodds!r} gives a class weight of 0")
    return WeightPair(v1, v2)


@dataclass(frozen=True, slots=True)
class LlrCalibration:
    """Fitted per-trial log-likelihood ratios, in score order.

    prior_logodds records the empirical log-odds that was subtracted, so
    sigmoid(w[t] + prior_logodds) recovers the unit-weight posterior fit.
    """

    w: tuple[float, ...]
    prior_logodds: float
    t1: int
    t2: int

    def __post_init__(self) -> None:
        _class_log_odds(self.t1, self.t2)  # rejects a missing class
        if len(self.w) != self.t1 + self.t2:
            raise ValueError(f"{len(self.w)} llr values for {self.t1 + self.t2} trials")
        w = np.fromiter(self.w, float, len(self.w))
        if np.isnan(w).any() or (w[1:] < w[:-1]).any():
            raise ValueError("llr values must be nondecreasing")


def llr_calibrate(labels: Labels) -> LlrCalibration:
    """Prior-independent monotone LLR assignment for labels in score order.

    Requires at least one trial of each class.  Values may include -inf
    and +inf at the ends of the sequence.
    """
    # Called through the module, so that a wrapper installed on
    # pav.pav_fit (the benchmark's tracer) sees this call too.
    solution = pav.pav_fit(labels, WeightPair(1.0, 1.0))
    blocks = solution.blocks
    t1 = sum(blk.m for blk in blocks)
    t2 = solution.total - t1
    llrs, offset = _block_llrs([blk.value for blk in blocks], t1, t2)
    w = tuple(_expand(llrs, [blk.size for blk in blocks]))
    return LlrCalibration(w=w, prior_logodds=offset, t1=t1, t2=t2)


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
