"""Monotonic calibration of binary classifier scores.

Fits the optimal nondecreasing map from scores to posterior probabilities
(or prior-free log-likelihood ratios) by weighted pooling of adjacent
score-sorted trials, and evaluates calibrators against that optimum under
any rule from the binary proper scoring family.
"""

from .calmap import CalibrationMap, apply_map, build_map
from .llr import (
    LlrCalibration,
    llr_calibrate,
    logit,
    posterior_from_llr,
    sigmoid,
    weights_from_prior,
)
from .oracle import grid_minimizer, maxmin_oracle
from .pav import pav_fit, pav_posteriors
from .rules import (
    Brier,
    CostAt,
    CustomDensity,
    DiracMixture,
    Logarithmic,
    ScoringRule,
    expected_cost,
    objective,
    parse_rule,
)
from .types import (
    Block,
    BlockSolution,
    Label,
    Trial,
    WeightPair,
    expand,
    pooled_value,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockSolution",
    "Brier",
    "CalibrationMap",
    "CostAt",
    "CustomDensity",
    "DiracMixture",
    "Label",
    "LlrCalibration",
    "Logarithmic",
    "ScoringRule",
    "Trial",
    "WeightPair",
    "apply_map",
    "build_map",
    "expand",
    "expected_cost",
    "grid_minimizer",
    "llr_calibrate",
    "logit",
    "maxmin_oracle",
    "objective",
    "parse_rule",
    "pav_fit",
    "pav_posteriors",
    "pooled_value",
    "posterior_from_llr",
    "sigmoid",
    "weights_from_prior",
]
