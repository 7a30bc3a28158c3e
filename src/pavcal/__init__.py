"""Monotonic calibration of binary classifier scores.

Fits the optimal nondecreasing map from scores to posterior probabilities
(or prior-free log-likelihood ratios) by weighted pooling of adjacent
score-sorted trials, and evaluates calibrators against that optimum under
any rule from the binary proper scoring family.
"""

import importlib
import sys

__version__ = "0.1.0"

# The public names of each submodule.  A name, or a submodule, is imported
# on its first lookup (PEP 562), so `import pavcal` loads no numpy.
_NAMES = {
    "calmap": "CalibrationMap apply_map build_map",
    "llr": "LlrCalibration llr_calibrate logit posterior_from_llr sigmoid weights_from_prior",
    "oracle": "grid_minimizer maxmin_oracle",
    "pav": "BlockSolution pav_fit pav_posteriors",
    "rules": "Brier CostAt CustomDensity DiracMixture Logarithmic ScoringRule "
    "expected_cost objective parse_rule",
    "types": "Label WeightPair pooled_value",
}
_SUBMODULE = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE and name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULE.get(name, name)}")
    # Bind the public names of every submodule loaded by now, as the eager
    # imports did, so that a lookup that skips __getattr__
    # (inspect.getattr_static) finds them too.
    for key, sub in _SUBMODULE.items():
        loaded = sys.modules.get(f"{__name__}.{sub}")
        if key not in globals() and hasattr(loaded, key):
            globals()[key] = getattr(loaded, key)
    return globals()[name] if name in _SUBMODULE else module


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
