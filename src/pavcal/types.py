"""Core value types shared by the calibration routines."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Label(enum.Enum):
    """Class tag of a supervised trial: target or non-target."""

    TARGET = "target"
    NONTARGET = "nontarget"

    @classmethod
    def parse(cls, text: str) -> "Label":
        """The label whose value is text, ignoring case and surrounding blanks."""
        label = _LABELS.get(text.strip().lower())
        if label is None:
            raise ValueError(f"unknown label {text!r}, expected {' or '.join(map(repr, _LABELS))}")
        return label


_LABELS = {label.value: label for label in Label}


@dataclass(frozen=True, slots=True)
class WeightPair:
    """Positive per-trial weights: v1 for targets, v2 for non-targets."""

    v1: float
    v2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "v1", float(self.v1))
        object.__setattr__(self, "v2", float(self.v2))
        for name, v in (("v1", self.v1), ("v2", self.v2)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")


def as_weights(weights: "WeightPair | tuple[float, float]") -> WeightPair:
    """Coerce a (v1, v2) pair into a WeightPair."""
    if isinstance(weights, WeightPair):
        return weights
    try:
        v1, v2 = weights
    except (TypeError, ValueError):
        raise TypeError(f"weights must be a WeightPair or a (v1, v2) pair, got {weights!r}")
    return WeightPair(float(v1), float(v2))


def pooled_value(m: int, n: int, v1: float, v2: float) -> float:
    """Weighted target proportion of a pool: m*v1 / (m*v1 + n*v2).

    Every routine in this package that needs a pool's fitted value goes
    through this single expression, so equal pools compare bit-identical.
    It works elementwise on numpy arrays of counts as well, with the same
    IEEE operations, so array and scalar callers agree bit for bit.
    """
    a = m * v1
    return a / (a + n * v2)


def _check_weight(t1: int, t2: int, v1: float, v2: float) -> None:
    """ValueError if the weights of t1 targets and t2 non-targets overflow; else no pool's does."""
    if not math.isfinite(t1 * v1 + t2 * v2):
        raise ValueError(f"weights {v1!r},{v2!r} overflow the weight of {t1 + t2} trials")
