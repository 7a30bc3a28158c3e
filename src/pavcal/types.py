"""Core value types shared by the calibration routines."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator


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


@dataclass(frozen=True, slots=True)
class Block:
    """A maximal pooled run of adjacent trials sharing one fitted value.

    start/end are inclusive trial indices (0-based, in score order);
    m and n count targets and non-targets inside the block.
    """

    start: int
    end: int
    m: int
    n: int
    value: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad block span [{self.start}, {self.end}]")
        if self.m < 0 or self.n < 0:
            raise ValueError("block counts must be nonnegative")
        if self.m + self.n != self.end - self.start + 1:
            raise ValueError("block counts do not match its span")
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"block value {self.value!r} outside [0, 1]")

    @property
    def size(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True, slots=True)
class BlockSolution:
    """A monotone fit: contiguous blocks with strictly increasing values.

    Validated on construction: the blocks partition 0..total-1 in order,
    values strictly increase, and each value matches pooled_value(m, n,
    v1, v2) for the stored weights (to 1e-15 relative).
    """

    blocks: tuple[Block, ...]
    weights: WeightPair
    total: int

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a solution needs at least one block")
        if self.blocks[0].start != 0 or self.blocks[-1].end != self.total - 1:
            raise ValueError("blocks do not cover the trial range")
        prev = None
        for blk in self.blocks:
            if prev is not None:
                if blk.start != prev.end + 1:
                    raise ValueError("blocks are not contiguous")
                if not (blk.value > prev.value):
                    raise ValueError("block values must strictly increase")
            want = pooled_value(blk.m, blk.n, self.weights.v1, self.weights.v2)
            if blk.value != want and abs(blk.value - want) > 1e-15 * abs(want):
                raise ValueError(
                    f"block value {blk.value!r} does not match its counts (expected {want!r})"
                )
            prev = blk

    @property
    def pool_count(self) -> int:
        """Number of adjacent-pair pooling steps implied by the fit."""
        return self.total - len(self.blocks)


def _expand(values: Iterable[float], sizes: Iterable[int]) -> Iterator[float]:
    """Each block's value once per trial, lazily, to fill the caller's own container."""
    return chain.from_iterable(map(repeat, values, sizes))


def expand(solution: BlockSolution) -> list[float]:
    """Per-trial fitted values, one entry per index covered by the blocks."""
    blocks = solution.blocks
    return list(_expand([blk.value for blk in blocks], [blk.size for blk in blocks]))
