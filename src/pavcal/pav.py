"""Weighted pool-adjacent-violators fit for binary labels in ascending score order.

The fit gives each trial a value in [0, 1], nondecreasing along the
sequence, that minimizes every weighted proper-scoring-rule objective at
once.  It is a partition into maximal blocks, the stretches between the
vertices of the greatest convex minorant of the cumulative (total weight,
target weight) diagram (Barlow et al. 1972); a block's value is its
weighted target proportion m*v1 / (m*v1 + n*v2).  The blocks depend on the
class counts alone, which _pool_counts compares exactly in integers; the
weights only price them, in _price.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .types import Label, WeightPair, as_weights, pooled_value

Labels = Sequence[Label] | np.ndarray  # or a 1-D bool array of target flags

def _pool_counts(
    ms: Sequence[int] | np.ndarray, ns: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool items of ms[k] targets and ns[k] non-targets (at least one item, each
    holding a trial) into the monotone block partition: int64 arrays of each
    block's start item, target count and non-target count, whose proportions
    strictly rise.  No weight enters, so the blocks hold at every weight pair.

    Two adjacent pools violate (left proportion >= right) exactly when
    m_l*n_r >= m_r*n_l, tested in integers: with fewer than 6e9 trials every
    product of two disjoint pools' counts (at most T*T/4) is below 2**63.

    Prune passes pool every violating pair of neighbouring segments at once:
    the diagram's vertex between them lies on or above the chord of its
    neighbours, so it is no corner of the minorant.  Passes run while each
    one at least halves the segments, and a pass that pools nothing ends
    them, so they visit at most T + T + T/2 + T/4 + ... = 3T segments.  A
    stack pass then pools the survivors left to right; each is pushed once
    and each merge pops one, so the whole call is O(T) whatever the data.
    """
    m = np.asarray(ms)
    n = np.asarray(ns)
    seg_start = np.arange(m.shape[0])
    halved = True  # whether the last pass left at most half the segments
    while halved:
        rises = np.flatnonzero(m[:-1] * n[1:] < m[1:] * n[:-1])
        if rises.size + 1 == m.size:
            break
        halved = 2 * (rises.size + 1) <= m.size
        heads = np.concatenate(([0], rises + 1))
        seg_start = seg_start[heads]
        m = np.add.reduceat(m, heads, dtype=np.int64)
        n = np.add.reduceat(n, heads, dtype=np.int64)

    starts: list[int] = []
    bm: list[int] = []
    bn: list[int] = []
    survivors = zip(
        seg_start.tolist(),
        m.astype(np.int64, copy=False).tolist(),
        n.astype(np.int64, copy=False).tolist(),
    )
    for start, mk, nk in survivors:
        while starts and bm[-1] * nk >= mk * bn[-1]:
            mk += bm.pop()
            nk += bn.pop()
            start = starts.pop()
        starts.append(start)
        bm.append(mk)
        bn.append(nk)
    return np.array(starts, np.int64), np.array(bm, np.int64), np.array(bn, np.int64)


def _price(m: np.ndarray, n: np.ndarray, v1: float, v2: float) -> np.ndarray:
    """Each block's value at the weights: its pooled_value, lifted to the
    largest value on its left where rounding far from unit weights put it
    an ulp or so below (at unit weights one correctly rounded m / (m + n)
    cannot).  The one place block values are computed.  ValueError if the
    weight of all trials overflows; as rounding is monotone, it bounds
    every block's."""
    if not math.isfinite(int(m.sum()) * v1 + int(n.sum()) * v2):
        raise ValueError(f"weights {v1!r},{v2!r} overflow the weight of {m.sum() + n.sum()} trials")
    return np.maximum.accumulate(pooled_value(m, n, v1, v2))


def _target_flags(labels: Labels) -> np.ndarray:
    """Bool array, True where the label is Label.TARGET; TypeError on a non-Label.
    The one Label-to-flag conversion: a 1-D bool array is returned as it is."""
    if isinstance(labels, np.ndarray) and labels.dtype == bool:
        if labels.ndim != 1:
            raise TypeError(f"target flags must be a 1-D array, got shape {labels.shape}")
        return labels
    is_target = map(operator.is_, labels, itertools.repeat(Label.TARGET))
    flags = np.frombuffer(bytearray(is_target), bool)  # a bytearray, so the array is writable
    if operator.countOf(labels, Label.NONTARGET) != flags.size - np.count_nonzero(flags):
        bad = next(lab for lab in labels if not isinstance(lab, Label))
        raise TypeError(f"label must be a Label, got {bad!r}")
    return flags


def _check_counts(m: Iterable[int], n: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Block counts m (targets) and n (non-targets) in score order, as tuples of
    ints.  TypeError for a count that is not an int; ValueError unless the two
    columns are equally long and nonempty, no count is negative, every block
    holds a trial, the target proportions strictly rise, and there are fewer
    than about 6e9 trials, as _pool_counts needs, so every count fits int64."""
    m, n = tuple(map(operator.index, m)), tuple(map(operator.index, n))
    if not m or len(m) != len(n):
        raise ValueError(f"block counts need equal nonempty columns, got {len(m)} and {len(n)}")
    if min(m + n) < 0 or 0 in map(operator.add, m, n):
        raise ValueError("block counts must be nonnegative, and each block must hold a trial")
    total = sum(m) + sum(n)
    if total * total >= 2**65:
        raise ValueError(f"{total} trials are too many to compare their counts in int64")
    if any(map(operator.ge, map(operator.mul, m, n[1:]), map(operator.mul, m[1:], n))):
        raise ValueError("block target proportions must strictly rise")
    return m, n


def _expand(values: Iterable[float], sizes: Iterable[int]) -> Iterator[float]:
    """Each block's value once per trial, lazily, to fill the caller's own container."""
    return itertools.chain.from_iterable(map(itertools.repeat, values, sizes))


@dataclass(frozen=True, slots=True)
class BlockSolution:
    """A monotone fit: blocks of m targets and n non-targets each, in score
    order, checked by _check_counts.  values holds each block's _price at the
    weights, so equal values may join neighbouring blocks; total counts the
    trials."""

    m: tuple[int, ...]
    n: tuple[int, ...]
    weights: WeightPair
    values: tuple[float, ...] = field(init=False)
    total: int = field(init=False)

    def __post_init__(self) -> None:
        m, n = _check_counts(self.m, self.n)
        w = as_weights(self.weights)
        values = tuple(_price(np.array(m, np.int64), np.array(n, np.int64), w.v1, w.v2).tolist())
        fields = {"m": m, "n": n, "weights": w, "values": values, "total": sum(m) + sum(n)}
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def pav_fit(labels: Labels, weights: WeightPair | tuple[float, float]) -> BlockSolution:
    """The monotone fit to nonempty Labels (or bool target flags) in ascending
    score order, at per-class trial weights (v1 targets, v2 non-targets): its
    expansion is the optimal nondecreasing value sequence under every rule of
    the proper-scoring family at once."""
    w = as_weights(weights)
    flags = _target_flags(labels)
    if not flags.size:
        raise ValueError("pav_fit needs at least one trial")
    _, m, n = _pool_counts(flags, ~flags)
    return BlockSolution(m, n, w)


def pav_posteriors(labels: Labels, weights: WeightPair | tuple[float, float]) -> list[float]:
    """Per-trial fitted values of pav_fit, expanded."""
    sol = pav_fit(labels, weights)
    return list(_expand(sol.values, map(operator.add, sol.m, sol.n)))


__all__ = ["BlockSolution", "pav_fit", "pav_posteriors"]
