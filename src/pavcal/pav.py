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
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .types import Label, WeightPair, _check_weight, as_weights, pooled_value

Labels = Iterable[Label] | np.ndarray  # or a 1-D bool array of target flags

_HANDOVER = 4096  # segments few enough to leave to the stack pass
_CHUNK = 2**16  # labels per object array: about 0.5 MB of transient memory
# An object array's buffer, read in place, holds its elements' addresses, and two
# objects alive at once never share one, on any interpreter: an element is a
# member exactly when its address is the member's.  This array keeps both alive.
_MEMBERS = np.array([Label.TARGET, Label.NONTARGET], object)


def _items(values: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values without NaN and their target flags as items: each distinct value
    ascending, -0.0 and 0.0 as 0.0, with its target count m and non-target
    count n.  The one place exact ties pool, so no fit or score depends on row
    order.  With no tie, m and n are the sorted flags and their negation; else
    int64 counts, from the item heads and the targets' positions.  The sort
    order is freed before the values are sorted, and the flags are not cast."""
    flags = flags[np.argsort(values)]  # not stable: tied values pool into one item, in any order
    xs = np.sort(values)  # the same values in the same places, up to the sign of a zero
    xs += 0.0  # -0.0 becomes 0.0; every other value stays as it is
    if (new := xs[1:] != xs[:-1]).all():  # no tie: each trial is an item
        return xs, flags, ~flags
    heads = np.flatnonzero(np.concatenate(([True], new)))  # where each item starts
    m = np.diff(np.searchsorted(np.flatnonzero(flags), heads), append=np.count_nonzero(flags))
    n = np.diff(heads, append=flags.size)
    n -= m
    return xs[heads], m, n


def _prune(m: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prune passes of _pool_counts over its items: each survivor segment's
    start item, target count and non-target count, as int64 arrays.  A bool m
    holds single trials' target flags, and n is then not read.

    A pass pools every violating pair of neighbouring segments at once: the
    diagram's vertex between them lies on or above the chord of its
    neighbours, so it is no corner of the minorant.  The first pass always
    runs; on single trials it starts a segment at each non-target -> target
    step, since only there do two trials rise, and counts each segment's run
    of targets and run of non-targets from the steps, casting no flag.
    Further passes run while more than _HANDOVER segments remain, each pools
    something, and the segments they visit, counting the first pass's items,
    stay within 3 per item."""
    size = m.size
    if m.dtype == bool:  # runs alternate from targets to non-targets; the ends may be empty
        steps = np.flatnonzero(m[1:] != m[:-1]) + 1
        bounds = np.concatenate(([0] if m[0] else [0, 0], steps, [size, size] if m[-1] else [size]))
        runs = np.diff(bounds)
        seg_start, m, n = bounds[:-1:2], runs[::2], runs[1::2]
    else:
        seg_start = np.concatenate(([0], np.flatnonzero(m[:-1] * n[1:] < m[1:] * n[:-1]) + 1))
        m = np.add.reduceat(m, seg_start, dtype=np.int64)
        n = np.add.reduceat(n, seg_start, dtype=np.int64)
    visits = size
    while m.size > _HANDOVER and visits + m.size <= 3 * size:
        visits += m.size
        rises = np.flatnonzero(m[:-1] * n[1:] < m[1:] * n[:-1])
        if rises.size + 1 == m.size:
            break
        heads = np.concatenate(([0], rises + 1))
        seg_start = seg_start[heads]
        m = np.add.reduceat(m, heads)
        n = np.add.reduceat(n, heads)
    return seg_start, m, n


def _pool_counts(
    ms: Sequence[int] | np.ndarray, ns: Sequence[int] | np.ndarray = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool items of ms[k] targets and ns[k] non-targets (at least one item, each
    holding a trial) into the monotone block partition: int64 arrays of each
    block's start item, target count and non-target count, whose proportions
    strictly rise.  No weight enters, so the blocks hold at every weight pair.
    Bool ms are single trials' target flags, and ns is then not read.

    Two adjacent pools violate (left proportion >= right) exactly when
    m_l*n_r >= m_r*n_l, tested in integers: with fewer than 6e9 trials every
    product of two disjoint pools' counts (at most T*T/4) is below 2**63.

    The vectorised prune passes of _prune visit at most 3 segments per item,
    and hand over at most 4096 segments unless a pass pooled nothing (then
    every survivor is a block) or the visits ran out.  A stack pass then
    pools the survivors left to right; each is pushed once and each merge
    pops one, so the whole call is O(T) whatever the data.
    """
    seg_start, m, n = _prune(np.asarray(ms), np.asarray(ns))
    starts: list[int] = []
    bm: list[int] = []
    bn: list[int] = []
    for start, mk, nk in zip(seg_start.tolist(), m.tolist(), n.tolist()):
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
    weight of all trials overflows (see _check_weight)."""
    _check_weight(int(m.sum()), int(n.sum()), v1, v2)
    return np.maximum.accumulate(pooled_value(m, n, v1, v2))


def _target_flags(labels: Labels) -> np.ndarray:
    """Bool array, True where the label is Label.TARGET; TypeError on a non-Label.
    The one Label-to-flag conversion.  A 1-D bool array is returned as it is.
    Any other iterable is read once, _CHUNK labels at a time, its members found
    by address: a list, tuple or 1-D array (not a subclass, whose len may not
    hold) by counted np.fromiter reads, anything else (a deque, an iterator)
    through islice.  Any other element passes as a non-target if it is
    == Label.NONTARGET, as unittest.mock.ANY is; the TypeError names the
    first that is not."""
    if isinstance(labels, np.ndarray):
        if labels.ndim != 1:
            raise TypeError(f"labels must be a 1-D array, got shape {labels.shape}")
        if labels.dtype == bool:
            return labels
    target, nontarget = np.frombuffer(_MEMBERS, np.uintp)
    it, flags = iter(labels), [np.zeros(0, bool)]
    if type(labels) in (list, tuple, np.ndarray):
        chunks = (np.fromiter(it, object, min(_CHUNK, left)) for left in range(len(labels), 0, -_CHUNK))
    else:
        chunks = (np.fromiter(itertools.islice(it, _CHUNK), object) for _ in itertools.count())
    for items in itertools.takewhile(len, chunks):  # an iterator's chunks end at an empty one
        at = np.frombuffer(items, np.uintp)  # a view, which keeps items alive
        flags.append(at == target)
        for k in np.flatnonzero(~flags[-1] & (at != nontarget)).tolist():
            if items[k] != Label.NONTARGET:
                raise TypeError(f"label must be a Label, got {items[k]!r}")
    return np.concatenate(flags)


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
    return BlockSolution(*_pool_counts(flags)[1:], w)


def pav_posteriors(labels: Labels, weights: WeightPair | tuple[float, float]) -> list[float]:
    """Per-trial fitted values of pav_fit, expanded."""
    sol = pav_fit(labels, weights)
    return list(_expand(sol.values, map(operator.add, sol.m, sol.n)))


__all__ = ["BlockSolution", "pav_fit", "pav_posteriors"]
