"""Weighted pool-adjacent-violators fit for binary labels.

Trials are assumed already ordered by ascending classifier score.  The fit
assigns each trial a value in [0, 1], nondecreasing along the sequence,
minimizing every weighted proper-scoring-rule objective simultaneously.
The solution is a partition into maximal blocks; each block's value is the
weighted proportion of its target count, m*v1 / (m*v1 + n*v2).

Geometrically (Barlow et al. 1972), walk the items in order and plot the
cumulative (total weight, target weight) diagram: the fitted values are
the slopes of its greatest convex minorant, and the blocks are the
stretches between the minorant's vertices.  Every pass in this module
deletes vertices of the diagram that cannot be vertices of the minorant,
by pooling the two segments that meet there; what is left when no vertex
can be deleted any more is the solution.

The work is done by _pool_counts, in O(T), comparing class counts exactly
in integers, so the blocks depend on the class counts alone and the
weights only price them, in _price.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .types import Block, BlockSolution, Label, WeightPair, as_weights, expand, pooled_value

Labels = Sequence[Label] | np.ndarray  # or a 1-D bool array of target flags

def _pool_counts(
    ms: Sequence[int] | np.ndarray, ns: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool pre-counted items into the monotone block partition.

    ms[k] / ns[k] are the target / non-target counts of item k (an item is
    a single trial, or a group of trials pooled beforehand, e.g. score
    ties); there is at least one item, and every item holds at least one
    trial.  Returns int64 arrays of each block's start item, target count
    and non-target count: the blocks' target proportions strictly rise.
    No weight enters, so the blocks are the same at every weight pair.

    A value m*v1 / (m*v1 + n*v2) rises strictly with the proportion
    m / (m + n) at any positive weights, so two adjacent pools violate
    (the left proportion is >= the right) exactly when m_l*n_r >= m_r*n_l.
    Both stages test that in integers: with fewer than 6e9 trials, every
    product of two disjoint pools' counts (at most T*T/4) is below 2**63.

    Prune passes.  Between two adjacent segments sits one vertex of the
    cumulative diagram.  Where they violate, the diagram bends down (or
    runs straight), so the vertex lies on or above the chord joining its
    neighbours; the minorant lies on or below that chord, so it has no
    corner there, and deleting every such vertex at once leaves it as it
    is.  One pass is the count test (a bool AND on the first pass over
    target flags) and np.add.reduceat to add up the counts of each run of
    merged segments.  Passes run while each one at least halves the
    segments, and a pass that deletes nothing ends them.  So they start
    from at most T, T, T/2, T/4, ... segments and cost O(T) in all,
    whatever the data: no more than 3T segments are visited.

    Stack pass.  The survivors are pooled left to right on a stack of
    finished blocks, merging while the top block and the new one violate;
    counts add exactly.  Each survivor is pushed once and each merge pops
    one block, so the whole call is O(T) however little the passes delete.
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


def pav_fit(labels: Labels, weights: WeightPair | tuple[float, float]) -> BlockSolution:
    """The monotone fit to nonempty Labels (or bool target flags) in ascending
    score order, at per-class trial weights (v1 targets, v2 non-targets): a
    BlockSolution whose expansion is the optimal nondecreasing value sequence
    under every rule of the proper-scoring family at once."""
    w = as_weights(weights)
    total = len(labels)
    if not total:
        raise ValueError("pav_fit needs at least one trial")
    flags = _target_flags(labels)
    starts, m, n = _pool_counts(flags, ~flags)
    ends = np.append(starts[1:], total) - 1
    columns = (starts, ends, m, n, _price(m, n, w.v1, w.v2))
    blocks = tuple(map(Block, *map(np.ndarray.tolist, columns)))
    return BlockSolution(blocks=blocks, weights=w, total=total)


def pav_posteriors(labels: Labels, weights: WeightPair | tuple[float, float]) -> list[float]:
    """Per-trial fitted values of pav_fit, expanded."""
    return expand(pav_fit(labels, weights))


__all__ = ["pav_fit", "pav_posteriors"]
