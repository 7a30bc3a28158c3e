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

The work is done by _pool_counts in two stages: vectorised prune passes
that delete many vertices at once, for as long as each pass halves what
is left, then the classic stack pass over whatever segments survive.
Both compare pooled values as computed, with no epsilon, and both merge
on equality; see _pool_counts for why the result is exact up to rounding
and why the whole pass is O(T).
"""

from __future__ import annotations

import itertools
import operator
from typing import Sequence

import numpy as np

from .types import Block, BlockSolution, Label, WeightPair, as_weights, expand, pooled_value

Labels = Sequence[Label] | np.ndarray  # or a 1-D bool array of target flags

def _pool_counts(
    ms: Sequence[int] | np.ndarray,
    ns: Sequence[int] | np.ndarray,
    v1: float,
    v2: float,
) -> tuple[list[int], list[int], list[int], list[int], list[float]]:
    """Pool pre-counted items into the monotone block solution.

    ms[k] / ns[k] are the target / non-target counts of item k (an item is
    a single trial, or a group of trials pooled beforehand, e.g. score
    ties); there is at least one item, and every item holds at least one
    trial.  Returns parallel block lists (start item, end item, m, n,
    value) with strictly increasing values, each value being pooled_value
    of the block's counts.

    Prune passes.  Between two adjacent segments sits one vertex of the
    cumulative diagram.  If the left segment's value is >= the right
    one's, the diagram bends down (or runs straight) there, so the vertex
    lies on or above the chord joining its neighbours; the minorant lies
    on or below that chord, so it cannot have a corner at this vertex.
    Deleting every such vertex at once therefore leaves the minorant
    unchanged, and one pass is a handful of O(segments) array operations:
    one comparison of neighbouring values, and np.add.reduceat to add up
    the counts of each run of merged segments.  Passes run while each one
    at least halves the segments, and a pass that deletes nothing ends
    them, since then every value already rises strictly.  So the passes
    start from at most T, T, T/2, T/4, ... segments and cost O(T) in all,
    whatever the data: no more than 3T segments are visited.

    Stack pass.  The survivors are then pooled left to right on a stack of
    finished blocks: while the top block's value is >= the new block's,
    the two merge, counts add exactly, and the value is recomputed from
    the merged counts.  Merging on equality, not only on strict
    violation, is what leaves the final values strictly increasing, as
    BlockSolution requires.  Each survivor is pushed once and each merge
    pops one block, so the stack is O(survivors), and the whole call is
    O(T) however little the passes delete.

    Values are compared as computed, with no epsilon.  A spurious merge of
    two pools whose values tie only after rounding is harmless, and near
    ties land within one rounding step of the exact solution whichever
    order the merges happen in.
    """
    m = np.asarray(ms)
    n = np.asarray(ns)
    size = m.shape[0]
    seg_start = np.arange(size)
    vals = pooled_value(m, n, v1, v2)
    halved = True  # whether the last pass left at most half the segments
    while halved:
        rises = np.flatnonzero(vals[:-1] < vals[1:])
        if rises.size + 1 == vals.size:
            break
        halved = 2 * (rises.size + 1) <= vals.size
        heads = np.concatenate(([0], rises + 1))
        seg_start = seg_start[heads]
        m = np.add.reduceat(m, heads, dtype=np.int64)
        n = np.add.reduceat(n, heads, dtype=np.int64)
        vals = pooled_value(m, n, v1, v2)

    starts: list[int] = []
    bm: list[int] = []
    bn: list[int] = []
    bvals: list[float] = []
    survivors = zip(
        seg_start.tolist(),
        m.astype(np.int64, copy=False).tolist(),
        n.astype(np.int64, copy=False).tolist(),
    )
    for start, mk, nk in survivors:
        val = pooled_value(mk, nk, v1, v2)
        while bvals and bvals[-1] >= val:
            bvals.pop()
            mk += bm.pop()
            nk += bn.pop()
            start = starts.pop()
            val = pooled_value(mk, nk, v1, v2)
        starts.append(start)
        bm.append(mk)
        bn.append(nk)
        bvals.append(val)
    ends = [s - 1 for s in starts[1:]]
    ends.append(size - 1)
    return starts, ends, bm, bn, bvals


def _target_flags(labels: Labels) -> np.ndarray:
    """Bool array, True where the label is Label.TARGET; TypeError on a non-Label.
    The one Label-to-flag conversion: a 1-D bool array is returned as it is."""
    if isinstance(labels, np.ndarray) and labels.dtype == bool:
        if labels.ndim != 1:
            raise TypeError(f"target flags must be a 1-D array, got shape {labels.shape}")
        return labels
    size = len(labels)
    flags = np.fromiter(map(operator.is_, labels, itertools.repeat(Label.TARGET)), bool, size)
    if operator.countOf(labels, Label.NONTARGET) != size - np.count_nonzero(flags):
        bad = next(lab for lab in labels if not isinstance(lab, Label))
        raise TypeError(f"label must be a Label, got {bad!r}")
    return flags


def pav_fit(labels: Labels, weights: WeightPair | tuple[float, float]) -> BlockSolution:
    """Fit the monotone solution for a label sequence in score order.

    Args:
        labels: nonempty Labels (or bool target flags), ascending-score order.
        weights: per-class trial weights (v1 targets, v2 non-targets).

    Returns:
        BlockSolution whose expansion is the optimal nondecreasing value
        sequence under every rule of the proper-scoring family at once.
    """
    w = as_weights(weights)
    total = len(labels)
    if not total:
        raise ValueError("pav_fit needs at least one trial")
    flags = _target_flags(labels)
    starts, ends, bm, bn, vals = _pool_counts(flags, ~flags, w.v1, w.v2)
    blocks = tuple(
        Block(start=s, end=e, m=m, n=n, value=v)
        for s, e, m, n, v in zip(starts, ends, bm, bn, vals)
    )
    return BlockSolution(blocks=blocks, weights=w, total=total)


def pav_posteriors(labels: Labels, weights: WeightPair | tuple[float, float]) -> list[float]:
    """Per-trial fitted values of pav_fit, expanded."""
    return expand(pav_fit(labels, weights))


__all__ = ["pav_fit", "pav_posteriors"]
