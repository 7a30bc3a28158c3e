"""An oracle for the PAV fit at 1e6 rows: the ROC convex hull.

Fawcett & Niculescu-Mizil ("PAV and the ROC convex hull", Machine
Learning 68, 2007) show that the PAV blocks are the segments of the ROC
convex hull, walked from the highest score down, and that each block's
log-likelihood ratio is the log of its segment's slope.  The hull comes
from scipy.spatial.ConvexHull (Qhull), which shares no code with the
pooling core, so it checks the core where the O(T^2) max-min oracle
cannot: on a million rows.  SciPy stays a test-only import here.

Qhull keeps only the corners of the hull, so a run of collinear ROC
points is one segment, just as pools of equal proportion are one block.
"""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from pavcal import WeightPair, llr_calibrate, pooled_value
from pavcal.calmap import _apply, _fit, _map

SIZE = 1_000_000


def _hull_segments(ms, ns):
    """The ROC hull of items given by their target / non-target counts in
    ascending score order: each hull segment's first and last item (in
    that order) and its target and non-target counts, from the lowest
    score up."""
    t1, t2 = int(ms.sum()), int(ns.sum())
    cum_m = np.concatenate(([0], np.cumsum(ms[::-1])))  # from the highest score
    cum_n = np.concatenate(([0], np.cumsum(ns[::-1])))
    points = np.column_stack((cum_n / t2, cum_m / t1))
    closed = np.vstack((points, [(1.0, 0.0)]))
    ring = ConvexHull(closed).vertices.tolist()  # counterclockwise
    # Counterclockwise, (1, 1) is followed by the upper hull down to (0, 0).
    top, origin = ring.index(len(points) - 1), ring.index(0)
    chain = (ring[top:] + ring[:top])[: (origin - top) % len(ring) + 1][::-1]
    assert chain == sorted(chain) and chain[0] == 0 and chain[-1] == len(points) - 1
    size = len(ms)
    segments = []
    for lo, hi in zip(chain[-2::-1], chain[:0:-1]):  # lowest scores first
        dm, dn = int(cum_m[hi] - cum_m[lo]), int(cum_n[hi] - cum_n[lo])
        segments.append((size - hi, size - 1 - lo, dm, dn))
    return segments, t1, t2


def _hull_llrs(segments, t1, t2):
    """Each item's LLR, log(dy / dx) of its hull segment, +-inf where a side is 0."""
    llrs = []
    for first, last, dm, dn in segments:
        if dn == 0:
            llr = math.inf
        elif dm == 0:
            llr = -math.inf
        else:
            llr = math.log((dm * t2) / (dn * t1))
        llrs += [llr] * (last - first + 1)
    return np.array(llrs)


def _assert_llrs_agree(got, want):
    got = np.asarray(got, float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    assert np.array_equal(np.isfinite(got), finite)
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= 1e-9


def _slowly_rising(head=3, first_gap=40, step=1, tail=600):
    # The label pattern of test_pool_core's slowly rising targets.
    labels = [False] * head
    for gap in range(first_gap, 0, -step):
        labels += [True] + [False] * gap
    labels += [True] + [False] * tail
    return np.arange(len(labels), dtype=float), np.array(labels)


def _normal_scores(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=SIZE)
    flags = rng.random(SIZE) < 1.0 / (1.0 + np.exp(1.0 - 1.5 * scores))
    return scores, flags


def _tied_scores(seed):
    scores, flags = _normal_scores(seed)
    scores = np.round(scores, 1)
    zeros = np.flatnonzero(scores == 0.0)
    scores[zeros[::2]] = -0.0
    return scores, flags


INPUTS = {
    "normal-1e6": lambda: _normal_scores(11),
    "tied-1e6": lambda: _tied_scores(12),
    "slowly-rising": _slowly_rising,
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def trials(request):
    scores, flags = INPUTS[request.param]()
    assert 0 < flags.sum() < flags.size
    # Items pool exact score ties (-0.0 with 0.0), by np.unique rather than
    # by the package's own tie pool.
    item_scores, inverse = np.unique(scores, return_inverse=True)
    ms = np.bincount(inverse, weights=flags).astype(np.int64)
    ns = np.bincount(inverse).astype(np.int64) - ms
    return scores, flags, item_scores, _hull_segments(ms, ns)


def test_llr_calibrate_matches_the_hull(trials):
    scores, flags = trials[:2]
    in_order = flags[np.argsort(scores, kind="stable")]
    segments, t1, t2 = _hull_segments(in_order.astype(np.int64), (~in_order).astype(np.int64))
    cal = llr_calibrate(in_order)
    w = np.array(cal.w)
    assert 1 + np.count_nonzero(w[1:] != w[:-1]) == len(segments)
    _assert_llrs_agree(w, _hull_llrs(segments, t1, t2))


def test_llr_map_matches_the_hull(trials):
    scores, flags, item_scores, (segments, t1, t2) = trials
    fit = _fit(scores, flags)
    assert [a.tolist() for a in fit[2:]] == [[s[2] for s in segments], [s[3] for s in segments]]
    cmap = _map(fit, WeightPair(1.0, 1.0), "llr", "step")
    _assert_llrs_agree(_apply(cmap, item_scores), _hull_llrs(segments, t1, t2))


def test_posterior_map_matches_the_hull(trials):
    # The blocks are the hull's segments, and weights only price them.  Far
    # from unit weights, rounding may put a segment's value an ulp below its
    # left neighbour's, which the map then lifts it to.
    scores, flags, item_scores, (segments, _, _) = trials
    sizes = [last - first + 1 for first, last, _, _ in segments]
    fit = _fit(scores, flags)
    assert [a.tolist() for a in fit[2:]] == [[s[2] for s in segments], [s[3] for s in segments]]
    for weights in ((2.5, 0.7), (1e20, 1.0), (1.0, 1e-16), (1e-300, 1e300)):
        cmap = _map(fit, WeightPair(*weights), "posterior", "step")
        want = np.repeat([pooled_value(s[2], s[3], *weights) for s in segments], sizes)
        got = _apply(cmap, item_scores)
        assert (np.diff(got) >= 0.0).all(), weights
        assert (np.abs(got - want) <= 1e-15 * want).all(), weights
