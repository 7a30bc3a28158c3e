"""Labels and the equivalent bool target-flag array give the same results.

Every routine that takes labels turns them into target flags through one
conversion, which returns a 1-D bool array (True = target) as it is.  So
the Labels and their flags must give identical results, compared by
repr, as must the Labels read once from an iterator; anything else, in
any container, must still raise TypeError.
"""

import re
import tracemalloc
from collections import deque
from unittest.mock import ANY

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pavcal import (
    Label,
    build_map,
    grid_minimizer,
    llr_calibrate,
    maxmin_oracle,
    objective,
    pav_fit,
    pav_posteriors,
)
from pavcal.pav import _CHUNK, _target_flags
from pavcal.selfcheck import STANDARD_RULES

T = Label.TARGET
N = Label.NONTARGET

labels_st = st.lists(st.sampled_from([T, N]), min_size=1, max_size=80)
weights_st = st.sampled_from([(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)])


def _flags(labels):
    return np.array([lab is T for lab in labels], dtype=bool)


@given(labels=labels_st, weights=weights_st)
def test_pav_fit_and_posteriors(labels, weights):
    flags = _flags(labels)
    assert repr(pav_fit(flags, weights)) == repr(pav_fit(labels, weights))
    assert repr(pav_posteriors(flags, weights)) == repr(pav_posteriors(labels, weights))


@given(labels=labels_st)
def test_llr_calibrate(labels):
    labels = labels + [T, N]  # both classes
    got, want = llr_calibrate(_flags(labels)), llr_calibrate(labels)
    assert repr((got.w, got.prior_logodds, got.t1, got.t2)) == repr(
        (want.w, want.prior_logodds, want.t1, want.t2)
    )


@given(labels=labels_st, weights=weights_st, seed=st.integers(0, 2**32 - 1))
def test_objective(labels, weights, seed):
    p = np.random.default_rng(seed).uniform(size=len(labels))
    p[: len(p) // 4] = 0.0  # infinite log costs for some targets
    flags = _flags(labels)
    for rule in STANDARD_RULES:
        assert repr(objective(rule, flags, weights, p)) == repr(objective(rule, labels, weights, p))


@given(labels=st.lists(st.sampled_from([T, N]), min_size=1, max_size=40), weights=weights_st)
def test_oracles(labels, weights):
    assert repr(maxmin_oracle(_flags(labels), weights)) == repr(maxmin_oracle(labels, weights))
    few = labels[:5]
    for rule in STANDARD_RULES:
        got = grid_minimizer(rule, _flags(few), weights, 11)
        assert repr(got) == repr(grid_minimizer(rule, few, weights, 11))


@given(
    labels=labels_st,
    weights=weights_st,
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["posterior", "llr"]),
    policy=st.sampled_from(["step", "linear"]),
)
def test_build_map(labels, weights, seed, mode, policy):
    labels = labels + [T, N]  # llr mode needs both classes
    scores = np.round(np.random.default_rng(seed).normal(size=len(labels)), 1)  # with ties
    got = build_map(scores, _flags(labels), weights, mode, policy)
    assert repr(got.knots) == repr(build_map(scores, labels, weights, mode, policy).knots)


# Each makes three entries afresh, since an iterator can be read only once.
NOT_FLAGS = {
    "int-array": lambda: np.array([1, 0, 1]),  # ints, not bools
    "2d-bool-array": lambda: np.array([[True], [False], [True]]),
    "bool-list": lambda: [True, False, True],  # Python bools, not Labels
    "str-in-tuple": lambda: (T, "target", N),
    "none-in-object-array": lambda: np.array([T, None, N], dtype=object),
    "2d-object-array": lambda: np.array([[T, N], [N, T], [T, T]], dtype=object),
    "int-in-deque": lambda: deque([T, N, 1]),
    "bool-in-generator": lambda: (lab for lab in [N, True, T]),
}

# The seven routines that take labels, each called on three of them.
LABEL_TAKERS = {
    "pav_fit": lambda labels: pav_fit(labels, (2.5, 0.7)),
    "pav_posteriors": lambda labels: pav_posteriors(labels, (2.5, 0.7)),
    "llr_calibrate": lambda labels: llr_calibrate(labels),
    "objective": lambda labels: objective(STANDARD_RULES[0], labels, (1.0, 1.0), [0.5] * 3),
    "maxmin_oracle": lambda labels: maxmin_oracle(labels, (1.0, 1.0)),
    "grid_minimizer": lambda labels: grid_minimizer(STANDARD_RULES[0], labels, (1.0, 1.0), 5),
    "build_map": lambda labels: build_map([0.0, 1.0, 2.0], labels, (1.0, 1.0)).knots,
}


@pytest.mark.parametrize("bad", NOT_FLAGS.values(), ids=NOT_FLAGS)
def test_anything_but_labels_or_1d_bool_flags_raises_type_error(bad):
    for call in LABEL_TAKERS.values():
        with pytest.raises(TypeError):
            call(bad())


ONE_SHOT = {"iterator": iter, "generator": lambda labels: (lab for lab in labels)}


@pytest.mark.parametrize("labels", [[T, N, T], [N, N, T], [T, T, N]], ids=["TNT", "NNT", "TTN"])
@pytest.mark.parametrize("one_shot", ONE_SHOT.values(), ids=ONE_SHOT)
@pytest.mark.parametrize("name", LABEL_TAKERS)
def test_one_shot_labels_give_the_list_result(name, one_shot, labels):
    call = LABEL_TAKERS[name]
    assert repr(call(one_shot(labels))) == repr(call(labels))


def test_an_object_equal_to_nontarget_passes_as_one():
    # A label that is not a member passes as a non-target if it is ==
    # Label.NONTARGET, and ANY equals every object.
    assert _target_flags([T, ANY, N]).tolist() == [True, False, False]
    assert pav_fit([T, ANY, N], (1.0, 1.0)).n == (2,)


def test_the_type_error_names_the_label_at_fault():
    with pytest.raises(TypeError, match=r"got 1$"):
        _target_flags([ANY, 1])
    with pytest.raises(TypeError, match=r"got 'x'$"):
        pav_fit([T, ANY, "x"], (1, 1))


def _once(labels, read):
    """A generator of labels that counts, in read[0], the labels it yields."""
    for lab in labels:
        read[0] += 1
        yield lab


class _LongList(list):
    """A list whose len over-reports its labels."""

    def __len__(self):
        return super().__len__() + 5


class _ShortList(list):
    """A list whose len under-reports its labels."""

    def __len__(self):
        return super().__len__() // 2


# Lists, tuples and arrays are read in counted chunks, and anything else
# through islice; a list subclass's len is not trusted.
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "deque": deque,
    "object-array": lambda labs: np.array(labs, dtype=object),
    "strided-object-array": lambda labs: np.array([x for lab in labs for x in (lab, 1)], object)[::2],
    "over-reporting-list": _LongList,
    "under-reporting-list": _ShortList,
}


def _in_every_container(**draws):
    """Hypothesis examples of these draws, one for each container."""

    def add(test):
        for container in ["generator", *CONTAINERS]:
            test = example(**draws, container=container)(test)
        return test

    return add


@given(
    size=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
    seed=st.integers(0, 2**32 - 1),
    share=st.sampled_from([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)]),
    bad=st.none()
    | st.tuples(
        st.sampled_from([0, _CHUNK - 1, _CHUNK, -1]) | st.integers(0, 2 * _CHUNK + 2),
        st.sampled_from([1, "x", None, True]),
    ),
    container=st.sampled_from(["generator", *CONTAINERS]),
)
@_in_every_container(size=2 * _CHUNK + 3, seed=3, share=(1, 1, 1), bad=None)
@_in_every_container(size=2 * _CHUNK + 3, seed=3, share=(1, 1, 1), bad=(_CHUNK + 4, "x"))
def test_labels_across_chunk_boundaries(size, seed, share, bad, container):
    # Mixes of T, N and ANY, read in chunks of _CHUNK, with at most one
    # non-Label at a drawn position, often at either side of a chunk's end;
    # explicitly, in every container, three chunks with and without a
    # non-Label at the second chunk's fifth.
    p = np.array(share) / sum(share)
    labels = [(T, N, ANY)[k] for k in np.random.default_rng(seed).choice(3, size, p=p).tolist()]
    if bad is not None and size:
        labels[bad[0] % size] = bad[1]
    read = [0]
    supplied = _once(labels, read) if container == "generator" else CONTAINERS[container](labels)
    if bad is not None and size:
        with pytest.raises(TypeError, match=f"^label must be a Label, got {re.escape(repr(bad[1]))}$"):
            _target_flags(supplied)
    else:
        assert _target_flags(supplied).tolist() == [lab is T for lab in labels]
        if container == "generator":
            assert read == [size]  # all of it, and a second read would find none


@pytest.mark.parametrize("one_shot", [False, True], ids=["list", "generator"])
def test_conversion_memory_stays_chunk_sized(one_shot):
    # Read whole, 1e6 labels would need an 8 MB object array and its 8 MB
    # of bytes; in chunks, the 1 MB of flags and their concatenation remain.
    labels = [T, N, N, T] * 250_000
    _target_flags(labels[:10])  # warm
    tracemalloc.start()
    try:
        flags = _target_flags((lab for lab in labels) if one_shot else labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.count_nonzero(flags) == 500_000


def _assert_flags_of(labels):
    got = _target_flags(labels)
    assert got.dtype == bool and got.ndim == 1
    assert got.tolist() == [lab is T for lab in labels]
    assert got.flags.writeable
    return got


@pytest.mark.parametrize(
    "container", [list, tuple, lambda labs: np.array(labs, dtype=object), deque],
    ids=["list", "tuple", "object-array", "deque"],
)
def test_flags_are_each_label_is_target(container):
    _assert_flags_of(container([T, N, N, T, T, N]))


@given(labels=st.lists(st.sampled_from([T, N]), max_size=300))
def test_flags_of_drawn_labels(labels):
    flags = _assert_flags_of(labels)
    flags[:] = True  # writable, and not shared with a later call
    assert _target_flags(labels).tolist() == [lab is T for lab in labels]


def test_no_labels_give_empty_flags_and_the_fits_name_the_missing_trial():
    assert _assert_flags_of([]).shape == (0,)
    with pytest.raises(ValueError, match="at least one trial"):
        pav_fit([], (1.0, 1.0))
    with pytest.raises(ValueError, match="at least one trial"):
        build_map([], [], (1.0, 1.0))
