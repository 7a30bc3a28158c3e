"""The paper's symmetries of the PAV fit, as exact tests of the command line.

The PAV blocks depend on the order of the scores and on the class counts
alone, and each trial's weight at a prior is the prior's share over its
class count.  So, in exact arithmetic and in pavcal's floats alike:
- every row twice gives the same blocks with doubled counts, and so the
  same maps; in llr mode or at a prior, where each trial's weight halves
  exactly, it gives the same evaluate lines too;
- a strictly increasing transform of the scores, s -> 2s or s -> its rank,
  gives the same blocks: the same fit lines, and the same knot values at
  the transformed knot scores.
Each is compared byte for byte, over the golden inputs that read and over
random files.  The mirror symmetry (negated scores, swapped labels, the
opposite prior) is not exact in pavcal's floats yet, and is not tested here.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, strategies as st

from golden.regenerate import inputs
from pavcal import CalibrationMap
from pavcal.cli import DataError, _read_csv, main

RULES = ["--rule", "log", "--rule", "brier", "--rule", "cost@0.37",
         "--rule", "mix(0.5@0.21,0.5@0.68)"]
PRIORS = ("0", "20", "37")
# The fit flags each test runs: both modes and policies, and the ways to
# set the weights.
FITS = [[*mode, "--policy", policy, *weights]
        for mode in ([], ["--mode", "llr"])
        for policy in ("step", "linear")
        for weights in ([], ["--prior-logodds", "-1.5"], ["--prior-logodds", "20"],
                        ["--weights", "2.5,0.7"])
        if not (mode and weights[:1] == ["--weights"])]


def _golden_rows():
    """The rows of each golden input that reads, as (scores, flags, values)
    lists; values is None for a file whose calibrated column does not read."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "in.csv"))
        for data in inputs().values():
            Path(path).write_bytes(data)
            for calibrated in ("calibrated", None):
                try:
                    scores, flags, values = _read_csv(path, calibrated, llrs=True)
                except DataError:
                    continue
                rows.append((scores.tolist(), flags.tolist(),
                             None if values is None else values.tolist()))
                break
    return rows


GOLDEN = _golden_rows()
scores = st.one_of(st.floats(-1e300, 1e300), st.integers(-4, 4).map(float),
                   st.sampled_from([-0.0, 0.0, 5e-324, -1e-310]))


@st.composite
def random_rows(draw):
    size = draw(st.integers(1, 30))
    return (draw(st.lists(scores, min_size=size, max_size=size)),
            draw(st.lists(st.booleans(), min_size=size, max_size=size)),
            draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]),
                          min_size=size, max_size=size)))


# Files with both classes, which every fit needs.
files = (st.sampled_from(GOLDEN) | random_rows()).filter(lambda rows: 0 < sum(rows[1]) < len(rows[1]))


def _text(rows):
    """A score,label[,calibrated] file of rows, each value written by repr."""
    scores, flags, values = rows
    lines = [["score", "label"] + ["calibrated"] * (values is not None)]
    for k, (score, flag) in enumerate(zip(scores, flags)):
        lines.append([repr(score), "target" if flag else "nontarget"]
                     + ([] if values is None else [repr(values[k])]))
    return "".join(",".join(line) + "\n" for line in lines)


def _run(rows, argv):
    """main's exit code, stdout, stderr and map text, run with "in.csv" in
    argv naming a file of rows and "out.map" a path for the map."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in.csv").write_text(_text(rows), encoding="utf-8")
        argv = [str(Path(tmp, a)) if a in ("in.csv", "out.map") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = Path(tmp, "out.map")
        return code, out.getvalue(), err.getvalue(), written.exists() and written.read_text()


def _fit(rows, flags):
    return _run(rows, ["fit", "in.csv", "--out", "out.map", *flags, *RULES])


def _twice(rows):
    scores, flags, values = rows
    return scores * 2, flags * 2, None if values is None else values * 2


@given(rows=files, flags=st.sampled_from(FITS))
def test_every_row_twice_gives_the_same_map(rows, flags):
    once, twice = _fit(rows, flags), _fit(_twice(rows), flags)
    assert once[0] == twice[0] == 0, (once, twice)
    assert once[3] == twice[3]


# The evaluate flags that score at a prior: llr mode takes the class
# proportions' without --prior-logodds.  Without a prior, posterior mode
# scores at fixed weights, and its costs double with the rows.
EVALUATES = [["--mode", "llr"]] + [[*mode, "--prior-logodds", prior]
                                   for mode in ([], ["--mode", "llr"]) for prior in PRIORS]


@given(rows=files, flags=st.sampled_from(EVALUATES))
def test_every_row_twice_gives_the_same_evaluate_lines(rows, flags):
    # Each trial's weight is the prior's share over its class count, so it
    # halves exactly when every count doubles.
    values = rows[2]
    assume(values is not None and ("llr" in flags or all(0.0 <= v <= 1.0 for v in values)))
    argv = ["evaluate", "in.csv", "--calibrated", *flags, *RULES]
    once, twice = _run(rows, argv), _run(_twice(rows), argv)
    assert once[0] == 0, once
    assert once == twice


def _ranks(scores):
    """Each score's rank among the distinct scores, -0.0 and 0.0 as one."""
    distinct = np.unique(scores)
    return lambda s: float(np.searchsorted(distinct, s))


@given(rows=files, flags=st.sampled_from(FITS), transform=st.sampled_from(["double", "rank"]))
def test_a_monotone_transform_of_the_scores_gives_the_same_fit(rows, flags, transform):
    scores, labels, values = rows
    assume(all(math.isfinite(2.0 * s) for s in scores))
    to = (lambda s: 2.0 * s) if transform == "double" else _ranks(scores)
    once = _fit(rows, flags)
    moved = _fit(([to(s) for s in scores], labels, values), flags)
    assert once[0] == 0, once
    assert once[:3] == moved[:3]
    cmap = CalibrationMap.from_text(once[3])
    knots = tuple((to(s), v) for s, v in cmap.knots)
    assert moved[3] == CalibrationMap(knots, cmap.mode, cmap.policy).to_text()
