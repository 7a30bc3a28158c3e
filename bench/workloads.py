"""Inputs, commands and output checks of the pavcal benchmark workloads.

Inputs are drawn from numpy generators seeded with (seed, workload salt),
so one seed always gives byte-identical files.  Every check recomputes the
expected result on its own, with numpy and a small PAV pass of its own; no
check compares against bytes captured from an earlier commit.

Why each workload exists:

  fit            The full training path: CSV parse, Trial construction,
                 sort, the PAV stack over every distinct score, the map
                 write and two objectives all do work.  Scores are
                 continuous Gaussians, so every score is distinct.
  apply-llr      The scoring path: it reads a small map (a linear-policy
                 LLR map with +-inf ends) and writes a large CSV, while fit
                 reads a large file and writes a small one.  PAV and the
                 scoring rules do no work here.
  evaluate-ties  Scores rounded to 2 decimals pool into ~1.2k items, so the
                 PAV layer is near zero and six objectives over every row
                 dominate after parsing.  It is the opposite case to fit
                 for the PAV layer, and the only one on the tie-pool path.
  lib-llr        In-process llr_calibrate on Labels in score order, as in
                 the README quick start.  It is the only workload where PAV
                 is a large share of wall time, so an array PAV core can
                 show its gain here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TARGET_SHARE = 0.1
APPLY_PRIOR_LOGODDS = -2.0
APPLY_CLAMP = 20.0
EVAL_RULES = ("log", "brier", "mix(0.5@0.21,0.5@0.68)")
FIT_RULES = ("log", "brier")
MIX_COMPONENTS = ((0.5, 0.21), (0.5, 0.68))
# Logistic calibration written to the evaluate input: monotone in the
# rounded score, strictly inside (0, 1), and deliberately not optimal.
EVAL_SLOPE, EVAL_OFFSET = 1.6, -2.4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "cli" or "lib"
    rows: int
    salt: int
    entry_module: str  # what a user's process imports first


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-100k", "cli", 100_000, 1, "pavcal.cli"),
        Workload("apply-llr-100k", "cli", 100_000, 2, "pavcal.cli"),
        Workload("evaluate-ties-100k", "cli", 100_000, 3, "pavcal.cli"),
        Workload("lib-llr-1m", "lib", 1_000_000, 4, "pavcal"),
    )
}


@dataclass
class Inputs:
    """Generated data of one workload run, kept for the output checks."""

    scores: np.ndarray                  # row order of the input file
    targets: np.ndarray | None = None   # bool per row
    calibrated: np.ndarray | None = None
    files: dict[str, Path] = field(default_factory=dict)
    props: dict = field(default_factory=dict)


def rng_for(seed: int, salt: int, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, salt, part])


def labeled_scores(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct Gaussian scores in random row order: targets N(1.5, 1),
    nontargets N(-1.5, 1.3), TARGET_SHARE of the rows targets."""
    targets = np.zeros(rows, dtype=bool)
    targets[: int(round(rows * TARGET_SHARE))] = True
    targets = targets[rng.permutation(rows)]
    scores = np.empty(rows)
    redraw = np.arange(rows)
    while redraw.size:
        t = targets[redraw]
        scores[redraw] = np.where(
            t, rng.normal(1.5, 1.0, redraw.size), rng.normal(-1.5, 1.3, redraw.size)
        )
        repeated = np.ones(rows, dtype=bool)
        repeated[np.unique(scores, return_index=True)[1]] = False
        redraw = np.flatnonzero(repeated)
    return scores, targets


def sorted_labels(seed: int, rows: int, salt: int) -> np.ndarray:
    """Target flags in ascending score order, the lib-llr input."""
    scores, targets = labeled_scores(rng_for(seed, salt), rows)
    return targets[np.argsort(scores, kind="stable")]


def _write(path: Path, header: str, columns: list[list]) -> None:
    body = "\n".join(",".join(map(str, row)) for row in zip(*columns))
    path.write_text(f"{header}\n{body}\n", encoding="utf-8")


def _labels_text(targets: np.ndarray) -> list[str]:
    return np.where(targets, "target", "nontarget").tolist()


def _float_texts(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()]


def sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def pool_ties(scores: np.ndarray, targets: np.ndarray):
    """Distinct sorted scores, per-row item index, target / nontarget counts."""
    uniq, inv = np.unique(scores, return_inverse=True)
    m = np.bincount(inv, weights=targets, minlength=uniq.size).astype(np.int64)
    n = np.bincount(inv, minlength=uniq.size) - m
    return uniq, inv, m, n


def pav_values(m: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit-weight PAV over pooled items: per-item fitted values, block count."""
    bm: list[int] = []
    bn: list[int] = []
    size: list[int] = []
    vals: list[float] = []
    for mk, nk in zip(m.tolist(), n.tolist()):
        count = 1
        a = mk * 1.0
        val = a / (a + nk * 1.0)
        while vals and vals[-1] >= val:
            vals.pop()
            mk += bm.pop()
            nk += bn.pop()
            count += size.pop()
            a = mk * 1.0
            val = a / (a + nk * 1.0)
        bm.append(mk)
        bn.append(nk)
        size.append(count)
        vals.append(val)
    return np.repeat(np.array(vals), size), len(vals)


def costs(rule: str, targets: np.ndarray, q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        if rule == "log":
            return np.where(targets, -np.log(q), -np.log(1.0 - q))
        if rule == "brier":
            return np.where(targets, 3.0 * (1.0 - q) ** 2, 3.0 * q * q)
    if rule == EVAL_RULES[2]:
        tc = sum(np.where(q < t, a * (1.0 / t), 0.0) for a, t in MIX_COMPONENTS)
        nc = sum(np.where(q >= t, a * (1.0 / (1.0 - t)), 0.0) for a, t in MIX_COMPONENTS)
        return np.where(targets, tc, nc)
    raise ValueError(f"no reference cost for rule {rule!r}")


def objective(rule: str, targets: np.ndarray, q: np.ndarray) -> float:
    c = costs(rule, targets, q)
    return math.inf if np.isinf(c).any() else math.fsum(c.tolist())


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1.0)


def step_eval(xs: np.ndarray, vs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Right-continuous step map, clamped to the end values."""
    return vs[np.maximum(np.searchsorted(xs, s, side="right") - 1, 0)]


def linear_eval(xs: np.ndarray, vs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Linear-policy map: flat across blocks, ramps between them, a step
    where a ramp end is infinite, clamped to the end values."""
    i = np.searchsorted(xs, s, side="right") - 1
    j = np.clip(i, 0, xs.size - 2) if xs.size > 1 else np.zeros_like(i)
    x0, v0 = xs[j], vs[j]
    x1, v1 = xs[np.minimum(j + 1, xs.size - 1)], vs[np.minimum(j + 1, xs.size - 1)]
    with np.errstate(invalid="ignore", divide="ignore"):
        ramp = v0 + (s - x0) / (x1 - x0) * (v1 - v0)
        ramp = np.minimum(np.maximum(ramp, v0), v1)
    flat = (s == x0) | (v0 == v1) | np.isinf(v0) | np.isinf(v1)
    out = np.where(flat, v0, ramp)
    out = np.where(i < 0, vs[0], out)
    return np.where(i >= xs.size - 1, vs[-1], out)


def read_map_knots(cmap) -> tuple[np.ndarray, np.ndarray]:
    xs, vs = zip(*cmap.knots)
    return np.array(xs), np.array(vs)


# --- input generation ------------------------------------------------------


def make_fit(work: Path, seed: int, rows: int, salt: int) -> Inputs:
    scores, targets = labeled_scores(rng_for(seed, salt), rows)
    path = work / "train.csv"
    _write(path, "score,label", [_float_texts(scores), _labels_text(targets)])
    _, _, m, n = pool_ties(scores, targets)
    _, blocks = pav_values(m, n)
    inp = Inputs(scores, targets, files={"train": path})
    inp.props = _props(path, scores, targets) | {"blocks": blocks}
    return inp


def make_apply(work: Path, seed: int, rows: int, salt: int) -> Inputs:
    """Scores to calibrate, plus a separately seeded labeled file that the
    caller fits into the LLR map before anything is timed."""
    train_scores, train_targets = labeled_scores(rng_for(seed, salt, 1), rows)
    train = work / "map-train.csv"
    _write(train, "score,label", [_float_texts(train_scores), _labels_text(train_targets)])
    scores, _ = labeled_scores(rng_for(seed, salt, 2), rows)
    path = work / "scores.csv"
    _write(path, "score", [_float_texts(scores)])
    inp = Inputs(scores, files={"map-train": train, "scores": path})
    inp.props = _props(path, scores, None)
    return inp


def make_evaluate(work: Path, seed: int, rows: int, salt: int) -> Inputs:
    raw, targets = labeled_scores(rng_for(seed, salt), rows)
    scores = np.round(raw, 2)
    calibrated = sigmoid(EVAL_SLOPE * scores + EVAL_OFFSET)
    path = work / "eval.csv"
    _write(path, "score,label,calibrated",
           [_float_texts(scores), _labels_text(targets), _float_texts(calibrated)])
    _, inv, m, n = pool_ties(scores, targets)
    item_vals, blocks = pav_values(m, n)
    inp = Inputs(scores, targets, calibrated, files={"eval": path})
    inp.props = _props(path, scores, targets) | {"blocks": blocks}
    inp.props["reference"] = {r: objective(r, targets, item_vals[inv]) for r in EVAL_RULES}
    return inp


def make_lib(seed: int, rows: int, salt: int) -> Inputs:
    flags = sorted_labels(seed, rows, salt)
    inp = Inputs(np.arange(rows, dtype=float), flags)
    inp.props = {"rows": rows, "targets": int(flags.sum()), "distinct_scores": rows,
                 "tie_share": 0.0}
    return inp


def _props(path: Path, scores: np.ndarray, targets: np.ndarray | None) -> dict:
    distinct = int(np.unique(scores).size)
    props = {
        "rows": int(scores.size),
        "bytes": path.stat().st_size,
        "distinct_scores": distinct,
        "tie_share": 1.0 - distinct / scores.size,
    }
    if targets is not None:
        props["targets"] = int(targets.sum())
    return props


# --- output checks: each returns None when the output is right -------------


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


def check_fit(inp: Inputs, stdout: str, cmap) -> str | None:
    """cmap is the written map as loaded by CalibrationMap.load."""
    lines = stdout.splitlines()
    if len(lines) != 1 + len(FIT_RULES):
        return f"expected {1 + len(FIT_RULES)} stdout lines, got {len(lines)}"
    head = _fields(lines[0])
    t1 = int(inp.targets.sum())
    want = {"T": inp.scores.size, "T1": t1, "T2": inp.scores.size - t1,
            "blocks": inp.props["blocks"]}
    for key, value in want.items():
        if int(head.get(key, -1)) != value:
            return f"printed {key}={head.get(key)}, expected {value}"
    xs, vs = read_map_knots(cmap)
    q = step_eval(xs, vs, inp.scores)
    mass = math.fsum(q.tolist())
    if not close(mass, t1, 1e-9):
        return f"map mass over training scores {mass!r} != T1={t1}"
    for line, rule in zip(lines[1:], FIT_RULES):
        prefix = f"objective[{rule}]="
        if not line.startswith(prefix):
            return f"unexpected objective line {line!r}"
        got, ref = float(line[len(prefix):]), objective(rule, inp.targets, q)
        if not close(got, ref, 1e-9):
            return f"objective[{rule}] {got!r} != recomputed {ref!r}"
    return None


def check_apply(inp: Inputs, out_text: str, cmap) -> str | None:
    """cmap is the LLR map the command applied."""
    lines = out_text.split("\n")
    if lines[0] != "score,calibrated,posterior" or lines[-1] != "":
        return "bad header or missing final newline"
    if len(lines) - 2 != inp.scores.size:
        return f"{len(lines) - 2} output rows for {inp.scores.size} inputs"
    try:
        table = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    if table.ndim != 2 or table.shape[1] != 3:
        return "expected 3 columns"
    s, cal, post = table.T
    if not np.array_equal(s, inp.scores):
        return "output scores differ from the input rows"
    if not np.all(np.abs(cal) <= APPLY_CLAMP):
        return "calibrated value outside the clamp"
    order = np.argsort(s, kind="stable")
    if np.any(np.diff(cal[order]) < 0) or np.any(np.diff(post[order]) < 0):
        return "calibrated values decrease with the score"
    xs, vs = read_map_knots(cmap)
    w = linear_eval(xs, vs, s)
    want = np.clip(w, -APPLY_CLAMP, APPLY_CLAMP)
    if np.any(np.abs(cal - want) > 1e-12 * np.maximum(np.abs(want), 1.0)):
        return "calibrated values differ from the map"
    if np.any(np.abs(post - sigmoid(w + APPLY_PRIOR_LOGODDS)) > 1e-12):
        return "posteriors differ from sigmoid(llr + prior log-odds)"
    return None


def check_evaluate(inp: Inputs, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != len(EVAL_RULES):
        return f"expected {len(EVAL_RULES)} lines, got {len(lines)}"
    for line, rule in zip(lines, EVAL_RULES):
        try:
            f = _fields(line)
            ref, cal, ratio = float(f["reference"]), float(f["calibrated"]), float(f["ratio"])
        except (KeyError, ValueError):
            return f"unparsable line {line!r}"
        if f["rule"] != rule:
            return f"rule {f['rule']!r}, expected {rule!r}"
        if not close(ref, inp.props["reference"][rule], 1e-9):
            return f"{rule}: reference {ref!r} != recomputed {inp.props['reference'][rule]!r}"
        want = objective(rule, inp.targets, inp.calibrated)
        if not close(cal, want, 1e-9):
            return f"{rule}: calibrated {cal!r} != recomputed {want!r}"
        if not ratio >= 1.0 - 1e-12:
            return f"{rule}: ratio {ratio!r} below the PAV floor"
    return None


def check_lib(inp: Inputs, call: dict) -> str | None:
    """call holds what the child measured on one llr_calibrate result."""
    t1 = int(inp.targets.sum())
    if call["n"] != inp.targets.size or call["t1"] != t1:
        return f"n={call['n']} t1={call['t1']}, expected {inp.targets.size} and {t1}"
    if not close(call["mass"], t1, 1e-9):
        return f"sum of sigmoid(w + prior) {call['mass']!r} != t1={t1}"
    return None
