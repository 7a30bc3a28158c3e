"""Command line front end: fit, apply, evaluate, selfcheck.

Exit codes: 0 success, 1 data error (unreadable or malformed input),
2 usage error (bad flags or flag/mode mismatch), 3 selfcheck failure.
All file output is deterministic: same inputs, flags and seed give byte
identical files.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .calmap import CalibrationMap, _apply, _TiePool
from .llr import _class_log_odds, _posteriors, weights_from_prior
from .pav import _target_flags
from .rules import Logarithmic, ScoringRule, objective, parse_rule
from .selfcheck import DEFAULT_WEIGHT_PAIRS, run_selfcheck
from .types import Label, WeightPair


class DataError(Exception):
    """Input file problems: exit code 1."""


class UsageError(Exception):
    """Flag combination problems: exit code 2."""


def _parse_weight_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'v1,v2', got {text!r}")
    v1, v2 = float(parts[0]), float(parts[1])
    WeightPair(v1, v2)  # reject nonpositive values here, not mid-command
    return v1, v2


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class _Rows:
    """A CSV file's data rows by column; target flags and values only if asked for."""

    scores: np.ndarray
    flags: np.ndarray | None
    values: np.ndarray | None

    def __len__(self) -> int:
        return self.scores.size


def _floats(texts: list[str], linenos: list[int], what: str, infinite_ok=False) -> np.ndarray:
    """The texts as float64; NaN is an error, and so is inf unless infinite_ok."""
    try:
        values = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        i = next(i for i, text in enumerate(texts) if not _is_number(text))
        raise DataError(f"line {linenos[i]}: {what} {texts[i].strip()!r} is not a number")
    i = int(np.argmax(np.isnan(values) if infinite_ok else ~np.isfinite(values)))  # first bad
    if math.isnan(values[i]):
        raise DataError(f"line {linenos[i]}: {what} must not be NaN")
    if math.isinf(values[i]) and not infinite_ok:
        raise DataError(f"line {linenos[i]}: {what} must be finite, got {texts[i].strip()!r}")
    return values


def _flags(texts: list[str], linenos: list[int]) -> np.ndarray:
    try:
        return _target_flags(list(map(Label.parse, texts)))
    except ValueError:
        for lineno, text in zip(linenos, texts):
            try:
                Label.parse(text.strip())
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}")
        raise


def _read_csv(
    path: str, labeled: bool = False, calibrated: str | None = None, llrs: bool = False
) -> tuple[dict[str, int] | None, _Rows]:
    """The header and the data rows of a CSV file (see _columns for the
    header).  The calibrated column holds probabilities in [0, 1], or with
    llrs any LLR but NaN.

    A plain file is read in one np.loadtxt pass; any other file, and any
    file with a fault, is read line by line, which names the line of the
    first fault it finds."""
    names = ["score", "label"] if labeled else ["score"]
    if calibrated:
        names.append(calibrated.lower())
    return _bulk_read(path, names, llrs) or _read_lines(path, names, llrs)


def _columns(fields: list[str], names: list[str]) -> tuple[dict[str, int] | None, list[int]]:
    """The header and the index of each named column, given the fields of a
    file's first non-blank row.  The row is a header when its first field
    is not numeric, and names match it case-insensitively; without one the
    columns are score, label, calibrated.  A name the header lacks is -1."""
    if _is_number(fields[0].strip()):
        return None, list(range(len(names)))
    header = {name.strip().lower(): i for i, name in enumerate(fields)}
    return header, [header.get(n, -1) for n in names]


# Fields of the one structured loadtxt row, in the order of _read_csv's names.
# A label is read one byte wider than the longest label, so a longer field,
# which loadtxt cuts to that width, can never compare equal to a label.
_BULK_FIELDS = [("score", "f8"), ("label", "S10"), ("calibrated", "f8")]
_NONBLANK = re.compile(rb"\S")


def _bulk_read(
    path: str, names: list[str], llrs: bool
) -> tuple[dict[str, int] | None, _Rows] | None:
    """_read_csv's result for a plain file, or None for any file the csv
    reader might read otherwise or reject: one with a quote, a NUL byte, a
    bare CR, a line longer than a csv field may be, a first line that is
    blank, or no data rows after the header; and any file loadtxt cannot
    read or whose values are not all plain, exact and in range.

    The first and the last data line are read on their own before the whole
    file, so that a file whose every line is unusual (capitalised labels,
    say) or whose last line is cut short is turned down at once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if (
        b'"' in data
        or b"\0" in data
        or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")  # a bare CR
        or not _lines_within(data, csv.field_size_limit())
    ):
        return None
    first = _line(data, 0)
    start = len(first) + 1  # of the line after the first
    last = data[data.rfind(b"\n", 0, len(data) - 1) + 1 :]
    try:
        fields = first.decode("utf-8-sig").removesuffix("\r").split(",")
    except UnicodeDecodeError:
        return None
    if not any(map(str.strip, fields)):
        return None
    header, cols = _columns(fields, names)
    if -1 in cols or header is not None and not _NONBLANK.search(data, start):
        return None
    edges = (first if header is None else _line(data, start), last)
    del data
    texts = (line.decode("utf-8-sig", "replace") for line in edges)
    probe = [text for text in texts if text.strip()]
    if probe and _plain_rows(probe, names, cols, 0, llrs) is None:
        return None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            rows = _plain_rows(fh, names, cols, 0 if header is None else 1, llrs)
    except OSError:
        return None
    return None if rows is None else (header, rows)


def _plain_rows(
    lines: Iterable[str], names: list[str], cols: list[int], skiprows: int, llrs: bool
) -> _Rows | None:
    """The named columns of text lines, read by one np.loadtxt call, or None
    when loadtxt cannot read them or a value is not plain, exact and in range."""
    try:
        table = np.loadtxt(
            lines, np.dtype(_BULK_FIELDS[: len(names)]), comments=None, delimiter=",",
            skiprows=skiprows, usecols=cols, ndmin=1, quotechar=None,
        )
    except ValueError:
        return None
    scores = np.ascontiguousarray(table["score"])
    if not np.isfinite(scores).all():
        return None
    flags = values = None
    if len(names) > 1:
        labels = table["label"]
        flags = labels == b"target"
        if not (flags | (labels == b"nontarget")).all():
            return None
    if len(names) > 2:
        values = np.ascontiguousarray(table["calibrated"])
        if not (~np.isnan(values) if llrs else (values >= 0.0) & (values <= 1.0)).all():
            return None
    return _Rows(scores, flags, values)


def _line(data: bytes, start: int) -> bytes:
    """The line of data that begins at start, without its newline."""
    end = data.find(b"\n", start)
    return data[start : len(data) if end < 0 else end]


def _lines_within(data: bytes, limit: int) -> bool:
    """Whether no line of data is longer than limit bytes."""
    start = 0
    while len(data) - start > limit:
        end = data.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def _read_lines(path: str, names: list[str], llrs: bool) -> tuple[dict[str, int] | None, _Rows]:
    """_read_csv's result by the csv module, line by line; DataError names
    the line of the first fault found, checking column by column."""
    header, cols, rows, linenos = None, None, [], []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not any(map(str.strip, row)):
                    continue
                if cols is None:
                    header, cols = _columns(row, names)
                    if header is not None:
                        continue
                rows.append(row)
                linenos.append(reader.line_num)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}")
    except UnicodeDecodeError:  # name the first line that is not UTF-8
        with open(path, "rb") as fh:  # splitlines ends lines where csv does
            for lineno, line in enumerate(fh.read().splitlines(), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"line {lineno}: {exc}")
        raise
    if not rows:
        raise DataError(f"{path}: no data rows")

    if -1 in cols:
        raise DataError(f"{path}: missing column {names[cols.index(-1)]!r}")
    need = max(cols)
    if min(map(len, rows)) <= need:
        i = next(i for i, row in enumerate(rows) if len(row) <= need)
        what = f"expected at least {need + 1} fields" if len(names) > 1 else "missing score field"
        raise DataError(f"line {linenos[i]}: {what}")
    texts = [[row[col] for row in rows] for col in cols]
    del rows
    scores = _floats(texts[0], linenos, "score")
    flags = _flags(texts[1], linenos) if len(names) > 1 else None
    values = None
    if len(names) > 2:
        values = _floats(texts[2], linenos, "calibrated value", infinite_ok=llrs)
        i = int(np.argmax((values < 0.0) | (values > 1.0)))  # first outside, if any
        if not (llrs or 0.0 <= values[i] <= 1.0):
            value = values[i].item()
            raise DataError(f"line {linenos[i]}: calibrated value {value!r} outside [0, 1]")
    return header, _Rows(scores, flags, values)


def _open_out(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}")


# Rows per chunk the apply writer formats at a time: enough to spend its time
# in repr, few enough that no full-length list or string is ever built.
_WRITE_ROWS = 4096


def _write_columns(out: TextIO, columns: dict[str, np.ndarray]) -> None:
    """A header line of the column names, then one line per row with each
    value as repr writes it."""
    out.write(",".join(columns) + "\n")
    line = ",".join(["{!r}"] * len(columns)) + "\n"
    size = len(next(iter(columns.values())))
    for start in range(0, size, _WRITE_ROWS):
        chunk = [c[start : start + _WRITE_ROWS].tolist() for c in columns.values()]
        out.write("".join(map(line.format, *chunk)))


def _rules_of(args: argparse.Namespace) -> list[ScoringRule]:
    return list(args.rule) if args.rule else [Logarithmic()]


def _fit_weights(args: argparse.Namespace, pool: _TiePool) -> WeightPair:
    if args.prior_logodds is not None:
        return weights_from_prior(args.prior_logodds, pool.t1, pool.t2)
    if args.weights is not None:
        return WeightPair(*args.weights)
    return WeightPair(1.0, 1.0)


def cmd_fit(args: argparse.Namespace) -> int:
    _, rows = _read_csv(args.input, labeled=True)
    pool = _TiePool(rows.scores, rows.flags)
    if args.mode == "llr":
        if args.weights is not None:
            raise UsageError("--weights has no effect in llr mode")
        weights = WeightPair(1.0, 1.0)
    else:
        weights = _fit_weights(args, pool)
    cmap, values, blocks = pool.fit(weights, args.mode, args.policy)
    cmap.save(args.out)
    print(f"T={len(rows)} T1={pool.t1} T2={pool.t2} blocks={blocks}")

    if args.mode == "llr":
        values = _posteriors(values, _class_log_odds(pool.t1, pool.t2))
    for rule in _rules_of(args):
        print(f"objective[{rule}]={objective(rule, rows.flags, weights, values)!r}")
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    try:
        cmap = CalibrationMap.load(args.map)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load map {args.map}: {exc}")
    if cmap.mode == "posterior":
        if args.prior_logodds is not None:
            raise UsageError("--prior-logodds only applies to llr maps")
        if args.clamp_llr is not None:
            raise UsageError("--clamp-llr only applies to llr maps")
    if args.clamp_llr is not None and not args.clamp_llr > 0.0:
        raise UsageError("--clamp-llr must be positive")
    scores = _read_csv(args.input)[1].scores
    calibrated = _apply(cmap, scores)
    columns = {"score": scores, "calibrated": calibrated}
    if cmap.mode == "llr" and args.prior_logodds is not None:
        columns["posterior"] = _posteriors(calibrated, args.prior_logodds)
    if args.clamp_llr is not None:
        columns["calibrated"] = np.clip(calibrated, -args.clamp_llr, args.clamp_llr)

    out = _open_out(args.out)
    try:
        _write_columns(out, columns)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _, rows = _read_csv(
        args.input, labeled=True, calibrated=args.calibrated, llrs=args.mode == "llr"
    )
    pool = _TiePool(rows.scores, rows.flags)
    values = rows.values

    if args.mode == "llr":
        pi = args.prior_logodds
        if pi is None:
            pi = _class_log_odds(pool.t1, pool.t2)
        weights = weights_from_prior(pi, pool.t1, pool.t2)
        if values is not None:
            values = _posteriors(values, pi)
    else:
        weights = _fit_weights(args, pool)

    ref_vals = pool.fit(weights, "posterior", "step")[1]
    for rule in _rules_of(args):
        ref_obj = objective(rule, rows.flags, weights, ref_vals)
        line = f"rule={rule} reference={ref_obj!r}"
        if values is not None:
            cal_obj = objective(rule, rows.flags, weights, values)
            if ref_obj == 0.0:
                ratio = 1.0 if cal_obj == 0.0 else math.inf
            else:
                ratio = cal_obj / ref_obj
            line += f" calibrated={cal_obj!r} ratio={ratio!r}"
        print(line)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    pairs = [args.weights] if args.weights is not None else list(DEFAULT_WEIGHT_PAIRS)
    ok = run_selfcheck(
        max_len=args.max_len,
        weight_pairs=pairs,
        instances=args.instances,
        candidates=args.candidates,
        seed=args.seed,
        perf=args.perf,
    )
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavcal",
        description="Monotone calibration of binary classifier scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a calibration map from labeled scores")
    fit.add_argument("input", help="CSV with columns score,label")
    fit.add_argument("--out", required=True, help="path for the fitted map")
    fit.add_argument("--mode", choices=("posterior", "llr"), default="posterior")
    fit.add_argument("--policy", choices=("step", "linear"), default="step")
    wgroup = fit.add_mutually_exclusive_group()
    wgroup.add_argument("--weights", type=_parse_weight_pair, metavar="V1,V2")
    wgroup.add_argument("--prior-logodds", type=_finite_float, metavar="PI")
    fit.add_argument(
        "--rule", action="append", type=parse_rule, metavar="RULE",
        help="objective to report: log, brier, cost@T, mix(A@T,...); repeatable",
    )
    fit.set_defaults(func=cmd_fit)

    apply_p = sub.add_parser("apply", help="apply a fitted map to scores")
    apply_p.add_argument("map", help="map file written by fit")
    apply_p.add_argument("input", help="CSV with a score column")
    apply_p.add_argument("--out", help="output CSV (default stdout)")
    apply_p.add_argument("--prior-logodds", type=_finite_float, metavar="PI",
                         help="llr maps: also emit posteriors under this prior")
    apply_p.add_argument("--clamp-llr", type=float, metavar="L",
                         help="llr maps: clip calibrated values to [-L, L]")
    apply_p.set_defaults(func=cmd_apply)

    ev = sub.add_parser("evaluate", help="score calibrated values against the monotone floor")
    ev.add_argument("input", help="CSV with columns score,label")
    ev.add_argument("--calibrated", nargs="?", const="calibrated", metavar="COLUMN",
                    help="column holding values to evaluate (third column if no header)")
    ev.add_argument("--mode", choices=("posterior", "llr"), default="posterior")
    evw = ev.add_mutually_exclusive_group()
    evw.add_argument("--weights", type=_parse_weight_pair, metavar="V1,V2")
    evw.add_argument("--prior-logodds", type=_finite_float, metavar="PI")
    ev.add_argument("--rule", action="append", type=parse_rule, metavar="RULE")
    ev.set_defaults(func=cmd_evaluate)

    sc = sub.add_parser("selfcheck", help="run the built-in verification suites")
    sc.add_argument("--max-len", type=int, default=10,
                    help="exhaustive oracle check up to this length")
    sc.add_argument("--weights", type=_parse_weight_pair, metavar="V1,V2",
                    help="restrict the oracle check to one weight pair")
    sc.add_argument("--instances", type=int, default=25)
    sc.add_argument("--candidates", type=int, default=100)
    sc.add_argument("--seed", type=int, default=20260819)
    sc.add_argument("--perf", action="store_true", help="also time large fits")
    sc.set_defaults(func=cmd_selfcheck)

    # Read a token such as -1e-3 as a negative number, not as an option.
    for p in (fit, apply_p, ev):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DataError, UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
