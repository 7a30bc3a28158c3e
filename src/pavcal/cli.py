"""Command line front end: fit, apply, evaluate, selfcheck.

Exit codes: 0 success, 1 data error (unreadable or malformed input),
2 usage error (bad flags or flag/mode mismatch), 3 selfcheck failure.
All file output is deterministic: same inputs, flags and seed give byte
identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, ContextManager, Sequence, TextIO

import numpy as np

from .calmap import MODES, POLICIES, CalibrationMap, _apply, _fit, _map
from .llr import _class_log_odds, _posteriors, weights_from_prior
from .pav import _price, _target_flags
from .rules import Logarithmic, ScoringRule, _total_cost, parse_rule
from .types import Label, WeightPair


class DataError(Exception):
    """Input file problems: exit code 1."""


class UsageError(Exception):
    """Flag combination problems: exit code 2."""


def _parse_weight_pair(text: str) -> WeightPair:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'v1,v2', got {text!r}")
    return WeightPair(float(parts[0]), float(parts[1]))


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
    """A CSV file's data rows by column; target flags, values and score
    texts only if asked for.  texts[i] is the field score i was read from:
    a str, or latin-1 bytes from loadtxt."""

    scores: np.ndarray
    flags: np.ndarray | None
    values: np.ndarray | None
    texts: list[str] | np.ndarray | None = None

    def __len__(self) -> int:
        return self.scores.size


def _read_csv(
    path: str,
    labeled: bool = False,
    calibrated: str | None = None,
    llrs: bool = False,
    texts: bool = False,
) -> tuple[dict[str, int] | None, _Rows]:
    """The header and the data rows of a CSV file (see _columns for the
    header).  The calibrated column holds probabilities in [0, 1], or with
    llrs any LLR but NaN.  With texts the rows keep each score's text.

    A plain file is split into columns by one np.loadtxt pass, any other
    file by the csv module.  The same checks then run on either split,
    column by column, and DataError names the line of the first fault found
    in the first faulty column."""
    names = ["score", "label"] if labeled else ["score"]
    if calibrated:
        names.append(calibrated.lower())
    header, columns, field = _bulk_read(path, names, texts) or _read_lines(path, names)
    scores = _numbers(columns, 0, field, "score")
    flags = _target_column(columns[1], field) if len(names) > 1 else None
    values = None
    if len(names) > 2:
        values = _numbers(columns, 2, field, "calibrated value", infinite_ok=llrs)
        outside = (values < 0.0) | (values > 1.0)
        i = int(np.argmax(outside))  # the first outside, if any
        if outside[i] and not llrs:
            lineno, _ = field(i, 2)
            raise DataError(f"line {lineno}: calibrated value {values[i].item()!r} outside [0, 1]")
    # With texts, the score texts: the csv module's, or the bulk reader's last column.
    cells = (columns[0] if isinstance(columns[0], list) else columns[-1]) if texts else None
    return header, _Rows(scores, flags, values, cells)


def _columns(fields: list[str], names: list[str], lineno: int) -> tuple[dict | None, list[int]]:
    """The header and the index of each named column, given the fields of a
    file's first non-blank row, on line lineno.  The row is a header when its
    first field is not numeric, and names match it case-insensitively;
    without one the columns are score, label, calibrated.  A name the header
    lacks is -1, and one it holds twice is a DataError."""
    if _is_number(fields[0].strip()):
        return None, list(range(len(names)))
    keys = [name.strip().lower() for name in fields]
    for name in names:
        if keys.count(name) > 1:
            raise DataError(f"line {lineno}: the header names column {name!r} more than once")
    header = {key: i for i, key in enumerate(keys)}
    return header, [header.get(n, -1) for n in names]


# field(i, k): the line number and the text of data row i's field in column k.
Field = Callable[[int, int], tuple[int, str]]


def _numbers(columns: list, k: int, field: Field, what: str, infinite_ok=False) -> np.ndarray:
    """Column k as float64: every field a number, none NaN, and none
    infinite unless infinite_ok."""
    values = columns[k]
    if isinstance(values, list):  # texts from the csv module
        try:
            values = np.fromiter(map(float, values), float, len(values))
        except ValueError:
            lineno, text = field(next(i for i, t in enumerate(values) if not _is_number(t)), k)
            # Show the text without the blanks float ignores: all that strip
            # removes but the separators \x1c-\x1f, which float turns down.
            text = re.sub(r"\A[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+\Z", "", text)
            raise DataError(f"line {lineno}: {what} {text!r} is not a number")
    bad = np.isnan(values) if infinite_ok else ~np.isfinite(values)
    i = int(np.argmax(bad))  # the first bad value, if any
    if bad[i]:
        lineno, text = field(i, k)
        if math.isnan(values[i]):
            raise DataError(f"line {lineno}: {what} must not be NaN")
        raise DataError(f"line {lineno}: {what} must be finite, got {text.strip()!r}")
    return values


def _target_column(labels: list[str] | np.ndarray, field: Field) -> np.ndarray:
    """The target flags of a label column: texts from the csv module, each
    parsed, or bytes from loadtxt, of which each distinct spelling that is
    not exact is parsed once."""
    flags, rows, which = np.empty(len(labels), bool), slice(None), slice(None)
    texts, text_rows = labels, range(len(labels))  # text_rows[i]: the row of texts[i]
    if isinstance(labels, np.ndarray):
        flags = labels == b"target"
        rows = np.flatnonzero(~flags & (labels != b"nontarget"))
        texts, first, which = np.unique(labels[rows], return_index=True, return_inverse=True)
        texts, text_rows = [text.decode("latin-1") for text in texts.tolist()], rows[first]
    try:
        flags[rows] = _target_flags(list(map(Label.parse, texts)))[which]
    except ValueError:
        for i in sorted(range(len(texts)), key=text_rows.__getitem__):  # in file order
            try:
                Label.parse(texts[i].strip())
            except ValueError as exc:
                raise DataError(f"line {field(int(text_rows[i]), 1)[0]}: {exc}")
        raise
    return flags


# The fields of loadtxt's structured row, in the order of _read_csv's names,
# then the score's text if asked for.  loadtxt cuts a longer text to its
# field, so a label or a score text that fills it may be cut.  No score
# text that repr (24 bytes at most) or np.savetxt's %.18e (26) writes fills
# its field.
_TEXT_BYTES = 27
_BULK_FIELDS = [("score", "f8"), ("label", "S10"), ("calibrated", "f8")]
_NONBLANK = re.compile(rb"\S")


def _bulk_read(
    path: str, names: list[str], texts: bool = False
) -> tuple[dict[str, int] | None, list, Field] | None:
    """_read_csv's split of a plain file by one np.loadtxt call: the header,
    the named columns as float64 and S10 arrays, with texts the score
    column's texts too as a last column, cut to _TEXT_BYTES, and the field
    locator.  None for a file it cannot split: one with a quote, a NUL or
    \\x1c-\\x1f byte, a bare CR, a line longer than a csv field may be, a
    blank first line, a missing column or no data rows; one loadtxt cannot
    read; and one with a label that is not spelled exactly and fills its
    field."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if (
        # A quote, a NUL, or a separator byte that loadtxt strips from a
        # number as a blank and float does not.
        any(byte in data for byte in b'"\0\x1c\x1d\x1e\x1f')
        or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")  # a bare CR
        or not _lines_within(data, csv.field_size_limit())
    ):
        return None
    end = data.find(b"\n")
    first = data if end < 0 else data[:end]
    # A blank first line has no named column, and loadtxt turns down bytes
    # that are not UTF-8.
    fields = first.decode("utf-8-sig", "replace").removesuffix("\r").split(",")
    header, cols = _columns(fields, names, 1)
    skip = 0 if header is None else 1
    if -1 in cols or skip and not _NONBLANK.search(data, len(first) + 1):
        return None
    del data
    fields, usecols = _BULK_FIELDS[: len(names)], cols
    if texts:  # the score column once more, as text, in the same pass
        fields, usecols = fields + [("text", f"S{_TEXT_BYTES}")], cols + cols[:1]
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            table = np.loadtxt(
                fh, np.dtype(fields), comments=None, delimiter=",",
                skiprows=skip, usecols=usecols, ndmin=1, quotechar=None,
            )
    except (OSError, ValueError):
        return None
    columns = [np.ascontiguousarray(table["score"])]
    if len(names) > 1:
        labels = table["label"]
        unspelled = labels[(labels != b"target") & (labels != b"nontarget")]
        if unspelled.view("u1")[labels.itemsize - 1 :: labels.itemsize].any():
            return None  # a label that fills its field, last byte not NUL: loadtxt may have cut it
        columns.append(labels)
    if len(names) > 2:
        columns.append(np.ascontiguousarray(table["calibrated"]))
    if texts:
        columns.append(table["text"])

    def field(i: int, k: int) -> tuple[int, str]:
        # Data row i is the file's (skip + i)th line that is not empty, as
        # loadtxt counts them; the file has no quotes and no bare CR.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = ((n, line) for n, line in enumerate(fh, 1) if line.strip("\r\n"))
            lineno, line = next(itertools.islice(lines, skip + i, None))
        return lineno, line.rstrip("\r\n").split(",")[cols[k]]

    return header, columns, field


def _lines_within(data: bytes, limit: int) -> bool:
    """Whether no line of data is longer than limit bytes."""
    start = 0
    while len(data) - start > limit:
        end = data.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def _read_lines(path: str, names: list[str]) -> tuple[dict[str, int] | None, list, Field]:
    """_read_csv's split of any file by the csv module, line by line: the
    header, the named columns as lists of texts, and the field locator.
    DataError names the line of the first fault in the file's layout."""
    header, cols, rows, linenos = None, None, [], []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not any(map(str.strip, row)):
                    continue
                if cols is None:
                    header, cols = _columns(row, names, reader.line_num)
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
    return header, texts, lambda i, k: (linenos[i], texts[k][i])


def _open_out(path: str | None) -> ContextManager[TextIO]:
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}")


# Rows per chunk that apply maps, prices and writes at a time: enough that
# numpy's cost per call is small, few enough that no full-length temporary,
# list or string is ever built.
_WRITE_ROWS = 4096


def _write_columns(
    out: TextIO, texts: list[str], w: np.ndarray, prior: float | None, clamp: float | None
) -> None:
    """One line per row, joined and written as one string: the row's score
    text, then its calibrated value w, clipped to [-clamp, clamp] if clamp
    is given, and with a prior its posterior, each as repr writes it.  Each
    distinct value of w is priced and formatted once, keyed on its bits, as
    -0.0 and 0.0 print differently."""
    bits, which = np.unique(w.view("u8"), return_inverse=True)
    distinct = bits.view(float)
    columns = [distinct if clamp is None else np.clip(distinct, -clamp, clamp)]
    if prior is not None:
        columns.append(_posteriors(distinct, prior))
    tails = ["".join([f",{v!r}" for v in row]) + "\n" for row in zip(*(c.tolist() for c in columns))]
    out.write("".join(map(str.__add__, texts, np.array(tails, object)[which].tolist())))


def _text_cells(texts: list[str] | np.ndarray, scores: np.ndarray) -> list[str]:
    """The score cells apply writes: each text without the blanks float
    ignores, which are those strip removes from a number's text, if it is
    plain, else its score as repr writes it.  A text is plain if it is
    ASCII, holds no "_" and, blanks included, is shorter than _TEXT_BYTES,
    so that it is a decimal number to any CSV reader and loadtxt did not
    cut it.  loadtxt's bytes are latin-1."""
    if isinstance(texts, np.ndarray):
        texts = b"\n".join(texts.tolist()).decode("latin-1").split("\n")
    cells = list(map(str.strip, texts))
    # One check of a chunk's joined texts: a check per row measured 1 MB
    # more peak RSS on the benchmark's apply-llr-100k.
    joined = "".join(texts)
    if not joined.isascii() or "_" in joined or max(map(len, texts)) >= _TEXT_BYTES:
        for i, text in enumerate(texts):
            if not text.isascii() or "_" in text or len(text) >= _TEXT_BYTES:
                cells[i] = repr(scores[i].item())
    return cells


def _rules_of(args: argparse.Namespace) -> list[ScoringRule]:
    return list(args.rule) if args.rule else [Logarithmic()]


def _scoring_weights(args: argparse.Namespace, t1: int, t2: int) -> tuple[WeightPair, float | None]:
    """The weights fit and evaluate score at, and the prior log-odds they come from:
    --weights; else --prior-logodds; else in llr mode the class proportions'; else 1,1."""
    pi = args.prior_logodds
    if pi is None and args.mode == "llr":
        pi = _class_log_odds(t1, t2)
    if pi is None:
        return args.weights or WeightPair(1.0, 1.0), None
    return weights_from_prior(pi, t1, t2), pi


def _read_labeled(
    args: argparse.Namespace, calibrated: str | None = None
) -> tuple[_Rows, int, int]:
    """The rows of a labeled input and their target and non-target counts.
    llr mode turns down --weights, before the file is read."""
    if args.mode == "llr" and args.weights is not None:
        raise UsageError("--weights has no effect in llr mode")
    _, rows = _read_csv(args.input, labeled=True, calibrated=calibrated, llrs=args.mode == "llr")
    t1 = np.count_nonzero(rows.flags)
    return rows, t1, len(rows) - t1


def cmd_fit(args: argparse.Namespace) -> int:
    rows, t1, t2 = _read_labeled(args)
    weights = _scoring_weights(args, t1, t2)[0]
    fit = _fit(rows.scores, rows.flags)
    try:
        _map(fit, weights, args.mode, args.policy).save(args.out)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}")
    m, n = fit[2:]
    print(f"T={len(rows)} T1={t1} T2={t2} blocks={m.size}")
    q = _price(m, n, weights.v1, weights.v2)  # each block's posterior at the weights
    for rule in _rules_of(args):
        print(f"objective[{rule}]={_total_cost(rule, weights, (q, m), (q, n))!r}")
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
    rows = _read_csv(args.input, texts=True)[1]
    prior, clamp = args.prior_logodds, args.clamp_llr
    with _open_out(args.out) as out:
        out.write("score,calibrated\n" if prior is None else "score,calibrated,posterior\n")
        for start in range(0, len(rows), _WRITE_ROWS):
            part = slice(start, start + _WRITE_ROWS)
            w = _apply(cmap, rows.scores[part])
            _write_columns(out, _text_cells(rows.texts[part], rows.scores[part]), w, prior, clamp)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    rows, t1, t2 = _read_labeled(args, args.calibrated)
    weights, pi = _scoring_weights(args, t1, t2)
    if rows.values is not None:  # checked by the reader; _posteriors gives values in [0, 1]
        values = _posteriors(rows.values, pi) if args.mode == "llr" else rows.values
        sides = [np.unique(values[f], return_counts=True) for f in (rows.flags, ~rows.flags)]
    m, n = _fit(rows.scores, rows.flags)[2:]
    q = _price(m, n, weights.v1, weights.v2)
    for rule in _rules_of(args):
        ref_obj = _total_cost(rule, weights, (q, m), (q, n))
        line = f"rule={rule} reference={ref_obj!r}"
        if rows.values is not None:
            cal_obj = _total_cost(rule, weights, *sides)
            if ref_obj == 0.0:
                ratio = 1.0 if cal_obj == 0.0 else math.inf
            else:
                ratio = cal_obj / ref_obj
            line += f" calibrated={cal_obj!r} ratio={ratio!r}"
        print(line)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from .selfcheck import DEFAULT_WEIGHT_PAIRS, run_selfcheck  # loaded for this command only

    if min(args.max_len, args.instances, args.candidates) < 1:
        raise UsageError("--max-len, --instances and --candidates must be positive")
    if args.seed < 0:
        raise UsageError("--seed must not be negative")
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

    # The flags fit and evaluate share.
    labeled = argparse.ArgumentParser(add_help=False)
    labeled.add_argument("input", help="CSV with columns score,label")
    labeled.add_argument("--mode", choices=MODES, default="posterior")
    wgroup = labeled.add_mutually_exclusive_group()
    wgroup.add_argument("--weights", type=_parse_weight_pair, metavar="V1,V2")
    wgroup.add_argument("--prior-logodds", type=_finite_float, metavar="PI")
    labeled.add_argument(
        "--rule", action="append", type=parse_rule, metavar="RULE",
        help="objective to report: log, brier, cost@T, mix(A@T,...); repeatable",
    )

    fit = sub.add_parser("fit", parents=[labeled], help="fit a calibration map from labeled scores")
    fit.add_argument("--out", required=True, help="path for the fitted map")
    fit.add_argument("--policy", choices=POLICIES, default="step")
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

    ev = sub.add_parser("evaluate", parents=[labeled],
                        help="score calibrated values against the monotone floor")
    ev.add_argument("--calibrated", nargs="?", const="calibrated", metavar="COLUMN",
                    help="column holding values to evaluate (third column if no header)")
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
