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
import os
import re
import shutil
import sys
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .calmap import MODES, POLICIES, CalibrationMap, _apply, _fit, _map
from .llr import _class_log_odds, _posteriors, weights_from_prior
from .pav import _items, _price
from .rules import Logarithmic, ScoringRule, _total_cost, parse_rule
from .types import Label, WeightPair


class DataError(Exception):
    """Input file problems: exit code 1.  kind ranks the faults of one column."""

    def __init__(self, message: str, kind: int = 0):
        super().__init__(message)
        self.kind = kind


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
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _flag_value(parse: Callable) -> Callable:
    """parse, its ValueError raised as the ArgumentTypeError whose message argparse shows."""
    def parsed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parsed


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _read_csv(path: str, labeled=False, calibrated: str | None = None, llrs=False) -> tuple:
    """The header of a CSV file (see _columns), then its data rows' scores,
    target flags and calibrated values, None for a column not asked for.  The
    calibrated column holds probabilities in [0, 1], or with llrs any LLR but
    NaN.  Each chunk (see _chunks) is checked as read: DataError names a fault
    in the file's layout, else the first fault of the first kind (see _numbers)
    in the first faulty column.  Each column grows in one bytearray, by realloc
    (unwritten capacity is not resident), so the read holds it once."""
    names = ["score", "label"] if labeled else ["score"]
    names += [] if calibrated is None else [calibrated.lower()]
    chunks = _chunks(path, names)
    header = next(chunks)
    bufs, faults, spellings = [bytearray() for _ in names], {}, {}
    for columns, field in chunks:
        checks = [lambda: _numbers(columns[0], 0, field, "score"),
                  lambda: _target_column(columns[1], field, spellings),
                  lambda: _numbers(columns[2], 2, field, "calibrated value", llrs, not llrs)]
        for k in range(len(names)):  # up to the first column with a fault
            if faults and min(faults)[0] < k:
                break
            try:
                columns[k] = checks[k]()
            except DataError as exc:
                faults.setdefault((k, exc.kind), exc)
        if not faults:
            for buf, column in zip(bufs, columns):
                buf += column.data  # every column is contiguous
    if faults:
        raise faults[min(faults)]
    columns = [np.frombuffer(buf, dtype) for buf, dtype in zip(bufs, (float, bool, float))]
    return header, *columns, *[None] * (3 - len(columns))


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


def _numbers(values: np.ndarray, k: int, field: Callable, what: str, infinite_ok=False,
             unit=False) -> np.ndarray:
    """Column k's values (NaN for a field that is not a number), if every
    field is a number, none NaN, none infinite unless infinite_ok and, if
    unit, all in [0, 1].  Else DataError for the first that is not (kind 0),
    or failing that for the first value outside [0, 1] (kind 1)."""
    kinds = [np.isnan(values) if infinite_ok else ~np.isfinite(values),
             ((values < 0.0) | (values > 1.0)) & unit]
    for kind, bad in enumerate(kinds):
        i = int(np.argmax(bad))  # the first bad value, if any
        if not bad[i]:
            continue
        lineno, text = field(i, k)
        value = values[i].item()
        if kind:
            message = f"{value!r} outside [0, 1]"
        elif not _is_number(text):  # shown without the blanks float ignores: strip's, not \x1c-\x1f
            message = repr(re.sub(r"\A[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+\Z", "", text)) + " is not a number"
        else:
            message = "must not be NaN" if math.isnan(value) else f"must be finite, got {text.strip()!r}"
        raise DataError(f"line {lineno}: {what} {message}", kind)
    return values


def _target_column(labels: np.ndarray, field: Callable, spellings: dict[str, bool]) -> np.ndarray:
    """The target flags of a column of label texts.  spellings holds the flag
    of each spelling parsed so far, so each that is not exact is parsed once."""
    flags = labels == "target"
    rows = np.flatnonzero(~flags & (labels != "nontarget"))
    texts, first, which = np.unique(labels[rows], return_index=True, return_inverse=True)
    texts = texts.tolist()
    for i in np.argsort(first).tolist():  # in file order
        if texts[i] not in spellings:
            try:
                spellings[texts[i]] = Label.parse(texts[i].strip()).value == "target"
            except ValueError as exc:
                raise DataError(f"line {field(int(rows[first[i]]), 1)[0]}: {exc}")
    flags[rows] = np.array([spellings[text] for text in texts], bool)[which]
    return flags


# The fields of loadtxt's row, in the order of _chunks's names, then the score's
# text, whole as an object; loadtxt cuts a label longer than its field.
_FIELDS = [("score", "f8"), ("label", "U10"), ("calibrated", "f8"), ("text", "O")]


def _chunks(path: str, names: list[str], texts: bool = False) -> Iterator:
    """The header of a CSV file (see _columns), then its data rows in chunks
    of up to _WRITE_ROWS lines or records, each as (columns, field): the
    named columns, then with texts the score texts, numbers as float64 (NaN
    for a field that is not one) and texts as arrays of str; and field(i, k),
    the line and the text of row i's field in column k.  Plain chunks of
    lines (see _plain) are split by np.loadtxt, or by the csv module if
    loadtxt turns one down or may have cut a label; the rest of the file from
    the first chunk that is not plain, by one csv reader.  DataError names a
    fault in the layout, a byte that is not UTF-8 or a csv error as met, else
    a missing column or the first short row once all is read; or no rows."""
    n, count, lineno = len(names), 0, 0
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = list(itertools.islice(fh, _WRITE_ROWS))
            header, cols = (_columns(lines[0].rstrip("\r\n").split(","), names, 1)
                            if lines and _plain(lines) else (None, [-1]))
            plain = -1 not in cols  # else the csv module reads the header
            source = itertools.chain(lines, fh)
            if plain:
                yield header
                lineno = int(header is not None)
                source = itertools.islice(source, lineno, None)
                while (lines := list(itertools.islice(source, _WRITE_ROWS))) and _plain(lines):
                    if any(map(str.strip, lines)):  # else no data rows, and loadtxt would warn
                        columns, field = _split(lines, lineno, cols, n, texts)
                        if columns[0].size:
                            count += columns[0].size
                            yield columns, field
                        del columns, field  # a chunk is held by its reader alone
                    lineno += len(lines)
                source = itertools.chain(lines, source)  # from the first chunk that is not plain
            reader = csv.reader(source)
            records = _records(reader, lineno)
            if not plain:
                head = next(records, None)
                header, cols = _columns(head[0], names, head[1]) if head else (None, [])
                yield header
                if header is None and head:
                    records = itertools.chain([head], records)
            try:
                if -1 in cols and next(records, None):
                    raise DataError(f"{path}: missing column {names[cols.index(-1)]!r}")
                while part := list(itertools.islice(records, _WRITE_ROWS)):
                    count += len(part)
                    yield _split_records(part, cols, n, texts)
            except DataError:  # a fault that the csv module meets further on comes first
                for _ in records:
                    pass
                raise
            if not count:
                raise DataError(f"{path}: no data rows")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except csv.Error as exc:
        raise DataError(f"line {lineno + reader.line_num}: {exc}")
    except UnicodeDecodeError:  # name the first line that is not UTF-8
        with open(path, "rb") as fh:  # splitlines ends lines where csv does
            for lineno, line in enumerate((p for line in fh for p in line.splitlines()), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"line {lineno}: {exc}")
        raise


def _plain(lines: list[str]) -> bool:
    """Whether lines hold no quote, NUL, separator \\x1c-\\x1f (a blank to loadtxt,
    not to float) or bare CR, and no line longer than a csv field may be."""
    text, limit = "".join(lines), csv.field_size_limit()
    return not (any(char in text for char in '"\0\x1c\x1d\x1e\x1f')
                or "\r" in text and text.count("\r") != text.count("\r\n")
                or len(text) > limit and max(map(len, lines)) > limit)


def _split(lines: list[str], lineno: int, cols: list[int], n: int, texts: bool) -> tuple:
    """_chunks's chunk of a plain file's lines, from line lineno + 1, split by
    np.loadtxt, or by the csv module if loadtxt turns them down or may cut a label."""
    fields = _FIELDS[:n] + _FIELDS[3:] if texts else _FIELDS[:n]
    try:
        table = np.loadtxt(lines, np.dtype(fields), comments=None, delimiter=",",
                           usecols=cols + cols[:1] if texts else cols, ndmin=1, quotechar=None)
        labels = table["label"] if n > 1 else np.array([], "U10")
        if labels[(labels != "target") & (labels != "nontarget")].view(np.uint32)[9::10].any():
            raise ValueError("a label that is not spelled exactly fills its field, maybe cut")
    except ValueError:
        return _split_records(list(_records(csv.reader(lines), lineno)), cols, n, texts)

    def field(i: int, k: int) -> tuple[int, str]:  # loadtxt skips empty lines, and no others
        rows = ((m, line) for m, line in enumerate(lines, lineno + 1) if line.strip("\r\n"))
        m, line = next(itertools.islice(rows, i, None))
        return m, line.rstrip("\r\n").split(",")[cols[k]]

    return [np.ascontiguousarray(table[name]) for name, _ in fields], field  # none views the table


def _records(reader, lineno: int = 0) -> Iterator[tuple[list[str], int]]:
    """The csv reader's rows that are not blank, each with its line."""
    return ((row, lineno + reader.line_num) for row in reader if any(map(str.strip, row)))


def _split_records(records: list, cols: list[int], n: int, texts: bool) -> tuple:
    """_chunks's chunk of csv records, each a row and its line.  DataError
    names the line of the first row short of a named field."""
    need = max(cols)
    short = [lineno for row, lineno in records if len(row) <= need]
    if short:
        what = f"expected at least {need + 1} fields" if n > 1 else "missing score field"
        raise DataError(f"line {short[0]}: {what}")
    fields = [[row[col] for row, _ in records] for col in cols]
    split = [_floats, lambda texts: np.array(texts, object), _floats]
    columns = [split[k](fields[k]) for k in range(n)] + [np.array(fields[0], object)] * texts
    return columns, lambda i, k: (records[i][1], fields[k][i])


def _floats(texts: list[str]) -> np.ndarray:
    """texts as float64, NaN for each that is not a number."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.array([float(t) if _is_number(t) else math.nan for t in texts], float)


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[TextIO]:
    """stdout for no path or "-", else path opened for writing.  A regular
    file is written beside path and moved over it, keeping path's mode, if
    the block ends without an exception: a failure leaves path as it was."""
    if path is None or path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path) if os.path.isfile(path) or not os.path.exists(path) else None
    name = f"{target}.{os.getpid()}.tmp" if target else path
    try:
        out = open(name, "x" if target else "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        exc.filename = path
        raise DataError(f"cannot write {path}: {exc}")
    try:
        with out:
            yield out
        if target:
            if os.path.exists(target):
                shutil.copymode(target, name)
            os.replace(name, target)
    finally:
        if target and os.path.exists(name):
            os.remove(name)


# Lines or rows per chunk: numpy's cost per call is small, and nothing full-length is built.
_WRITE_ROWS = 4096


def _write_columns(out: TextIO, texts: list[str], w: np.ndarray, prior: float | None,
                   clamp: float | None) -> None:
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
    lines = [""] * (2 * len(texts))
    lines[::2], lines[1::2] = texts, np.array(tails, object)[which].tolist()
    out.write("".join(lines))


def _text_cells(texts: np.ndarray, scores: np.ndarray) -> list[str]:
    """The score cells apply writes: each text without the blanks float
    ignores (those strip removes from a number's text) if it is plain, else
    its score as repr writes it.  A text is plain if it is ASCII and holds no
    "_": a decimal number to any CSV reader."""
    texts = texts.tolist()
    cells = list(map(str.strip, texts))
    # One check of a chunk's joined texts: a check per row measured 1 MB
    # more peak RSS on the benchmark's apply-llr-100k.
    joined = "".join(texts)
    if not joined.isascii() or "_" in joined:
        for i, text in enumerate(texts):
            if not text.isascii() or "_" in text:
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


def _read_labeled(args: argparse.Namespace, calibrated: str | None = None) -> tuple:
    """The scores, target flags and values (or None) of a labeled input, and its
    target and non-target counts.  llr mode turns down --weights, before the file is read."""
    if args.mode == "llr" and args.weights is not None:
        raise UsageError("--weights has no effect in llr mode")
    _, scores, flags, values = _read_csv(args.input, labeled=True, calibrated=calibrated,
                                         llrs=args.mode == "llr")
    t1 = np.count_nonzero(flags)
    return scores, flags, values, t1, scores.size - t1


def cmd_fit(args: argparse.Namespace) -> int:
    scores, flags, _, t1, t2 = _read_labeled(args)
    weights = _scoring_weights(args, t1, t2)[0]
    fit = _fit(scores, flags)
    try:
        _map(fit, weights, args.mode, args.policy).save(args.out)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}")
    m, n = fit[2:]
    print(f"T={scores.size} T1={t1} T2={t2} blocks={m.size}")
    q = _price(m, n, weights.v1, weights.v2)  # each block's posterior at the weights
    for rule in _rules_of(args):
        print(f"objective[{rule}]={_total_cost(rule, weights, q, m, n)!r}")
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
    chunks = _chunks(args.input, ["score"], texts=True)
    next(chunks)  # the header
    prior, clamp = args.prior_logodds, args.clamp_llr
    head = "score,calibrated\n" if prior is None else "score,calibrated,posterior\n"
    with _open_out(args.out) as out:
        for (scores, texts), field in chunks:  # each checked, mapped and written as it is read
            _numbers(scores, 0, field, "score")
            out.write(head)
            head = ""
            _write_columns(out, _text_cells(texts, scores), _apply(cmap, scores), prior, clamp)
            del scores, texts, field  # before the next chunk is read
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.calibrated == "":
        raise UsageError("--calibrated needs a column name")
    scores, flags, values, t1, t2 = _read_labeled(args, args.calibrated)
    weights, pi = _scoring_weights(args, t1, t2)
    m, n = _fit(scores, flags)[2:]
    del scores  # freed before the calibrated column is sorted
    q = _price(m, n, weights.v1, weights.v2)
    if values is not None:  # checked by the reader; _posteriors gives values in [0, 1]
        cal, cm, cn = _items(values, flags)
        del values, flags
        if args.mode == "llr":  # each distinct LLR is priced once
            cal = _posteriors(cal, pi)
    for rule in _rules_of(args):
        ref_obj = _total_cost(rule, weights, q, m, n)
        line = f"rule={rule} reference={ref_obj!r}"
        if args.calibrated is not None:
            cal_obj = _total_cost(rule, weights, cal, cm, cn)
            ratio = cal_obj / ref_obj if ref_obj else 1.0 if cal_obj == 0.0 else math.inf
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
    ok = run_selfcheck(max_len=args.max_len, weight_pairs=pairs, instances=args.instances,
                       candidates=args.candidates, seed=args.seed, perf=args.perf)
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavcal", description="Monotone calibration of binary classifier scores.")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags fit and evaluate share.
    labeled = argparse.ArgumentParser(add_help=False)
    labeled.add_argument("input", help="CSV with columns score,label")
    labeled.add_argument("--mode", choices=MODES, default="posterior")
    wgroup = labeled.add_mutually_exclusive_group()
    wgroup.add_argument("--weights", type=_flag_value(_parse_weight_pair), metavar="V1,V2")
    wgroup.add_argument("--prior-logodds", type=_flag_value(_finite_float), metavar="PI")
    labeled.add_argument(
        "--rule", action="append", type=_flag_value(parse_rule), metavar="RULE",
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
    apply_p.add_argument("--prior-logodds", type=_flag_value(_finite_float), metavar="PI",
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
    sc.add_argument("--weights", type=_flag_value(_parse_weight_pair), metavar="V1,V2",
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
