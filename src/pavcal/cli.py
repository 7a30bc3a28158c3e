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
from typing import Sequence, TextIO

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

    linenos: list[int]
    scores: np.ndarray
    flags: np.ndarray | None
    values: np.ndarray | None

    def __len__(self) -> int:
        return len(self.linenos)


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
    path: str, labeled: bool = False, calibrated: str | None = None, infinite_ok: bool = False
) -> tuple[dict[str, int] | None, _Rows]:
    """The header and the data rows of a CSV file.  The first row is a header
    when its first field is not numeric; names match case-insensitively.
    Without one, the columns are score, label, calibrated.  infinite_ok
    allows +/-inf in the calibrated column only."""
    header, rows, linenos = None, [], []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not any(map(str.strip, row)):
                    continue
                if not rows and header is None and not _is_number(row[0].strip()):
                    header = {name.strip().lower(): i for i, name in enumerate(row)}
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

    names = ["score", "label"] if labeled else ["score"]
    if calibrated:
        names.append(calibrated.lower())
    cols = list(range(len(names))) if header is None else [header.get(n, -1) for n in names]
    if -1 in cols:
        raise DataError(f"{path}: missing column {names[cols.index(-1)]!r}")
    need = max(cols)
    if min(map(len, rows)) <= need:
        i = next(i for i, row in enumerate(rows) if len(row) <= need)
        what = f"expected at least {need + 1} fields" if labeled else "missing score field"
        raise DataError(f"line {linenos[i]}: {what}")
    texts = [[row[col] for row in rows] for col in cols]
    del rows
    scores = _floats(texts[0], linenos, "score")
    flags = _flags(texts[1], linenos) if labeled else None
    values = _floats(texts[2], linenos, "calibrated value", infinite_ok) if calibrated else None
    return header, _Rows(linenos, scores, flags, values)


def _open_out(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}")


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
    posteriors: list[float] | None = None
    if cmap.mode == "llr" and args.prior_logodds is not None:
        posteriors = _posteriors(calibrated, args.prior_logodds).tolist()
    if args.clamp_llr is not None:
        calibrated = np.clip(calibrated, -args.clamp_llr, args.clamp_llr)

    out = _open_out(args.out)
    try:
        if posteriors is None:
            out.write("score,calibrated\n")
            out.writelines(f"{s!r},{c!r}\n" for s, c in zip(scores.tolist(), calibrated.tolist()))
        else:
            out.write("score,calibrated,posterior\n")
            rows = zip(scores.tolist(), calibrated.tolist(), posteriors)
            out.writelines(f"{s!r},{c!r},{p!r}\n" for s, c, p in rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _, rows = _read_csv(
        args.input, labeled=True, calibrated=args.calibrated, infinite_ok=args.mode == "llr"
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
        if values is not None:
            i = int(np.argmax((values < 0.0) | (values > 1.0)))  # first outside, if any
            if not 0.0 <= values[i] <= 1.0:
                raise DataError(
                    f"line {rows.linenos[i]}: calibrated value {values[i].item()!r} outside [0, 1]"
                )

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
