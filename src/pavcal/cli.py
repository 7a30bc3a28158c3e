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
import sys
from typing import Sequence, TextIO

from .calmap import CalibrationMap, _TiePool, apply_map
from .llr import _class_log_odds, posterior_from_llr, weights_from_prior
from .rules import Logarithmic, ScoringRule, objective, parse_rule
from .selfcheck import DEFAULT_WEIGHT_PAIRS, run_selfcheck
from .types import Label, Trial, WeightPair


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


def _float_field(
    text: str, what: str, lineno: int, infinite_ok: bool = False
) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {lineno}: {what} {text!r} is not a number")
    if math.isnan(value):
        raise DataError(f"line {lineno}: {what} must not be NaN")
    if not infinite_ok and math.isinf(value):
        raise DataError(f"line {lineno}: {what} must be finite, got {text!r}")
    return value


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _read_csv(path: str) -> tuple[dict[str, int] | None, list[tuple[int, list[str]]]]:
    """Rows of a CSV file with an optional header.

    The first row is a header when its first field is not numeric; header
    names are matched case-insensitively.  Returns (columns, rows) where
    rows carry their 1-based file line numbers.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        header: dict[str, int] | None = None
        rows: list[tuple[int, list[str]]] = []
        for row in reader:
            if not row or all(not f.strip() for f in row):
                continue
            if not rows and header is None and not _is_number(row[0].strip()):
                header = {name.strip().lower(): i for i, name in enumerate(row)}
                continue
            rows.append((reader.line_num, [f.strip() for f in row]))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, rows


def _column(
    header: dict[str, int] | None, name: str, default_pos: int, path: str
) -> int:
    if header is None:
        return default_pos
    if name not in header:
        raise DataError(f"{path}: missing column {name!r}")
    return header[name]


def _read_trials(
    path: str, calibrated: str | None = None, infinite_ok: bool = False
) -> tuple[list[Trial], list[float] | None, list[int]]:
    """Labeled trials, optionally with a calibrated-value column.

    infinite_ok loosens the calibrated column only: llr values may be
    +/-inf while scores always have to be finite.
    """
    header, rows = _read_csv(path)
    s_col = _column(header, "score", 0, path)
    l_col = _column(header, "label", 1, path)
    c_col = _column(header, calibrated.lower(), 2, path) if calibrated else None
    trials: list[Trial] = []
    values: list[float] | None = [] if c_col is not None else None
    linenos: list[int] = []
    for lineno, row in rows:
        needed = max(s_col, l_col, c_col if c_col is not None else 0)
        if len(row) <= needed:
            raise DataError(f"line {lineno}: expected at least {needed + 1} fields")
        score = _float_field(row[s_col], "score", lineno)
        try:
            label = Label.parse(row[l_col])
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}")
        trials.append(Trial(score, label))
        if values is not None:
            values.append(
                _float_field(row[c_col], "calibrated value", lineno, infinite_ok)
            )
        linenos.append(lineno)
    return trials, values, linenos


def _read_scores(path: str) -> list[float]:
    header, rows = _read_csv(path)
    s_col = _column(header, "score", 0, path)
    out = []
    for lineno, row in rows:
        if len(row) <= s_col:
            raise DataError(f"line {lineno}: missing score field")
        out.append(_float_field(row[s_col], "score", lineno))
    return out


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
    trials, _, _ = _read_trials(args.input)
    pool = _TiePool(trials)
    if args.mode == "llr":
        if args.weights is not None:
            raise UsageError("--weights has no effect in llr mode")
        weights = WeightPair(1.0, 1.0)
    else:
        weights = _fit_weights(args, pool)
    cmap, values, blocks = pool.fit(weights, args.mode, args.policy)
    cmap.save(args.out)
    print(f"T={len(trials)} T1={pool.t1} T2={pool.t2} blocks={blocks}")

    # The objectives are summed in score order, as the fit sees the trials.
    labels = [trials[i].label for i in pool.order.tolist()]
    fitted = values[pool.order].tolist()
    if args.mode == "llr":
        offset = _class_log_odds(pool.t1, pool.t2)
        fitted = [posterior_from_llr(w, offset) for w in fitted]
    for rule in _rules_of(args):
        print(f"objective[{rule}]={objective(rule, labels, weights, fitted)!r}")
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
    scores = _read_scores(args.input)
    calibrated = [apply_map(cmap, s) for s in scores]

    posteriors: list[float] | None = None
    if cmap.mode == "llr" and args.prior_logodds is not None:
        posteriors = [posterior_from_llr(w, args.prior_logodds) for w in calibrated]
    if args.clamp_llr is not None:
        lim = args.clamp_llr
        calibrated = [min(max(w, -lim), lim) for w in calibrated]

    out = _open_out(args.out)
    try:
        if posteriors is None:
            out.write("score,calibrated\n")
            for s, c in zip(scores, calibrated):
                out.write(f"{s!r},{c!r}\n")
        else:
            out.write("score,calibrated,posterior\n")
            for s, c, p in zip(scores, calibrated, posteriors):
                out.write(f"{s!r},{c!r},{p!r}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    trials, values, linenos = _read_trials(
        args.input, calibrated=args.calibrated, infinite_ok=args.mode == "llr"
    )
    pool = _TiePool(trials)
    labels = [t.label for t in trials]

    if args.mode == "llr":
        pi = args.prior_logodds
        if pi is None:
            pi = _class_log_odds(pool.t1, pool.t2)
        weights = weights_from_prior(pi, pool.t1, pool.t2)
        if values is not None:
            values = [posterior_from_llr(w, pi) for w in values]
    else:
        weights = _fit_weights(args, pool)
        if values is not None:
            for v, lineno in zip(values, linenos):
                if not 0.0 <= v <= 1.0:
                    raise DataError(
                        f"line {lineno}: calibrated value {v!r} outside [0, 1]"
                    )

    ref_vals = pool.fit(weights, "posterior", "step")[1].tolist()
    for rule in _rules_of(args):
        ref_obj = objective(rule, labels, weights, ref_vals)
        line = f"rule={rule} reference={ref_obj!r}"
        if values is not None:
            cal_obj = objective(rule, labels, weights, values)
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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
