"""Child process of the pavcal benchmark: traced CLI runs and library calls.

The tracer measures each layer from outside.  It replaces the functions a
layer exports with timing wrappers, at the module name where the caller
looks them up, and then calls ``pavcal.cli.main(argv)`` or the library
entry point in this process.  Spans (name, start, end, parent) stay in
memory and are written as JSON when the child ends.  Calls made once per
row (Label.parse, Trial, apply_map, posterior_from_llr) are aggregated
into a count and a total time instead of one span each; their time counts
as child time of the span that encloses them, so self times add up to the
root span.  A wrapped name that no longer exists is reported as absent.

Run with the checkout's src/ on PYTHONPATH:

    python bench/tracing.py cli SPANS_JSON -- ARGV...
    python bench/tracing.py lib RESULT_JSON --seed N --rows N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

import hostspeed
import workloads

# Spans and aggregated calls of the traced layers; run.PER_LAYER derives
# its metric names from these.
SPANS = (
    "cli.main", "cli.command", "cli.read_csv", "cli.read", "calmap.build",
    "calmap.save", "calmap.load", "pav.pool", "pav.fit", "pav.expand",
    "pav.posteriors", "rules.objective", "llr.calibrate",
)
CALLS = ("types.label_parse", "types.trial", "calmap.apply", "llr.posterior")
RULE_KEYS = ("log", "brier", "mix")
LIB_MIN_CALLS = 3


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, child seconds]
        self.stack: list[int] = []
        self.calls: dict[str, list] = {name: [0, 0.0] for name in CALLS}
        self.extra: dict[str, float] = defaultdict(float)
        self.rss: dict[str, float] = {}
        self.absent: list[str] = []

    def _target(self, owner, attr: str):
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return raw

    @staticmethod
    def _install(owner, attr: str, raw, wrapper) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Time each call of owner.attr as a span; after(tracer, args,
        result, seconds) may record counts once the span has closed."""
        raw = self._target(owner, attr)
        if raw is None:
            return
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            nonlocal after
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = time.perf_counter()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][4] += end - rec[1]
                self.rss[name] = max(self.rss.get(name, 0.0), _maxrss_mb())
            if after is not None:
                try:
                    after(self, args, result, end - rec[1])
                except Exception:  # a later API change must not stop the run
                    self.absent.append(f"{name} counters")
                    after = None
            return result

        self._install(owner, attr, raw, wrapper)

    def aggregate(self, owner, attr: str, name: str) -> None:
        """Count and time each call of owner.attr without a span per call."""
        raw = self._target(owner, attr)
        if raw is None:
            return
        fn = getattr(owner, attr)
        total, spans, stack = self.calls[name], self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        self._install(owner, attr, raw, wrapper)

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "calls": {k: list(v) for k, v in self.calls.items()},
                "extra": dict(self.extra), "rss": dict(self.rss), "absent": list(self.absent)}

    def reset(self) -> None:
        """Forget what was recorded; the installed wrappers stay."""
        self.spans.clear()
        for total in self.calls.values():
            total[:] = [0, 0.0]
        self.extra.clear()
        self.rss.clear()


# --- counters recorded after a span closes -----------------------------------


def _rows(tr: Tracer, args, result, seconds) -> None:
    tr.extra["cli.rows"] += len(result[1])


def _knots(tr: Tracer, args, result, seconds) -> None:
    tr.extra["calmap.knots"] += len(result.knots)


def _pool(tr: Tracer, args, result, seconds) -> None:
    tr.extra["pav.items"] += len(args[0])
    tr.extra["pav.blocks"] += len(result[0])


def _calmap_pool(tr: Tracer, args, result, seconds) -> None:
    tr.extra["calmap.items"] += len(args[0])
    _pool(tr, args, result, seconds)


def _saved(tr: Tracer, args, result, seconds) -> None:
    tr.extra["calmap.map_bytes"] = os.path.getsize(args[1])


def _loaded(tr: Tracer, args, result, seconds) -> None:
    tr.extra["calmap.map_bytes"] = os.path.getsize(args[0])


def _objective(tr: Tracer, args, result, seconds) -> None:
    tr.extra["rules.terms"] += len(args[1])
    key = str(args[0]).split("(")[0]
    if key in RULE_KEYS:
        tr.extra[f"rules.objective_s.{key}"] += seconds


def install(tr: Tracer) -> None:
    """Wrap every traced layer of the imported pavcal package."""
    import pavcal
    from pavcal import calmap, cli, llr, pav, types

    tr.span(cli, "main", "cli.main")
    for cmd in ("cmd_fit", "cmd_apply", "cmd_evaluate"):
        tr.span(cli, cmd, "cli.command")
    tr.span(cli, "_read_csv", "cli.read_csv", after=_rows)
    tr.span(cli, "_read_trials", "cli.read")
    tr.span(cli, "_read_scores", "cli.read")
    tr.aggregate(types.Label, "parse", "types.label_parse")
    tr.aggregate(cli, "Trial", "types.trial")
    tr.span(cli, "build_map", "calmap.build", after=_knots)
    tr.span(calmap, "_pool_counts", "pav.pool", after=_calmap_pool)
    tr.aggregate(cli, "apply_map", "calmap.apply")
    tr.span(calmap.CalibrationMap, "save", "calmap.save", after=_saved)
    tr.span(calmap.CalibrationMap, "load", "calmap.load", after=_loaded)
    tr.span(cli, "objective", "rules.objective", after=_objective)
    tr.aggregate(cli, "posterior_from_llr", "llr.posterior")
    tr.span(pavcal, "llr_calibrate", "llr.calibrate")
    tr.span(llr, "pav_posteriors", "pav.posteriors")
    tr.span(pav, "pav_fit", "pav.fit")
    tr.span(pav, "expand", "pav.expand")
    tr.span(pav, "_pool_counts", "pav.pool", after=_pool)


def run_cli(out_path: str, argv: list[str]) -> int:
    from pavcal import cli

    tr = Tracer()
    install(tr)
    code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh)
    return code


def run_lib(out_path: str, seed: int, rows: int, seconds: float, trace: bool) -> int:
    """Call llr_calibrate on one label list until the time is used up."""
    import pavcal

    salt = next(w.salt for w in workloads.WORKLOADS.values() if w.kind == "lib")
    flags = workloads.sorted_labels(seed, rows, salt)
    labels = [pavcal.Label.TARGET if f else pavcal.Label.NONTARGET for f in flags.tolist()]
    del flags
    tr = Tracer()
    if trace:
        install(tr)
    calls = []
    start = time.perf_counter()
    while len(calls) < LIB_MIN_CALLS or time.perf_counter() - start + calls[-1]["s"] <= seconds:
        tr.reset()
        before = hostspeed.loop_seconds()
        t0 = time.perf_counter()
        cal = pavcal.llr_calibrate(labels)
        dt = time.perf_counter() - t0
        scale = hostspeed.factor(before, hostspeed.loop_seconds())
        wv = np.array(cal.w)
        calls.append({
            "s": dt,
            "scale": scale,
            "n": int(wv.size),
            "t1": cal.t1,
            "blocks": int(np.count_nonzero(wv[1:] != wv[:-1]) + 1),
            "mass": math.fsum(workloads.sigmoid(wv + cal.prior_logodds).tolist()),
            "digest": hashlib.sha256(
                wv.tobytes() + repr((cal.prior_logodds, cal.t1, cal.t2)).encode()
            ).hexdigest(),
            "trace": tr.dump() if trace else None,
        })
        del cal, wv
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(calls, fh)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["cli"]:
        if len(argv) < 3 or argv[2] != "--":
            print("usage: tracing.py cli SPANS_JSON -- ARGV...", file=sys.stderr)
            return 2
        return run_cli(argv[1], argv[3:])
    parser = argparse.ArgumentParser(prog="tracing.py lib")
    parser.add_argument("mode", choices=["lib"])
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args(argv)
    return run_lib(a.out, a.seed, a.rows, a.seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
