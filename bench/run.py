"""pavcal benchmark: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload fit-100k --seed 1 --seconds 15 --trace 0

The workloads and why each exists are described in bench/workloads.py.
Each run generates its inputs from the seed, runs the workload one
operation at a time (closed loop, one client, one operation in flight),
checks every output, and prints a report.  Its last line is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, from traced operations alternated
with untraced ones, whose difference is reported as trace.overhead_s.
The end-to-end times are scaled to a nominal host speed by a reference
loop timed around each sample (bench/hostspeed.py); the raw medians are
printed in the report.  Per-layer times are raw.

The benchmark always runs the checkout's own src/ (python -m pavcal with
src on PYTHONPATH), never an installed copy.  CLI operations are child
processes whose peak RSS is read with os.wait4; the library workload runs
its calls in one child process.  Inputs and outputs live in a temporary
directory under .bench_work/ that is removed when the run ends.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
PYTHON = sys.executable
SETUP_SAMPLES = 3        # fresh-interpreter imports timed per run for setup_s
IMPORT_PROFILES = 3      # -X importtime runs per traced run
MIN_OPS = 3              # fewest operations of each kind (untraced, traced) a run times

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.pavcal_s": "s", "import.scipy_integrate_s": "s",
    "cli.read_csv_s": "s", "cli.rows": "count", "cli.rows_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "types.label_parse_s": "s", "types.label_parse_calls": "count",
    "types.trial_s": "s", "types.trial_calls": "count",
    "calmap.build_s": "s", "calmap.build_self_s": "s",
    "calmap.items": "count", "calmap.knots": "count",
    "calmap.apply_s": "s", "calmap.apply_calls": "count",
    "calmap.save_s": "s", "calmap.load_s": "s", "calmap.map_bytes": "bytes",
    "pav.pool_s": "s", "pav.items": "count", "pav.blocks": "count", "pav.merges": "count",
    "pav.fit_s": "s", "pav.fit_self_s": "s", "pav.expand_s": "s",
    "rules.objective_s": "s",
    **{f"rules.objective_s.{key}": "s" for key in tracing.RULE_KEYS},
    "rules.terms": "count",
    "llr.posterior_s": "s", "llr.posterior_calls": "count", "llr.calibrate_self_s": "s",
    **{f"{span}.rss_mb": "MB" for span in tracing.SPANS},
    "trace.command_s": "s", "trace.overhead_s": "s",
}


class RunError(Exception):
    """The workload could not be prepared or measured; the run prints no result."""


@dataclass
class Op:
    wall: float
    rss_mb: float
    error: str | None
    traced: bool = False
    scale: float = 1.0           # host speed factor around the operation
    layers: dict | None = None   # per-layer metrics of a traced operation
    unaccounted: float = 0.0     # traced root span time no self time covers


class Children:
    """Runs child processes through bench/spawner.py, in a work directory.

    The spawner is a separate small process, so the peak RSS that
    os.wait4 reports for each of its children is the child's own.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self._spawner = subprocess.Popen(
            [PYTHON, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ENV, text=True,
        )

    def run(self, argv: list[str]) -> tuple[float, float, int, bytes, bytes]:
        """Run one child to completion: wall seconds, peak RSS in MB, exit
        code, stdout, stderr."""
        out, err = self.work / "child.stdout", self.work / "child.stderr"
        request = {"argv": argv, "cwd": str(self.work), "stdout": str(out), "stderr": str(err)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RunError("the spawner process ended")
        reply = json.loads(line)
        return reply["wall"], reply["rss_mb"], reply["code"], out.read_bytes(), err.read_bytes()

    def close(self) -> None:
        """Let the spawner finish its current child and exit."""
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=170)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()


def child_error(code: int, stderr: bytes) -> str | None:
    if code != 0:
        return f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"
    if stderr:
        return f"wrote to stderr: {stderr.decode(errors='replace').strip()[-300:]}"
    return None


def load_map(path: Path):
    """The map as the program itself loads it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pavcal.calmap import CalibrationMap

    return CalibrationMap.load(str(path))


# --- per-layer metrics from a tracer dump ------------------------------------


def span_times(dump: dict) -> tuple[float, dict, dict]:
    """Root span seconds, and total and self seconds by span name."""
    root, total, own = 0.0, dict.fromkeys(tracing.SPANS, 0.0), dict.fromkeys(tracing.SPANS, 0.0)
    for name, start, end, parent, child in dump["spans"]:
        total[name] += end - start
        own[name] += end - start - child
        if parent < 0:
            root += end - start
    return root, total, own


def unaccounted(dump: dict) -> float:
    """Root span time not covered by self times and aggregated calls."""
    root, _, own = span_times(dump)
    return root - sum(own.values()) - sum(t for _, t in dump["calls"].values())


def layer_metrics(dump: dict) -> dict[str, float]:
    root, total, own = span_times(dump)
    calls, extra = dump["calls"], dump["extra"]
    m = {
        "cli.read_csv_s": total["cli.read_csv"],
        "cli.rows": extra.get("cli.rows", 0),
        "cli.rows_s": own["cli.read"],
        "cli.self_s": own["cli.command"],
        "types.label_parse_s": calls["types.label_parse"][1],
        "types.label_parse_calls": calls["types.label_parse"][0],
        "types.trial_s": calls["types.trial"][1],
        "types.trial_calls": calls["types.trial"][0],
        "calmap.build_s": total["calmap.build"],
        "calmap.build_self_s": own["calmap.build"],
        "calmap.apply_s": calls["calmap.apply"][1],
        "calmap.apply_calls": calls["calmap.apply"][0],
        "calmap.save_s": total["calmap.save"],
        "calmap.load_s": total["calmap.load"],
        "pav.pool_s": total["pav.pool"],
        "pav.fit_s": total["pav.fit"],
        "pav.fit_self_s": own["pav.fit"],
        "pav.expand_s": total["pav.expand"],
        "rules.objective_s": total["rules.objective"],
        "llr.posterior_s": calls["llr.posterior"][1],
        "llr.posterior_calls": calls["llr.posterior"][0],
        "llr.calibrate_self_s": own["llr.calibrate"] + own["pav.posteriors"],
        "trace.command_s": root,
    }
    for key in ("calmap.items", "calmap.knots", "calmap.map_bytes", "pav.items",
                "pav.blocks", "rules.terms", *(f"rules.objective_s.{k}" for k in tracing.RULE_KEYS)):
        m[key] = extra.get(key, 0)
    m["pav.merges"] = m["pav.items"] - m["pav.blocks"]
    for span in tracing.SPANS:
        m[f"{span}.rss_mb"] = dump["rss"].get(span, 0.0)
    return m


def median_metrics(dicts: list[dict]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# --- set-up ------------------------------------------------------------------


def import_seconds(module: str, kids: Children) -> float:
    wall, _, code, _, err = kids.run([PYTHON, "-c", f"import {module}"])
    if code != 0:
        raise RunError(f"import {module} failed: {err.decode(errors='replace')[-300:]}")
    return wall


def import_profile(module: str, kids: Children) -> dict[str, float]:
    """Import seconds of pavcal and of scipy.integrate, from -X importtime."""
    _, _, code, _, err = kids.run([PYTHON, "-X", "importtime", "-c", f"import {module}"])
    if code != 0:
        raise RunError(f"import {module} failed")
    seconds = import_seconds_of(err.decode().splitlines(), ("pavcal", "scipy.integrate"))
    return {"import.pavcal_s": seconds["pavcal"],
            "import.scipy_integrate_s": seconds["scipy.integrate"]}


def import_seconds_of(lines: list[str], packages: tuple[str, ...]) -> dict[str, float]:
    """Cumulative import time of each package and its submodules.

    -X importtime prints a module after the modules it imports, indented
    one step less; a package imported lazily (scipy.integrate) shows only
    its submodules.  Sum the cumulative times of the outermost lines that
    belong to each package.
    """
    totals = dict.fromkeys(packages, 0.0)
    outer: list[tuple[int, str]] = []   # enclosing (depth, name), walking backwards
    for line in reversed(lines):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = len(parts[2]) - len(parts[2].lstrip())
        while outer and outer[-1][0] >= depth:
            outer.pop()
        for pkg in packages:
            inside = lambda n: n == pkg or n.startswith(pkg + ".")
            if inside(name) and not any(inside(n) for _, n in outer):
                totals[pkg] += int(parts[1]) / 1e6
        outer.append((depth, name))
    return totals


@dataclass
class CliJob:
    """One CLI workload: the pavcal arguments of an operation and its check."""

    inputs: workloads.Inputs
    args: list[str]
    out: Path | None
    check: Callable[[str], str | None]   # stdout -> error or None


def prepare_cli(wl: workloads.Workload, kids: Children, seed: int, rows: int) -> CliJob:
    work = kids.work
    if wl.name.startswith("fit"):
        inp = workloads.make_fit(work, seed, rows, wl.salt)
        out = work / "fit.map"
        args = ["fit", str(inp.files["train"]), "--out", str(out)]
        args += [a for r in workloads.FIT_RULES for a in ("--rule", r)]

        def check(stdout: str) -> str | None:
            try:
                cmap = load_map(out)
            except (OSError, ValueError) as exc:
                return f"map does not load: {exc}"
            return workloads.check_fit(inp, stdout, cmap)

        return CliJob(inp, args, out, check)

    if wl.name.startswith("apply"):
        inp = workloads.make_apply(work, seed, rows, wl.salt)
        llr_map = work / "llr.map"
        fit = ["fit", str(inp.files["map-train"]), "--out", str(llr_map),
               "--mode", "llr", "--policy", "linear"]
        _, _, code, _, err = kids.run([PYTHON, "-m", "pavcal", *fit])
        if child_error(code, err):
            raise RunError(f"fitting the apply map failed: {child_error(code, err)}")
        cmap = load_map(llr_map)
        inp.props["knots"] = len(cmap.knots)
        out = work / "calibrated.csv"
        args = ["apply", str(llr_map), str(inp.files["scores"]), "--out", str(out),
                "--prior-logodds", repr(workloads.APPLY_PRIOR_LOGODDS),
                "--clamp-llr", repr(workloads.APPLY_CLAMP)]

        def check(stdout: str) -> str | None:
            if stdout:
                return "unexpected stdout"
            try:
                text = out.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                return f"output unreadable: {exc}"
            return workloads.check_apply(inp, text, cmap)

        return CliJob(inp, args, out, check)

    inp = workloads.make_evaluate(work, seed, rows, wl.salt)
    args = ["evaluate", str(inp.files["eval"]), "--calibrated"]
    args += [a for r in workloads.EVAL_RULES for a in ("--rule", r)]
    return CliJob(inp, args, None, lambda stdout: workloads.check_evaluate(inp, stdout))


# --- operations ----------------------------------------------------------------


def run_cli_op(job: CliJob, kids: Children, traced: bool, first: list) -> Op:
    """One CLI operation; first[0] holds the first operation's output bytes."""
    spans = kids.work / "spans.json"
    spans.unlink(missing_ok=True)
    if traced:
        argv = [PYTHON, str(Path(tracing.__file__).resolve()), "cli", str(spans), "--", *job.args]
    else:
        argv = [PYTHON, "-m", "pavcal", *job.args]
    before = hostspeed.loop_seconds()
    wall, rss, code, stdout, stderr = kids.run(argv)
    scale = hostspeed.factor(before, hostspeed.loop_seconds())
    error = child_error(code, stderr)
    output = stdout + (job.out.read_bytes() if job.out and job.out.exists() else b"")
    if error is None:
        try:
            error = job.check(stdout.decode("utf-8"))
        except (ValueError, KeyError, IndexError) as exc:   # includes UnicodeDecodeError
            error = f"unparsable output: {exc!r}"
    if error is None:
        if not first:
            first.append(output)
        elif output != first[0]:
            error = "output differs from the first operation's"
    op = Op(wall, rss, error, traced, scale)
    if traced and spans.exists():
        dump = json.loads(spans.read_text())
        op.layers = layer_metrics(dump) | {"cli.out_bytes": len(output)}
        op.unaccounted = unaccounted(dump)
    return op


def run_cli(wl, args, kids: Children) -> tuple[list[Op], dict]:
    job = prepare_cli(wl, kids, args.seed, args.rows)
    report("inputs " + json.dumps(job.inputs.props))
    setup = timed_imports(wl, kids, args.trace)
    ops: list[Op] = []
    first: list = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_cli_op(job, kids, traced, first))
        report_op(len(ops), ops[-1], traced)
        enough = len(ops) >= (2 * MIN_OPS if args.trace else MIN_OPS)
        if enough and time.perf_counter() - start + ops[-1].wall > args.seconds:
            return ops, setup


def run_lib(wl, args, kids: Children) -> tuple[list[Op], dict]:
    """The library calls run in one child; each call is one operation."""
    inp = workloads.make_lib(args.seed, args.rows, wl.salt)
    report("inputs " + json.dumps(inp.props))
    setup = timed_imports(wl, kids, args.trace)
    ops: list[Op] = []
    first: list = []
    for traced in ((False, True) if args.trace else (False,)):
        result = kids.work / "lib.json"
        result.unlink(missing_ok=True)
        seconds = args.seconds / 2 if args.trace else args.seconds
        argv = [PYTHON, str(Path(tracing.__file__).resolve()), "lib", str(result),
                "--seed", str(args.seed), "--rows", str(args.rows),
                "--seconds", repr(seconds), "--trace", str(int(traced))]
        _, rss, code, stdout, stderr = kids.run(argv)
        error = child_error(code, stderr) or (stdout and "unexpected stdout") or None
        if error:
            ops.append(Op(0.0, rss, error, traced))
            report_op(len(ops), ops[-1], traced)
            continue
        calls = json.loads(result.read_text())
        if not traced:
            report(f"blocks {calls[0]['blocks']}")
        for call in calls:
            error = workloads.check_lib(inp, call)
            if error is None:
                if not first:
                    first.append(call["digest"])
                elif call["digest"] != first[0]:
                    error = "result differs from the first call's"
            op = Op(call["s"], rss, error, traced, call["scale"])
            if traced:
                op.layers = layer_metrics(call["trace"]) | {"cli.out_bytes": 0}
                op.unaccounted = unaccounted(call["trace"])
            ops.append(op)
            report_op(len(ops), op, traced)
    return ops, setup


def timed_imports(wl, kids: Children, trace: int) -> dict:
    """setup_s samples, or the import profile of a traced run."""
    import_seconds(wl.entry_module, kids)   # warm the bytecode cache first
    if trace:
        profiles = [import_profile(wl.entry_module, kids) for _ in range(IMPORT_PROFILES)]
        return median_metrics(profiles)
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = hostspeed.loop_seconds()
        raw.append(import_seconds(wl.entry_module, kids))
        scaled.append(raw[-1] * hostspeed.factor(before, hostspeed.loop_seconds()))
    report(f"setup raw median {statistics.median(raw):.4f} s")
    return {"setup_s": statistics.median(scaled)}


def report(line: str) -> None:
    print(line, flush=True)


def report_op(k: int, op: Op, traced: bool) -> None:
    state = "ok" if op.error is None else f"FAILED {op.error}"
    report(f"op {k}{' traced' if traced else ''}: {op.wall:.4f} s raw, "
           f"{op.wall * op.scale:.4f} s scaled, {op.rss_mb:.1f} MB, {state}")


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")}


def metrics_of(ops: list[Op], setup: dict, rows: int, trace: int) -> dict[str, float]:
    untraced = [op for op in ops if not op.traced and op.wall > 0]
    traced = [op for op in ops if op.layers is not None]
    if not untraced or (trace and not traced):
        raise RunError("no operation completed; nothing to measure")
    wall = statistics.median(op.wall for op in untraced)
    if not trace:
        report(f"wall raw median {wall:.4f} s")
        wall = statistics.median(op.wall * op.scale for op in untraced)
        return {"setup_s": setup["setup_s"], "wall_s": wall, "rows_per_s": rows / wall,
                "peak_rss_mb": statistics.median(op.rss_mb for op in untraced)}
    m = median_metrics([op.layers for op in traced]) | setup
    m["trace.overhead_s"] = statistics.median(op.wall for op in traced) - wall
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, help="input rows (default: the workload's size)")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    args.rows = args.rows or wl.rows
    if not (SRC / "pavcal" / "__init__.py").is_file():
        print(f"error: no pavcal sources under {SRC}", file=sys.stderr)
        return 2

    report(f"workload {wl.name} seed {args.seed} rows {args.rows} seconds {args.seconds} "
           f"trace {args.trace}")
    report("environment " + json.dumps(environment()))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    kids = Children(work)
    try:
        runner = run_lib if wl.kind == "lib" else run_cli
        ops, setup = runner(wl, args, kids)
        metrics = metrics_of(ops, setup, args.rows, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        kids.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(op.error is not None for op in ops)
    for op in ops:
        if op.layers is not None:
            report(f"traced op: command {op.layers['trace.command_s']:.4f} s, "
                   f"not covered by self times {op.unaccounted:.2e} s")
    report(f"fail_frac {failed / len(ops):.4f} ({failed} of {len(ops)} operations)")
    units = END_TO_END if not args.trace else PER_LAYER
    for name, value in metrics.items():
        report(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
