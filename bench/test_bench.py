"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY_ROWS = 3000


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--rows", str(TINY_ROWS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        covered = re.findall(r"not covered by self times (\S+) s", proc.stdout)
        assert covered and all(abs(float(x)) < 1e-6 for x in covered)
        assert result["metrics"]["trace.command_s"]["value"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture
def kids(tmp_path):
    children = run.Children(tmp_path)
    yield children
    children.close()


def _one_op(job, kids):
    op = run.run_cli_op(job, kids, traced=False, first=[])
    assert op.error is None
    return (kids.work / "child.stdout").read_text()


def test_corrupted_map_fails_the_fit_check(kids):
    job = run.prepare_cli(workloads.WORKLOADS["fit-100k"], kids, seed=5, rows=TINY_ROWS)
    stdout = _one_op(job, kids)
    assert job.check(stdout) is None
    text = job.out.read_text()
    lines = text.splitlines()
    knot = len(lines) // 2
    score, value = lines[knot].split("\t")
    lines[knot] = f"{score}\t{float(value) * 0.5!r}"
    job.out.write_text("\n".join(lines) + "\n")
    assert job.check(stdout) is not None
    job.out.write_text(text.replace("pavcal-map v1", "pavcal-map v9"))
    assert "does not load" in job.check(stdout)
    job.out.write_text(text)
    assert job.check(stdout.replace("T1=", "T1=1")) is not None
    garbled = run.CliJob(job.inputs, job.args, job.out,
                         lambda out: workloads.check_fit(job.inputs, out.replace("T=", "T=x"), None))
    assert "unparsable" in run.run_cli_op(garbled, kids, traced=False, first=[]).error


def test_corrupted_output_fails_the_apply_check(kids):
    job = run.prepare_cli(workloads.WORKLOADS["apply-llr-100k"], kids, seed=5, rows=TINY_ROWS)
    stdout = _one_op(job, kids)
    assert job.check(stdout) is None
    text = job.out.read_text()
    lines = text.split("\n")
    s, c, p = lines[7].split(",")
    for broken in (f"{s},{float(c) + 1e-6!r},{p}", f"{s},{c}", f"{float(s) + 1.0!r},{c},{p}"):
        job.out.write_text("\n".join(lines[:7] + [broken] + lines[8:]))
        assert job.check(stdout) is not None
    job.out.write_text("\n".join(lines[:7] + lines[8:]))
    assert "output rows" in job.check(stdout)


def test_wrong_numbers_fail_the_evaluate_check(kids):
    job = run.prepare_cli(workloads.WORKLOADS["evaluate-ties-100k"], kids, seed=5, rows=TINY_ROWS)
    stdout = _one_op(job, kids)
    assert job.check(stdout) is None
    assert job.check(re.sub(r"ratio=\S+", "ratio=0.5", stdout)) is not None
    assert job.check(stdout.replace("reference=", "reference=9")) is not None
    assert job.check("\n".join(stdout.splitlines()[:2])) is not None


def test_differing_repeat_output_is_a_failure(kids):
    job = run.prepare_cli(workloads.WORKLOADS["evaluate-ties-100k"], kids, seed=5, rows=TINY_ROWS)
    first = [b"something else"]
    assert "differs" in run.run_cli_op(job, kids, traced=False, first=first).error


def test_lib_check_rejects_a_wrong_mass():
    inp = workloads.make_lib(seed=5, rows=TINY_ROWS, salt=4)
    t1 = int(inp.targets.sum())
    good = {"n": TINY_ROWS, "t1": t1, "mass": float(t1)}
    assert workloads.check_lib(inp, good) is None
    assert workloads.check_lib(inp, good | {"mass": t1 * (1 + 1e-6)}) is not None
    assert workloads.check_lib(inp, good | {"n": TINY_ROWS - 1}) is not None


@pytest.mark.parametrize("make", [workloads.make_fit, workloads.make_apply, workloads.make_evaluate])
def test_same_seed_gives_identical_inputs(tmp_path, make):
    def files(seed: int, sub: str) -> list[bytes]:
        (tmp_path / sub).mkdir()
        inp = make(tmp_path / sub, seed, TINY_ROWS, 7)
        return [p.read_bytes() for _, p in sorted(inp.files.items())]

    assert files(11, "a") == files(11, "b")
    assert files(11, "a2") != files(12, "c")


def test_same_seed_gives_identical_lib_labels():
    a = workloads.sorted_labels(11, TINY_ROWS, 4)
    assert np.array_equal(a, workloads.sorted_labels(11, TINY_ROWS, 4))
    assert not np.array_equal(a, workloads.sorted_labels(12, TINY_ROWS, 4))


def test_generated_scores_are_distinct_and_shares_hold():
    scores, targets = workloads.labeled_scores(workloads.rng_for(1, 1), 20_000)
    assert np.unique(scores).size == scores.size
    assert targets.sum() == 2_000


def test_absent_names_are_reported_not_fatal():
    class Layer:
        @staticmethod
        def present(x):
            return [x]

    tr = tracing.Tracer()
    tr.span(Layer, "removed_by_a_later_change", "pav.fit")
    tr.span(Layer, "present", "pav.pool", after=lambda t, a, r, s: r.no_such_attribute)
    assert Layer.present(1) == [1]
    assert Layer.present(2) == [2]
    assert any("removed_by_a_later_change" in name for name in tr.absent)
    assert "pav.pool counters" in tr.absent
    assert [s[0] for s in tr.spans] == ["pav.pool", "pav.pool"]


def test_self_times_add_up_to_the_root_span():
    tr = tracing.Tracer()

    class Mod:
        @staticmethod
        def outer():
            Mod.inner()
            Mod.row()
            return 1

        @staticmethod
        def inner():
            return 2

        @staticmethod
        def row():
            return 3

    tr.span(Mod, "inner", "pav.pool")
    tr.aggregate(Mod, "row", "calmap.apply")
    tr.span(Mod, "outer", "cli.main")
    Mod.outer()
    dump = tr.dump()
    assert abs(run.unaccounted(dump)) < 1e-12
    m = run.layer_metrics(dump | {"extra": {}})
    assert m["calmap.apply_calls"] == 1 and m["trace.command_s"] > 0


def test_importtime_parse_counts_lazy_package_submodules():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.integrate._a",
        "import time:       200 |        300 |     scipy.integrate._b",
        "import time:        50 |         50 |     scipy.integrate._c",
        "import time:        10 |        400 |   pavcal.rules",
        "import time:         5 |        450 | pavcal",
    ]
    got = run.import_seconds_of(lines, ("pavcal", "scipy.integrate"))
    assert got == {"pavcal": 450e-6, "scipy.integrate": 350e-6}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "fit-100k", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_factor_scales_to_the_nominal_loop_time():
    assert hostspeed.factor(2 * hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S) == 0.5
    assert hostspeed.factor(hostspeed.NOMINAL_S / 2, hostspeed.NOMINAL_S * 1.5) == 1.0
    assert hostspeed.loop_seconds() > 0
