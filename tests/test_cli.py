import math
import random
import re
import subprocess
import sys

import pytest

from pavcal import (
    CalibrationMap,
    Label,
    apply_map,
    build_map,
    llr_calibrate,
    logit,
    objective,
    parse_rule,
    pav_fit,
    pav_posteriors,
    pooled_value,
    posterior_from_llr,
    weights_from_prior,
)
from pavcal import selfcheck
from pavcal.cli import main

T = Label.TARGET
N = Label.NONTARGET


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def train_csv(tmp_path):
    return write(tmp_path / "train.csv", "score,label\n0,target\n1,nontarget\n")


def test_fit_writes_map_and_reports_objective(tmp_path, capsys, train_csv):
    out_path = tmp_path / "cal.map"
    code, out, _ = run(capsys, "fit", train_csv, "--out", str(out_path))
    assert code == 0
    assert "T=2 T1=1 T2=1 blocks=1" in out
    assert f"objective[log]={2 * math.log(2)!r}" in out
    cmap = CalibrationMap.load(str(out_path))
    assert cmap.mode == "posterior"
    assert all(v == 0.5 for _, v in cmap.knots)


def test_fit_accepts_headerless_files(tmp_path, capsys):
    src = write(tmp_path / "plain.csv", "0,target\n1,nontarget\n")
    code, out, _ = run(capsys, "fit", src, "--out", str(tmp_path / "m.map"))
    assert code == 0
    assert "T=2" in out


def test_fit_repeated_rules(tmp_path, capsys, train_csv):
    code, out, _ = run(
        capsys, "fit", train_csv, "--out", str(tmp_path / "m.map"),
        "--rule", "log", "--rule", "brier", "--rule", "cost@0.37",
    )
    assert code == 0
    assert "objective[log]=" in out
    assert "objective[brier]=" in out
    assert "objective[cost@0.37]=" in out


def test_fit_llr_prior_flag_does_not_change_the_map(tmp_path, capsys, train_csv):
    a, b = tmp_path / "a.map", tmp_path / "b.map"
    assert run(capsys, "fit", train_csv, "--mode", "llr", "--out", str(a))[0] == 0
    assert run(
        capsys, "fit", train_csv, "--mode", "llr", "--prior-logodds", "0", "--out", str(b)
    )[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_output_is_deterministic(tmp_path, capsys, train_csv):
    a, b = tmp_path / "a.map", tmp_path / "b.map"
    run(capsys, "fit", train_csv, "--out", str(a))
    run(capsys, "fit", train_csv, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_2(tmp_path, capsys, train_csv):
    out = str(tmp_path / "m.map")
    # --weights is meaningless for an llr fit
    assert run(capsys, "fit", train_csv, "--mode", "llr", "--weights", "1,2", "--out", out)[0] == 2
    # --weights and --prior-logodds are mutually exclusive
    assert run(
        capsys, "fit", train_csv, "--weights", "1,2", "--prior-logodds", "0", "--out", out
    )[0] == 2
    # bad rule spec, bad weight syntax, missing --out
    assert run(capsys, "fit", train_csv, "--rule", "nope", "--out", out)[0] == 2
    assert run(capsys, "fit", train_csv, "--weights", "1;2", "--out", out)[0] == 2
    assert run(capsys, "fit", train_csv)[0] == 2
    # llr mode turns down --weights in both commands, before the input is read
    bad_label = write(tmp_path / "bad.csv", "score,label\n0,target\n1,duck\n")
    for src in (train_csv, bad_label):
        for argv in (["fit", src, "--out", out], ["evaluate", src, "--calibrated"]):
            assert run(capsys, *argv, "--mode", "llr", "--weights", "1,5") == (
                2, "", "error: --weights has no effect in llr mode\n"
            )


# A bad flag value, and the message the parser shows for it: its parse's own.
BAD_FLAG_VALUES = {
    "rule": (["--rule", "nope"],
             "argument --rule: unknown rule 'nope'; expected log, brier, cost@T, or mix(A@T,...)"),
    "weights syntax": (["--weights", "1;2"], "argument --weights: expected 'v1,v2', got '1;2'"),
    "weights value": (["--weights", "1,-2"],
                      "argument --weights: v2 must be finite and > 0, got -2.0"),
    "prior": (["--prior-logodds", "abc"],
              "argument --prior-logodds: could not convert string to float: 'abc'"),
}


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("case", BAD_FLAG_VALUES.values(), ids=BAD_FLAG_VALUES)
def test_a_bad_flag_value_prints_the_parsers_message_and_exits_2(tmp_path, capsys, train_csv,
                                                                command, case):
    flags, message = case
    argv = [command, train_csv] + (["--out", str(tmp_path / "m.map")] if command == "fit" else [])
    code, out, err = run(capsys, *argv, *flags)
    assert (code, out) == (2, "")
    assert err.endswith(f"\npavcal {command}: error: {message}\n")


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_help_describes_the_shared_flags(capsys, command):
    code, out, _ = run(capsys, command, "-h")
    assert code == 0
    assert re.search(r"--rule RULE\s+objective to report: log, brier", out)


# A warning, which numpy prints to stderr, fails the test.
@pytest.mark.filterwarnings("error")
def test_data_errors_exit_1_and_name_the_line(tmp_path, capsys):
    def fit(path):
        code, _, err = run(capsys, "fit", path, "--out", str(tmp_path / "m.map"))
        assert code == 1
        return err

    bad_label = write(tmp_path / "a.csv", "score,label\n0,target\n1,duck\n")
    assert fit(bad_label) == (
        "error: line 3: unknown label 'duck', expected 'target' or 'nontarget'\n"
    )

    bad_score = write(tmp_path / "b.csv", "score,label\nx,target\n1,nontarget\n")
    assert fit(bad_score) == "error: line 2: score 'x' is not a number\n"

    nan_score = write(tmp_path / "c.csv", "score,label\nnan,target\n1,nontarget\n")
    assert fit(nan_score) == "error: line 2: score must not be NaN\n"

    missing = str(tmp_path / "missing.csv")
    assert fit(missing) == (
        f"error: cannot read {missing}: [Errno 2] No such file or directory: {missing!r}\n"
    )

    for text in ("score,label\n", "\ufeffscore,label\r\n\r\n", ""):
        empty = write(tmp_path / "d.csv", text)
        assert fit(empty) == f"error: {empty}: no data rows\n"

    one_class = write(tmp_path / "e.csv", "score,label\n0,target\n1,target\n")
    assert run(capsys, "fit", one_class, "--mode", "llr", "--out", str(tmp_path / "m.map"))[0] == 1


def test_bytes_that_are_not_utf8_name_their_line(tmp_path, capsys, train_csv):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"score,label,calibrated\r\n0,target,0.5\r\n\xff\xfe1,nontarget,0.5\r\n")
    map_path = str(tmp_path / "m.map")
    assert run(capsys, "fit", train_csv, "--out", map_path)[0] == 0
    for argv in (
        ["fit", str(bad), "--out", str(tmp_path / "m2.map")],
        ["apply", map_path, str(bad)],
        ["evaluate", str(bad), "--calibrated"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: line 3: 'utf-8' codec can't decode byte 0xff"), err


@pytest.mark.parametrize("command", ["fit", "apply"])
def test_an_unwritable_out_path_is_a_data_error(tmp_path, capsys, train_csv, command):
    map_path = str(tmp_path / "m.map")
    assert run(capsys, "fit", train_csv, "--out", map_path)[0] == 0
    argv = ["fit", train_csv] if command == "fit" else ["apply", map_path, train_csv]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {tmp_path}: [Errno 21] Is a directory"), err


def test_apply_posterior_map(tmp_path, capsys, train_csv):
    map_path = str(tmp_path / "m.map")
    run(capsys, "fit", train_csv, "--out", map_path)
    scores = write(tmp_path / "s.csv", "score\n-1\n0\n0.5\n2\n")
    code, out, _ = run(capsys, "apply", map_path, scores)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "score,calibrated"
    assert [l.split(",")[1] for l in lines[1:]] == ["0.5"] * 4


def test_apply_flag_mode_mismatch_exits_2(tmp_path, capsys, train_csv):
    map_path = str(tmp_path / "m.map")
    run(capsys, "fit", train_csv, "--out", map_path)
    scores = write(tmp_path / "s.csv", "score\n0\n")
    assert run(capsys, "apply", map_path, scores, "--prior-logodds", "0")[0] == 2
    assert run(capsys, "apply", map_path, scores, "--clamp-llr", "10")[0] == 2
    run(capsys, "fit", train_csv, "--mode", "llr", "--out", map_path)
    for limit in ("0", "-1", "nan"):
        code, _, err = run(capsys, "apply", map_path, scores, "--clamp-llr", limit)
        assert (code, err) == (2, "error: --clamp-llr must be positive\n"), limit


def test_apply_llr_clamp_and_posterior_column(tmp_path, capsys):
    train = write(
        tmp_path / "t.csv",
        "score,label\n1,target\n2,nontarget\n3,nontarget\n4,target\n",
    )
    map_path = str(tmp_path / "m.map")
    run(capsys, "fit", train, "--mode", "llr", "--out", map_path)
    scores = write(tmp_path / "s.csv", "score\n1\n4\n")
    code, out, _ = run(capsys, "apply", map_path, scores, "--clamp-llr", "10", "--prior-logodds", "0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["score", "calibrated", "posterior"]
    assert float(rows[1][1]) == pytest.approx(-math.log(2), abs=1e-12)
    assert rows[2][1] == "10.0"  # +inf clamped to the limit
    assert rows[2][2] == "1.0"   # posterior computed from the unclamped value
    code2, out2, _ = run(capsys, "apply", map_path, scores)
    assert code2 == 0
    assert out2.strip().splitlines()[2].split(",")[1] == "inf"


def test_apply_missing_map_exits_1(tmp_path, capsys):
    scores = write(tmp_path / "s.csv", "score\n0\n")
    assert run(capsys, "apply", str(tmp_path / "none.map"), scores)[0] == 1


def test_apply_writes_deterministic_files(tmp_path, capsys, train_csv):
    map_path = str(tmp_path / "m.map")
    run(capsys, "fit", train_csv, "--out", map_path)
    scores = write(tmp_path / "s.csv", "score\n0\n1\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "apply", map_path, scores, "--out", str(a))
    run(capsys, "apply", map_path, scores, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_own_fit_scores_ratio_one(tmp_path, capsys):
    labels = [N, T, N, T, T, N, T]
    scores = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    fitted = pav_posteriors(labels, (1.0, 1.0))
    rows = "score,label,calibrated\n" + "".join(
        f"{s},{'target' if lab is T else 'nontarget'},{p!r}\n"
        for s, lab, p in zip(scores, labels, fitted)
    )
    src = write(tmp_path / "ev.csv", rows)
    code, out, _ = run(capsys, "evaluate", src, "--calibrated", "calibrated",
                       "--rule", "log", "--rule", "brier")
    assert code == 0
    for line in out.strip().splitlines():
        assert float(line.rpartition("ratio=")[2]) == 1.0


def test_evaluate_without_calibrated_column_reports_reference_only(tmp_path, capsys):
    src = write(tmp_path / "ev.csv", "score,label\n0,target\n1,nontarget\n")
    code, out, _ = run(capsys, "evaluate", src)
    assert code == 0
    assert "reference=" in out
    assert "ratio" not in out


def test_evaluate_llr_mode_accepts_infinite_calibrated_values(tmp_path, capsys):
    # Pure-class end blocks legitimately calibrate to -inf / +inf LLRs, so
    # evaluating an llr column emitted by apply must not choke on them.
    labels = [N, T, N, T]
    scores = [-2.0, -1.0, 1.0, 2.0]
    fitted = llr_calibrate(labels).w
    rows = "score,label,calibrated\n" + "".join(
        f"{s},{'target' if lab is T else 'nontarget'},{w!r}\n"
        for s, lab, w in zip(scores, labels, fitted)
    )
    src = write(tmp_path / "ev.csv", rows)
    code, out, _ = run(capsys, "evaluate", src, "--calibrated", "calibrated",
                       "--mode", "llr", "--rule", "log")
    assert code == 0
    assert float(out.strip().rpartition("ratio=")[2]) == 1.0

    # Scores must still be finite even in llr mode.
    bad = write(tmp_path / "bad.csv", "score,label,calibrated\ninf,target,0.0\n")
    code, _, err = run(capsys, "evaluate", bad, "--calibrated", "calibrated",
                       "--mode", "llr")
    assert code == 1
    assert "line 2" in err


def test_evaluate_rejects_out_of_range_calibrated_values(tmp_path, capsys):
    src = write(tmp_path / "ev.csv", "score,label,calibrated\n0,target,1.5\n1,nontarget,0.5\n")
    code, _, err = run(capsys, "evaluate", src, "--calibrated", "calibrated")
    assert code == 1
    assert "line 2" in err


def test_selfcheck_passes_with_small_sizes(capsys):
    code, out, _ = run(
        capsys, "selfcheck", "--max-len", "5", "--instances", "3", "--candidates", "30"
    )
    assert code == 0
    assert "selfcheck: PASS" in out


def test_selfcheck_single_weight_pair(capsys):
    code, out, _ = run(
        capsys, "selfcheck", "--max-len", "4", "--weights", "2.5,0.7",
        "--instances", "2", "--candidates", "10",
    )
    assert code == 0
    assert "oracle-equivalence" in out


@pytest.mark.parametrize("argv", [
    ["--candidates", "0"],
    ["--max-len", "-2", "--instances", "0"],
    ["--instances", "0"],
    ["--max-len", "0"],
    ["--candidates", "-1"],
])
def test_selfcheck_sizes_must_be_positive(capsys, argv):
    code, out, err = run(capsys, "selfcheck", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --max-len, --instances and --candidates must be positive\n"


def test_selfcheck_seed_must_not_be_negative(capsys):
    code, out, err = run(capsys, "selfcheck", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must not be negative\n")


def _small_selfcheck(capsys, *flags):
    code, out, _ = run(capsys, "selfcheck", "--max-len", "4", "--instances", "3",
                       "--candidates", "20", *flags)
    return code, out.splitlines()


def test_selfcheck_reports_a_wrong_fit_and_exits_3(capsys, monkeypatch):
    # A fit that swaps the target and non-target weights.
    monkeypatch.setattr(
        selfcheck, "pav_posteriors", lambda labs, w: pav_posteriors(labs, (w.v2, w.v1))
    )
    code, lines = _small_selfcheck(capsys)
    assert code == 3
    for name in ("oracle-equivalence", "optimality", "prior-independence"):
        assert any(line.startswith(f"[FAIL] {name}: ") for line in lines), lines
    assert any(line.startswith("[PASS] map-round-trip: ") for line in lines), lines
    assert lines[-1] == "selfcheck: FAIL"


def test_selfcheck_counts_a_suite_that_raises_as_failed(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(selfcheck, "build_map", broken)
    code, lines = _small_selfcheck(capsys)
    assert code == 3
    assert "[FAIL] map-round-trip: raised RuntimeError: boom" in lines
    assert sum(line.startswith("[PASS] ") for line in lines) == 3
    assert lines[-1] == "selfcheck: FAIL"


@pytest.mark.parametrize("ok", [True, False], ids=["passing", "failing"])
def test_selfcheck_times_fits_with_perf_only(capsys, monkeypatch, ok):
    # A stub in place of the timing suite, which takes seconds and depends on the host.
    monkeypatch.setattr(selfcheck, "check_performance", lambda seed: (ok, "stub"))
    code, lines = _small_selfcheck(capsys)
    assert code == 0
    assert not any("performance" in line for line in lines), lines
    code, lines = _small_selfcheck(capsys, "--perf")
    assert code == (0 if ok else 3)
    assert f"[{'PASS' if ok else 'FAIL'}] performance: stub" in lines
    assert lines[-1] == f"selfcheck: {'PASS' if ok else 'FAIL'}"


def test_cli_import_does_not_load_scipy():
    # SciPy is only needed to evaluate a CustomDensity, and importing it
    # costs most of the start-up time of every command.  The selfcheck
    # suites and their oracle are only needed by the selfcheck command.
    code = "import pavcal.cli, sys; assert not {'scipy', 'pavcal.selfcheck', 'pavcal.oracle'} & set(sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# --- one fit per command: printed numbers match the library path bit for bit

RULE_NAMES = ("log", "brier", "cost@0.3", "mix(0.5@0.21,0.5@0.68)")


def _labeled_rows(scores, seed):
    rng = random.Random(seed)
    rows = [(s, T if rng.random() < 0.4 + 0.2 * (s > 0) else N) for s in scores]
    rng.shuffle(rows)
    return rows


def _write_rows(path, rows):
    text = "score,label\n" + "".join(
        f"{s!r},{'target' if lab is T else 'nontarget'}\n" for s, lab in rows
    )
    return write(path, text)


def _rule_args():
    return [a for name in RULE_NAMES for a in ("--rule", name)]


# Flag sets that pick each kind of scoring weights, in both modes.
SCORING_FLAGS = [
    [],
    ["--weights", "2.5,0.7"],
    ["--prior-logodds", "-1.2"],
    ["--mode", "llr"],
    ["--mode", "llr", "--prior-logodds", "2"],
]


def _weights_for(flags, labels):
    """The weights the CLI scores at for these flags: --weights, the prior's,
    in llr mode the class proportions' prior, or 1,1."""
    t1, t2 = labels.count(T), labels.count(N)
    if "--weights" in flags:
        return (2.5, 0.7)
    if "--prior-logodds" in flags:
        return weights_from_prior(float(flags[flags.index("--prior-logodds") + 1]), t1, t2)
    if "--mode" in flags:
        return weights_from_prior(logit(t1 / len(labels)), t1, t2)
    return (1.0, 1.0)


@pytest.mark.parametrize("flags", SCORING_FLAGS)
def test_fit_objectives_equal_the_library_path(tmp_path, capsys, flags):
    rng = random.Random(5)
    rows = _labeled_rows([rng.uniform(-3.0, 3.0) for _ in range(400)], seed=6)
    src = _write_rows(tmp_path / "train.csv", rows)
    code, out, _ = run(capsys, "fit", src, "--out", str(tmp_path / "m.map"), *flags, *_rule_args())
    assert code == 0
    labels = [lab for _, lab in sorted(rows, key=lambda r: r[0])]
    weights = _weights_for(flags, labels)
    if "--mode" in flags:
        # The unit-weight fit's blocks, valued at the scoring weights.
        sol = pav_fit(labels, (1.0, 1.0))
        fitted = [pooled_value(m, n, weights.v1, weights.v2)
                  for m, n in zip(sol.m, sol.n) for _ in range(m + n)]
    else:
        fitted = pav_posteriors(labels, weights)
    lines = out.splitlines()[1:]
    want = [f"objective[{name}]={objective(parse_rule(name), labels, weights, fitted)!r}"
            for name in RULE_NAMES]
    assert lines == want


@pytest.mark.parametrize("flags", SCORING_FLAGS)
def test_evaluate_reference_equals_the_step_map_on_each_row(tmp_path, capsys, flags):
    rng = random.Random(8)
    pool = [-0.0, 0.0, -1.5, 1.5, 0.25, 2.0, -3.0, 1e-300]
    rows = _labeled_rows([rng.choice(pool) for _ in range(300)], seed=9)
    src = _write_rows(tmp_path / "ev.csv", rows)
    code, out, _ = run(capsys, "evaluate", src, *flags, *_rule_args())
    assert code == 0
    scores = [s for s, _ in rows]
    labels = [lab for _, lab in rows]
    weights = _weights_for(flags, labels)
    cmap = build_map(scores, labels, weights, "posterior", "step")
    ref = [apply_map(cmap, s) for s in scores]
    want = [f"rule={name} reference={objective(parse_rule(name), labels, weights, ref)!r}"
            for name in RULE_NAMES]
    assert out.splitlines() == want


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--mode", "llr"],
        ["fit", "--prior-logodds", "0.5"],
        ["evaluate", "--prior-logodds", "0.5"],
    ],
)
def test_one_class_data_exits_1_without_traceback(tmp_path, capsys, argv):
    src = write(tmp_path / "one.csv", "score,label\n0,target\n1,target\n2,target\n")
    command, *flags = argv
    if command == "fit":
        flags += ["--out", str(tmp_path / "m.map")]
    code, _, err = run(capsys, command, src, *flags)
    assert code == 1
    assert err.startswith("error: ") and "both classes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "apply", "evaluate"])
@pytest.mark.parametrize("prior", ["nan", "inf", "-inf"])
def test_non_finite_prior_logodds_exits_2(tmp_path, capsys, command, prior):
    train = write(tmp_path / "t.csv", "score,label\n1,target\n2,nontarget\n3,nontarget\n4,target\n")
    out = tmp_path / "out"
    if command == "apply":
        map_path = str(tmp_path / "llr.map")
        assert run(capsys, "fit", train, "--mode", "llr", "--out", map_path)[0] == 0
        scores = write(tmp_path / "s.csv", "score\n1\n4\n")
        argv = ["apply", map_path, scores, "--out", str(out)]
    elif command == "fit":
        argv = ["fit", train, "--out", str(out)]
    else:
        argv = ["evaluate", train]
    # The = form, because argparse reads a separate "-inf" as an option.
    code, stdout, err = run(capsys, *argv, f"--prior-logodds={prior}")
    assert code == 2
    assert "--prior-logodds" in err
    assert stdout == ""
    assert not out.exists()


def test_utf8_bom_files_fit_like_plain_files(tmp_path, capsys):
    body = "0.5,target\n-1,nontarget\n2,target\n0.5,nontarget\n"
    maps = []
    for name, text in [("plain", "score,label\n" + body),
                       ("bom-header", "\ufeffscore,label\n" + body),
                       ("bom-headerless", "\ufeff" + body)]:
        src = write(tmp_path / f"{name}.csv", text)
        out = tmp_path / f"{name}.map"
        code, _, err = run(capsys, "fit", src, "--out", str(out))
        assert code == 0, err
        maps.append(out.read_bytes())
    assert maps[1] == maps[0]
    assert maps[2] == maps[0]


# --- exactly rounded objectives: one value for a file, in any row order


def _tied_rows(size, seed):
    """Rows with scores rounded to 2 decimals (many ties, some of -0.0 with
    0.0) and a logistic calibrated column, in random order."""
    rng = random.Random(seed)
    rows = []
    for _ in range(size):
        target = rng.random() < 0.3
        s = round(rng.gauss(1.0 if target else -1.0, 1.2), 2)
        rows.append((s, T if target else N, 1.0 / (1.0 + math.exp(-1.6 * s + 0.9))))
    return rows


def _write_tied(path, rows):
    text = "score,label,calibrated\n" + "".join(
        f"{s!r},{'target' if lab is T else 'nontarget'},{c!r}\n" for s, lab, c in rows
    )
    return write(path, text)


@pytest.mark.parametrize("flags", SCORING_FLAGS)
def test_fit_objective_equals_evaluate_reference(tmp_path, capsys, flags):
    src = _write_tied(tmp_path / "ev.csv", _tied_rows(3000, seed=12))
    fit_map = str(tmp_path / "m.map")
    code, fit_out, _ = run(capsys, "fit", src, "--out", fit_map, *flags, *_rule_args())
    assert code == 0
    code, ev_out, _ = run(capsys, "evaluate", src, *flags, *_rule_args())
    assert code == 0
    fitted = [line.partition("=")[2] for line in fit_out.splitlines()[1:]]
    reference = [line.partition("reference=")[2] for line in ev_out.splitlines()]
    assert fitted == reference


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--out", "{map}"],
        ["fit", "--out", "{map}", "--mode", "llr", "--policy", "linear"],
        ["fit", "--out", "{map}", "--weights", "2.5,0.7"],
        ["evaluate", "--calibrated"],
        ["evaluate", "--calibrated", "--mode", "llr", "--prior-logodds", "-1.2"],
    ],
)
def test_shuffled_rows_give_identical_output(tmp_path, capsys, argv):
    # The three rows put a knot on a tie of -0.0 and 0.0, which the map
    # writes as 0.0 whichever comes first.
    for rows in [_tied_rows(2000, seed=13), [(-0.0, T, 0.5), (0.0, N, 0.5), (1.0, T, 0.5)]]:
        outputs = []
        for name, order in [("a", rows), ("b", random.Random(14).sample(rows, len(rows))),
                            ("c", rows[::-1])]:
            src = _write_tied(tmp_path / f"{name}.csv", order)
            map_path = tmp_path / f"{name}.map"
            args = [a.replace("{map}", str(map_path)) for a in argv]
            code, out, err = run(capsys, args[0], src, *args[1:], *_rule_args())
            assert code == 0, err
            outputs.append((out, map_path.read_bytes() if map_path.exists() else None))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


def _command_argv(tmp_path, command, src):
    if command == "fit":
        return ["fit", src, "--out", str(tmp_path / "m.map")]
    if command == "apply":
        map_path = write(tmp_path / "m.map", "pavcal-map v1 posterior step\n0.0\t0.5\n")
        return ["apply", map_path, src]
    return ["evaluate", src]


@pytest.mark.parametrize("command", ["fit", "apply", "evaluate"])
def test_oversized_field_exits_1_naming_the_line(tmp_path, capsys, command):
    src = write(tmp_path / "big.csv", "score,label\n0,target\n1," + "x" * 200_000 + "\n")
    code, out, err = run(capsys, *_command_argv(tmp_path, command, src))
    assert code == 1
    assert err.startswith("error: line 3:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("prior", ["37", "-37", "700", "-700"])
def test_extreme_prior_logodds_are_accepted(tmp_path, capsys, command, prior):
    train = write(tmp_path / "t.csv", "score,label\n1,target\n2,nontarget\n3,nontarget\n4,target\n")
    code, out, err = run(capsys, *_command_argv(tmp_path, command, train), "--prior-logodds", prior)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("prior", ["800", "-800"])
def test_prior_logodds_whose_weight_underflows_is_named(tmp_path, capsys, command, prior):
    train = write(tmp_path / "t.csv", "score,label\n1,target\n2,nontarget\n3,nontarget\n4,target\n")
    argv = _command_argv(tmp_path, command, train)
    for mode in ("posterior", "llr"):  # both modes score at the prior's weights
        assert run(capsys, *argv, "--mode", mode, "--prior-logodds", prior) == (
            1, "", f"error: prior log-odds {float(prior)!r} gives a class weight of 0\n"
        )
        assert not (tmp_path / "m.map").exists()


# A warning, which numpy prints to stderr, fails the test.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_weights_whose_total_overflows_exit_1(tmp_path, capsys, command):
    train = write(tmp_path / "t.csv", "score,label\n1,target\n2,nontarget\n3,nontarget\n")
    argv = _command_argv(tmp_path, command, train)
    assert run(capsys, *argv, "--weights", "1e308,1e308") == (
        1, "", "error: weights 1e+308,1e+308 overflow the weight of 3 trials\n"
    )
    assert not (tmp_path / "m.map").exists()
    # One target weighs 1e308, which is finite.
    assert run(capsys, *argv, "--weights", "1e308,1e-308", "--rule", "brier")[0] == 0


@pytest.mark.parametrize("command", ["fit", "apply", "evaluate"])
@pytest.mark.parametrize("prior", ["-1e-3", "-2.5E+1"])
def test_exponent_form_negative_prior_logodds(tmp_path, capsys, command, prior):
    train = write(tmp_path / "t.csv", "score,label\n1,target\n2,nontarget\n3,nontarget\n4,target\n")
    if command == "apply":
        map_path = str(tmp_path / "llr.map")
        assert run(capsys, "fit", train, "--mode", "llr", "--out", map_path)[0] == 0
        argv = ["apply", map_path, write(tmp_path / "s.csv", "score\n1\n2.5\n4\n")]
    else:
        argv = _command_argv(tmp_path, command, train)
    spaced = run(capsys, *argv, "--prior-logodds", prior)
    joined = run(capsys, *argv, f"--prior-logodds={prior}")
    assert spaced[0] == 0, spaced[2]
    assert spaced == joined
    # A token that is not a number is still read as an option.
    code, _, err = run(capsys, *argv, "--prior-logodds", "-e3")
    assert code == 2
    assert "expected one argument" in err


def test_block_values_rounded_out_of_order_are_lifted(tmp_path, capsys):
    # Two blocks of rising proportion, 1/33279 and 3/99828, whose values
    # at these weights round out of order: 0.9999999999994886, then
    # 0.9999999999994885.  The second is lifted to the first.
    labels = ["target"] + ["nontarget"] * 33_278 + ["target"] * 3 + ["nontarget"] * 99_825
    lines = [f"{i},{label}\n" for i, label in enumerate(labels)]
    train = write(tmp_path / "t.csv", "score,label\n" + "".join(lines))
    map_path = tmp_path / "m.map"
    weights = "128966366102271.88,0.0019820270764152525"
    code, out, err = run(capsys, "fit", train, "--out", str(map_path), "--weights", weights)
    assert (code, err) == (0, "")
    assert out.startswith("T=133107 T1=4 T2=133103 blocks=2\n")
    values = [float(line.split("\t")[1]) for line in map_path.read_text().splitlines()[1:]]
    assert values == [0.9999999999994886] * 4
    # fit prices its objective with the lifted values the map stores, so
    # it is what the map's own output scores, and evaluate of that output
    # sits exactly on the floor.
    cmap = CalibrationMap.load(str(map_path))
    calibrated = [apply_map(cmap, float(i)) for i in range(len(labels))]
    flags = [Label.parse(label) for label in labels]
    floor = objective(parse_rule("log"), flags, tuple(map(float, weights.split(","))), calibrated)
    assert floor == 7730.171243776125
    assert f"objective[log]={floor!r}\n" in out
    code, out, err = run(capsys, "apply", str(map_path), train, "--out", str(tmp_path / "c.csv"))
    assert (code, out, err) == (0, "", "")
    scored = (tmp_path / "c.csv").read_text().splitlines()[1:]
    rows = [f"{line},{label}\n" for line, label in zip(scored, labels)]
    ev = write(tmp_path / "ev.csv", "score,calibrated,label\n" + "".join(rows))
    code, out, err = run(capsys, "evaluate", ev, "--calibrated", "--weights", weights,
                         "--rule", "log", "--rule", "brier")
    assert (code, err) == (0, "")
    assert [line.split()[-1] for line in out.splitlines()] == ["ratio=1.0"] * 2


@pytest.mark.parametrize("prior", [-1.2, 0.0, 3.0])
def test_llr_mode_prices_each_llr_as_posterior_mode_prices_its_posterior(tmp_path, capsys, prior):
    # evaluate --mode llr pools the LLRs and prices each distinct one: it
    # must print what posterior mode prints for the column of each row's
    # posterior, with ties, infinite LLRs and -0.0 beside 0.0, in any row order.
    rng = random.Random(29)
    llrs = [-math.inf, math.inf, -0.0, 0.0, 1e-17, -1e-17, 40.0, 40.000000000000014]
    llrs += [rng.choice([-2.5, 0.75, 1.25, rng.uniform(-6.0, 6.0)]) for _ in range(200)]
    rows = [(rng.gauss(0.0, 2.0), rng.choice(["target", "nontarget"]), w) for w in llrs]
    rules = ["--rule", "log", "--rule", "brier", "--rule", "cost@0.3", "--rule", "mix(0.5@0.2,0.5@0.7)"]

    def evaluate(name, cells, *mode):
        lines = [f"{s!r},{label},{cell}\n" for (s, label, _), cell in zip(rows, cells)]
        path = write(tmp_path / name, "score,label,calibrated\n" + "".join(lines))
        code, out, err = run(capsys, "evaluate", path, "--prior-logodds", repr(prior),
                             "--calibrated", *rules, *mode)
        assert (code, err) == (0, "")
        return out

    out = evaluate("llr.csv", [repr(w) for w in llrs], "--mode", "llr")
    posteriors = [repr(posterior_from_llr(w, prior)) for w in llrs]
    assert out == evaluate("posterior.csv", posteriors)
    assert len(out.splitlines()) == 4 and "nan" not in out
    rng.shuffle(rows)
    assert evaluate("shuffled.csv", [repr(w) for _, _, w in rows], "--mode", "llr") == out
