"""The golden CLI corpus: every input file run through every command variant.

For each (input, variant) pair the corpus stores what `pavcal.cli.main`
did: its exit code, stdout, stderr and the bytes of each file it wrote.
The input is copied to `in.csv` in an empty working directory, next to
the two map fixtures `post.map` and `llr.map`, and the command runs there,
so messages name files by those relative names.  Texts are stored as
lists of lines, ends kept, so a change of output reads as a diff of the
files under expected/.  tests/test_golden.py runs the corpus and compares.

The scale corpus runs a few commands on 1e5-row inputs, where chunk
boundaries, the bulk reader and long count sums come into play, and
stores only SHA-256 digests of what they printed and wrote, in
scale.json.  tests/test_scale_golden.py runs it and compares.

After a deliberate change of output, regenerate the expectations with

    PYTHONPATH=src python tests/golden/regenerate.py

and review the diff of tests/golden/expected/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from pavcal.cli import main

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
SCALE = HERE / "scale.json"
FIXTURES = ("post.map", "llr.map")

_FIT = ["fit", "in.csv", "--out", "out.map"]
VARIANTS = {
    "fit": _FIT,
    "fit-rules": _FIT + ["--policy", "linear", "--rule", "log", "--rule", "brier",
                         "--rule", "cost@0.37", "--rule", "mix(0.5@0.21,0.5@0.68)"],
    "fit-weights": _FIT + ["--weights", "2.5,0.7", "--rule", "brier"],
    "fit-prior": _FIT + ["--prior-logodds", "-1.5", "--rule", "log"],
    "fit-prior-37": _FIT + ["--prior-logodds", "37"],
    "fit-prior-minus-40": _FIT + ["--prior-logodds", "-40"],
    "fit-llr": _FIT + ["--mode", "llr", "--policy", "linear", "--rule", "log"],
    "fit-llr-prior": _FIT + ["--mode", "llr", "--prior-logodds", "2"],
    "fit-llr-weights": _FIT + ["--mode", "llr", "--weights", "1,2"],
    "fit-usage-exclusive": _FIT + ["--weights", "1,2", "--prior-logodds", "0"],
    "fit-usage-weights": _FIT + ["--weights", "1;2"],
    "fit-usage-no-out": ["fit", "in.csv"],
    "apply-posterior": ["apply", "post.map", "in.csv", "--out", "out.csv"],
    "apply-llr": ["apply", "llr.map", "in.csv", "--prior-logodds", "-1", "--clamp-llr", "3"],
    "evaluate": ["evaluate", "in.csv", "--calibrated", "--rule", "log", "--rule", "brier"],
    "evaluate-weights": ["evaluate", "in.csv", "--calibrated", "--weights", "2.5,0.7",
                         "--rule", "cost@0.3"],
    "evaluate-prior-37": ["evaluate", "in.csv", "--prior-logodds", "37"],
    "evaluate-llr": ["evaluate", "in.csv", "--calibrated", "--mode", "llr",
                     "--prior-logodds", "-1.2"],
    "evaluate-llr-weights": ["evaluate", "in.csv", "--mode", "llr", "--weights", "1,5"],
    "evaluate-usage-rule": ["evaluate", "in.csv", "--rule", "nope"],
    "evaluate-usage-mode": ["evaluate", "in.csv", "--mode", "bogus"],
}


def inputs() -> dict[str, bytes]:
    """Each input's name and bytes: the files under inputs/, and a field
    longer than the csv module's limit, which is built, not stored."""
    files = {path.name: path.read_bytes() for path in sorted(INPUTS.iterdir())}
    files["oversized-field.csv"] = b"score,label\n0,target\n1," + b"x" * 200_000 + b"\n"
    return files


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def _run(argv: list[str], work: Path) -> tuple[int, str, str]:
    """main(argv) run in work: its exit code, stdout and stderr.  argparse's
    messages are laid out for 80 columns whatever the terminal."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    os.chdir(work)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_case(data: bytes, argv: list[str]) -> dict:
    """Run argv on an input in a fresh working directory: the exit code,
    stdout, stderr and each file written or changed, as lists of lines."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in FIXTURES:
            shutil.copyfile(HERE / name, work / name)
        (work / "in.csv").write_bytes(data)
        before = {path.name: path.read_bytes() for path in work.iterdir()}
        code, out, err = _run(argv, work)
        files = {
            path.name: _lines(path.read_bytes().decode("utf-8"))
            for path in sorted(work.iterdir())
            if before.get(path.name) != path.read_bytes()
        }
    return {"exit": code, "stdout": _lines(out), "stderr": _lines(err), "files": files}


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def expected_path(name: str) -> Path:
    return EXPECTED / f"{name}.json"


# --- The scale corpus ------------------------------------------------------

SCALE_ROWS = 100_000

# Each variant runs in one working directory holding every input, in this
# order, so the apply variants read the map the llr fit wrote.  The first
# of each command's variants has the benchmark's flags, and each input
# also has a shuffled copy, "-shuffled" added to its name.
_FIT_RULES = ["--rule", "log", "--rule", "brier"]
_EVAL = ["--calibrated", "--rule", "log", "--rule", "brier", "--rule", "mix(0.5@0.21,0.5@0.68)"]
_APPLY = ["--out", "out.csv", "--prior-logodds", "-2", "--clamp-llr", "20"]
SCALE_VARIANTS = {
    "fit": ["fit", "train.csv", "--out", "fit.map", *_FIT_RULES],
    "fit-shuffled": ["fit", "train-shuffled.csv", "--out", "fit.map", *_FIT_RULES],
    "fit-weights": ["fit", "train.csv", "--out", "fit.map", "--weights", "2.5,0.7", *_FIT_RULES],
    "fit-prior": ["fit", "train.csv", "--out", "fit.map", "--prior-logodds", "-1.2", "--rule", "log"],
    "fit-llr": ["fit", "train.csv", "--out", "llr.map", "--mode", "llr", "--policy", "linear"],
    "apply-llr": ["apply", "llr.map", "scores.csv", *_APPLY],
    "apply-llr-shuffled": ["apply", "llr.map", "scores-shuffled.csv", *_APPLY],
    "evaluate": ["evaluate", "eval.csv", *_EVAL],
    "evaluate-shuffled": ["evaluate", "eval-shuffled.csv", *_EVAL],
    "evaluate-weights": ["evaluate", "eval.csv", "--weights", "2.5,0.7", *_EVAL],
    "evaluate-prior": ["evaluate", "eval.csv", "--prior-logodds", "-1.2", *_EVAL],
    "evaluate-llr": ["evaluate", "eval.csv", "--mode", "llr", "--rule", "log"],
}


def _uniform(stream: int, size: int) -> np.ndarray:
    """size doubles in [0, 1), 53 random bits each: SplitMix64 (Steele et
    al., OOPSLA 2014) of the counters stream * 2**32 + 1 ... + size, in
    uint64 arithmetic that wraps the same way in every numpy version."""
    z = np.arange(1, size + 1, dtype=np.uint64) + np.uint64(stream << 32)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0**-53


def _texts(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()]


def _csv(header: str, *columns: list[str]) -> bytes:
    return (header + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns))).encode()


def scale_inputs() -> dict[str, bytes]:
    """The 1e5-row training, scoring and evaluation files, and a shuffled
    copy of each.  Only IEEE-exact arithmetic goes into them (no exp or
    log), so any platform builds the same bytes.  A score's chance of
    being a target rises linearly with it and is 0 or 1 near the ends, so
    an llr fit has infinite ends."""
    train = _uniform(1, SCALE_ROWS) * 8.0 - 4.0
    targets = _uniform(2, SCALE_ROWS) < np.clip(train * 0.15 + 0.5, 0.0, 1.0)
    scores = _uniform(3, SCALE_ROWS) * 10.0 - 5.0
    # Scores on a 0.01 grid pool into about 1,000 items; the calibrated
    # column is a monotone squashing of the score, strictly inside (0, 1).
    ties = np.floor(_uniform(4, SCALE_ROWS) * 1000.0) / 100.0 - 5.0
    tie_targets = _uniform(5, SCALE_ROWS) < np.clip(ties * 0.15 + 0.5, 0.0, 1.0)
    x = ties * 1.6 - 0.4
    calibrated = 0.5 + x / (2.0 + 2.0 * np.abs(x))
    labels = [np.where(t, "target", "nontarget").tolist() for t in (targets, tie_targets)]
    columns = {
        "train.csv": ("score,label", _texts(train), labels[0]),
        "scores.csv": ("score", _texts(scores)),
        "eval.csv": ("score,label,calibrated", _texts(ties), labels[1], _texts(calibrated)),
    }
    order = np.argsort(_uniform(6, SCALE_ROWS), kind="stable")
    files = {}
    for name, (header, *cols) in columns.items():
        files[name] = _csv(header, *cols)
        shuffled = [np.array(col, object)[order].tolist() for col in cols]
        files[name.replace(".csv", "-shuffled.csv")] = _csv(header, *shuffled)
    return files


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def scale_digests() -> dict:
    """The digest of each scale input, and each scale variant's exit code
    and the digests of its stdout, its stderr and the file it names after
    --out, if any: the first 128 bits of SHA-256, in hex."""
    files = scale_inputs()
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, data in files.items():
            (work / name).write_bytes(data)
        for variant, argv in SCALE_VARIANTS.items():
            written = work / argv[argv.index("--out") + 1] if "--out" in argv else None
            if written:
                written.unlink(missing_ok=True)
            code, out, err = _run(argv, work)
            cases[variant] = [code, _digest(out.encode()), _digest(err.encode())]
            if written:
                cases[variant].append(_digest(written.read_bytes()))
    return {"inputs": {name: _digest(data) for name, data in files.items()}, "cases": cases}


def regenerate() -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    for name, data in inputs().items():
        cases = {variant: run_case(data, argv) for variant, argv in VARIANTS.items()}
        record = {"python": python_version(), "cases": cases}
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        expected_path(name).write_text(text, encoding="utf-8")
    SCALE.write_text(json.dumps(scale_digests(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
