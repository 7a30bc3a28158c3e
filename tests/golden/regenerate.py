"""The golden CLI corpus: every input file run through every command variant.

For each (input, variant) pair the corpus stores what `pavcal.cli.main`
did: its exit code, stdout, stderr and the bytes of each file it wrote.
The input is copied to `in.csv` in an empty working directory, next to
the two map fixtures `post.map` and `llr.map`, and the command runs there,
so messages name files by those relative names.  Texts are stored as
lists of lines, ends kept, so a change of output reads as a diff of the
files under expected/.  tests/test_golden.py runs the corpus and compares.

After a deliberate change of output, regenerate the expectations with

    PYTHONPATH=src python tests/golden/regenerate.py

and review the diff of tests/golden/expected/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

from pavcal.cli import main

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
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


def run_case(data: bytes, argv: list[str]) -> dict:
    """Run argv on an input in a fresh working directory: the exit code,
    stdout, stderr and each file written or changed, as lists of lines.
    argparse's messages are laid out for 80 columns whatever the terminal."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in FIXTURES:
            shutil.copyfile(HERE / name, work / name)
        (work / "in.csv").write_bytes(data)
        before = {path.name: path.read_bytes() for path in work.iterdir()}
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        files = {
            path.name: _lines(path.read_bytes().decode("utf-8"))
            for path in sorted(work.iterdir())
            if before.get(path.name) != path.read_bytes()
        }
    return {"exit": code, "stdout": _lines(out.getvalue()), "stderr": _lines(err.getvalue()),
            "files": files}


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def expected_path(name: str) -> Path:
    return EXPECTED / f"{name}.json"


def regenerate() -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    for name, data in inputs().items():
        cases = {variant: run_case(data, argv) for variant, argv in VARIANTS.items()}
        record = {"python": python_version(), "cases": cases}
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        expected_path(name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
