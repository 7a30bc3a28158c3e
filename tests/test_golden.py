"""The golden CLI corpus (tests/golden/regenerate.py): for every input and
command variant, `pavcal.cli.main` gives the stored exit code, stdout,
stderr and written files, byte for byte.

argparse words its own usage errors differently between Python versions,
so on a version other than the one the corpus was made with, the stderr
of an argparse usage error (it starts with "usage: ") is not compared;
its exit code and stdout still are.
"""

import json

import pytest

from golden.regenerate import (
    EXPECTED, VARIANTS, expected_path, inputs, python_version, run_case,
)

INPUTS = inputs()


def test_every_input_has_expectations():
    stored = sorted(path.name for path in EXPECTED.glob("*.json"))
    assert stored == sorted(expected_path(name).name for name in INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cli_output_matches_the_golden_corpus(name):
    record = json.loads(expected_path(name).read_text(encoding="utf-8"))
    want = record["cases"]
    got = {variant: run_case(INPUTS[name], argv) for variant, argv in VARIANTS.items()}
    if record["python"] != python_version():
        for case in (*want.values(), *got.values()):
            if case["stderr"][:1] and case["stderr"][0].startswith("usage: "):
                case["stderr"] = None
    assert list(got) == list(want)
    for variant in want:
        assert got[variant] == want[variant], variant
