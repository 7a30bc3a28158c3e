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


def _record(name):
    return json.loads(expected_path(name).read_text(encoding="utf-8"))


def test_every_input_has_expectations():
    stored = sorted(path.name for path in EXPECTED.glob("*.json"))
    assert stored == sorted(expected_path(name).name for name in INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cli_output_matches_the_golden_corpus(name):
    record = _record(name)
    want = record["cases"]
    got = {variant: run_case(INPUTS[name], argv) for variant, argv in VARIANTS.items()}
    if record["python"] != python_version():
        for case in (*want.values(), *got.values()):
            if case["stderr"][:1] and case["stderr"][0].startswith("usage: "):
                case["stderr"] = None
    assert list(got) == list(want)
    for variant in want:
        assert got[variant] == want[variant], variant


PRIORS = ("-740", "-50", "-37", "-36", "0", "18", "28", "36", "37", "50", "700", "740")
# The inputs an llr fit takes: files that parse and hold both classes.
BOTH_CLASSES = [name for name in sorted(INPUTS) if _record(name)["cases"]["fit-llr"]["exit"] == 0]


@pytest.mark.parametrize("name", BOTH_CLASSES)
def test_fit_prints_the_same_in_both_modes_at_a_prior(name):
    # The blocks depend on the class counts alone, so at a given prior a
    # posterior fit and an llr fit report the same blocks and objective.
    for prior in PRIORS:
        fit = ["fit", "in.csv", "--out", "out.map", "--prior-logodds", prior]
        posterior = run_case(INPUTS[name], fit)
        assert posterior["exit"] == 0, prior
        llr = run_case(INPUTS[name], fit + ["--mode", "llr"])
        assert llr["stdout"] == posterior["stdout"], prior
