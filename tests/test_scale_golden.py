"""The scale corpus (tests/golden/regenerate.py): on 1e5-row inputs, each
command variant prints and writes what it did when the corpus was made,
down to the digests of its output; and shuffled rows change nothing but
the order of apply's output rows.
"""

import json

import pytest

from golden.regenerate import SCALE, scale_digests


@pytest.fixture(scope="module")
def digests():
    return json.loads(SCALE.read_text(encoding="utf-8")), scale_digests()


def test_scale_inputs_are_the_stored_ones(digests):
    # Had they changed, the generator would be at fault, not the program.
    want, got = digests
    assert got["inputs"] == want["inputs"]


def test_scale_outputs_match_their_digests(digests):
    want, got = digests
    assert list(got["cases"]) == list(want["cases"])
    for variant, case in want["cases"].items():
        assert got["cases"][variant] == case, variant


def test_shuffled_rows_fit_and_evaluate_the_same(digests):
    cases = digests[1]["cases"]
    assert cases["fit-shuffled"] == cases["fit"]
    assert cases["evaluate-shuffled"] == cases["evaluate"]
