"""The library path at scale: llr_calibrate and pav_posteriors on three
1e5-label inputs give the results they gave when these digests were stored,
down to the last bit.

The inputs are bool target flags in score order: seeded random labels with
10% targets, and the periodic motifs NT and TTNTNN repeated, on which most
segments survive the first prune pass of the PAV core.  An llr result is
hashed as the benchmark hashes it: the bytes of w, then
repr((prior_logodds, t1, t2)).
"""

import hashlib

import numpy as np
import pytest

from pavcal import llr_calibrate, pav_posteriors

SIZE = 100_000


def _inputs() -> dict[str, np.ndarray]:
    return {
        "random-10pct": np.random.default_rng(20_220).random(SIZE) < 0.1,
        "NT": np.resize(np.array([False, True]), SIZE),
        "TTNTNN": np.resize(np.array([True, True, False, True, False, False]), SIZE),
    }


INPUTS = _inputs()

DIGESTS = {
    "random-10pct": (
        "9a4d241f1512951192716a162b64474a1117d0282e1d721192f91afd6869f7bb",
        "cc8234faba0b3c5bd54268922dd8013f52cb1d7bb8d26a98a238b248d2f8996c",
        "1be2c0b085025d3a900620d24ffcff67744d24001773f63c7b9b62634f8a9cdd",
    ),
    "NT": (
        "b727cad0bd1f37c227110bdedb465d1fa50aaaaf0655037dd4df1340f4e991fc",
        "e77f5c1878d740ae3fa0a90b78cccfe5a3a026c57589ddb8d7e95a99386b3447",
        "f85525dd60ec4ef5602a0c5e0de452797e7dff6e00a7f74710c626abaf456a5f",
    ),
    "TTNTNN": (
        "3bc017bb136c14b8b2983298905e793b51e4ecf3a77a52487c21133c44915148",
        "fd5fed7c51e0870098dbb51099b5688f011e09d59f8ac80797dbe565d24f60cc",
        "39e4dc574c31965096ab795b299f0b9b2eabf2f169e45b86757744a0dfd40bf0",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(INPUTS))
def test_library_results_match_their_digests(name):
    flags = INPUTS[name]
    cal = llr_calibrate(flags)
    llr = np.array(cal.w).tobytes() + repr((cal.prior_logodds, cal.t1, cal.t2)).encode()
    posteriors = np.array(pav_posteriors(flags, (2.5, 0.7)), float).tobytes()
    got = (_sha(flags.tobytes()), _sha(llr), _sha(posteriors))
    assert got == DIGESTS[name]
