"""The CSV reader's two paths agree.

_read_csv reads a plain file in one np.loadtxt pass (cli._bulk_read) and
any other file line by line with the csv module (cli._read_lines), which
is the only path that names a line.  The bulk read must either decline a
file or return exactly what the line reader returns for it; the apply
writer must write what a per-row f-string writes.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pavcal import CalibrationMap, apply_map, posterior_from_llr
from pavcal import cli
from pavcal.cli import main
from test_cli_fuzz import csv_files

# The columns each command reads, as _read_csv names them, and whether
# the calibrated column holds LLRs.
COLUMNS_READ = {
    "fit": (["score", "label"], False),
    "apply": (["score"], False),
    "evaluate": (["score", "label", "calibrated"], False),
    "evaluate-llr": (["score", "label", "calibrated"], True),
}


def _bits(values):
    return None if values is None else values.view(np.int64).tolist()


def _same_result(bulk, lines):
    (bulk_header, bulk_rows), (header, rows) = bulk, lines
    assert bulk_header == header
    assert _bits(bulk_rows.scores) == _bits(rows.scores)
    assert (bulk_rows.flags is None) == (rows.flags is None)
    if rows.flags is not None:
        assert bulk_rows.flags.dtype == rows.flags.dtype
        assert bulk_rows.flags.tolist() == rows.flags.tolist()
    assert _bits(bulk_rows.values) == _bits(rows.values)
    assert len(bulk_rows) == len(rows)


@given(file=csv_files(), command=st.sampled_from(sorted(COLUMNS_READ)), plain=st.booleans())
def test_bulk_read_declines_or_matches_the_line_reader(tmp_path_factory, file, command, plain):
    text, columns, _, _ = file
    if plain:  # so that more files are read in bulk: exact labels, no padded blank lines
        for spelling in (" NonTarget ", "TARGET", "Target"):
            text = text.replace(spelling, spelling.strip().lower())
        lines = text.split("\n")
        text = "\n".join(line for line in lines if line.strip(" ,\r") or line in ("", "\r"))
    names, llrs = COLUMNS_READ[command]
    if "calibrated" not in columns:
        names = names[:2]
    path = tmp_path_factory.mktemp("reader") / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bulk = cli._bulk_read(str(path), names, llrs)
    if bulk is not None:
        _same_result(bulk, cli._read_lines(str(path), names, llrs))


def _write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def test_a_plain_file_takes_the_bulk_read(tmp_path):
    rows = "".join(f"{0.37 * k - 5.0!r},{'target' if k % 3 else 'nontarget'},{k / 50!r}\n"
                   for k in range(50))
    for text in ("score,label,calibrated\n" + rows, "\ufeff" + rows.replace("\n", "\r\n")):
        path = _write(tmp_path, text)
        names = ["score", "label", "calibrated"]
        bulk = cli._bulk_read(path, names, False)
        assert bulk is not None
        _same_result(bulk, cli._read_lines(path, names, False))
        assert cli._read_csv(path, labeled=True, calibrated="calibrated")[1].scores.size == 50


# Valid files the csv reader reads that the bulk read must leave to it,
# with the scores they hold; the labels are target, nontarget.
VALID_DECLINED = {
    "quoted fields": ('note,score,label\n"x,7,nontarget,y",0.5,target\n"z",1,nontarget\n',
                      [0.5, 1.0]),
    "underscore in a score": ("score,label\n1_0,target\n1,nontarget\n", [10.0, 1.0]),
    "arabic-indic digit": ("score,label\n\u0661,target\n0,nontarget\n", [1.0, 0.0]),
    "whitespace-only line": ("score,label\n0,target\n   \n1,nontarget\n", [0.0, 1.0]),
    "comma-only line": ("score,label\n0,target\n,\n1,nontarget\n", [0.0, 1.0]),
    "cr-only line ends": ("0,target\r1,nontarget\r", [0.0, 1.0]),
    "padded and mixed-case labels": ("score,label\n0, Target\n1,NONTARGET\n", [0.0, 1.0]),
    "blank first line": ("\nscore,label\n0,target\n1,nontarget\n", [0.0, 1.0]),
}


@pytest.mark.parametrize("case", VALID_DECLINED.values(), ids=VALID_DECLINED)
def test_unusual_valid_files_are_declined_and_read_line_by_line(tmp_path, case):
    text, scores = case
    path = _write(tmp_path, text)
    assert cli._bulk_read(path, ["score", "label"], False) is None
    rows = cli._read_csv(path, labeled=True)[1]
    assert rows.scores.tolist() == scores
    assert rows.flags.tolist() == [True, False]


# Faulty files the bulk read must decline, so the line reader names the line.
FAULTS = {
    "# inside a score": ("apply", "0.25\n0.5#1\n", "line 2: score '0.5#1' is not a number"),
    "nul after a label": ("fit", "score,label\n0,target\n1,nontarget\0\n", "line 3: "),
    "label wider than the bytes field": (
        "fit", "score,label\n0,target\n1,nontarget-or-not\n", "line 3: unknown label"
    ),
    "oversized unread field": ("apply", "score,label\n0,target\n1," + "x" * 200_000 + "\n",
                               "line 3: field larger than field limit"),
    "probability outside [0, 1]": ("evaluate", "score,label,calibrated\n0,target,0.5\n"
                                   "1,nontarget,1.5\n", "line 3: calibrated value 1.5 outside"),
    "infinite score": ("fit", "score,label\n0,target\n-inf,nontarget\n",
                       "line 3: score must be finite, got '-inf'"),
}


@pytest.mark.parametrize("case", FAULTS.values(), ids=FAULTS)
def test_faulty_files_are_declined_and_named_by_their_line(tmp_path, capsys, case):
    command, text, message = case
    path = _write(tmp_path, text)
    names, llrs = COLUMNS_READ[command]
    assert cli._bulk_read(path, names, llrs) is None
    if command == "apply":
        map_path = tmp_path / "m.map"
        map_path.write_text("pavcal-map v1 posterior step\n0.0\t0.5\n", encoding="utf-8")
        argv = ["apply", str(map_path), path]
    elif command == "fit":
        argv = ["fit", path, "--out", str(tmp_path / "m.map")]
    else:
        argv = ["evaluate", path, "--calibrated"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err


# Files the bulk read turns down on its first and last data lines alone,
# before np.loadtxt reads the whole file.
EDGE_DECLINED = {
    "capitalised labels": "score,label\n0,Target\n1,Nontarget\n2,Target\n",
    "bad score on the last line": "score,label\n0,target\n1,nontarget\nx,target\n",
    "last line cut short": "0,target\n1,nontarget\n2",
}


@pytest.mark.parametrize("text", EDGE_DECLINED.values(), ids=EDGE_DECLINED)
def test_unusual_edge_lines_are_declined_before_the_bulk_pass(tmp_path, monkeypatch, text):
    passes = []
    plain_rows = cli._plain_rows
    monkeypatch.setattr(
        cli, "_plain_rows", lambda lines, *args: passes.append(lines) or plain_rows(lines, *args)
    )
    names = ["score", "label"]
    path = _write(tmp_path, text)
    assert cli._bulk_read(path, names, False) is None
    assert len(passes) == 1 and isinstance(passes[0], list)

    passes.clear()
    path = _write(tmp_path, "score,label\n0,target\n1,nontarget\n2,target\n")
    assert cli._bulk_read(path, names, False) is not None
    assert len(passes) == 2 and not isinstance(passes[1], list)


def test_infinite_llrs_are_read_in_bulk(tmp_path):
    path = _write(tmp_path, "score,label,calibrated\n0,target,-inf\n1,nontarget,inf\n")
    names = ["score", "label", "calibrated"]
    assert cli._bulk_read(path, names, False) is None
    header, rows = cli._bulk_read(path, names, True)
    assert rows.values.tolist() == [-math.inf, math.inf]


# --- the chunked apply writer


def _llr_map(tmp_path):
    """An llr map with -inf and +inf ends, fitted through the command line."""
    text = "score,label\n" + "".join(
        f"{s},{lab}\n"
        for s, lab in [(-3, "nontarget"), (-2, "nontarget"), (-1, "target"), (0, "nontarget"),
                       (1, "target"), (2, "nontarget"), (3, "target"), (4, "target")]
    )
    train = tmp_path / "train.csv"
    train.write_text(text, encoding="utf-8")
    map_path = tmp_path / "llr.map"
    assert main(["fit", str(train), "--mode", "llr", "--policy", "linear",
                 "--out", str(map_path)]) == 0
    return str(map_path)


def _reference(cmap, scores, prior, clamp):
    lines = ["score,calibrated\n" if prior is None else "score,calibrated,posterior\n"]
    for s in scores:
        w = apply_map(cmap, s)
        c = w if clamp is None else max(-clamp, min(clamp, w))
        if prior is None:
            lines.append(f"{s!r},{c!r}\n")
        else:
            lines.append(f"{s!r},{c!r},{posterior_from_llr(w, prior)!r}\n")
    return "".join(lines)


@pytest.mark.parametrize("size", [1, cli._WRITE_ROWS - 1, cli._WRITE_ROWS, cli._WRITE_ROWS + 1])
@pytest.mark.parametrize("flags", [[], ["--prior-logodds", "-1.5"], ["--clamp-llr", "2.5"],
                                   ["--prior-logodds", "0.75", "--clamp-llr", "1"]])
def test_apply_writes_what_a_per_row_writer_writes(tmp_path, capsys, size, flags):
    map_path = _llr_map(tmp_path)
    cmap = CalibrationMap.load(map_path)
    assert cmap.mode == "llr"
    assert {cmap.knots[0][1], cmap.knots[-1][1]} == {-math.inf, math.inf}
    rng = np.random.default_rng(size)
    scores = np.concatenate(([-5.0, 0.5, 5.0], rng.normal(0.5, 3.0, size)))[:size].tolist()
    src = tmp_path / "s.csv"
    src.write_text("score\n" + "".join(f"{s!r}\n" for s in scores), encoding="utf-8")
    prior = float(flags[flags.index("--prior-logodds") + 1]) if "--prior-logodds" in flags else None
    clamp = float(flags[flags.index("--clamp-llr") + 1]) if "--clamp-llr" in flags else None
    want = _reference(cmap, scores, prior, clamp)

    out = tmp_path / "out.csv"
    assert main(["apply", map_path, str(src), "--out", str(out), *flags]) == 0
    assert out.read_bytes() == want.encode("utf-8")
    capsys.readouterr()
    assert main(["apply", map_path, str(src), *flags]) == 0
    assert capsys.readouterr().out == want
