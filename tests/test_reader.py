"""The CSV reader's two splitters agree.

The reader (cli._chunks) splits a plain file into columns with np.loadtxt,
chunk by chunk, and a chunk loadtxt turns down, or any other file, with the
csv module (cli._split_records); one set of column checks then runs on
either split and names the line of the first fault.  Read through the bulk
splitter, a file must give exactly what the csv splitter gives, or the same
DataError; apply must echo each score's text, and write each other value
as a per-row f-string writes it.
"""

import contextlib
import io
import math
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavcal import CalibrationMap, Label, apply_map, posterior_from_llr
from pavcal import cli
from pavcal.cli import main
from test_cli_fuzz import csv_files

# _read_csv's arguments for the columns each command reads (apply's score texts
# are read through cli._chunks), and the names _read_csv gives the splitters for them.
NAMES = {
    "apply": ["score"], "fit": ["score", "label"], "evaluate": ["score", "label", "calibrated"],
}
READS = {
    "fit": {"labeled": True},
    "apply": {"texts": True},
    "evaluate": {"labeled": True, "calibrated": "calibrated"},
    "evaluate-llr": {"labeled": True, "calibrated": "calibrated", "llrs": True},
}


def _bits(values):
    return None if values is None else (values.dtype.str, values.view(np.int64).tolist())


def _outcome(path, read):
    """_read_csv's result, with floats as bits and, with texts, the score
    texts of cli._chunks as the cells apply writes; or its DataError's text."""
    read = dict(read)
    texts = read.pop("texts", False)
    try:
        header, scores, flags, values = cli._read_csv(path, **read)
    except cli.DataError as exc:
        return str(exc)
    flags = None if flags is None else (flags.dtype.str, flags.tolist())
    cells = None
    if texts:
        chunks = list(cli._chunks(path, ["score"], True))[1:]
        cells = cli._text_cells(np.concatenate([columns[1] for columns, _ in chunks]), scores)
    return header, _bits(scores), flags, _bits(values), cells, scores.size


def _by_lines(path, read):
    """_outcome with the bulk splitter turning every file down."""
    with mock.patch.object(cli, "_plain", lambda lines: False):
        return _outcome(path, read)


def _in_bulk(path, names, texts=False):
    """Whether the bulk splitter splits every row of the file: every chunk
    is plain, and the reader never calls the csv splitter."""
    plain, split, bulk = cli._plain, cli._split_records, []

    def plain_spy(lines):
        bulk.append(plain(lines))
        return bulk[-1]

    def split_spy(*args):
        bulk.append(False)
        return split(*args)

    with mock.patch.object(cli, "_plain", plain_spy), \
            mock.patch.object(cli, "_split_records", split_spy), contextlib.suppress(cli.DataError):
        for _ in cli._chunks(path, names, texts):
            pass
    return all(bulk)


@given(file=csv_files(), command=st.sampled_from(sorted(READS)), plain=st.booleans())
def test_bulk_read_declines_or_matches_the_line_reader(tmp_path_factory, file, command, plain):
    _declines_or_matches(tmp_path_factory, file, command, plain)


@given(file=csv_files(), command=st.sampled_from(sorted(READS)), plain=st.booleans())
def test_chunks_of_three_lines_match_the_line_reader(tmp_path_factory, file, command, plain):
    # The same corpus, with each of its files read in several chunks.
    with mock.patch.object(cli, "_WRITE_ROWS", 3):
        _declines_or_matches(tmp_path_factory, file, command, plain)


def _declines_or_matches(tmp_path_factory, file, command, plain):
    text, columns, _, _ = file
    if plain:  # so that more files are split in bulk: no blank lines holding blanks or commas
        lines = text.split("\n")
        text = "\n".join(line for line in lines if line.strip(" ,\r") or line in ("", "\r"))
    read = READS[command]
    if "calibrated" not in columns:
        read = {key: value for key, value in read.items() if key == "labeled"}
    path = tmp_path_factory.mktemp("reader") / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bulk = _outcome(str(path), read)
    assert bulk == _by_lines(str(path), read)


def _write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def test_a_plain_file_takes_the_bulk_read(tmp_path):
    rows = "".join(f"{0.37 * k - 5.0!r},{'target' if k % 3 else 'nontarget'},{k / 50!r}\n"
                   for k in range(50))
    for text in ("score,label,calibrated\n" + rows, "\ufeff" + rows.replace("\n", "\r\n")):
        path = _write(tmp_path, text)
        assert _in_bulk(path, ["score", "label", "calibrated"])
        read = READS["evaluate"]
        assert _outcome(path, read) == _by_lines(path, read)
        assert cli._read_csv(path, **read)[1].size == 50


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_the_second_item_of_a_read_counts_its_data_rows(tmp_path, command):
    # The benchmark's tracer counts cli.rows as len(_read_csv(...)[1]).
    rows = "".join(f"{k / 3!r},{'target' if k % 2 else 'nontarget'},{k / 70!r}\n" for k in range(70))
    # A plain file is split by loadtxt, and one with a quote by the csv module.
    for text, count in (("score,label,calibrated\n" + rows, 70), (rows + '"0.5",target,0.5\n', 71)):
        assert len(cli._read_csv(_write(tmp_path, text), **READS[command])[1]) == count


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_a_read_holds_each_column_once(tmp_path, command):
    # Beyond its result, a read holds a chunk and each column's bytearray
    # capacity not yet written, which CPython keeps to an eighth of the
    # column.  numpy reports its buffers to tracemalloc, and the traced
    # capacity counts though it is not resident.  Chunk arrays merged
    # pairwise held every column twice at the last merge.
    def excess(size):
        rng = np.random.default_rng(size)
        draws = zip(rng.normal(0.0, 3.0, size).tolist(), rng.random(size).tolist())
        path = _write(tmp_path, "score,label,calibrated\n" + "".join(
            f"{x!r},{'target' if q < 0.3 else 'nontarget'},{q!r}\n" for x, q in draws))
        tracemalloc.start()
        try:
            columns = cli._read_csv(path, **READS[command])[1:]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in columns if a is not None)
        return peak - held, held

    (small, small_held), (large, large_held) = excess(20_000), excess(320_000)
    assert large - small < (large_held - small_held) / 5, (small, large)


def test_the_cut_label_check_loads_no_numpy_char(tmp_path):
    path = _write(tmp_path, "score,label\n0,Target\n1,nontarget\n")
    code = (f"import sys; from pavcal import cli; cli._read_csv({path!r}, labeled=True)"
            "; assert 'numpy.char' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# Valid files the csv splitter splits that the bulk splitter must leave to
# it, with the scores they hold; the labels are target, nontarget.
VALID_DECLINED = {
    "quoted fields": ('note,score,label\n"x,7,nontarget,y",0.5,target\n"z",1,nontarget\n',
                      [0.5, 1.0]),
    "underscore in a score": ("score,label\n1_0,target\n1,nontarget\n", [10.0, 1.0]),
    "arabic-indic digit": ("score,label\n\u0661,target\n0,nontarget\n", [1.0, 0.0]),
    "whitespace-only line": ("score,label\n0,target\n   \n1,nontarget\n", [0.0, 1.0]),
    "comma-only line": ("score,label\n0,target\n,\n1,nontarget\n", [0.0, 1.0]),
    "cr-only line ends": ("0,target\r1,nontarget\r", [0.0, 1.0]),
    "blank first line": ("\nscore,label\n0,target\n1,nontarget\n", [0.0, 1.0]),
    "label that fills its field": ("score,label\n0,target\n1, nontarget \n", [0.0, 1.0]),
    "unit-separator-padded labels": ("score,label\n0,\x1ftarget\x1f\n1,nontarget\n", [0.0, 1.0]),
}


@pytest.mark.parametrize("case", VALID_DECLINED.values(), ids=VALID_DECLINED)
def test_unusual_valid_files_are_declined_and_read_line_by_line(tmp_path, case):
    text, scores = case
    path = _write(tmp_path, text)
    assert not _in_bulk(path, ["score", "label"])
    _, got, flags, _ = cli._read_csv(path, labeled=True)
    assert got.tolist() == scores
    assert flags.tolist() == [True, False]


# Labels not spelled exactly that the bulk splitter splits, and Label.parse
# reads; the labels are target, nontarget.
LABELS_IN_BULK = {
    "padded and mixed-case labels": "score,label\n0, Target\n1,NONTARGET\n",
    "nbsp-padded labels": "score,label\n0,\u00a0target\u00a0\n1,NonTarget\n",
}


@pytest.mark.parametrize("text", LABELS_IN_BULK.values(), ids=LABELS_IN_BULK)
def test_unusual_labels_are_read_in_bulk(tmp_path, monkeypatch, text):
    path = _write(tmp_path, text)
    assert _in_bulk(path, ["score", "label"])
    want = _by_lines(path, READS["fit"])
    monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    assert _outcome(path, READS["fit"]) == want
    assert want[2] == ("|b1", [True, False])


def _no_line_reader(*args):
    raise AssertionError("the line reader was used")


def _argv(tmp_path, command, path):
    if command == "apply":
        map_path = tmp_path / "m.map"
        map_path.write_text("pavcal-map v1 posterior step\n0.0\t0.5\n", encoding="utf-8")
        return ["apply", str(map_path), path, "--out", str(tmp_path / "out.csv")]
    if command == "fit":
        return ["fit", path, "--out", str(tmp_path / "m.map")]
    return ["evaluate", path, "--calibrated"]


def _named(tmp_path, capsys, command, text, message):
    """Assert that the command exits 1 naming the fault, and that reading
    line by line gives the same DataError."""
    path = _write(tmp_path, text)
    assert main(_argv(tmp_path, command, path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert err == f"error: {_by_lines(path, READS[command])}\n"
    return path


# Faulty files the bulk splitter must decline, so the csv splitter splits them.
FAULTS = {
    "# inside a score": ("apply", "0.25\n0.5#1\n", "line 2: score '0.5#1' is not a number"),
    "nul after a label": ("fit", "score,label\n0,target\n1,nontarget\0\n", "line 3: "),
    "label wider than the bytes field": (
        "fit", "score,label\n0,target\n1,nontarget-or-not\n", "line 3: unknown label"
    ),
    "oversized unread field": ("apply", "score,label\n0,target\n1," + "x" * 200_000 + "\n",
                               "line 3: field larger than field limit"),
    # loadtxt would strip the separator from the number as a blank.
    "unit separator by a score": ("apply", "0.25\n\x1f0.5\n",
                                  "line 2: score '\\x1f0.5' is not a number"),
    # The message drops the blanks float ignores, and only those.
    "unit separator inside blanks": ("apply", "0.25\n \x1f0.5\u00a0\n",
                                     "line 2: score '\\x1f0.5' is not a number"),
    "bad label that fills its field": ("fit", "score,label\n0,target\n1, nontargetx\n",
                                       "line 3: unknown label 'nontargetx'"),
}


@pytest.mark.parametrize("case", FAULTS.values(), ids=FAULTS)
def test_faulty_files_are_declined_and_named_by_their_line(tmp_path, capsys, case):
    command, text, message = case
    path = _named(tmp_path, capsys, command, text, message)
    assert not _in_bulk(path, NAMES[command])


# Headers that name a column fit reads twice, matched case-insensitively,
# and that name.  The file is turned down rather than one column taken, as
# readers differ: pandas and R take the first.
NAMED_TWICE = {
    "score twice": ("score,label,score\n0,target,1\n1,nontarget,2\n", "score"),
    "label in another case": ("score,label,Label\n0,target,nontarget\n1,nontarget,target\n",
                              "label"),
}


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "one quoted field"])
@pytest.mark.parametrize("case", NAMED_TWICE.values(), ids=NAMED_TWICE)
def test_a_column_named_twice_is_a_fault_of_the_header_line(tmp_path, capsys, monkeypatch,
                                                           case, quoted):
    text, name = case
    if quoted:  # which the bulk splitter leaves to the csv splitter
        text = text.replace("\n0,", '\n"0",', 1)
    message = f"line 1: the header names column {name!r} more than once"
    path = _named(tmp_path, capsys, "fit", text, message)
    if quoted:
        assert not _in_bulk(path, NAMES["fit"])
    else:
        monkeypatch.setattr(cli, "_split_records", _no_line_reader)
        assert main(_argv(tmp_path, "fit", path)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# Faulty files the bulk splitter splits, so the checks name the line
# without the csv splitter.
FAULTS_IN_BULK = {
    "infinite score": ("fit", "score,label\n0,target\n-inf,nontarget\n",
                       "line 3: score must be finite, got '-inf'"),
    "probability outside [0, 1]": ("evaluate", "score,label,calibrated\n0,target,0.5\n"
                                   "1,nontarget,1.5\n", "line 3: calibrated value 1.5 outside"),
    "nan score": ("apply", "0.25\nnan\n", "line 2: score must not be NaN"),
    "latin-1 label": ("fit", "score,label\n0,target\n1,caf\u00e9\n",
                      "line 3: unknown label 'caf\u00e9'"),
    "label beyond latin-1": ("fit", "score,label\n0,target\n1,\u20ac\n",
                             "line 3: unknown label '\u20ac'"),
    "blank and crlf lines before the fault": (
        "fit", "score,label\n\n0,target\r\n\n1,nontarget\r\n\r\n2,Maybe\n",
        "line 7: unknown label 'Maybe'",
    ),
    "two bad labels, the first sorting last": ("fit", "score,label\n0,zebra\n1,apple\n",
                                               "line 2: unknown label 'zebra'"),
    "byte order mark and no header": ("fit", "\ufeff inf ,target\n0,nontarget\n",
                                      "line 1: score must be finite, got 'inf'"),
}


@pytest.mark.parametrize("case", FAULTS_IN_BULK.values(), ids=FAULTS_IN_BULK)
def test_faulty_values_are_named_after_the_bulk_pass(tmp_path, capsys, monkeypatch, case):
    command, text, message = case
    path = _write(tmp_path, text)
    assert _in_bulk(path, NAMES[command])
    _named(tmp_path, capsys, command, text, message)
    monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    assert main(_argv(tmp_path, command, path)) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


# One fault at the middle line of a plain file is named from the one bulk
# pass, and capitalised labels are read by it.
MIDDLE_FAULTS = {
    "bad label": (1, "Maybe", "line 5002: unknown label 'Maybe', expected"),
    "infinite score": (0, "inf", "line 5002: score must be finite, got 'inf'"),
    "calibrated value 1.5": (2, "1.5", "line 5002: calibrated value 1.5 outside [0, 1]"),
}


@pytest.mark.parametrize("case", MIDDLE_FAULTS.values(), ids=MIDDLE_FAULTS)
def test_a_middle_fault_is_named_without_the_line_reader(tmp_path, capsys, monkeypatch, case):
    column, field, message = case
    rows = [[repr(k / 7), "target" if k % 3 else "nontarget", repr(k / 10_000)]
            for k in range(10_000)]
    rows[5000][column] = field
    path = _write(tmp_path, "score,label,calibrated\n" + "".join(",".join(r) + "\n" for r in rows))
    monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    assert main(["evaluate", path, "--calibrated"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_capitalised_labels_are_read_without_the_line_reader(tmp_path, capsys, monkeypatch):
    rows = "".join(f"{k / 7!r},{'Target' if k % 3 else 'NonTarget'}\n" for k in range(10_000))
    lower = tmp_path / "lower.csv"
    lower.write_text("score,label\n" + rows.lower(), encoding="utf-8")
    assert main(["evaluate", str(lower)]) == 0
    want = capsys.readouterr().out
    path = _write(tmp_path, "score,label\n" + rows)
    monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    parsed = []  # each distinct spelling is parsed once, not once per row

    class CountingLabel:
        @staticmethod
        def parse(text):
            parsed.append(text)
            return Label.parse(text)

    monkeypatch.setattr(cli, "Label", CountingLabel)
    assert main(["evaluate", path]) == 0
    assert capsys.readouterr().out == want
    assert sorted(parsed) == ["NonTarget", "Target"]


def test_infinite_llrs_are_read_in_bulk(tmp_path, monkeypatch):
    path = _write(tmp_path, "score,label,calibrated\n0,target,-inf\n1,nontarget,inf\n")
    monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    values = cli._read_csv(path, **READS["evaluate-llr"])[3]
    assert values.tolist() == [-math.inf, math.inf]
    with pytest.raises(cli.DataError, match="^line 2: calibrated value must be finite, got '-inf'"):
        cli._read_csv(path, **READS["evaluate"])


# --- the chunked apply writer


def _fitted_map(tmp_path, *flags):
    """A map fitted through the command line with these flags."""
    text = "score,label\n" + "".join(
        f"{s},{lab}\n"
        for s, lab in [(-3, "nontarget"), (-2, "nontarget"), (-1, "target"), (0, "nontarget"),
                       (1, "target"), (2, "nontarget"), (3, "target"), (4, "target")]
    )
    train = tmp_path / "train.csv"
    train.write_text(text, encoding="utf-8")
    map_path = tmp_path / "fitted.map"
    assert main(["fit", str(train), *flags, "--out", str(map_path)]) == 0
    return str(map_path)


def _row(cell, w, prior, clamp):
    """apply's line for a score cell and its calibrated value w."""
    c = w if clamp is None else max(-clamp, min(clamp, w))
    if prior is None:
        return f"{cell},{c!r}\n"
    return f"{cell},{c!r},{posterior_from_llr(w, prior)!r}\n"


def _reference(cmap, scores, prior, clamp, cells=None):
    """apply's output, row by row: each score as repr writes it, or as its
    cell if cells are given."""
    head = "score,calibrated\n" if prior is None else "score,calibrated,posterior\n"
    cells = cells or map(repr, scores)
    return head + "".join(_row(c, apply_map(cmap, s), prior, clamp) for s, c in zip(scores, cells))


@pytest.mark.parametrize("size", [1, cli._WRITE_ROWS - 1, cli._WRITE_ROWS, cli._WRITE_ROWS + 1])
@pytest.mark.parametrize("flags", [[], ["--prior-logodds", "-1.5"], ["--clamp-llr", "2.5"],
                                   ["--prior-logodds", "0.75", "--clamp-llr", "1"],
                                   pytest.param(None, id="step")])
def test_apply_writes_what_a_per_row_writer_writes(tmp_path, capsys, size, flags):
    # flags: those of apply with an llr linear map whose ends are -inf and
    # +inf, or None for a posterior step map, which gives one value per knot.
    if flags is None:
        map_path, flags = _fitted_map(tmp_path, "--policy", "step"), []
        cmap = CalibrationMap.load(map_path)
        assert (cmap.mode, cmap.policy) == ("posterior", "step") and len(cmap.knots) > 1
    else:
        map_path = _fitted_map(tmp_path, "--mode", "llr", "--policy", "linear")
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


# Values whose repr is easy to get wrong: both zeros, both infinities, the
# least subnormal, and the edges where repr switches between fixed and
# exponent notation.
_EDGES = [-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e22, 1e16, 9999999999999998.0,
          1e-4, 9.999999999999999e-05, -1e-4]


@pytest.mark.parametrize("size", [1, cli._WRITE_ROWS - 1, cli._WRITE_ROWS + 1,
                                  3 * cli._WRITE_ROWS + 7])
def test_write_columns_writes_what_a_per_row_repr_writes(size):
    rng = np.random.default_rng(size)
    columns = {
        # -0.0 and 0.0 first, so that every size has both in one chunk.
        "edges": np.concatenate(([-0.0, 0.0], rng.choice(_EDGES, size)))[:size],
        "same": np.full(size, 0.1),  # one value in every chunk
        "distinct": np.cumsum(rng.uniform(1.0, 2.0, size)) * 1e-3,  # every value differs
    }
    # A chunk where every value is the same, then one where every value differs.
    columns["mixed"] = np.where(np.arange(size) // cli._WRITE_ROWS % 2, columns["distinct"], 7.5)
    texts = [f"t{k}" for k in range(size)]
    for w in columns.values():
        for prior, clamp in [(None, None), (-1.5, None), (None, 2.5), (0.75, 1e-3)]:
            want = "".join(_row(t, x, prior, clamp) for t, x in zip(texts, w.tolist()))
            out = io.StringIO()
            for k in range(0, size, cli._WRITE_ROWS):
                part = slice(k, k + cli._WRITE_ROWS)
                cli._write_columns(out, texts[part], w[part], prior, clamp)
            assert out.getvalue() == want


def _finite_doubles(seed, size):
    """Doubles from random bit patterns, a quarter of them subnormal, with
    the non-finite ones replaced by zeros of either sign."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size, dtype=np.uint64)
    bits[rng.random(size) < 0.25] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # exponent field 0
    values = bits.view(float)
    values[~np.isfinite(values)] = 0.0
    values[rng.random(size) < 0.25] *= -1.0
    return values


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1),
       size=st.integers(cli._WRITE_ROWS - 2, cli._WRITE_ROWS + 2),
       spliced=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_apply_echoes_repr_written_doubles_as_a_per_row_writer_writes(
    tmp_path_factory, seed, size, spliced
):
    tmp_path = tmp_path_factory.mktemp("apply")
    map_path = _fitted_map(tmp_path, "--mode", "llr", "--policy", "linear")
    scores = _finite_doubles(seed, size)
    # Half the rows near the knots, so that the ramps between them are used.
    near = np.random.default_rng(seed).normal(0.5, 3.0, size)
    scores = np.where(np.arange(size) % 2, scores, near).tolist()
    scores[: len(spliced)] = spliced[:size]
    src = tmp_path / "s.csv"
    src.write_text("".join(f"{s!r}\n" for s in scores), encoding="utf-8")
    assert _in_bulk(str(src), ["score"], True)
    flags = ["--prior-logodds", "-0.5", "--clamp-llr", "2"]
    out = tmp_path / "out.csv"
    assert main(["apply", map_path, str(src), "--out", str(out), *flags]) == 0
    want = _reference(CalibrationMap.load(map_path), scores, -0.5, 2.0)
    assert out.read_bytes() == want.encode("utf-8")


# Score spellings that float reads, each with the cell apply writes for it:
# the text without its blanks if the text is plain ASCII, else repr's text.
SPELLINGS = [("1.50", "1.50"), ("1e3", "1e3"), ("1E3", "1E3"), ("+2.5", "+2.5"),
             (" 0.25 ", "0.25"), ("\t-0", "-0"), (".5", ".5"), ("5.", "5."), ("-0.0", "-0.0"),
             ("\u00a00.75\u00a0", "0.75"), ("\u00a01.250", "1.25"),
             ("-2.2250738585072014e-308", "-2.2250738585072014e-308")]  # that fills 24 bytes
# Spellings that np.loadtxt turns down, so only the line reader sees them.
LINE_SPELLINGS = [("1_0", "10.0"), ("\u0661", "1.0"), ("\uff11.5", "1.5"), ("\u20032.5", "2.5")]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "by-lines"])
def test_apply_echoes_each_score_spelling(tmp_path, capsys, monkeypatch, end, bulk):
    map_path = _fitted_map(tmp_path, "--mode", "llr", "--policy", "linear")
    spellings = SPELLINGS if bulk else SPELLINGS + LINE_SPELLINGS
    texts, cells = zip(*spellings)
    path = _write(tmp_path, "score" + end + "".join(text + end for text in texts))
    if bulk:
        assert _in_bulk(path, ["score"], True)
        monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    else:
        assert not _in_bulk(path, ["score"], True)
    _echoes(capsys, map_path, path, texts, cells)
    assert all(x == x.strip() and x.isascii() for x in cells)


def _echoes(capsys, map_path, path, texts, cells):
    """Assert that apply writes cells, one per text, as each row's score
    and every other cell as the per-row reference does."""
    capsys.readouterr()
    assert main(["apply", map_path, path, "--prior-logodds", "0.5", "--clamp-llr", "1.5"]) == 0
    got = capsys.readouterr().out
    cmap = CalibrationMap.load(map_path)
    assert got == _reference(cmap, list(map(float, texts)), 0.5, 1.5, cells)
    assert [line.split(",")[0] for line in got.splitlines()[1:]] == list(cells)


def test_quoted_scores_are_echoed_from_the_line_reader(tmp_path, capsys):
    map_path = _fitted_map(tmp_path, "--mode", "llr", "--policy", "linear")
    path = _write(tmp_path, 'score\n"1.5"\n" 2.5 "\n-3\n')
    assert not _in_bulk(path, ["score"], True)
    _echoes(capsys, map_path, path, ["1.5", " 2.5 ", "-3"], ["1.5", "2.5", "-3"])


# 0.1's double written out exactly: a plain decimal text of 57 bytes.
LONG_DECIMAL = "0.1000000000000000055511151231257827021181583404541015625"


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "by-lines"])
def test_long_score_texts_stay_on_the_bulk_path(tmp_path, capsys, monkeypatch, bulk):
    # np.savetxt's default %.18e spells a negative score in 25 bytes, or 26
    # with a 3-digit exponent.  Both splitters hand each text over whole, so
    # a plain text is echoed, stripped, at any length, and one that is not
    # ASCII or holds a "_" is written by repr, however long.
    map_path = _fitted_map(tmp_path, "--mode", "llr", "--policy", "linear")
    scores = [-0.5, 0.25, -1e-100 / 3, 1e300, -math.pi / 7e10, -1e-100 / 3, 0.1, 2.5, 0.1]
    texts = (["%.18e" % s for s in scores[:4]] + ["%.20g" % s for s in scores[4:7]]
             + [" " * 30 + "2.5", LONG_DECIMAL, "\u00a0" * 30 + "2.50"])
    assert [len(text) for text in texts] == [25, 24, 26, 25, 25, 27, 22, 33, 57, 34]
    cells = [text.strip() for text in texts[:-1]] + ["2.5"]
    assert cells[5:9] == ["%.20g" % (-1e-100 / 3), "%.20g" % 0.1, "2.5", LONG_DECIMAL]
    path = _write(tmp_path, "".join(text + "\n" for text in texts))
    assert _in_bulk(path, ["score"], True)
    if bulk:
        monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    else:  # and texts np.loadtxt turns down
        texts += ["1_000.000_000_000_000_000_000_000_000_5", "\u0661" * 30]
        cells += ["1000.0", repr(float("1" * 30))]
        path = _write(tmp_path, "".join(text + "\n" for text in texts))
        monkeypatch.setattr(cli, "_plain", lambda lines: False)
    _echoes(capsys, map_path, path, texts, cells)


def test_both_splitters_hand_over_each_score_text_whole(tmp_path, monkeypatch):
    texts = [" 1.5 ", "%.18e" % -0.5, "%.20g" % 0.1, LONG_DECIMAL, " " * 30 + "2.5"]
    path = _write(tmp_path, "score\n" + "".join(text + "\n" for text in texts))
    assert _in_bulk(path, ["score"], True)

    def split():
        return [columns[1] for columns, _ in list(cli._chunks(path, ["score"], True))[1:]]

    bulk = split()
    monkeypatch.setattr(cli, "_plain", lambda lines: False)
    for columns in (bulk, split()):
        assert [column.dtype for column in columns] == [np.dtype(object)]
        assert all(type(text) is str for text in columns[0].tolist())
        assert columns[0].tolist() == texts


def test_a_savetxt_file_of_negative_scores_is_read_in_bulk(tmp_path, monkeypatch):
    rng, size = np.random.default_rng(5), 300
    scores = -rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-300, 300, size)
    path = tmp_path / "in.csv"
    np.savetxt(path, scores)
    texts = path.read_text().splitlines()
    assert max(map(len, texts)) == 26
    map_path = _fitted_map(tmp_path, "--mode", "llr", "--policy", "linear")
    monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    out = tmp_path / "out.csv"
    assert main(["apply", map_path, str(path), "--out", str(out)]) == 0
    want = _reference(CalibrationMap.load(map_path), scores.tolist(), None, None, texts)
    assert out.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("command", ["fit", "apply", "evaluate"])
def test_only_apply_reads_the_score_texts(tmp_path, monkeypatch, command):
    asked, chunks = [], cli._chunks

    def spy(path, names, texts=False):
        asked.append(texts)
        return chunks(path, names, texts)

    path = _write(tmp_path, "score,label,calibrated\n0,target,0.5\n1,nontarget,0.25\n")
    argv = _argv(tmp_path, command, path)
    monkeypatch.setattr(cli, "_chunks", spy)
    assert main(argv) == 0
    assert asked == [command == "apply"]


def test_apply_reads_a_plain_file_in_bulk_and_maps_it_chunk_by_chunk(tmp_path, monkeypatch):
    # If loadtxt turned down the score column read twice, apply would fall
    # back to the line reader, here a failure.
    size = 2 * cli._WRITE_ROWS + 5
    scores = np.random.default_rng(3).normal(0.5, 3.0, size).tolist()
    path = _write(tmp_path, "score\n" + "".join(f"{s!r}\n" for s in scores))
    map_path = _fitted_map(tmp_path, "--mode", "llr", "--policy", "linear")
    monkeypatch.setattr(cli, "_split_records", _no_line_reader)
    sizes = []

    def apply(cmap, xs):
        sizes.append(xs.size)
        return calmap_apply(cmap, xs)

    calmap_apply = cli._apply
    monkeypatch.setattr(cli, "_apply", apply)
    out = tmp_path / "out.csv"
    assert main(["apply", map_path, path, "--out", str(out), "--prior-logodds", "1"]) == 0
    assert sizes == [cli._WRITE_ROWS, cli._WRITE_ROWS, 5]
    want = _reference(CalibrationMap.load(map_path), scores, 1.0, None)
    assert out.read_text(encoding="utf-8") == want
