"""The reader reads, and apply maps and writes, a file chunk by chunk.

A fault, blank and CRLF lines, or a quoted field across a chunk boundary
gives what the csv splitter alone gives.  apply --out replaces a regular
file only when it succeeds, and apply's memory does not grow with its
input.
"""

import os
import stat
import threading
import tracemalloc
from unittest import mock

import pytest

from pavcal import cli
from pavcal.cli import main

B = cli._WRITE_ROWS
MAP = "pavcal-map v1 llr linear\n-1.0\t-inf\n0.0\t-0.5\n1.0\t0.25\n2.0\tinf\n"

# Each case: the data row and the column of its fault, the faulty field,
# and the message naming the fault's line (apply reads no label).
CASES = {
    "nan score opening the second chunk": (B, 1, "nan", "score must not be NaN"),
    "unreadable score opening the second chunk": (B, 1, "x", "score 'x' is not a number"),
    "infinite score on the last line": (-1, 1, "inf", "score must be finite, got 'inf'"),
    "bad label on the last line": (-1, 2, "maybe", "unknown label 'maybe'"),
    "blank and crlf lines across the boundary": (B + 4, 1, "nan", "score must not be NaN"),
    "quoted newline across the boundary": (2 * B, 1, "nan", "score must not be NaN"),
}


def _file(case, quoted):
    """The text of a note,score,label,calibrated file of 2 * B + 10 rows
    changed as case says, with its first note quoted if quoted, and the
    line of its fault and the fault's message."""
    bad, column, field, message = CASES[case]
    size = 2 * B + 10
    rows = [["n", repr(k / 7), "target" if k % 3 else "nontarget", repr(k / (3 * size))]
            for k in range(size)]
    rows[bad][column] = field
    if quoted:
        rows[0][0] = '"q"'
    blanks, end = [], "\n"
    if case.startswith("blank"):
        blanks, end = ["\n", "\r\n", " \r\n"], "\r\n"
    if case.startswith("quoted"):  # the row before the fault ends the second line chunk
        rows[2 * B - 1][0] = '"a\nb"'
    text, lines, line_of = "note,score,label,calibrated\n", 1, {}
    for k, row in enumerate(rows):
        near = B - 3 <= k <= B + 3
        for blank in blanks if near else []:
            text += blank
            lines += 1
        line_of[k] = lines + 1
        text += ",".join(row) + (end if near else "\n")
        lines += 1 + row[0].count("\n")
    return text, line_of[bad % size], message


def _argv(tmp_path, command, path):
    if command == "apply":
        map_path = tmp_path / "m.map"
        map_path.write_text(MAP, encoding="utf-8")
        return ["apply", str(map_path), path, "--out", str(tmp_path / "out.csv")]
    if command == "fit":
        return ["fit", path, "--out", str(tmp_path / "out.map")]
    return ["evaluate", path, "--calibrated"]


def _run(tmp_path, capsys, argv):
    """main's exit code, stdout and stderr, and the file it wrote, if any."""
    code = main(argv)
    out = capsys.readouterr()
    wrote = [p.read_bytes() for p in tmp_path.iterdir() if p.name.startswith("out.")]
    for p in tmp_path.iterdir():
        if p.name.startswith("out."):
            p.unlink()
    return code, out.out, out.err, wrote


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "one quoted field"])
@pytest.mark.parametrize("command", ["fit", "apply", "evaluate"])
@pytest.mark.parametrize("case", CASES)
def test_a_chunk_boundary_changes_nothing(tmp_path, capsys, case, command, quoted):
    text, line, message = _file(case, quoted)
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    argv = _argv(tmp_path, command, str(path))
    got = _run(tmp_path, capsys, argv)
    with mock.patch.object(cli, "_plain", lambda lines: False):
        assert got == _run(tmp_path, capsys, argv)
    if command == "apply" and "label" in case:
        assert got[0] == 0 and got[3][0].count(b"\n") == 2 * B + 11
    else:
        assert got[0] == 1
        assert got[2].startswith(f"error: line {line}: {message}"), got[2]
        assert got[3] == []


@pytest.mark.parametrize("command", ["fit", "apply", "evaluate"])
@pytest.mark.parametrize("fault", ["nan", "x"])
def test_a_fault_on_the_last_of_many_lines_is_named(tmp_path, capsys, command, fault):
    # A plain file with one bad row at its end: only the last chunk is
    # split by the csv module, if any is.
    rows = [f"{k / 7!r},{'target' if k % 3 else 'nontarget'},{k / 1e5!r}\n" for k in range(3 * B)]
    rows[-1] = f"{fault},target,0.5\n"
    path = tmp_path / "in.csv"
    path.write_text("score,label,calibrated\n" + "".join(rows), encoding="utf-8")
    split, sizes = cli._split_records, []

    def spy(records, *args):
        sizes.append(len(records))
        return split(records, *args)

    with mock.patch.object(cli, "_split_records", spy):
        code, _, err, wrote = _run(tmp_path, capsys, _argv(tmp_path, command, str(path)))
    message = "must not be NaN" if fault == "nan" else "'x' is not a number"
    assert (code, err, wrote) == (1, f"error: line {3 * B + 1}: score {message}\n", [])
    assert sizes == ([] if fault == "nan" else [B])


def _scores(path, size, bad=None):
    """Write a score file of size rows, with a NaN score at row bad."""
    rows = [f"{k / 7 - 100.0!r}\n" for k in range(size)]
    if bad is not None:
        rows[bad] = "nan\n"
    path.write_text("score\n" + "".join(rows), encoding="utf-8")
    return str(path)


@pytest.fixture
def map_path(tmp_path):
    path = tmp_path / "llr.map"
    path.write_text(MAP, encoding="utf-8")
    return str(path)


def test_apply_out_may_name_its_input(tmp_path, map_path):
    src = _scores(tmp_path / "in.csv", 2 * B + 5)
    fresh = tmp_path / "fresh.csv"
    assert main(["apply", map_path, src, "--out", str(fresh), "--prior-logodds", "0.5"]) == 0
    assert main(["apply", map_path, src, "--out", src, "--prior-logodds", "0.5"]) == 0
    assert (tmp_path / "in.csv").read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "in.csv", "llr.map"]


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_fault_in_the_third_chunk_leaves_out_as_it_was(tmp_path, capsys, map_path, existing):
    src = _scores(tmp_path / "in.csv", 3 * B, bad=2 * B + 5)
    out = tmp_path / "out.csv"
    if existing:
        out.write_bytes(b"score,calibrated\n1.0,2.0\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["apply", map_path, src, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: line {2 * B + 7}: score must not be NaN\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no new file, none left over
    if existing:
        assert out.read_bytes() == b"score,calibrated\n1.0,2.0\n"


def test_apply_keeps_the_mode_of_the_file_it_replaces(tmp_path, map_path):
    src = _scores(tmp_path / "in.csv", 10)
    out = tmp_path / "out.csv"
    out.write_bytes(b"")
    os.chmod(out, 0o600)
    assert main(["apply", map_path, src, "--out", str(out)]) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o600
    assert out.read_bytes().count(b"\n") == 11


def test_apply_out_a_directory_is_a_data_error(tmp_path, capsys, map_path):
    src = _scores(tmp_path / "in.csv", 2 * B + 5)
    assert main(["apply", map_path, src, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write {tmp_path}: [Errno 21] Is a directory"), out.err


def test_apply_writes_a_fifo_in_place(tmp_path, map_path):
    src = _scores(tmp_path / "in.csv", B + 5)
    fresh = tmp_path / "fresh.csv"
    assert main(["apply", map_path, src, "--out", str(fresh)]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["apply", map_path, src, "--out", str(fifo)]) == 0
    reader.join(60)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [fresh.read_bytes()]


def test_apply_to_stdout_writes_the_chunks_before_a_fault(tmp_path, capsys, map_path):
    head = _scores(tmp_path / "head.csv", B)
    assert main(["apply", map_path, head]) == 0
    want = capsys.readouterr().out
    src = _scores(tmp_path / "in.csv", 2 * B, bad=B + 3)
    assert main(["apply", map_path, src]) == 1
    out = capsys.readouterr()
    assert out.err == f"error: line {B + 5}: score must not be NaN\n"
    assert out.out == want


def test_apply_memory_does_not_grow_with_the_file(tmp_path, map_path):
    # numpy reports its buffers to tracemalloc, so the peak counts them.
    def peak(size):
        src = _scores(tmp_path / f"in-{size}.csv", size)
        tracemalloc.start()
        try:
            argv = ["apply", map_path, src, "--out", str(tmp_path / "out.csv"),
                    "--prior-logodds", "-1.0", "--clamp-llr", "3"]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(320_000)
    assert large - small < 1 << 20, (small, large)


def test_an_empty_calibrated_column_name_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("score,label,calibrated\n0,target,0.5\n1,nontarget,0.25\n", encoding="utf-8")
    assert main(["evaluate", str(path), "--calibrated", ""]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --calibrated needs a column name\n"
