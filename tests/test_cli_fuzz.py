"""Property tests of the CSV reader through the command line entry point.

Valid files vary in header, column order, byte order mark, line ends,
blank lines and field spelling.  One bad row, if any, must make every
command that reads its bad field exit 1 naming that row's line.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from pavcal.cli import main

COLUMNS = ("score", "label", "calibrated")
# The columns each command reads (evaluate reads the calibrated column
# when the file has one).
READS = {"fit": ("score", "label"), "apply": ("score",), "evaluate": COLUMNS}
BAD_FIELDS = {
    "score": ["nan", "NaN", "-nan", "inf", "-Infinity", "1e999"],
    "label": ["duck", "targets", "1", ""],
    "calibrated": ["1.5", "-0.25", "1e9"],
}

scores = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-50, 50).map(str),
    st.sampled_from(["-0.0", "+2.5", "1e3", "-7E-2", ".5", " 0.25 "]),
)
labels = st.sampled_from(["target", "nontarget", "TARGET", " NonTarget ", "Target"])
probabilities = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(["0", "1", " 0.5 "]))
blank_lines = st.sampled_from(["", "  ", ",", " , ,"])
rows_of = st.fixed_dictionaries({"score": scores, "label": labels, "calibrated": probabilities})


@st.composite
def csv_files(draw):
    """(text, {column: position}, line of the bad row, commands it fails).

    The bad row, if any, has one bad field or is cut short after its first
    fields.
    """
    names = list(COLUMNS[: draw(st.integers(2, 3))])
    header = draw(st.booleans())
    if header:
        names = draw(st.permutations(names))
    columns = {name: i for i, name in enumerate(names)}
    rows = draw(st.lists(rows_of, min_size=1, max_size=12))
    rows = [",".join(row[n] for n in names) for row in rows]
    lines = [",".join(n.upper() if draw(st.booleans()) else n for n in names)] if header else []
    bad_line, fails = None, set()
    bad_at = draw(st.integers(-1, len(rows)))  # -1: no bad row
    for k in range(len(rows) + 1):
        lines += draw(st.lists(blank_lines, max_size=2))
        if k == bad_at:
            row = draw(rows_of)
            kind = draw(st.sampled_from(["short", *names]))
            if kind == "short":
                keep = draw(st.integers(1, len(names) - 1))
                lines.append(",".join(row[n] for n in names[:keep]))
                need = {c: max(columns.get(n, 0) for n in reads) for c, reads in READS.items()}
                fails = {c for c in READS if keep <= need[c]}
            else:
                row[kind] = draw(st.sampled_from(BAD_FIELDS[kind]))
                lines.append(",".join(row[n] for n in names))
                fails = {c for c, reads in READS.items() if kind in reads}
            bad_line = len(lines)
        if k < len(rows):
            lines.append(rows[k])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + end
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, columns, bad_line, fails


def _run(command, text, columns):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.csv")
        src.write_bytes(text.encode("utf-8"))
        if command == "fit":
            argv = ["fit", str(src), "--out", str(Path(tmp, "m.map"))]
        elif command == "apply":
            map_path = Path(tmp, "m.map")
            map_path.write_text("pavcal-map v1 posterior step\n0.0\t0.5\n", encoding="utf-8")
            argv = ["apply", str(map_path), str(src), "--out", str(Path(tmp, "out.csv"))]
        else:
            argv = ["evaluate", str(src)] + (["--calibrated"] if "calibrated" in columns else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@given(file=csv_files(), command=st.sampled_from(sorted(READS)))
def test_one_bad_row_is_named_by_its_line(file, command):
    text, columns, bad_line, fails = file
    code, err = _run(command, text, columns)
    if command in fails:
        assert code == 1
        assert err.startswith(f"error: line {bad_line}: "), err
    else:
        assert code == 0, err


@given(
    header=st.sampled_from(["score,label", "Score,Label,Calibrated", "label,score"]),
    blanks=st.lists(blank_lines, max_size=3),
    end=st.sampled_from(["\n", "\r\n"]),
    bom=st.booleans(),
    command=st.sampled_from(sorted(READS)),
)
def test_a_header_only_file_has_no_data_rows(header, blanks, end, bom, command):
    text = ("\ufeff" if bom else "") + end.join([header, *blanks]) + end
    code, err = _run(command, text, set(header.lower().split(",")))
    assert code == 1
    assert err.startswith("error: ") and err.rstrip().endswith("no data rows")
