"""The README's python examples run as written.

Each ```python block of README.md is self-contained.  Every block runs in
a fresh namespace, in a temporary working directory, so the examples
cannot drift from the API.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
