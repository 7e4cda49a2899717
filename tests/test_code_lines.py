"""tools/code_lines.py on a small synthetic module."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"

# 8 code lines: the import, the def, both lines of the bracketed sum, both
# of the returned string, the class and its pass
SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""

    y = (x +
         1)
    "a bare string, a comment in effect"
    return """a string
in code"""


class C:
    pass
'''


def _rows(*args) -> list:
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, check=True)
    return [line.split(" ", 1) for line in proc.stdout.splitlines()]


def test_counts_lines_of_code_only(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "b.py").write_text(SAMPLE)
    (pkg / "a.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (pkg / "notes.txt").write_text("x = 1\n")
    assert _rows(pkg / "b.py") == [["8", str(pkg / "b.py")], ["8", "total"]]
    # a directory's modules in path order, each with its count
    assert [count for count, _ in _rows(pkg)] == ["0", "8", "8"]


def test_default_is_the_package():
    rows = _rows()
    assert [Path(path).name for _, path in rows[:-1]] == sorted(
        p.name for p in (ROOT / "src" / "reasm").glob("*.py"))
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
