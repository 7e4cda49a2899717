"""Count the code lines of Python modules: lines that hold a token of code,
not counting docstrings, comments or blank lines.

    python3 tools/code_lines.py              # the modules of src/reasm
    python3 tools/code_lines.py path ...     # files, or the *.py under dirs

Standard library only.  A line counts when a token other than a comment,
a line break or an indent starts on it or spans it, so every line of a
bracketed expression or of a multi-line string inside code counts.  A
statement made of string literals alone, a docstring or a bare string
used as a comment, counts for none of its lines.  The script prints one
"count path" row per module, the package's paths from the repository
root, then "count total".
"""

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in the module at `path`."""
    rows, statement = set(), []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        rows.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(rows)


def modules(paths) -> list:
    """The files given and the *.py files under the directories given,
    each directory's sorted by path."""
    out = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    total = 0
    for path in modules(argv or [ROOT / "src" / "reasm"]):
        count = code_lines(path)
        total += count
        print(count, path if argv else path.relative_to(ROOT))
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
