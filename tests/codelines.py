"""Code lines of `src/graphtables`, per module and in total.

A code line is a line that holds part of a token other than a comment:
blank lines, comment lines and the docstrings of modules, classes and
functions are left out, and a statement spread over several lines counts
each of them.  Run it from the repo root:

    python3 tests/codelines.py [directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphtables"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count(directory: Path) -> dict[str, int]:
    """Module file name -> its code lines, for each `*.py` in `directory`."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


if __name__ == "__main__":
    counts = count(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
    for name, lines in counts.items():
        print(f"{name:16} {lines:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
