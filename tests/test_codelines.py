"""The code-line counter (`tests/codelines.py`) that ROADMAP.md and
CHANGES.md quote for `src/graphtables`."""

import subprocess
import sys

import codelines

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not make a line a comment line

# a comment line


class C:
    """Class docstring."""

    X = """not a docstring:
    a string assigned to a name"""

    def f(self, a,
          b):
        """Function docstring."""
        return (a +
                b)
'''
# code lines: import, class, X = (2 lines), def (2 lines), return (2 lines)


def test_counts_code_lines_only():
    assert codelines.code_lines(FIXTURE) == 8
    assert codelines.code_lines("") == 0
    assert codelines.code_lines('"""Only a docstring."""\n') == 0


def test_counts_each_module_of_a_directory(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert codelines.count(tmp_path) == {"a.py": 8, "b.py": 2}
    out = subprocess.run([sys.executable, codelines.__file__, str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["a.py", "8", "b.py", "2", "total", "10"]
