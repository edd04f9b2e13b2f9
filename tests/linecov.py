"""Which lines of `src/graphtables` the test suite never runs, with the
standard library only (no coverage package).

A pytest plugin that the suite does not collect.  Run it from the repo root:

    PYTHONPATH=src:tests python -m pytest -p linecov -q

It counts the lines of every function, method, lambda and nested
comprehension in the package; a line outside them (module and class bodies)
runs at import, before the plugin starts, and is not counted.  At the end it
prints each counted line that never ran and is not in `UNTESTED`, and sets
a non-zero exit status if there is one.  `UNTESTED` names a line by module
and its exact source text, so the list does not go stale as lines move;
`tests/test_linecov.py` checks that each entry still names a line.
"""

import ast
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphtables"

# (module, stripped source line, reason) of each line no test runs on
# purpose; an entry that names an `except` clause stands for its whole body
UNTESTED = [
    ("httpd.py", "except Exception as exc:  # pragma: no cover - last resort",
     "the last-resort 500 answers a fault of the view itself; every known "
     "input is answered by a path above it"),
    ("httpd.py", "except Exception:",
     "a handler thread's fault outside `do_GET`, such as a socket that "
     "breaks mid-reply, goes to the standard library's `handle_error`"),
    ("values.py", 'raise TypeError(f"cannot encode {value!r}")',
     "the last raise of `to_jsonable` and of `http_value`: every value a "
     "column can hold is encoded above it"),
    ("engine.py", "except RecursionError:",
     "test_statement_cache.py's deep-nesting tests run it, but under a "
     "tracer the recursion limit trips inside the trace function first, "
     "which switches tracing off"),
]

_CODE_FLAGS = 0x1  # CO_OPTIMIZED: functions, lambdas and comprehensions


def counted_lines(path: Path) -> set:
    """The line numbers of `path` that run only when a function is called:
    the lines of each function code object and of the code nested in it.
    A comprehension directly in a module or class body runs at import, so
    it is left out with that body."""
    lines = set()

    def walk(code, in_function):
        is_function = bool(code.co_flags & _CODE_FLAGS)
        at_import = is_function and not in_function and code.co_name.startswith("<") \
            and code.co_name != "<lambda>"
        counted = is_function and not at_import
        if counted:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, counted)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), False)
    return lines


def source_lines(module: str) -> list:
    return (PACKAGE / module).read_text(encoding="utf-8").splitlines()


def entry_lines(module: str, text: str) -> set:
    """The line numbers of `module` that the `UNTESTED` entry naming `text`
    stands for: each line reading `text`, with the body of an `except`."""
    source = source_lines(module)
    lines = {i for i, line in enumerate(source, 1) if line.strip() == text}
    for node in ast.walk(ast.parse("\n".join(source))):
        if isinstance(node, ast.ExceptHandler) and node.lineno in lines:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


class _Tracer:
    """Records (file, line) of every line event in the package's frames,
    and of the first line of every package function called."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.seen = defaultdict(set)

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.seen[code.co_filename].add(code.co_firstlineno)
        return self.local_trace

    def local_trace(self, frame, event, arg):
        if event == "line":
            self.seen[frame.f_code.co_filename].add(frame.f_lineno)
        return self.local_trace

    def install(self):
        """(Re-)install on this thread and on threads started later; a
        trace function that raises (a RecursionError in a deep test)
        switches tracing off for its thread, so each test installs again."""
        sys.settrace(self.global_trace)
        threading.settrace(self.global_trace)

    def remove(self):
        sys.settrace(None)
        threading.settrace(None)

    def ran(self) -> list:
        """The `UNTESTED` entries each of whose lines ran after all."""
        return [(module, text) for module, text, _ in UNTESTED
                if entry_lines(module, text) & counted_lines(PACKAGE / module)
                <= self.seen[str(PACKAGE / module)]]

    def missed(self) -> dict:
        """module -> sorted line numbers counted, never run and not listed."""
        missed = {}
        for path in sorted(PACKAGE.glob("*.py")):
            lines = counted_lines(path) - self.seen[str(path)]
            for module, text, _ in UNTESTED:
                if module == path.name:
                    lines -= entry_lines(module, text)
            if lines:
                missed[path.name] = sorted(lines)
        return missed


_tracer = _Tracer()


def pytest_configure(config):
    _tracer.install()


def pytest_runtest_setup(item):
    _tracer.install()


def pytest_sessionfinish(session, exitstatus):
    _tracer.remove()
    if _tracer.missed() and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    missed = _tracer.missed()
    write = terminalreporter.write_line
    terminalreporter.section("lines of src/graphtables no test ran")
    for module, lines in missed.items():
        source = source_lines(module)
        for line in lines:
            write(f"{module}:{line}: {source[line - 1].strip()}")
    for module, text in _tracer.ran():
        write(f"{module}: listed as untested, yet every line of it ran: {text}")
    write(f"{sum(map(len, missed.values()))} unlisted lines never ran; "
          f"{len(UNTESTED)} entries list lines untested on purpose")
