"""Interactive shell and script runner.

Statements are one line each unless wrapped in square brackets, which may
span lines; the outer brackets are stripped before parsing.  Result tables
print in a dashed ASCII layout; successful statements without a result stay
quiet.
"""

from __future__ import annotations

import argparse
import sys
import time

from .engine import Database, ResultTable, render_row
from .errors import GraphTablesError
from .lexer import bracket_depth
from .storage import ReadView, Row
from . import values as val


def render_value(view: ReadView, value) -> str:
    if isinstance(value, Row):
        return render_row(view, value)
    if isinstance(value, list):
        return "ARRAY[" + ",".join(render_value(view, v) for v in value) + "]"
    return val.render(value)


def format_table(view: ReadView, table: ResultTable) -> str:
    """`table` as a dashed ASCII box; rows are read through `view`, which
    should be the view that produced them."""
    if not table.columns:
        return "true" if table.rows else "false"
    cells = [[render_value(view, v) for v in row] for row in table.rows]
    widths = [len(c) for c in table.columns]
    for row in cells:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    def line(parts):
        return "|" + "|".join(text.ljust(w) for text, w in zip(parts, widths)) + "|"
    dashes = "-" * (sum(widths) + len(widths) + 1)
    out = [dashes, line(table.columns), dashes]
    out.extend(line(row) for row in cells)
    out.append(dashes)
    return "\n".join(out)


def split_statements(text: str) -> list[tuple[int, str]]:
    """Break script text into (starting line number, statement) pairs."""
    lines = iter(text.split("\n"))
    return list(_statements(lambda in_block: next(lines, None)))


def _statements(read_line):
    """Yield (starting line number, statement) for the lines that
    `read_line(in_block)` returns until it returns None.  Blank and `//`
    lines between statements are skipped; a line starting with `[` opens a
    block that runs until the statement lexer finds its `[` and `]` tokens
    balanced and no literal open, and the block's outer brackets are
    stripped; any other line is one statement.  A block still open at the
    end of input is a statement too."""
    block: list[str] = []
    depth = start = line_no = 0
    pending = ""   # a literal still open at the end of the block so far
    while (line := read_line(bool(block))) is not None:
        line_no += 1
        stripped = line.strip()
        if not block:
            if not stripped or stripped.startswith("//"):
                continue
            if not stripped.startswith("["):
                yield line_no, stripped
                continue
            start = line_no
        block.append(line.rstrip("\n"))
        text = pending + "\n" + block[-1] if pending else block[-1]
        delta, open_at = bracket_depth(text)
        depth += delta
        pending = "" if open_at is None else text[open_at:]
        if depth <= 0 and not pending:
            yield start, _block_body(block)
            block, depth = [], 0
    if block:
        yield start, _block_body(block)


def _block_body(block: list[str]) -> str:
    body = "\n".join(block).strip()
    return body[1:-1] if body.startswith("[") and body.endswith("]") else body


def run_repl(db: Database, stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    session = db.session()

    def read_line(in_block: bool) -> str | None:
        stdout.write("> " if in_block else "SQL> ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            stdout.write("\n")
            return None
        return line

    for _, text in _statements(read_line):
        if text.lower() in ("exit", "quit"):
            return 0
        _execute_line(session, text, stdout)
    return 0


def _execute_line(session, text: str, stdout) -> None:
    try:
        result = session.execute(text)
        if isinstance(result, ResultTable):
            stdout.write(format_table(session.view(), result) + "\n")
    except GraphTablesError as exc:
        stdout.write(f"error: {exc}\n")


HEAD_WIDTH = 40  # characters of a statement that a `--time` line shows


def run_script(db: Database, path: str, keep_going: bool = False,
               timing: bool = False, out=None) -> int:
    out = out or sys.stdout
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    session = db.session()
    statements = split_statements(text)
    failures = 0
    started = time.perf_counter()
    executed = 0
    for line_no, stmt_text in statements:
        t0 = time.perf_counter()
        try:
            result = session.execute(stmt_text)
            executed += 1
            elapsed_ms = (time.perf_counter() - t0) * 1000
            shown = (format_table(session.view(), result)
                     if isinstance(result, ResultTable) else None)
        except GraphTablesError as exc:
            failures += 1
            where = line_no + getattr(exc, "line", 1) - 1 if hasattr(exc, "line") else line_no
            print(f"{path}:{where}: error: {exc}", file=sys.stderr)
            if not keep_going:
                return 1
            continue
        if timing:
            head = " ".join(stmt_text.split())
            if len(head) > HEAD_WIDTH:
                head = head[:HEAD_WIDTH - 1] + "…"
            out.write(f"-- line {line_no}: {head} {elapsed_ms:.3f} ms\n")
        if shown is not None:
            out.write(shown + "\n")
    elapsed = time.perf_counter() - started
    if timing and executed:
        rate = executed / elapsed if elapsed > 0 else float("inf")
        out.write(f"{executed} statements in {elapsed:.3f} s ({rate:.0f} statements/s)\n")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="graphtables",
        description="Typed graph database shell.")
    parser.add_argument("dbfile", help="commit log file; ':memory:' for a throwaway database")
    parser.add_argument("--script", metavar="FILE", help="run statements from FILE and exit")
    parser.add_argument("--time", action="store_true", help="print per-statement timing")
    parser.add_argument("--keep-going", action="store_true",
                        help="continue a script after statement errors")
    parser.add_argument("--http", type=int, metavar="PORT",
                        help="serve the read-only HTTP API on PORT")
    args = parser.parse_args(argv)

    db = Database(args.dbfile)
    server = None
    if args.http is not None:   # port 0: a free port the system picks
        from .httpd import serve_in_thread
        server = serve_in_thread(db, args.http)
    try:
        if args.script:
            return run_script(db, args.script, keep_going=args.keep_going, timing=args.time)
        return run_repl(db)
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        db.close()


if __name__ == "__main__":
    sys.exit(main())
