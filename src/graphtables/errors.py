"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class GraphTablesError(Exception):
    """Base class for every error raised by the engine."""


class LexError(GraphTablesError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(GraphTablesError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = expected


class SchemaError(GraphTablesError):
    """Catalog rule violated: duplicate labels, bad supertype, column clashes."""


class ExecutionError(GraphTablesError):
    """Statement is well formed but cannot be executed against the database."""


class StorageError(GraphTablesError):
    """Row-level misuse detected while staging (unknown uid, bad value
    type), or a commit whose log append failed."""


class CommitError(GraphTablesError):
    """Commit-time validation failure.  `rule` is one of 'conflict' (a commit
    since this transaction began changed a row it wrote or the schema it
    changed too: first committer wins), 'type', 'key', 'reference',
    'multiplicity', 'constraint'."""

    def __init__(self, rule: str, type_label: str, message: str, uids: tuple[int, ...] = ()):
        detail = f"{rule} violation on {type_label}: {message}"
        if uids:
            detail += f" (uid {', '.join(str(u) for u in uids)})"
        super().__init__(detail)
        self.rule = rule
        self.type_label = type_label
        self.uids = uids
