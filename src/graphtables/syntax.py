"""AST node classes.

A pattern chain is a tuple that starts with a NodePattern and alternates with
EdgePattern or PathPattern elements, each followed by another NodePattern.
Statement classes compare structurally, which the parser round-trip tests
rely on.

A parsed statement is a template: each literal token in an expression
position is a `Param` slot, filled at execution from the literal values of
the text being run.  Texts that differ only in those literals share one
template, unless `shareable` says the template holds more of its text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --- expressions ---


@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class Param:
    """The statement's `slot`-th literal token (counted from 0 in source
    order), negated when the parser folded a minus sign into it."""

    slot: int
    negated: bool = False


@dataclass(frozen=True)
class Ref:
    """Identifier or dotted access: ('X',) or ('X', 'NAME')."""

    path: tuple[str, ...]


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class IsNull:
    operand: object
    negated: bool = False


def expr_refs(expr) -> set[tuple[str, ...]]:
    """All Ref paths mentioned in an expression."""
    out: set[tuple[str, ...]] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Ref):
            out.add(e.path)
        elif isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, IsNull):
            stack.append(e.operand)
        elif isinstance(e, Binary):
            stack.append(e.left)
            stack.append(e.right)
    return out


# --- patterns ---


@dataclass(frozen=True)
class NodePattern:
    alias: str | None = None
    labels: tuple[str, ...] = ()
    doc: tuple[tuple[str, object], ...] | None = None
    where: object = None


@dataclass(frozen=True)
class EdgePattern:
    direction: str  # 'out' = leaves the pattern-left node; 'in' = arrives at it
    alias: str | None = None
    labels: tuple[str, ...] = ()
    doc: tuple[tuple[str, object], ...] | None = None
    where: object = None


@dataclass(frozen=True)
class PathPattern:
    chain: tuple
    lo: int
    hi: int | None  # None = unbounded


# --- statements ---


@dataclass(frozen=True)
class CreateStatement:
    graphs: tuple
    then: object = None


@dataclass(frozen=True)
class MatchItem:
    chain: tuple
    rep_mode: str | None = None   # TRAIL | ACYCLIC | SIMPLE
    sel_mode: str | None = None   # SHORTEST | ALL | ANY
    path_alias: str | None = None


@dataclass(frozen=True)
class MatchStatement:
    items: tuple
    where: object = None
    dependent: object = None
    then_block: tuple = ()
    # a cell holding the matcher's plan for the latest published catalog the
    # statement ran under; not part of the statement's value
    plan: list = field(default_factory=lambda: [None], init=False, compare=False, repr=False)


@dataclass(frozen=True)
class ReturnStatement:
    items: tuple  # ((header, expr), ...)


@dataclass(frozen=True)
class SetStatement:
    assignments: tuple  # ((Ref, expr), ...)


@dataclass(frozen=True)
class DeleteStatement:
    alias: str
    cascade: bool = False


@dataclass(frozen=True)
class CreateTypeStatement:
    label: str
    columns: tuple  # ((name, type_name), ...)
    supertype: str | None = None
    kind: str | None = None  # 'node' | 'edge' | None = plain or inherited
    leaving: str | None = None
    arriving: str | None = None


@dataclass(frozen=True)
class AlterAddKey:
    table: str
    columns: tuple


@dataclass(frozen=True)
class AlterAddColumn:
    table: str
    column: str
    type_name: str


@dataclass(frozen=True)
class AlterDropColumn:
    table: str
    column: str


@dataclass(frozen=True)
class AlterAddCheck:
    table: str
    expr: object
    text: str = field(compare=False, default="")


@dataclass(frozen=True)
class AlterCardinality:
    table: str
    leaving: tuple  # (min, max|None)
    arriving: tuple


@dataclass(frozen=True)
class RoleStatement:
    """create role / grant; parsed for syntax, executed as a no-op."""

    text: str


@dataclass(frozen=True)
class BeginStatement:
    pass


@dataclass(frozen=True)
class CommitStatement:
    pass


@dataclass(frozen=True)
class RollbackStatement:
    pass


@dataclass(frozen=True)
class ShowGraphsStatement:
    pass


def shareable(stmt) -> bool:
    """Whether `stmt` may run with the literal values of another text of its
    template key: it holds no copy of its source text (a RETURN header of a
    non-reference, a CHECK's text, a role statement) and no cardinality
    range.  `{m,n}` bounds, the other literals read as structure, are part
    of the template key (`lexer.split`)."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (AlterAddCheck, AlterCardinality, RoleStatement)):
            return False
        if isinstance(node, ReturnStatement):
            if not all(isinstance(expr, Ref) for _header, expr in node.items):
                return False
        elif isinstance(node, CreateStatement):
            stack.append(node.then)
        elif isinstance(node, MatchStatement):
            stack.append(node.dependent)
            stack.extend(node.then_block)
    return True
