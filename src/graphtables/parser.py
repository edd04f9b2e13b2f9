"""Recursive-descent parser producing the AST in `syntax`.

One call parses one statement.  Keywords are matched contextually against
case-folded unquoted identifiers, so quoted names like "MATCH" stay usable as
identifiers.  Errors carry line/column and the token set that was expected.

The result is a template: a literal in an expression position becomes a
`Param` slot, and `lexer.split` gives the key under which texts share a
template together with the values that fill its slots.
"""

from __future__ import annotations

from .errors import ParseError
from .lexer import LITERAL_TYPES, Token, tokenize
from .syntax import (AlterAddCheck, AlterAddColumn, AlterAddKey,
                     AlterCardinality, AlterDropColumn, BeginStatement, Binary,
                     CommitStatement, CreateStatement, CreateTypeStatement,
                     DeleteStatement, EdgePattern, IsNull, Literal,
                     MatchItem, MatchStatement, NodePattern, Param, PathPattern, Ref,
                     ReturnStatement, RoleStatement, RollbackStatement,
                     SetStatement, ShowGraphsStatement, Unary)

REP_MODES = ("TRAIL", "ACYCLIC", "SIMPLE")
SEL_MODES = ("SHORTEST", "ALL", "ANY")

# statement-starting keywords usable as a dependent of MATCH
_DEPENDENT_STARTERS = ("RETURN", "CREATE", "MATCH", "SET", "DELETE")

_COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, text: str, tokens: list[Token] | None = None):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.pos = 0
        # literal tokens in slot order, and each one's slot by source offset
        self.literals = [t for t in self.tokens if t.type in LITERAL_TYPES]
        self.slots = {t.start: slot for slot, t in enumerate(self.literals)}

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "end":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        got = tok.text or "end of statement"
        return ParseError(f"{message}, got {got!r}", tok.line, tok.col, expected)

    def expect(self, type_: str) -> Token:
        tok = self.peek()
        if tok.type != type_:
            raise self.error("unexpected token", (type_,))
        return self.advance()

    def accept(self, type_: str) -> Token | None:
        if self.peek().type == type_:
            return self.advance()
        return None

    def accept_kw(self, *names: str) -> Token | None:
        if self.peek().is_kw(*names):
            return self.advance()
        return None

    def expect_kw(self, *names: str) -> Token:
        tok = self.accept_kw(*names)
        if tok is None:
            raise self.error("unexpected token", names)
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.type != "ident":
            raise self.error("identifier expected", ("identifier",))
        return self.advance()

    # --- entry points ---

    def parse(self):
        stmt = self.parse_statement()
        self.accept(";")
        if self.peek().type != "end":
            raise self.error("trailing input after statement")
        return stmt

    def parse_statement(self):
        tok = self.peek()
        if tok.is_kw("CREATE"):
            nxt = self.peek(1)
            if nxt.is_kw("ROLE"):
                return self.parse_create_role()
            if nxt.is_kw("TYPE"):
                return self.parse_create_type()
            return self.parse_create_graph()
        if tok.is_kw("MATCH"):
            return self.parse_match()
        if tok.is_kw("ALTER"):
            return self.parse_alter()
        if tok.is_kw("SET"):
            return self.parse_set()
        if tok.is_kw("DELETE"):
            return self.parse_delete()
        if tok.is_kw("RETURN"):
            return self.parse_return()
        if tok.is_kw("GRANT"):
            return self.parse_grant()
        if tok.is_kw("BEGIN"):
            self.advance()
            self.accept_kw("TRANSACTION", "WORK")
            return BeginStatement()
        if tok.is_kw("COMMIT"):
            self.advance()
            self.accept_kw("TRANSACTION", "WORK")
            return CommitStatement()
        if tok.is_kw("ROLLBACK"):
            self.advance()
            self.accept_kw("TRANSACTION", "WORK")
            return RollbackStatement()
        if tok.is_kw("SHOW"):
            self.advance()
            self.expect_kw("GRAPHS")
            return ShowGraphsStatement()
        raise self.error("statement expected",
                         ("CREATE", "MATCH", "ALTER", "SET", "DELETE", "BEGIN", "COMMIT",
                          "ROLLBACK", "SHOW", "GRANT"))

    # --- CREATE ---

    def parse_create_graph(self) -> CreateStatement:
        self.expect_kw("CREATE")
        graphs = [self.parse_chain(match=False)]
        while self.accept(","):
            graphs.append(self.parse_chain(match=False))
        then = None
        if self.accept_kw("THEN"):
            then = self.parse_statement()
        return CreateStatement(tuple(graphs), then)

    def parse_create_role(self) -> RoleStatement:
        start = self.peek().start
        self.expect_kw("CREATE")
        self.expect_kw("ROLE")
        end = self.expect_ident().end
        return RoleStatement(self.text[start:end])

    def parse_grant(self) -> RoleStatement:
        start = self.peek().start
        self.expect_kw("GRANT")
        self.expect_ident()
        self.expect_kw("TO")
        tok = self.peek()
        if tok.type not in ("ident", "string"):
            raise self.error("grantee expected", ("identifier", "string"))
        end = self.advance().end
        return RoleStatement(self.text[start:end])

    def parse_create_type(self) -> CreateTypeStatement:
        self.expect_kw("CREATE")
        self.expect_kw("TYPE")
        label = self.expect_ident().value
        supertype = None
        if self.accept_kw("UNDER"):
            supertype = self.expect_ident().value
        self.expect_kw("AS")
        self.expect("(")
        columns = []
        if self.peek().type != ")":
            columns.append(self.parse_column_def())
            while self.accept(","):
                columns.append(self.parse_column_def())
        self.expect(")")
        kind = None
        leaving = arriving = None
        if self.accept_kw("NODETYPE"):
            kind = "node"
        elif self.accept_kw("EDGETYPE"):
            kind = "edge"
            self.expect("(")
            self.expect_kw("LEAVING")
            leaving = self.expect_ident().value
            self.expect(",")
            self.expect_kw("ARRIVING")
            arriving = self.expect_ident().value
            self.expect(")")
        return CreateTypeStatement(label, tuple(columns), supertype, kind, leaving, arriving)

    def parse_column_def(self) -> tuple[str, str]:
        name = self.expect_ident().value
        type_name = self.expect_ident().value
        if self.accept("("):  # length arguments like CHAR(30) are accepted and ignored
            self.expect("int")
            self.expect(")")
        return (name, type_name)

    # --- ALTER ---

    def parse_alter(self):
        self.expect_kw("ALTER")
        self.expect_kw("TABLE", "TYPE")
        table = self.expect_ident().value
        if self.accept_kw("ADD"):
            if self.accept_kw("PRIMARY"):
                self.expect_kw("KEY")
                self.expect("(")
                cols = [self.expect_ident().value]
                while self.accept(","):
                    cols.append(self.expect_ident().value)
                self.expect(")")
                return AlterAddKey(table, tuple(cols))
            if self.accept_kw("CHECK"):
                self.expect("(")
                start = self.peek().start
                expr = self.parse_expr()
                end = self.peek().start
                self.expect(")")
                return AlterAddCheck(table, expr, self.text[start:end].strip())
            self.accept_kw("COLUMN")
            column, type_name = self.parse_column_def()
            return AlterAddColumn(table, column, type_name)
        if self.accept_kw("DROP"):
            self.accept_kw("COLUMN")
            column = self.expect_ident().value
            return AlterDropColumn(table, column)
        if self.accept_kw("SET"):
            self.expect_kw("CARDINALITY")
            self.expect_kw("LEAVING")
            leaving = self.parse_range()
            self.expect_kw("ARRIVING")
            arriving = self.parse_range()
            return AlterCardinality(table, leaving, arriving)
        raise self.error("ALTER action expected", ("ADD", "DROP", "SET"))

    def parse_range(self) -> tuple[int, int | None]:
        lo = self.expect("int").value
        self.expect("..")
        if self.accept("*"):
            return (lo, None)
        return (lo, self.expect("int").value)

    # --- MATCH ---

    def parse_match(self) -> MatchStatement:
        self.expect_kw("MATCH")
        items = [self.parse_match_item()]
        while self.accept(","):
            items.append(self.parse_match_item())
        if len(items) > 1 and any(it.sel_mode for it in items):
            raise self.error("SHORTEST/ALL/ANY cannot be combined with the comma operator")
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        dependent = None
        if self.peek().is_kw(*_DEPENDENT_STARTERS):
            dependent = self.parse_statement()
        then_block = []
        if self.accept_kw("THEN"):
            while not self.peek().is_kw("END"):
                if self.peek().type == "end":
                    raise self.error("THEN block missing END", ("END",))
                then_block.append(self.parse_statement())
                self.accept(";")
            self.expect_kw("END")
        return MatchStatement(tuple(items), where, dependent, tuple(then_block))

    def parse_match_item(self) -> MatchItem:
        rep_mode = sel_mode = None
        tok = self.accept_kw(*REP_MODES)
        if tok:
            rep_mode = tok.value
        tok = self.accept_kw(*SEL_MODES)
        if tok:
            sel_mode = tok.value
        path_alias = None
        if self.peek().type == "ident" and self.peek(1).type == "=":
            path_alias = self.advance().value
            self.advance()
        chain = self.parse_chain(match=True)
        return MatchItem(chain, rep_mode, sel_mode, path_alias)

    # --- pattern chains ---

    def parse_chain(self, match: bool) -> tuple:
        elements = [self.parse_node(match)]
        while True:
            tok = self.peek()
            if tok.type in ("-[", "<-["):
                elements.append(self.parse_edge(match))
                elements.append(self.parse_node(match))
            elif match and tok.type == "[":
                elements.append(self.parse_path())
                elements.append(self.parse_node(match))
            else:
                break
        return tuple(elements)

    def parse_node(self, match: bool) -> NodePattern:
        self.expect("(")
        alias, labels, doc, where = self.parse_item(match)
        self.expect(")")
        return NodePattern(alias, labels, doc, where)

    def parse_edge(self, match: bool) -> EdgePattern:
        opener = self.advance()
        alias, labels, doc, where = self.parse_item(match)
        if opener.type == "-[":
            self.expect("]->")
            direction = "out"
        else:
            self.expect("]-")
            direction = "in"
        return EdgePattern(direction, alias, labels, doc, where)

    def parse_path(self) -> PathPattern:
        self.expect("[")
        chain = self.parse_chain(match=True)
        self.expect("]")
        tok = self.peek()
        if tok.type == "?":
            self.advance()
            lo, hi = 0, 1
        elif tok.type == "*":
            self.advance()
            lo, hi = 0, None
        elif tok.type == "+":
            self.advance()
            lo, hi = 1, None
        elif tok.type == "{":
            self.advance()
            lo = self.expect("int").value
            self.expect(",")
            hi = None
            if self.peek().type == "int":
                hi = self.advance().value
            self.expect("}")
            if hi is not None and hi < lo:
                raise self.error("quantifier maximum below minimum")
        else:
            raise self.error("quantifier expected", ("?", "*", "+", "{m,n}"))
        return PathPattern(chain, lo, hi)

    def parse_item(self, match: bool):
        """[alias] {':' label} [doc] [WHERE expr] shared by node and edge items."""
        alias = None
        tok = self.peek()
        if tok.type == "ident" and not tok.is_kw("WHERE"):
            alias = self.advance().value
        labels = []
        while self.accept(":"):
            labels.append(self.expect_ident().value)
        doc = None
        if self.peek().type == "{":
            doc = self.parse_doc()
        where = None
        if match and self.accept_kw("WHERE"):
            where = self.parse_expr()
        return alias, tuple(labels), doc, where

    def parse_doc(self):
        self.expect("{")
        pairs = []
        seen = set()
        if self.peek().type != "}":
            while True:
                key_tok = self.expect_ident()
                key = key_tok.value
                if key in seen:
                    raise ParseError(f"duplicate doc key {key}", key_tok.line, key_tok.col)
                seen.add(key)
                self.expect(":")
                pairs.append((key, self.parse_expr()))
                if not self.accept(","):
                    break
        self.expect("}")
        return tuple(pairs)

    # --- other statements ---

    def parse_set(self) -> SetStatement:
        self.expect_kw("SET")
        assignments = []
        while True:
            ref = self.parse_ref()
            self.expect("=")
            assignments.append((ref, self.parse_expr()))
            if not self.accept(","):
                break
        return SetStatement(tuple(assignments))

    def parse_delete(self) -> DeleteStatement:
        self.expect_kw("DELETE")
        alias = self.expect_ident().value
        cascade = self.accept_kw("CASCADE") is not None
        return DeleteStatement(alias, cascade)

    def parse_return(self) -> ReturnStatement:
        self.expect_kw("RETURN")
        items = []
        while True:
            start = self.pos
            expr = self.parse_expr()
            items.append((self._header_for(expr, start), expr))
            if not self.accept(","):
                break
        return ReturnStatement(tuple(items))

    def _header_for(self, expr, start: int) -> str:
        """A reference's column name, else the item's text, strings and quoted names as written."""
        if isinstance(expr, Ref):
            return expr.path[-1]
        parts, at = [], self.tokens[start].start
        for tok in self.tokens[start:self.pos]:
            parts.append(self.text[at:tok.start])
            parts.append(tok.text if tok.type == "string" or tok.exact else tok.text.upper())
            at = tok.end
        return "".join(parts)

    def parse_ref(self) -> Ref:
        path = [self.expect_ident().value]
        while self.accept("."):
            path.append(self.expect_ident().value)
        return Ref(tuple(path))

    # --- expressions ---

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.accept_kw("OR"):
            left = Binary("OR", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.accept_kw("AND"):
            left = Binary("AND", left, self.parse_not())
        return left

    def parse_not(self):
        if self.accept_kw("NOT"):
            return Unary("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_additive()
        tok = self.peek()
        if tok.is_kw("IS"):
            self.advance()
            negated = self.accept_kw("NOT") is not None
            self.expect_kw("NULL")
            return IsNull(left, negated)
        if tok.type in _COMPARISONS:
            op = self.advance().type
            if op == "!=":
                op = "<>"
            return Binary(op, left, self.parse_additive())
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.peek().type in ("+", "-"):
            op = self.advance().type
            left = Binary(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.peek().type in ("*", "/"):
            op = self.advance().type
            left = Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.peek().type == "-":
            self.advance()
            operand = self.parse_unary()
            # a signed number stays one slot, so `{N: -5}` is still a value
            if isinstance(operand, Param) and \
                    self.literals[operand.slot].type in ("int", "decimal"):
                return Param(operand.slot, not operand.negated)
            return Unary("-", operand)
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.type in LITERAL_TYPES:
            self.advance()
            return Param(self.slots[tok.start])
        if tok.is_kw("TRUE"):
            self.advance()
            return Literal(True)
        if tok.is_kw("FALSE"):
            self.advance()
            return Literal(False)
        if tok.is_kw("NULL"):
            self.advance()
            return Literal(None)
        if tok.type == "ident":
            return self.parse_ref()
        if tok.type == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error("expression expected", ("literal", "identifier", "("))


def parse_statement(text: str, tokens: list[Token] | None = None):
    """Parse exactly one statement from `text`, whose tokens the caller may
    pass when it has them; the result is a template (see `lexer.split`)."""
    return _Parser(text, tokens).parse()


def parse_expression(text: str) -> tuple[object, tuple]:
    """Parse a standalone expression (used for constraints): the expression
    and the values of its literal slots."""
    p = _Parser(text)
    expr = p.parse_expr()
    if p.peek().type != "end":
        raise p.error("trailing input after expression")
    return expr, tuple(t.value for t in p.literals)
