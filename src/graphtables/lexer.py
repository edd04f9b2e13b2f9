"""Hand-written tokenizer for the statement language.

Unquoted identifiers fold to upper case; double-quoted identifiers keep their
exact spelling (and may contain characters like the euro sign).  Strings are
single-quoted with '' as the escape.  DATE'2023-03-22' is a date literal and
a number directly followed by a currency symbol is a currency literal.

Tokens keep their source offsets, so the concatenation of lexemes plus the
skipped whitespace/comments reconstructs the input exactly.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from decimal import Decimal

from .errors import LexError
from .values import CURRENCY_SYMBOLS, Currency

# Alternation order matters: longest and most specific first.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<date>[Dd][Aa][Tt][Ee]'[^']*')
  | (?P<currency>\d+(?:\.\d+)?[€$£])
  | (?P<decimal>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<qident>"(?:[^"]|"")*")
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow><-\[|\]->|-\[|\]-)
  | (?P<punct2>\.\.|<=|>=|<>|!=)
  | (?P<punct>[()\[\]{},:.=<>+\-*/?;])
    """,
    re.VERBOSE,
)


# token types whose value is a literal; a statement's literals are numbered
# in source order, which is what `syntax.Param.slot` counts
LITERAL_TYPES = frozenset(("int", "decimal", "string", "currency", "date"))


@dataclass
class Token:
    type: str          # 'ident', 'string', 'int', 'decimal', 'currency', 'date', 'end', or the punctuation itself
    value: object
    text: str          # exact lexeme
    start: int
    end: int
    line: int
    col: int
    exact: bool = False  # True for double-quoted identifiers

    def is_kw(self, *names: str) -> bool:
        return self.type == "ident" and not self.exact and self.value in names


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    line, line_start = 1, 0  # current line number and the offset where it starts
    while i < n:
        m = _TOKEN_RE.match(text, i)
        col = i - line_start + 1
        if m is None:
            ch = text[i]
            if ch in "'\"":
                raise LexError("unterminated literal", line, col)
            raise LexError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        start, i = i, m.end()
        tok_line = line
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = start + lexeme.rindex("\n") + 1
        if kind in ("ws", "comment"):
            continue
        if kind == "date":
            body = lexeme[5:-1]
            try:
                value = datetime.date.fromisoformat(body)
            except ValueError:
                raise LexError(f"bad date literal {body!r}", tok_line, col) from None
            tokens.append(Token("date", value, lexeme, start, i, tok_line, col))
        elif kind == "currency":
            code = CURRENCY_SYMBOLS[lexeme[-1]]
            tokens.append(Token("currency", Currency(Decimal(lexeme[:-1]), code),
                                lexeme, start, i, tok_line, col))
        elif kind == "decimal":
            tokens.append(Token("decimal", Decimal(lexeme), lexeme, start, i, tok_line, col))
        elif kind == "int":
            try:
                tokens.append(Token("int", int(lexeme), lexeme, start, i, tok_line, col))
            except ValueError:  # more digits than the interpreter converts
                raise LexError(f"{len(lexeme)}-digit integer is too long", tok_line, col) from None
        elif kind == "qident":
            name = lexeme[1:-1].replace('""', '"')
            tokens.append(Token("ident", name, lexeme, start, i, tok_line, col, exact=True))
        elif kind == "string":
            value = lexeme[1:-1].replace("''", "'")
            tokens.append(Token("string", value, lexeme, start, i, tok_line, col))
        elif kind == "ident":
            tokens.append(Token("ident", lexeme.upper(), lexeme, start, i, tok_line, col))
        else:  # arrow, punct2, punct
            tokens.append(Token(lexeme, lexeme, lexeme, start, i, tok_line, col))
    tokens.append(Token("end", None, "", n, n, line, n - line_start + 1))
    return tokens
