"""Hand-written tokenizer for the statement language.

Unquoted identifiers fold to upper case; double-quoted identifiers keep their
exact spelling (and may contain characters like the euro sign).  Strings are
single-quoted with '' as the escape.  DATE'2023-03-22' is a date literal and
a number directly followed by a currency symbol is a currency literal.

`split` cuts a text's literals out in one regex pass, one match per literal:
the structure text before each literal and the literal's kind make the
text's template key, and the converted literals its values, so a text whose
template is cached never builds a `Token`.  `tokenize` reads the text one
token per match, on a miss only.  Tokens keep their source offsets, so the
concatenation of lexemes plus the skipped whitespace/comments reconstructs
the input exactly.  Of the token pattern's alternatives, only a date before
a name and a currency before a decimal before an int must keep their order;
the commonest kinds, punctuation and names, are tried first.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from decimal import Decimal

from .errors import LexError
from .values import CURRENCY_SYMBOLS, Currency

# Leading trivia, then one token.  A comment must run to the end of its
# line and `/` never starts `//`, so a match cannot end a comment early and
# lex the rest of it as tokens: the one match at each offset is the token
# there.  Trivia takes one blank per repetition, so a failed match backs off
# over a run of blanks in linear time (a `+` inside the `*` would try every
# split of it).
_TRIVIA = r"(?:[ \t\r\n]|//[^\n]*(?![^\n]))*"
# the literals, each in a group named for its kind
_DATE = r"(?P<date>[Dd][Aa][Tt][Ee]'[^']*')"
_OTHER_LITERALS = r"""(?P<currency>\d+(?:\.\d+)?[€$£]) | (?P<decimal>\d+\.\d+) | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*')"""
_TOKEN_RE = re.compile(_TRIVIA + r"""(?:
    (?P<punct><-\[|\]->|-\[|\]-|\.\.|<=|>=|<>|!=|[()\[\]{},:.=<>+\-*?;]|/(?!/))
  | """ + _DATE + r""" | (?P<ident>[A-Za-z_][A-Za-z0-9_]*) | """ + _OTHER_LITERALS + r"""
  | (?P<qident>"(?:[^"]|"")*") | (?P<end>\Z))""", re.VERBOSE)
_TRIVIA_RE = re.compile(_TRIVIA)
# The structure before a literal, then the literal or the end.  Each item of
# the structure run is the only one that can start where it starts and has
# one length (a name or quoted name cannot stop short, a comment runs to its
# line's end), so a failed match backs off one item at a time in linear
# time, and a literal can start only where `_TOKEN_RE` starts one.  A name
# glued to a quote (`xDATE'...'`) stops the match.
_SPLIT_RE = re.compile(r"""((?:
    [ \t\r\n()\[\]{},:.=<>+\-*?;]
  | [A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_'])
  | "(?:[^"]|"")*"(?!")
  | //[^\n]*(?![^\n])
  | /(?!/)
  | !=)*)(?:""" + _DATE + " | " + _OTHER_LITERALS + r""" | \Z)""", re.VERBOSE)
# the one shape of a date literal's body; `date.fromisoformat` takes more
# shapes on Python 3.11 and later
_DATE_BODY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


# token types whose value is a literal; a statement's literals are numbered
# in source order, which is what `syntax.Param.slot` counts
LITERAL_TYPES = frozenset(("date", "currency", "decimal", "int", "string"))


@dataclass(slots=True)
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


def _error(message: str, text: str, at: int) -> LexError:
    line_start = text.rfind("\n", 0, at) + 1
    return LexError(message, text.count("\n", 0, at) + 1, at - line_start + 1)


def _literal(kind: str, lexeme: str, text: str, at: int):
    """The value of a literal lexeme of `kind` starting at `at`."""
    if kind == "int":
        try:
            return int(lexeme)
        except ValueError:  # more digits than the interpreter converts
            raise _error(f"{len(lexeme)}-digit integer is too long", text, at) from None
    if kind == "string":
        return lexeme[1:-1].replace("''", "'")
    if kind == "decimal":
        return Decimal(lexeme)
    if kind == "currency":
        return Currency(Decimal(lexeme[:-1]), CURRENCY_SYMBOLS[lexeme[-1]])
    body = lexeme[5:-1]
    try:
        if _DATE_BODY.fullmatch(body):
            return datetime.date.fromisoformat(body)
    except ValueError:  # a month or day out of range
        pass
    raise _error(f"bad date literal {body!r}", text, at)


def split(text: str) -> tuple[tuple, tuple] | None:
    """`text`'s template key and its literal values in slot order, or None
    where the text has a lexical error or a name glued to a quote.

    The key is the structure text before each literal, interleaved with the
    literal's kind ("int", "string", ...), then the text after the last
    literal.  An int right after `{` or `,` stands as (kind, value): that is
    where `{m,n}` quantifier bounds stand, which the parser reads as
    structure.  So does every int of a text with a comment, which may sit
    between the two.  Texts of one key have one token shape."""
    key: list = []
    values: list = []
    commented = "//" in text
    match, pos = _SPLIT_RE.match, 0
    while (m := match(text, pos)) is not None:  # each match starts where the last ended
        run = m[1]
        key.append(run)
        kind = m.lastgroup
        if kind is None:  # the end
            return tuple(key), tuple(values)
        v = _literal(kind, m[kind], text, m.start(kind))
        key.append((kind, v) if kind == "int" and (
            commented or run.rstrip(" \t\r\n").endswith(("{", ","))) else kind)
        values.append(v)
        pos = m.end()
    return None


def bracket_depth(text: str) -> tuple[int, int | None]:
    """The count of `[` less the count of `]` over `text`'s tokens, and the
    offset of a quoted literal still open at its end, or None.  A character
    that starts no token counts as nothing."""
    depth = pos = 0
    while (m := _TOKEN_RE.match(text, pos)) is None or m.lastgroup != "end":
        if m is None:
            at = _TRIVIA_RE.match(text, pos).end()
            if text[at] in "'\"":
                return depth, at
            pos = at + 1
            continue
        if m.lastgroup == "punct":
            depth += m["punct"].count("[") - m["punct"].count("]")
        pos = m.end()
    return depth, None


def tokenize(text: str, values: tuple | None = None) -> list[Token]:
    """The tokens of `text`.  A caller that has split the text passes its
    literal values, which are then not converted again."""
    tokens: list[Token] = []
    append = tokens.append
    literals = None if values is None else iter(values)
    # the current line number, the offset where it starts, and the next newline
    line, line_start, nl = 1, 0, text.find("\n")
    match, pos = _TOKEN_RE.match, 0
    while (m := match(text, pos)) is not None:  # each match starts where the last ended
        kind = m.lastgroup
        start, pos = m.span(kind)
        lexeme = m[kind]
        while -1 < nl < start:  # the newlines since the last token, in trivia or lexeme
            line, line_start, nl = line + 1, nl + 1, text.find("\n", nl + 1)
        col = start - line_start + 1
        if kind == "ident":
            append(Token("ident", lexeme.upper(), lexeme, start, pos, line, col))
        elif kind == "punct":
            append(Token(lexeme, lexeme, lexeme, start, pos, line, col))
        elif kind == "qident":
            append(Token("ident", lexeme[1:-1].replace('""', '"'), lexeme, start, pos,
                         line, col, exact=True))
        elif kind == "end":
            append(Token("end", None, "", start, pos, line, col))
            return tokens
        else:
            append(Token(kind, _literal(kind, lexeme, text, start) if literals is None
                         else next(literals), lexeme, start, pos, line, col))
    at = _TRIVIA_RE.match(text, pos).end()
    if text[at] in "'\"":
        raise _error("unterminated literal", text, at)
    raise _error(f"unexpected character {text[at]!r}", text, at)
