"""Hand-written tokenizer for the statement language.

Unquoted identifiers fold to upper case; double-quoted identifiers keep their
exact spelling (and may contain characters like the euro sign).  Strings are
single-quoted with '' as the escape.  DATE'2023-03-22' is a date literal and
a number directly followed by a currency symbol is a currency literal.

`scan` reads a text in one regex pass, one match per token with the
whitespace and comments before it folded in.  It yields the text's template
key and literal values straight from the matches, so a text whose template
is cached never builds a `Token`; `tokenize` builds tokens from the same
matches on a miss.  Tokens keep their source offsets, so the concatenation
of lexemes plus the skipped whitespace/comments reconstructs the input
exactly.  Of the pattern's alternatives, only a date before a name and a
currency before a decimal before an int must keep their order; the commonest
kinds, punctuation and names, are tried first.
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
_TOKEN_RE = re.compile(_TRIVIA + r"""(?:
    (<-\[|\]->|-\[|\]-|\.\.|<=|>=|<>|!=|[()\[\]{},:.=<>+\-*?;]|/(?!/))
  | ([Dd][Aa][Tt][Ee]'[^']*')
  | ([A-Za-z_][A-Za-z0-9_]*)
  | (\d+(?:\.\d+)?[€$£])
  | (\d+\.\d+)
  | (\d+)
  | ("(?:[^"]|"")*")
  | ('(?:[^']|'')*')
  | (\Z))""", re.VERBOSE)
_TRIVIA_RE = re.compile(_TRIVIA)
# the group of each token kind in `_TOKEN_RE`
_PUNCT, _DATE, _IDENT, _CURRENCY, _DECIMAL, _INT, _QIDENT, _STRING, _END = range(1, 10)
# the one shape of a date literal's body; `date.fromisoformat` takes more
# shapes on Python 3.11 and later
_DATE_BODY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_KINDS = {_DATE: "date", _CURRENCY: "currency", _DECIMAL: "decimal", _INT: "int",
          _STRING: "string"}


# token types whose value is a literal; a statement's literals are numbered
# in source order, which is what `syntax.Param.slot` counts
LITERAL_TYPES = frozenset(_KINDS.values())


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


def _literal(group: int, lexeme: str, text: str, at: int):
    """The value of a literal lexeme of kind `group` starting at `at`."""
    if group == _INT:
        try:
            return int(lexeme)
        except ValueError:  # more digits than the interpreter converts
            raise _error(f"{len(lexeme)}-digit integer is too long", text, at) from None
    if group == _STRING:
        return lexeme[1:-1].replace("''", "'")
    if group == _DECIMAL:
        return Decimal(lexeme)
    if group == _CURRENCY:
        return Currency(Decimal(lexeme[:-1]), CURRENCY_SYMBOLS[lexeme[-1]])
    body = lexeme[5:-1]
    try:
        if _DATE_BODY.fullmatch(body):
            return datetime.date.fromisoformat(body)
    except ValueError:  # a month or day out of range
        pass
    raise _error(f"bad date literal {body!r}", text, at)


def scan(text: str) -> tuple[tuple, tuple, list]:
    """`text`'s template key, its literal values in slot order, and the
    matches `tokenize` builds tokens from.

    The key has one item per token.  A literal stands as its kind ("int",
    "string", ...), except an int right after `{` or `,`: that is where
    `{m,n}` quantifier bounds stand, which the parser reads as structure, so
    the key keeps (kind, value).  Any other token stands as its value (an
    upper-cased name or keyword, the punctuation itself, None at the end), or
    as the 1-tuple of its spelling when quoted, so `"match"` and `MATCH`
    differ.  Strings hash once, which keeps long keys cheap."""
    key: list = []
    values: list = []
    matches: list = []
    match, pos = _TOKEN_RE.match, 0
    while (m := match(text, pos)) is not None:  # each match starts where the last ended
        matches.append(m)
        pos = m.end()
        group = m.lastindex
        if group == _IDENT:
            key.append(m[group].upper())
        elif group == _PUNCT:
            key.append(m[group])
        elif group == _END:
            key.append(None)
            return tuple(key), tuple(values), matches
        elif group == _QIDENT:
            key.append((m[group][1:-1].replace('""', '"'),))
        else:
            v = _literal(group, m[group], text, m.start(group))
            key.append((_KINDS[group], v) if group == _INT and key and key[-1] in ("{", ",")
                       else _KINDS[group])
            values.append(v)
    at = _TRIVIA_RE.match(text, pos).end()
    if text[at] in "'\"":
        raise _error("unterminated literal", text, at)
    raise _error(f"unexpected character {text[at]!r}", text, at)


def bracket_depth(text: str) -> tuple[int, int | None]:
    """The count of `[` less the count of `]` over `text`'s tokens, and the
    offset of a quoted literal still open at its end, or None.  A character
    that starts no token counts as nothing."""
    depth = pos = 0
    while (m := _TOKEN_RE.match(text, pos)) is None or m.lastindex != _END:
        if m is None:
            at = _TRIVIA_RE.match(text, pos).end()
            if text[at] in "'\"":
                return depth, at
            pos = at + 1
            continue
        if m.lastindex == _PUNCT:
            depth += m[_PUNCT].count("[") - m[_PUNCT].count("]")
        pos = m.end()
    return depth, None


def _newlines(text: str):
    """The offsets of `text`'s newlines, then its length, which no token
    starts after."""
    at = text.find("\n")
    while at >= 0:
        yield at
        at = text.find("\n", at + 1)
    yield len(text)


def tokenize(text: str, scanned: tuple | None = None) -> list[Token]:
    """The tokens of `text`, built from `scanned`, its `scan`, when the
    caller has it; a name's value is its key item."""
    key, values, matches = scan(text) if scanned is None else scanned
    tokens: list[Token] = []
    append = tokens.append
    literals = iter(values)
    newlines = _newlines(text)
    nl = next(newlines)
    line, line_start = 1, 0  # current line number and the offset where it starts
    for m, item in zip(matches, key):
        group = m.lastindex
        start, end = m.span(group)
        lexeme = m[group]
        while nl < start:  # the newlines since the last token, in trivia or lexeme
            line, line_start, nl = line + 1, nl + 1, next(newlines)
        col = start - line_start + 1
        if group == _IDENT:
            append(Token("ident", item, lexeme, start, end, line, col))
        elif group == _PUNCT:
            append(Token(lexeme, lexeme, lexeme, start, end, line, col))
        elif group == _QIDENT:
            append(Token("ident", item[0], lexeme, start, end, line, col, exact=True))
        elif group == _END:
            append(Token("end", None, "", start, end, line, col))
        else:
            append(Token(_KINDS[group], next(literals), lexeme, start, end, line, col))
    return tokens
