import datetime
import random
import re
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphtables.errors import LexError
from graphtables.lexer import tokenize
from graphtables.values import Currency


def kinds(text):
    return [t.type for t in tokenize(text)]


def test_identifiers_fold_but_quoted_ones_do_not():
    plain, quoted, _end = tokenize('name "Sum€"')
    assert plain.value == "NAME" and not plain.exact
    assert quoted.value == "Sum€" and quoted.exact
    assert quoted.text == '"Sum€"'


def test_quoted_identifier_escape():
    tok = tokenize('"say ""hi"""')[0]
    assert tok.value == 'say "hi"'


def test_string_escape_and_date_and_currency_literals():
    toks = tokenize("'O''Hara' DATE'2023-03-22' 12.50€ 3$")
    assert toks[0].value == "O'Hara"
    assert toks[1].value == datetime.date(2023, 3, 22)
    assert toks[2].value == Currency(Decimal("12.50"), "EUR")
    assert toks[3].value == Currency(Decimal("3"), "USD")


def test_arrows_lex_as_single_tokens():
    assert kinds("<-[ ]-> -[ ]-")[:-1] == ["<-[", "]->", "-[", "]-"]


def test_range_dots_split_ints():
    assert kinds("1..1")[:-1] == ["int", "..", "int"]
    assert kinds("0..*")[:-1] == ["int", "..", "*"]


def test_comment_runs_to_end_of_line():
    toks = tokenize("a // rest is noise\nb")
    assert [t.value for t in toks[:-1]] == ["A", "B"]
    assert toks[1].line == 2 and toks[1].col == 1


def test_no_reserved_words():
    # FROM, MATCH etc. are plain identifiers; the parser decides from context
    toks = tokenize("from")
    assert toks[0].type == "ident" and toks[0].value == "FROM"


@pytest.mark.parametrize("bad", ["'open", '"open', "DATE'2023-13-99'", "@",
                                 # shapes other than YYYY-MM-DD, on every Python version
                                 "DATE'20230322'", "DATE'2023-W12-3'", "DATE'2023W123'"])
def test_lex_errors(bad):
    with pytest.raises(LexError):
        tokenize(bad)


def test_error_position_is_line_and_column():
    with pytest.raises(LexError) as err:
        tokenize("ab\ncd @")
    assert err.value.line == 2 and err.value.col == 4


@pytest.mark.parametrize("text, line, col", [
    ("'a\n\nbc' @", 3, 5),                    # newlines inside a string
    ('"a\nbc" @', 2, 5),                      # newline inside a quoted identifier
    ("x // note\n  @", 2, 3),                 # newline that ends a comment
    ("x\n\n\t@", 3, 2),                       # newlines in whitespace
    ("'a\n\nb' // c\n DATE'2023-13-99'", 4, 2),  # error on a token's own start
])
def test_error_position_after_a_consumed_newline(text, line, col):
    with pytest.raises(LexError) as err:
        tokenize(text)
    assert (err.value.line, err.value.col) == (line, col)


statement_text = st.text(
    alphabet=st.sampled_from(list("abzAZ_019 ()[]{},:.=<>+-*/?;'\"\n\t") + ["€", "$", "£"]),
    max_size=60,
)


@given(statement_text)
def test_offsets_reconstruct_the_input(text):
    """Lexeme offsets are exact: the source is token texts plus the skipped
    whitespace and comments between them."""
    try:
        tokens = tokenize(text)
    except LexError:
        return
    pos = 0
    rebuilt = []
    for tok in tokens:
        assert tok.start >= pos
        gap = text[pos:tok.start]
        assert gap.strip(" \t\r\n") == "" or gap.lstrip().startswith("//")
        assert text[tok.start:tok.end] == tok.text
        line_start = text.rfind("\n", 0, tok.start) + 1
        assert (tok.line, tok.col) == (text.count("\n", 0, tok.start) + 1,
                                       tok.start - line_start + 1)
        rebuilt.append(gap + tok.text)
        pos = tok.end
    assert "".join(rebuilt) + text[pos:] == text
    assert tokens[-1].type == "end" and tokens[-1].end == len(text)


# The token pattern as it stood before its alternatives were reordered
# (dates, numbers, quoted names, strings, names, punctuation, end): a
# reorder may change how soon a token is found, never which token it is.
_REFERENCE = re.compile(r"(?:[ \t\r\n]|//[^\n]*(?![^\n]))*" + r"""(?:
    ([Dd][Aa][Tt][Ee]'[^']*')
  | (\d+(?:\.\d+)?[€$£])
  | (\d+\.\d+)
  | (\d+)
  | ("(?:[^"]|"")*")
  | ('(?:[^']|'')*')
  | ([A-Za-z_][A-Za-z0-9_]*)
  | (<-\[|\]->|-\[|\]-|\.\.|<=|>=|<>|!=|[()\[\]{},:.=<>+\-*?;]|/(?!/))
  | (\Z))""", re.VERBOSE)
_REFERENCE_KINDS = (None, "date", "currency", "decimal", "int", "ident", "string", "ident",
                    None, "end")

_PIECES = ("MATCH", "date", "Date", "DATE'2023-03-22'", "date'1999-01-02'", "DATE'2023-13-99'",
           "DATE''", "1.5€", "3$", "2.25£", "1..3", "1.5", "42", "007", "..", ".", "/", "//c\n",
           "// two words", "'s'", "'it''s'", "''", '"quoted name"', '"a""b"', '"date"', "@",
           "#", "-[", "]->", "<-[", "]-", "-", "<=", ">=", "<>", "!=", "<", "=", "(", ")", "[",
           "]", "{", "}", ",", ":", "*", "+", "?", ";", "_x1", "a", "'open", '"open')


def _reference_tokens(text):
    """(kind, start, end) of each token the reference pattern finds, then
    the (line, col) of a character that starts no token, or None."""
    out, pos = [], 0
    while (m := _REFERENCE.match(text, pos)) is not None:
        group = m.lastindex
        kind = _REFERENCE_KINDS[group] or m[group]
        out.append((kind, *m.span(group)))
        if kind == "end":
            return out, None
        pos = m.end()
    at = re.compile(r"(?:[ \t\r\n]|//[^\n]*(?![^\n]))*").match(text, pos).end()
    return out, (text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


@pytest.mark.parametrize("seed", range(8))
def test_tokens_match_the_pattern_before_its_reorder(seed):
    """Seeded texts over the token alphabet, pieces joined with or without
    blanks, lex to the reference's kinds and spans; a text the reference
    cannot lex, or whose date literal is bad, fails at the same line and
    column."""
    rng = random.Random(seed)
    for _ in range(300):
        text = "".join(rng.choice(_PIECES) + rng.choice(("", "", " ", "\n", "\t"))
                       for _ in range(rng.randint(1, 12)))
        want, stuck = _reference_tokens(text)
        bad_dates = [start for kind, start, end in want
                     if kind == "date" and text[start + 5:end - 1] not in ("2023-03-22", "1999-01-02")]
        try:
            got = [(t.type, t.start, t.end) for t in tokenize(text)]
        except LexError as exc:
            if bad_dates:
                at = bad_dates[0]
                stuck = (text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))
            assert (exc.line, exc.col) == stuck, text
            continue
        assert stuck is None and not bad_dates and got == want, text


@pytest.mark.parametrize("digits", ["٣٤", "３４", "1٣", "1.٣", "٣€"])
def test_numbers_take_ascii_digits_only(digits):
    """GRAMMAR.md's digit is 0-9, as a name's digits are: another script's
    decimal digits start no token, cached or not."""
    from graphtables import Database
    from graphtables.lexer import split
    with pytest.raises(LexError):
        tokenize(f"CREATE (:N {{K: {digits}}})")
    assert split(f"CREATE (:N {{K: {digits}}})") is None
    db = Database()
    with pytest.raises(LexError):
        db.execute(f"CREATE (:N {{K: {digits}}})")
    assert db.catalog.lookup_label("N") is None


def test_bracket_depth_skips_a_character_that_starts_no_token():
    from graphtables.lexer import bracket_depth
    assert bracket_depth("[MATCH @ (a) [()-[:E]->()]+ `(b)") == (1, None)
    assert bracket_depth("[a @ ]") == (0, None)
    assert bracket_depth("[a @ 'open") == (1, 5)
