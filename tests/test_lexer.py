import datetime
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
