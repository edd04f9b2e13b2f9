"""Expression evaluation through bare RETURN and WHERE: three-valued logic,
the spellings of its operators, and currency arithmetic and ordering."""

from decimal import Decimal

import pytest

from graphtables import Database
from graphtables.errors import ExecutionError
from graphtables.values import Currency

THREE_VALUED = [
    ("TRUE AND TRUE", True),
    ("TRUE AND FALSE", False),
    ("FALSE AND NULL", False),
    ("NULL AND TRUE", None),
    ("NULL AND NULL", None),
    ("TRUE OR NULL", True),
    ("FALSE OR FALSE", False),
    ("FALSE OR NULL", None),
    ("NULL OR NULL", None),
    ("NOT TRUE", False),
    ("NOT FALSE", True),
    ("NOT NULL", None),
    ("1 != 2", True),
    ("1 != 1", False),
    ("NULL != 1", None),
    ("NOT (1 = 1 AND 2 = 3)", True),
    ("(1 = 2 OR 2 = 2) AND NOT (2 <> 2)", True),
    ("(NULL = 1) IS NULL", True),
]


@pytest.mark.parametrize("text, expected", THREE_VALUED)
def test_three_valued_logic(text, expected):
    assert Database().execute(f"RETURN {text}").rows == [[expected]]


def test_bare_return_evaluates_once_and_names_columns_by_source_text():
    table = Database().execute("RETURN 1 + 2, 'x'")
    assert table.columns == ["1 + 2", "'x'"]
    assert table.rows == [[3, "x"]]
    # keywords fold to upper case, literal contents keep theirs
    assert Database().execute("RETURN 'a' is null").columns == ["'a' IS NULL"]


def test_where_with_no_true_side_of_or_keeps_no_row():
    db = Database()
    db.execute("CREATE (:P {N: 1, S: 'a'}), (:P {N: 2})")
    assert db.execute("MATCH (p:P) WHERE p.S = 'b' OR p.N > 5 RETURN p.N").rows == []
    # the row without S makes the OR unknown, not false
    assert db.execute("MATCH (p:P) WHERE (p.S = 'b' OR p.N > 5) IS NULL "
                      "RETURN p.N").rows == [[2]]
    assert db.execute("MATCH (p:P) WHERE NOT (p.S = 'b' OR p.N > 5) "
                      "RETURN p.N").rows == [[1]]


def test_currency_arithmetic_and_ordering():
    (row,) = Database().execute(
        "RETURN 2€ + 3€, 5€ - 1.5€, 2€ * 3, 4$ / 2, 1€ < 2€, 2£ >= 2£, 3€ = 3€").rows
    assert row == [Currency(Decimal(5), "EUR"), Currency(Decimal("3.5"), "EUR"),
                   Currency(Decimal(6), "EUR"), Currency(Decimal(2), "USD"),
                   True, True, True]


@pytest.mark.parametrize("text, message", [
    ("1€ + 1$", "cannot combine EUR with USD"),
    ("1€ < 1$", "cannot compare EUR with USD"),
    ("2€ * 3€", "unsupported currency operation"),
    ("2 / 1€", "unsupported currency operation"),
    ("1€ + 'x'", "currency arithmetic needs a number"),
])
def test_currency_mismatches_are_named(text, message):
    with pytest.raises(ExecutionError, match=message):
        Database().execute(f"RETURN {text}")


def test_currency_column_filters_by_amount():
    db = Database()
    db.execute("CREATE (:Item {Name: 'a', Price: 3€}), (:Item {Name: 'b', Price: 12€})")
    assert db.execute("MATCH (i:Item) WHERE i.Price > 10€ RETURN i.Name").rows == [["b"]]
    assert db.execute("MATCH (i:Item) WHERE i.Price * 2 <= 6€ RETURN i.Name").rows == [["a"]]


def test_division_and_string_concatenation_on_columns():
    db = Database()
    db.execute("CREATE (:V {D: 2.5, K: 1, S: 'x'})")
    assert db.execute("MATCH (v:V) RETURN v.D / 2, v.K / 2, v.S + 'y'").rows == [
        [Decimal("1.25"), Decimal("0.5"), "xy"]]


@pytest.mark.parametrize("text, message", [
    ("1 / 0", "division by zero"),
    ("1.5 / 0", "division by zero"),
    ("TRUE < FALSE", "booleans have no ordering"),
    ("TRUE + 1", "arithmetic on booleans"),
    ("-'x'", "unary minus needs a number"),
])
def test_refusals_of_arithmetic_and_ordering(text, message):
    with pytest.raises(ExecutionError, match=message):
        Database().execute(f"RETURN {text}")
