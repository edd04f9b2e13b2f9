import datetime
import json
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphtables.values import (
    BOOLEAN,
    CURRENCY,
    DATE,
    DECIMAL,
    INTEGER,
    STRING,
    Currency,
    StructValue,
    coerce,
    conforms,
    from_jsonable,
    http_value,
    infer_data_type,
    parse_currency,
    render,
    to_jsonable,
    values_equal,
)


def test_inference_covers_every_literal_shape():
    assert infer_data_type(True) == BOOLEAN
    assert infer_data_type(7) == INTEGER
    assert infer_data_type(Decimal("1.5")) == DECIMAL
    assert infer_data_type("x") == STRING
    assert infer_data_type(datetime.date(2023, 6, 1)) == DATE
    assert infer_data_type(Currency(Decimal("2"))) == CURRENCY
    with pytest.raises(TypeError):
        infer_data_type(object())


def test_int_widens_to_decimal_and_currency_columns():
    assert conforms(3, DECIMAL)
    assert conforms(3, CURRENCY)
    assert conforms(Decimal("3.5"), CURRENCY)
    assert not conforms(Decimal("3.5"), INTEGER)
    assert not conforms(True, INTEGER)
    assert not conforms("3", DECIMAL)


@pytest.mark.parametrize("text,amount,code", [
    ("0.04 €", "0.04", "EUR"),
    ("€0.04", "0.04", "EUR"),
    ("5$", "5", "USD"),
    ("$ .5", "0.5", "USD"),
    ("3.99£", "3.99", "GBP"),
    ("12.50 GBP", "12.50", "GBP"),
    (" 7 USD ", "7", "USD"),
])
def test_amount_with_unit_strings(text, amount, code):
    got = parse_currency(text)
    assert got is not None
    assert got.code == code
    assert got.amount == Decimal(amount)


@pytest.mark.parametrize("text", ["", "12.00", "EUR", "x EUR", "1E3", "€ nope"])
def test_non_currency_strings(text):
    assert parse_currency(text) is None


def test_currency_column_accepts_annotated_strings():
    assert conforms("0.04 €", CURRENCY)
    assert not conforms("0.04", CURRENCY)
    assert coerce("0.04 €", CURRENCY) == Currency(Decimal("0.04"), "EUR")
    assert coerce(3, CURRENCY) == Currency(Decimal(3), "EUR")
    assert coerce("plain", STRING) == "plain"


def test_values_equal_is_numeric_but_not_across_bool():
    assert values_equal(1, Decimal("1.0"))
    assert not values_equal(True, 1)
    assert not values_equal(None, None)
    assert values_equal("a", "a")
    assert not values_equal("a", "b")


def test_render():
    assert render(None) == ""
    assert render(True) == "true"
    assert render(datetime.date(2023, 1, 2)) == "2023-01-02"
    assert render(Currency(Decimal("2.50"), "GBP")) == "2.50 GBP"
    assert render(Decimal("1.50")) == "1.50"
    assert render(False) == "false"
    assert render(-42) == "-42"
    assert render(datetime.datetime(2023, 1, 2, 3, 4)) == "2023-01-02T03:04:00"


def test_http_value_shapes():
    assert http_value(Decimal("1.50")) == "1.50"
    assert http_value(datetime.date(2023, 1, 2)) == "2023-01-02"
    assert http_value(Currency(Decimal("2"), "USD")) == {"amount": "2", "code": "USD"}
    assert http_value(StructValue(9, (("A", 1), ("B", "x")))) == {"A": 1, "B": "x"}


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=30),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.dates(),
    st.builds(Currency,
              st.decimals(allow_nan=False, allow_infinity=False),
              st.sampled_from(["EUR", "USD", "GBP"])),
)


@given(scalars)
def test_jsonable_round_trip(value):
    encoded = json.loads(json.dumps(to_jsonable(value)))
    back = from_jsonable(encoded)
    assert back == value
    assert type(back) is type(value)


@given(st.integers(min_value=1, max_value=99),
       st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), scalars), max_size=3))
def test_structured_round_trip(type_id, pairs):
    value = StructValue(type_id, tuple(pairs))
    assert from_jsonable(json.loads(json.dumps(to_jsonable(value)))) == value


@given(st.decimals(allow_nan=False, allow_infinity=False, min_value=0),
       st.sampled_from([("€", "EUR"), ("$", "USD"), ("£", "GBP")]))
def test_symbol_suffix_parses_back(amount, sym_code):
    symbol, code = sym_code
    parsed = parse_currency(f"{amount} {symbol}")
    assert parsed == Currency(amount, code)
