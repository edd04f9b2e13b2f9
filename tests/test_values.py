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


@pytest.mark.parametrize("text", ["", "12.00", "EUR", "x EUR", "1E3", "€ nope",
                                  # amounts with no order
                                  "NaN EUR", "sNaN EUR", "Infinity EUR", "-Inf USD", "€NaN"])
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


def test_a_currency_column_refuses_a_non_finite_amount_so_its_values_stay_ordered():
    from graphtables import Database
    from graphtables.errors import GraphTablesError
    db = Database()
    db.execute("CREATE TYPE C AS (K INT, A CURRENCY) NODETYPE")
    db.execute("CREATE (:C {K: 1, A: '2 EUR'})")
    for text in ("NaN EUR", "sNaN EUR", "Infinity EUR"):
        with pytest.raises(GraphTablesError):
            db.execute(f"CREATE (:C {{K: 2, A: '{text}'}})")
    db.execute("CREATE (:C {K: 3, A: '1 EUR'})")
    table = db.execute("MATCH (c:C), (d:C) WHERE c.A > d.A RETURN c.K")
    assert table.rows == [[1]]


def test_a_float_conforms_to_no_column_type():
    from graphtables import Database
    from graphtables.errors import StorageError
    assert not any(conforms(1.5, t) for t in (INTEGER, DECIMAL, CURRENCY, STRING))
    db = Database()
    db.execute("CREATE (:P {N: 1.5})")
    tx = db.begin()
    with pytest.raises(StorageError, match="P.N cannot hold 1.5"):
        tx.insert_row("P", {"N": 1.5})


def refused_hand_log(tmp_path, value, reason):
    """Open a one-record log whose checksum holds but whose row holds
    `value`: it is refused with a StorageError naming the record's seq and
    `reason`, and the log is kept whole."""
    import struct
    import zlib
    from graphtables import Database
    from graphtables.errors import StorageError
    from graphtables.log import encode_record
    source = Database()
    source.execute("CREATE TYPE A AS (K INT, V DECIMAL) NODETYPE")
    desc = source.catalog.descriptor_to_dict(source.catalog.lookup_label("A"))
    record = encode_record(1, [desc], {}, 1)
    payload = json.loads(record[8:])
    payload["rows"] = [["put", 1, desc["type_id"], {"ID": 1, "K": 1, "V": value}]]
    payload["next_uid"] = 2
    body = json.dumps(payload).encode("utf-8")
    log = tmp_path / "hand.db"
    log.write_bytes(struct.pack(">II", len(body), zlib.crc32(body)) + body)
    with pytest.raises(StorageError, match=f"record 1 holds a value that does not decode .*"
                                           f"{reason}"):
        Database(log)
    assert log.read_bytes() == struct.pack(">II", len(body), zlib.crc32(body)) + body


def test_a_log_value_with_an_unknown_tag_is_refused_on_open(tmp_path):
    refused_hand_log(tmp_path, {"$float": "1.5"}, "unknown tagged value")
    with pytest.raises(ValueError, match="unknown tagged value"):
        from_jsonable({"$float": "1.5"})


@pytest.mark.parametrize("value, reason", [({"$dec": "1,5"}, "ConversionSyntax"),
                                           ({"$date": 15}, "must be str")])
def test_a_log_value_whose_tag_does_not_parse_is_refused_on_open(tmp_path, value, reason):
    refused_hand_log(tmp_path, value, reason)
