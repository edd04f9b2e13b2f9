"""Value model: the scalar types a column can hold, coercion rules, and the
canonical encodings used by the log, the HTTP service and state hashing."""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from decimal import Decimal

# Column data type names.  "structured" additionally carries a plain type id.
INTEGER = "integer"
DECIMAL = "decimal"
STRING = "string"
BOOLEAN = "boolean"
DATE = "date"
CURRENCY = "currency"
STRUCTURED = "structured"

SCALAR_TYPES = (INTEGER, DECIMAL, STRING, BOOLEAN, DATE, CURRENCY)

# Currency symbols accepted as literal suffixes.
CURRENCY_SYMBOLS = {"€": "EUR", "$": "USD", "£": "GBP"}
DEFAULT_CURRENCY_CODE = "EUR"


@dataclass(frozen=True)
class Currency:
    """A decimal amount tagged with a 3-letter currency code."""

    amount: Decimal
    code: str = DEFAULT_CURRENCY_CODE

    def __str__(self) -> str:
        return f"{self.amount} {self.code}"


@dataclass(frozen=True)
class StructValue:
    """Instance of a plain structured type; values keyed by column name."""

    type_id: int
    values: tuple  # tuple of (name, value) pairs, ordered


def infer_data_type(value) -> str:
    """Data type a bare literal implies when a new column is created for it."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, Decimal):
        return DECIMAL
    if isinstance(value, str):
        return STRING
    if isinstance(value, datetime.date):
        return DATE
    if isinstance(value, Currency):
        return CURRENCY
    raise TypeError(f"cannot infer a column type for {value!r}")


def parse_currency(text: str) -> Currency | None:
    """Read an amount-with-unit string such as '0.04 €', '€0.04' or
    '12.50 GBP'.  Returns None when the string is not of that shape."""
    s = text.strip()
    code = None
    for sym, c in CURRENCY_SYMBOLS.items():
        if s.endswith(sym):
            code, s = c, s[:-1].strip()
            break
        if s.startswith(sym):
            code, s = c, s[1:].strip()
            break
    else:
        tail = s[-3:]
        if len(s) > 3 and tail.isalpha() and tail.isupper():
            code, s = tail, s[:-3].strip()
    if code is None:
        return None
    try:
        return Currency(Decimal(s), code)
    except ArithmeticError:
        return None


def conforms(value, data_type: str) -> bool:
    if isinstance(value, bool):
        return data_type == BOOLEAN
    if isinstance(value, int):
        # integers are acceptable wherever decimals are; decimal columns may
        # hold previously-inserted integer values after widening
        return data_type in (INTEGER, DECIMAL, CURRENCY)
    if isinstance(value, Decimal):
        return data_type in (DECIMAL, CURRENCY)
    if isinstance(value, str):
        if data_type == CURRENCY:
            return parse_currency(value) is not None
        return data_type == STRING
    if isinstance(value, datetime.date):
        return data_type == DATE
    if isinstance(value, Currency):
        return data_type == CURRENCY
    if isinstance(value, StructValue):
        return data_type == STRUCTURED
    return False


def coerce(value, data_type: str):
    """Normalize a conforming value for storage.  Numbers aimed at a currency
    column pick up the default code; amount-with-unit strings are parsed."""
    if data_type == CURRENCY and isinstance(value, (int, Decimal)) and not isinstance(value, bool):
        return Currency(Decimal(value))
    if data_type == CURRENCY and isinstance(value, str):
        parsed = parse_currency(value)
        if parsed is not None:
            return parsed
    return value


def numbers_equal(a, b) -> bool:
    """Value equality across int and Decimal."""
    return Decimal(a) == Decimal(b)


def values_equal(a, b) -> bool:
    if a is None or b is None:
        return False
    num = (int, Decimal)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, num) and isinstance(b, num):
        return numbers_equal(a, b)
    return a == b


def render(value) -> str:
    """Human-facing rendering used by the REPL result tables."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime.date):  # str() of a datetime given through the API differs
        return value.isoformat()
    return str(value)


# --- canonical JSON-able encoding (log records, state hash, HTTP payloads) ---

def to_jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Decimal):
        return {"$dec": str(value)}
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    if isinstance(value, Currency):
        return {"$cur": [str(value.amount), value.code]}
    if isinstance(value, StructValue):
        return {"$struct": [value.type_id, [[k, to_jsonable(v)] for k, v in value.values]]}
    raise TypeError(f"cannot encode {value!r}")


def from_jsonable(obj):
    if isinstance(obj, dict):
        if "$dec" in obj:
            return Decimal(obj["$dec"])
        if "$date" in obj:
            return datetime.date.fromisoformat(obj["$date"])
        if "$cur" in obj:
            amount, code = obj["$cur"]
            return Currency(Decimal(amount), code)
        if "$struct" in obj:
            tid, pairs = obj["$struct"]
            return StructValue(tid, tuple((k, from_jsonable(v)) for k, v in pairs))
        raise ValueError(f"unknown tagged value {obj!r}")
    return obj


def http_value(value):
    """JSON shape used by the HTTP service: exact but readable."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, Currency):
        return {"amount": str(value.amount), "code": value.code}
    if isinstance(value, StructValue):
        return {k: http_value(v) for k, v in value.values}
    raise TypeError(f"cannot encode {value!r}")
