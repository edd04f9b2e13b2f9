"""Expression evaluation shared by the matcher, the executor and commit-time
constraint checks.  Three-valued logic in the SQL style: None propagates
through comparisons and arithmetic, AND/OR/NOT treat it as unknown.

Literal slots (`Param`) read the `params` of the statement being run: the
values of its literal tokens, in slot order."""

from __future__ import annotations

import datetime
import sys
from decimal import Decimal, DecimalException

from .errors import ExecutionError
from .syntax import Binary, IsNull, Literal, Param, Ref, Unary
from .values import Currency, values_equal

_NUM = (int, Decimal)
_max_str_digits = getattr(sys, "get_int_max_str_digits", int)  # int() = 0: no limit before 3.10.7


def _is_row(v) -> bool:
    return hasattr(v, "uid") and hasattr(v, "type_id")


def _ordering_pair(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        raise ExecutionError("booleans have no ordering")
    if isinstance(a, _NUM) and isinstance(b, _NUM):
        return Decimal(a), Decimal(b)
    if isinstance(a, Currency) and isinstance(b, Currency):
        if a.code != b.code:
            raise ExecutionError(f"cannot compare {a.code} with {b.code}")
        return a.amount, b.amount
    if isinstance(a, str) and isinstance(b, str):
        return a, b
    if isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return a, b
    raise ExecutionError(f"cannot compare {a!r} with {b!r}")


def _equal(a, b):
    if _is_row(a) and _is_row(b):
        return a.uid == b.uid
    if _is_row(a) or _is_row(b):
        return False
    return values_equal(a, b)


def _arith(op: str, a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        raise ExecutionError("arithmetic on booleans")
    if op == "/" and isinstance(b, _NUM) and b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, Currency) and isinstance(b, Currency):
        if a.code != b.code:
            raise ExecutionError(f"cannot combine {a.code} with {b.code}")
        if op == "+":
            return Currency(a.amount + b.amount, a.code)
        if op == "-":
            return Currency(a.amount - b.amount, a.code)
        raise ExecutionError(f"unsupported currency operation {op}")
    if isinstance(a, Currency) or isinstance(b, Currency):
        cur, num = (a, b) if isinstance(a, Currency) else (b, a)
        if not isinstance(num, _NUM):
            raise ExecutionError("currency arithmetic needs a number")
        if op == "*":
            return Currency(cur.amount * Decimal(num), cur.code)
        if op == "/" and cur is a:
            return Currency(cur.amount / Decimal(num), cur.code)
        raise ExecutionError(f"unsupported currency operation {op}")
    if isinstance(a, _NUM) and isinstance(b, _NUM):
        if op == "/":
            if isinstance(a, int) and isinstance(b, int):
                q, r = divmod(a, b)
                return q if r == 0 else Decimal(a) / Decimal(b)
            return Decimal(a) / Decimal(b)
        x = a + b if op == "+" else a - b if op == "-" else a * b
        limit = _max_str_digits()
        # an int of at most 3 * limit bits is below 10**limit
        if limit and isinstance(x, int) and x.bit_length() > 3 * limit and abs(x) >= 10 ** limit:
            raise ExecutionError(f"integer result has more than {limit} digits")
        return x
    if isinstance(a, str) and isinstance(b, str) and op == "+":
        return a + b
    raise ExecutionError(f"unsupported operands for {op}: {a!r}, {b!r}")


def constant(expr, params):
    """The value of a literal or a literal slot; None for any other expression."""
    if isinstance(expr, Param):
        v = params[expr.slot]
        return -v if expr.negated else v
    if isinstance(expr, Literal):
        return expr.value
    return None


def eval_expr(expr, resolve, params):
    """`resolve(path: tuple[str, ...])` supplies identifier values, `params`
    the values of literal slots."""
    if isinstance(expr, Ref):
        return resolve(expr.path)
    if isinstance(expr, Param):
        v = params[expr.slot]
        return -v if expr.negated else v
    if isinstance(expr, Binary):
        op = expr.op
        if op in ("AND", "OR"):
            left = eval_expr(expr.left, resolve, params)
            left = None if left is None else _truthy(left)
            right = eval_expr(expr.right, resolve, params)
            right = None if right is None else _truthy(right)
            if op == "AND":
                if left is False or right is False:
                    return False
                if left is None or right is None:
                    return None
                return True
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = eval_expr(expr.left, resolve, params)
        right = eval_expr(expr.right, resolve, params)
        if op in ("=", "<>"):
            if left is None or right is None:
                return None
            eq = _equal(left, right)
            return eq if op == "=" else not eq
        if op in ("<", "<=", ">", ">="):
            if left is None or right is None:
                return None
            a, b = _ordering_pair(left, right)
            return a < b if op == "<" else a <= b if op == "<=" else a > b if op == ">" else a >= b
        if op in ("+", "-", "*", "/"):
            if left is None or right is None:
                return None
            try:
                return _arith(op, left, right)
            except DecimalException as exc:  # past the context's exponent limits, say
                raise ExecutionError(f"decimal {type(exc).__name__} in {op}") from None
        raise ExecutionError(f"unknown operator {op}")
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Unary):
        v = eval_expr(expr.operand, resolve, params)
        if expr.op == "NOT":
            return None if v is None else (not _truthy(v))
        if expr.op == "-":
            if v is None:
                return None
            if isinstance(v, bool) or not isinstance(v, _NUM):
                raise ExecutionError("unary minus needs a number")
            return -v
        raise ExecutionError(f"unknown operator {expr.op}")
    if isinstance(expr, IsNull):
        v = eval_expr(expr.operand, resolve, params)
        return (v is None) != expr.negated
    raise ExecutionError(f"not an expression: {expr!r}")


def _truthy(v) -> bool:
    if isinstance(v, bool):
        return v
    raise ExecutionError("condition did not evaluate to a boolean")


def eval_predicate(expr, resolve, params) -> bool:
    """Boolean context: unknown counts as not satisfied."""
    v = eval_expr(expr, resolve, params)
    if v is None:
        return False
    if not isinstance(v, bool):
        raise ExecutionError("predicate did not evaluate to a boolean")
    return v


def constraint_passes(expr, row_values: dict, params) -> bool:
    """Row constraint: only a definite False is a violation (SQL style)."""

    def resolve(path):
        if len(path) != 1:
            raise ExecutionError("constraints may only reference columns")
        return row_values.get(path[0])

    v = eval_expr(expr, resolve, params)
    if v is None:
        return True
    if not isinstance(v, bool):
        raise ExecutionError("constraint did not evaluate to a boolean")
    return v
