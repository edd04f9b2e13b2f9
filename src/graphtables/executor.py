"""Statement execution: CREATE graph patterns, schema statements, SET and
DELETE.  Pattern matching lives in the matcher module; this module covers
everything that writes.

CREATE works schema-first-on-demand: an unknown node label becomes a fresh
node type with columns inferred from the doc literals, an unknown edge label
becomes an edge type whose endpoints are the adjacent patterns' types.  Later
statements widen types as new properties or broader value types appear.
"""

from __future__ import annotations

import decimal

from . import catalog as cat
from . import matcher
from . import values as val
from .catalog import ARRIVING, ID, ColumnDescriptor, LEAVING, Multiplicity
from .engine import ResultTable
from .errors import ExecutionError, SchemaError
from .exprs import eval_expr
from .storage import Row, Transaction
from .syntax import (AlterAddCheck, AlterAddColumn, AlterAddKey, AlterCardinality,
                     AlterDropColumn, CreateStatement, CreateTypeStatement,
                     DeleteStatement, EdgePattern, MatchStatement, NodePattern,
                     ReturnStatement, RoleStatement, SetStatement, ShowGraphsStatement)

# SQL-ish column type names accepted in CREATE TYPE / ALTER ADD
_TYPE_NAMES = {
    "CHAR": val.STRING, "CHARACTER": val.STRING, "VARCHAR": val.STRING,
    "STRING": val.STRING, "TEXT": val.STRING,
    "INT": val.INTEGER, "INTEGER": val.INTEGER, "SMALLINT": val.INTEGER,
    "BIGINT": val.INTEGER,
    "DEC": val.DECIMAL, "DECIMAL": val.DECIMAL, "NUMERIC": val.DECIMAL,
    "NUMBER": val.DECIMAL, "FLOAT": val.DECIMAL, "REAL": val.DECIMAL,
    "DOUBLE": val.DECIMAL,
    "BOOL": val.BOOLEAN, "BOOLEAN": val.BOOLEAN,
    "DATE": val.DATE,
    "CURRENCY": val.CURRENCY, "MONEY": val.CURRENCY,
}


def run_statement(tx: Transaction, stmt, params: tuple, bindings: dict | None = None):
    """Execute one statement, whose literal slots hold `params`; returns a
    ResultTable or None."""
    if isinstance(stmt, CreateStatement):
        return exec_create(tx, stmt, params, bindings)
    if isinstance(stmt, MatchStatement):
        return matcher.run_match(tx, stmt, params)   # looked up per call: perfbench wraps it
    if isinstance(stmt, CreateTypeStatement):
        return exec_create_type(tx, stmt)
    if isinstance(stmt, AlterAddKey):
        tx.alter_primary_key(stmt.table, list(stmt.columns))
        return None
    if isinstance(stmt, AlterAddColumn):
        tx.widen_type(stmt.table, _column_descriptor(tx, stmt.column, stmt.type_name))
        return None
    if isinstance(stmt, AlterDropColumn):
        tx.drop_column(stmt.table, stmt.column)
        return None
    if isinstance(stmt, AlterAddCheck):
        tx.add_constraint(stmt.table, stmt.text)
        return None
    if isinstance(stmt, AlterCardinality):
        tx.set_cardinality(stmt.table, Multiplicity(
            stmt.leaving[0], stmt.leaving[1], stmt.arriving[0], stmt.arriving[1]))
        return None
    if isinstance(stmt, SetStatement):
        exec_set(tx, stmt, params, bindings or {})
        return None
    if isinstance(stmt, DeleteStatement):
        exec_delete(tx, stmt, bindings or {})
        return None
    if isinstance(stmt, ReturnStatement):
        return exec_return(tx, stmt, params, bindings or {})
    if isinstance(stmt, RoleStatement):
        return None
    if isinstance(stmt, ShowGraphsStatement):
        with tx.db.commit_lock:  # a commit may merge or split components
            rows = [[c.representative, len(c.nodes), len(c.edges)]
                    for c in tx.db.graphs.components()]
        return ResultTable(["GRAPH", "NODES", "EDGES"], rows)
    raise ExecutionError(f"cannot execute {type(stmt).__name__} here")


def _column_descriptor(tx: Transaction, name: str, type_name: str) -> ColumnDescriptor:
    mapped = _TYPE_NAMES.get(type_name)
    if mapped is not None:
        return ColumnDescriptor(name, mapped)
    plain = tx.catalog.lookup_label(type_name, cat.KIND_PLAIN)
    if plain is None:
        raise SchemaError(f"unknown column type {type_name}")
    return ColumnDescriptor(name, val.STRUCTURED, struct_type_id=plain.type_id)


def eval_value(tx: Transaction, expr, params: tuple, bindings: dict):
    return eval_expr(expr, tx.view().resolver(bindings), params)


# --- CREATE graph ---


def exec_create(tx: Transaction, stmt: CreateStatement, params: tuple,
                outer: dict | None = None):
    bindings: dict = dict(outer) if outer else {}
    edges = []
    for chain in stmt.graphs:
        previous = None
        pending_edge = None
        for element in chain:
            if isinstance(element, NodePattern):
                row = _create_node(tx, element, params, bindings)
                if pending_edge is not None:
                    edges.append((previous, pending_edge, row))
                    pending_edge = None
                previous = row
            else:   # an edge: `parse_chain` builds no path pattern for CREATE
                pending_edge = element
    for tail_row, pattern, head_row in edges:
        _create_edge(tx, pattern, tail_row, head_row, params, bindings)
    if stmt.then is not None:
        run_statement(tx, stmt.then, params, bindings)
    return None


def _eval_doc(tx: Transaction, doc, params: tuple, bindings: dict) -> dict:
    resolve = tx.view().resolver(bindings)  # nothing is staged between the entries
    return {name: _storable(name, eval_expr(expr, resolve, params)) for name, expr in doc or ()}


def _storable(name: str, v):
    """`v`, if a column can hold it."""
    if isinstance(v, Row):
        raise ExecutionError(f"{name} cannot hold a whole row")
    if isinstance(v, list):
        raise ExecutionError(f"{name} cannot hold an array")
    return v


def _fit_properties(tx: Transaction, desc: cat.TypeDescriptor, props: dict) -> None:
    """Widen the type until every property fits: new columns are added,
    integer columns grow to decimal when fed a fractional value."""
    for name, v in props.items():
        if v is None:
            continue
        col = tx.catalog.effective_column(desc.type_id, name)
        if col is None:
            tx.widen_type(desc.type_id, ColumnDescriptor(name, val.infer_data_type(v)))
            continue
        if val.conforms(v, col.data_type):
            continue
        if col.data_type == val.INTEGER and isinstance(v, decimal.Decimal):
            tx.retype_column(tx.catalog.column_owner(desc.type_id, name), name, val.DECIMAL)
            continue
        raise ExecutionError(f"{desc.label}.{name} holds {col.data_type} values, "
                             f"not {v!r}")


def _create_node(tx: Transaction, pattern: NodePattern, params: tuple, bindings: dict) -> Row:
    alias = pattern.alias
    if alias is not None and alias in bindings:
        bound = bindings[alias]
        if not isinstance(bound, Row):
            raise ExecutionError(f"{alias} is not a node")
        if pattern.labels:
            raise ExecutionError(f"{alias} is already bound; labels are not allowed")
        if pattern.doc:
            props = _eval_doc(tx, pattern.doc, params, bindings)
            _fit_properties(tx, tx.catalog.get(bound.type_id), props)
            tx.update_row(bound.uid, props)
            bindings[alias] = tx.view().get_row(bound.uid)
        return bindings[alias]
    if not pattern.labels:
        raise ExecutionError(f"({alias or ''}) does not reference a bound alias")
    props = _eval_doc(tx, pattern.doc, params, bindings)
    desc = _resolve_or_define_node(tx, pattern.labels, props)
    _fit_properties(tx, desc, props)
    uid = tx.insert_row(desc.type_id, props)
    row = tx.view().get_row(uid)
    if alias is not None:
        bindings[alias] = row
    return row


def _resolve_or_define_node(tx: Transaction, labels, props: dict) -> cat.TypeDescriptor:
    desc = tx.catalog.label_type(labels, cat.KIND_NODE)
    if desc is not None:
        return desc
    missing = [lbl for lbl in labels if tx.catalog.lookup_label(lbl, cat.KIND_NODE) is None]
    if len(missing) < len(labels):
        raise ExecutionError(f"unknown node type {missing[0]}" if missing else
                             f"labels {':'.join(labels)} are not on one subtype path")
    if len(labels) > 1:
        raise ExecutionError(f"cannot define {':'.join(labels)} on the fly")
    columns = [ColumnDescriptor(n, val.infer_data_type(v))
               for n, v in props.items() if v is not None]
    return tx.define_node_type(labels[0], columns)


def _generalize_endpoint(tx: Transaction, edge_desc: cat.TypeDescriptor,
                         side: str, node_tid: int) -> cat.TypeDescriptor:
    declared = edge_desc.leaving_type if side == LEAVING else edge_desc.arriving_type
    if node_tid in tx.catalog.subtype_closure(declared):
        return edge_desc
    declared_chain = tx.catalog.supertype_chain(declared)
    node_chain = tx.catalog.supertype_chain(node_tid)
    common = [t for t in declared_chain if t in node_chain]
    if not common:
        raise ExecutionError(
            f"{tx.catalog.get(node_tid).label} cannot be the "
            f"{'source' if side == LEAVING else 'target'} of {edge_desc.label}")
    tx.retarget_endpoint(edge_desc.type_id, side, common[-1])
    return tx.catalog.get(edge_desc.type_id)


def _create_edge(tx: Transaction, pattern: EdgePattern, left_row: Row,
                 right_row: Row, params: tuple, bindings: dict) -> Row:
    if pattern.direction == "out":
        tail_row, head_row = left_row, right_row
    else:
        tail_row, head_row = right_row, left_row
    if len(pattern.labels) != 1:
        raise ExecutionError("an edge needs exactly one type label")
    label = pattern.labels[0]
    props = _eval_doc(tx, pattern.doc, params, bindings)
    desc = tx.catalog.lookup_label(label, cat.KIND_EDGE)
    if desc is None:
        # every edge type has ID, LEAVING and ARRIVING already
        columns = [ColumnDescriptor(n, val.infer_data_type(v))
                   for n, v in props.items() if v is not None and n not in (ID, LEAVING, ARRIVING)]
        desc = tx.define_edge_type(label, columns, tail_row.type_id, head_row.type_id)
    else:
        desc = _generalize_endpoint(tx, desc, LEAVING, tail_row.type_id)
        desc = _generalize_endpoint(tx, desc, ARRIVING, head_row.type_id)
    _fit_properties(tx, desc, props)
    uid = tx.insert_row(desc.type_id, props, (tail_row.uid, head_row.uid))
    row = tx.view().get_row(uid)
    if pattern.alias is not None:
        if pattern.alias in bindings:
            raise ExecutionError(f"{pattern.alias} is already bound")
        bindings[pattern.alias] = row
    return row


# --- CREATE TYPE / schema statements ---


def exec_create_type(tx: Transaction, stmt: CreateTypeStatement):
    columns = [_column_descriptor(tx, name, type_name) for name, type_name in stmt.columns]
    kind = stmt.kind
    if kind is None and stmt.supertype is not None:
        sup = tx.catalog.lookup_label(stmt.supertype)
        if sup is None:
            raise SchemaError(f"unknown supertype {stmt.supertype}")
        kind = sup.kind
    if kind != cat.KIND_NODE and stmt.supertype is not None:
        raise SchemaError("only node types can have supertypes")
    if kind == cat.KIND_NODE:
        tx.define_node_type(stmt.label, columns, stmt.supertype)
    elif kind == cat.KIND_EDGE:   # EDGETYPE, which the parser gives LEAVING and ARRIVING
        tx.define_edge_type(stmt.label, columns, stmt.leaving, stmt.arriving)
    else:
        tx.define_plain_type(stmt.label, columns)
    return None


# --- SET / DELETE / RETURN ---


def exec_set(tx: Transaction, stmt: SetStatement, params: tuple, bindings: dict) -> None:
    for ref, expr in stmt.assignments:
        if len(ref.path) != 2:
            raise ExecutionError("SET expects alias.property assignments")
        alias, prop = ref.path
        bound = bindings.get(alias)
        if not isinstance(bound, Row):
            raise ExecutionError(f"unknown identifier {alias}")
        v = _storable(prop, eval_value(tx, expr, params, bindings))
        if v is not None:
            _fit_properties(tx, tx.catalog.get(bound.type_id), {prop: v})
        tx.update_row(bound.uid, {prop: v})
        bindings[alias] = tx.view().get_row(bound.uid)


def exec_delete(tx: Transaction, stmt: DeleteStatement, bindings: dict) -> None:
    bound = bindings.get(stmt.alias)
    if not isinstance(bound, Row):
        raise ExecutionError(f"unknown identifier {stmt.alias}")
    tx.delete_row(bound.uid, cascade=stmt.cascade)


def exec_return(tx: Transaction, stmt: ReturnStatement, params: tuple,
                bindings: dict) -> ResultTable:
    headers = [header for header, _ in stmt.items]
    row = [eval_value(tx, expr, params, bindings) for _, expr in stmt.items]
    return ResultTable(headers, [row])
