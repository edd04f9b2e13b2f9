import re

import pytest

from graphtables.errors import ParseError
from graphtables.parser import parse_statement
from graphtables.syntax import (
    AlterAddCheck,
    AlterAddColumn,
    AlterAddKey,
    AlterCardinality,
    AlterDropColumn,
    BeginStatement,
    CreateStatement,
    CreateTypeStatement,
    DeleteStatement,
    EdgePattern,
    Literal,
    MatchStatement,
    NodePattern,
    Param,
    PathPattern,
    Ref,
    ReturnStatement,
    RoleStatement,
    SetStatement,
    ShowGraphsStatement,
)


def test_create_chain_folds_left_to_right():
    stmt = parse_statement("CREATE (a:Person {name:'Fred'})<-[:Child]-(b), (a)-[:Child]->(c)")
    assert isinstance(stmt, CreateStatement)
    assert len(stmt.graphs) == 2
    first = stmt.graphs[0]
    assert [type(el) for el in first] == [NodePattern, EdgePattern, NodePattern]
    assert first[0].alias == "A" and first[0].labels == ("PERSON",)
    assert first[0].doc == (("NAME", Param(0)),)
    assert first[1].direction == "in"


def test_match_modes_and_path_alias():
    stmt = parse_statement("MATCH TRAIL SHORTEST P = (x)-[e:E]->(y)")
    item = stmt.items[0]
    assert item.rep_mode == "TRAIL"
    assert item.sel_mode == "SHORTEST"
    assert item.path_alias == "P"
    assert item.chain[1].alias == "E"


def test_quantifier_forms():
    for text, lo, hi in [("?", 0, 1), ("*", 0, None), ("+", 1, None),
                         ("{2,}", 2, None), ("{2,5}", 2, 5)]:
        stmt = parse_statement(f"MATCH (a) [()-[:E]->()]{text} (b)")
        path = stmt.items[0].chain[1]
        assert isinstance(path, PathPattern)
        assert (path.lo, path.hi) == (lo, hi)


def test_quantifier_bounds_must_be_ordered():
    with pytest.raises(ParseError, match="maximum below minimum"):
        parse_statement("MATCH (a) [()-[:E]->()]{3,2} (b)")


def test_selection_mode_rejects_comma_items():
    with pytest.raises(ParseError, match="comma"):
        parse_statement("MATCH SHORTEST (a)-[:E]->(b), (c)")
    # plain multi-item matches are fine
    stmt = parse_statement("MATCH (a)-[:E]->(b), (b)-[:E]->(c)")
    assert len(stmt.items) == 2


def test_match_where_and_dependent_set():
    stmt = parse_statement("MATCH (x:Person) WHERE x.age >= 21 SET x.adult = true")
    assert stmt.where is not None
    assert isinstance(stmt.dependent, SetStatement)
    ref, value = stmt.dependent.assignments[0]
    assert ref == Ref(("X", "ADULT"))
    assert value == Literal(True)


def test_match_then_block():
    stmt = parse_statement(
        "MATCH (a {PartID:'P01'}) THEN CREATE (a)<-[:STOCKED]-(:Stock); DELETE a END")
    assert len(stmt.then_block) == 2
    assert isinstance(stmt.then_block[0], CreateStatement)
    assert isinstance(stmt.then_block[1], DeleteStatement)


def test_then_without_end_is_an_error():
    with pytest.raises(ParseError):
        parse_statement("MATCH (a) THEN DELETE a")


def test_delete_cascade_flag():
    assert parse_statement("DELETE x").cascade is False
    assert parse_statement("DELETE x CASCADE").cascade is True


def test_return_headers():
    stmt = parse_statement("MATCH (x) RETURN x.name")
    ret = stmt.dependent
    assert isinstance(ret, ReturnStatement)
    header, expr = ret.items[0]
    assert header == "NAME"
    assert expr == Ref(("X", "NAME"))


def test_create_type_node_and_edge():
    stmt = parse_statement(
        "create type Stock as (PartID char, available int) nodetype")
    assert isinstance(stmt, CreateTypeStatement)
    assert stmt.label == "STOCK"
    assert stmt.kind == "node"
    assert stmt.columns == (("PARTID", "CHAR"), ("AVAILABLE", "INT"))

    stmt = parse_statement(
        "create type At as (note char) edgetype (leaving Stock, arriving Location)")
    assert stmt.kind == "edge"
    assert stmt.leaving == "STOCK" and stmt.arriving == "LOCATION"

    stmt = parse_statement(
        "create type PurchasedPart under Part as (PreferredSupplNo int)")
    assert stmt.supertype == "PART" and stmt.kind is None


def test_alter_statements():
    stmt = parse_statement("alter table person add primary key(name)")
    assert stmt == AlterAddKey("PERSON", ("NAME",))

    stmt = parse_statement("alter table person drop id")
    assert stmt == AlterDropColumn("PERSON", "ID")

    stmt = parse_statement("alter table stock add column note char")
    assert stmt == AlterAddColumn("STOCK", "NOTE", "CHAR")

    stmt = parse_statement("alter table stock add check (available >= 0)")
    assert isinstance(stmt, AlterAddCheck)
    assert "available >= 0" in stmt.text

    stmt = parse_statement(
        "alter type Ordered_By set cardinality leaving 1..1 arriving 0..*")
    assert stmt == AlterCardinality("ORDERED_BY", (1, 1), (0, None))


def test_role_statements_keep_their_text():
    stmt = parse_statement("create role ps")
    assert isinstance(stmt, RoleStatement)
    stmt = parse_statement('grant ps to "MALCOLM1\\Malcolm"')
    assert isinstance(stmt, RoleStatement)
    assert "MALCOLM1" in stmt.text


def test_transaction_and_show_statements():
    assert isinstance(parse_statement("begin transaction"), BeginStatement)
    assert isinstance(parse_statement("SHOW GRAPHS"), ShowGraphsStatement)


def test_duplicate_doc_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_statement("CREATE (:T {a:1, A:2})")


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_statement("MATCH (a)\n-[:E]->")
    assert err.value.line == 2

    with pytest.raises(ParseError, match="trailing input"):
        parse_statement("DELETE x y")


def test_quoted_identifier_reaches_the_doc_key():
    stmt = parse_statement('CREATE (:SupplOrd {"Sum€": 100.50})')
    doc = stmt.graphs[0][0].doc
    assert doc[0][0] == "Sum€"


@pytest.mark.parametrize("text, message, col, expected", [
    ("SHOW NOPE", "unexpected token, got 'NOPE'", 6, ("GRAPHS",)),
    ("CREATE TYPE 1 AS ()", "identifier expected, got '1'", 13, ("identifier",)),
    ("GRANT R TO 1", "grantee expected, got '1'", 12, ("identifier", "string")),
    ("ALTER TABLE T RENAME", "ALTER action expected, got 'RENAME'", 15, ("ADD", "DROP", "SET")),
    ("MATCH (a) [()-[:E]->()] (b)", "quantifier expected, got '('", 25, ("?", "*", "+", "{m,n}")),
    ("RETURN )", "expression expected, got ')'", 8, ("literal", "identifier", "(")),
    ("FOO", "statement expected, got 'FOO'", 1, ("CREATE", "MATCH", "ALTER", "SET", "DELETE",
                                                 "BEGIN", "COMMIT", "ROLLBACK", "SHOW", "GRANT")),
    ("1 2", "trailing input after expression, got '2'", 3, ()),   # a CHECK's text
])
def test_each_parse_error_names_what_it_expected_where(text, message, col, expected):
    from graphtables.parser import parse_expression
    parse = parse_expression if text == "1 2" else parse_statement
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse(text)
    assert (err.value.line, err.value.col, err.value.expected) == (1, col, expected)
