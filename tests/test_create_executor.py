import datetime
import random
from decimal import Decimal

import pytest

from graphtables import Database, values
from graphtables.catalog import ARRIVING, ID, LEAVING
from graphtables.errors import CommitError, ExecutionError, ParseError, SchemaError

from oracles import fold_arrows, graph_from_db


@pytest.fixture
def db():
    return Database()


def test_first_doc_defines_the_type(db):
    db.execute("CREATE (:Stock {PartID:'P01', available:420, price:1.5, "
               "since:DATE'2023-01-10'})")
    stock = db.catalog.lookup_label("STOCK")
    got = {c.name: c.data_type for c in stock.columns}
    assert got == {ID: values.INTEGER, "PARTID": values.STRING,
                   "AVAILABLE": values.INTEGER, "PRICE": values.DECIMAL,
                   "SINCE": values.DATE}


def test_later_docs_widen_the_type(db):
    db.execute("CREATE (:Stock {PartID:'P01'})")
    db.execute("CREATE (:Stock {PartID:'P02', reserved:DATE'2023-03-22'})")
    assert db.catalog.lookup_label("STOCK").own_column("RESERVED").data_type == values.DATE
    first = db.read_view().get_row(1)
    assert "RESERVED" not in first.values


def test_fractional_value_grows_integer_column(db):
    db.execute("CREATE (:Item {weight:2})")
    db.execute("CREATE (:Item {weight:2.5})")
    assert db.catalog.lookup_label("ITEM").own_column("WEIGHT").data_type == values.DECIMAL
    rows = list(db.read_view().scan_type(db.catalog.subtype_closure(db.catalog.lookup_label("ITEM").type_id)))
    assert rows[0].get("WEIGHT") == 2
    assert rows[1].get("WEIGHT") == Decimal("2.5")


def test_fractional_key_grows_the_edge_columns_that_hold_it(db):
    db.execute("CREATE (a:P {N: 1})-[:E]->(b:P {N: 2})")
    db.execute("CREATE (c:P {ID: 2.5})")
    edge = db.catalog.lookup_label("E")
    assert {c.name: c.data_type for c in edge.columns if c.name != ID} == {
        LEAVING: values.DECIMAL, ARRIVING: values.DECIMAL}
    db.execute("MATCH (a:P {N: 1}), (c:P {ID: 2.5}) CREATE (a)-[:E]->(c)")
    rows = db.execute("MATCH (a:P)-[e:E]->(b:P) RETURN e.LEAVING, e.ARRIVING").rows
    assert rows == [[1, 2], [1, Decimal("2.5")]]


def test_string_into_integer_column_is_refused(db):
    db.execute("CREATE (:Item {weight:2})")
    with pytest.raises(ExecutionError, match="holds integer values"):
        db.execute("CREATE (:Item {weight:'heavy'})")


def test_alias_binds_across_graphs_of_one_statement(db):
    db.execute("CREATE (a:P {n:'x'})-[:E]->(b:P {n:'y'}), (b)-[:E]->(a)")
    g = graph_from_db(db)
    assert len(g.nodes) == 2
    assert sorted(e[1:] for e in g.edges.values()) == [(1, 2), (2, 1)]


def test_edge_alias_binds_the_created_edge_for_the_then_statement(db):
    db.execute("CREATE (a:P {N: 1})-[e:R {W: 7}]->(b:P {N: 2}) "
               "THEN CREATE (:Log {W: e.W, SOURCE: e.LEAVING, EDGE: e.ID})")
    assert db.execute("MATCH (l:Log) RETURN l.W, l.SOURCE, l.EDGE").rows == [[7, 1, 3]]
    with pytest.raises(ExecutionError, match="E is already bound"):
        db.execute("CREATE (a:P {N: 5})-[e:R]->(b:P {N: 6})-[e:R]->(c:P {N: 7})")
    assert len(db.execute("MATCH (p:P) RETURN p.N").rows) == 2


def test_doc_on_bound_alias_updates_the_row(db):
    db.execute("CREATE (a:P {n:'x'}), (a {extra:7})")
    row = db.read_view().get_row(1)
    assert row.get("EXTRA") == 7
    g = graph_from_db(db)
    assert len(g.nodes) == 1


def test_bound_alias_must_not_carry_labels(db):
    with pytest.raises(ExecutionError, match="already bound"):
        db.execute("CREATE (a:P {n:'x'}), (a:P)-[:E]->(a)")


def test_unbound_bare_node_is_an_error(db):
    with pytest.raises(ExecutionError, match="bound alias"):
        db.execute("CREATE (a)-[:E]->(b)")


def test_doc_expressions_may_read_earlier_aliases(db):
    db.execute("CREATE (a:P {n:5}), (b:P {n:a.n + 1})")
    assert db.read_view().get_row(2).get("N") == 6


def test_null_valued_doc_entries_are_dropped(db):
    db.execute("CREATE (:P {a:1, b:NULL})")
    assert db.catalog.lookup_label("P").own_column("B") is None
    assert "B" not in db.read_view().get_row(1).values


def test_label_chain_resolves_most_specific(db):
    db.execute("create type Part as (PartID char) nodetype")
    db.execute("create type PurchasedPart under Part as (SupplNo int)")
    db.execute("CREATE (:Part:PurchasedPart {PartID:'P01'})")
    bought = db.catalog.lookup_label("PURCHASEDPART")
    assert next(db.read_view().scan_type({bought.type_id})).type_id == bought.type_id

    db.execute("create type Other as (X char) nodetype")
    with pytest.raises(ExecutionError, match="not on one subtype path"):
        db.execute("CREATE (:Part:Other {PartID:'P09'})")


@pytest.mark.parametrize("text", [
    "create type F under E as (X int) edgetype(leaving P, arriving P)",
    "create type F under E as (X int)",
    "create type F under P as (X int) edgetype(leaving P, arriving P)",
])
def test_under_applies_to_node_types_only(db, text):
    db.execute("create type P as (N int) nodetype")
    db.execute("create type E as () edgetype(leaving P, arriving P)")
    with pytest.raises(SchemaError, match="only node types"):
        db.execute(text)
    assert db.catalog.lookup_label("F") is None


def test_edge_needs_exactly_one_label(db):
    db.execute("CREATE (a:P {n:1})")
    with pytest.raises(ExecutionError, match="exactly one type label"):
        db.execute("CREATE (b:P {n:2})-[]->(c:P {n:3})")


def test_quantified_path_cannot_be_created(db):
    # the grammar only allows quantified hops in MATCH chains
    with pytest.raises(ParseError):
        db.execute("CREATE (a:P {n:1}) [()-[:E]->()]+ (b:P {n:2})")


def test_edge_endpoint_generalizes_to_common_supertype(db):
    db.execute("create type Part as (PartID char) nodetype")
    db.execute("create type PurchasedPart under Part as (SupplNo int)")
    db.execute("create type InHouseProduct under Part as (Plan char) nodetype")
    db.execute("CREATE (:Stock {no:1})")
    db.execute("MATCH (s:Stock) THEN CREATE (s)-[:Holds]->(:PurchasedPart {PartID:'P01'}) END")
    holds = db.catalog.lookup_label("HOLDS")
    assert holds.arriving_type == db.catalog.lookup_label("PURCHASEDPART").type_id
    db.execute("MATCH (s:Stock) THEN CREATE (s)-[:Holds]->(:InHouseProduct {PartID:'P02'}) END")
    assert db.catalog.lookup_label("HOLDS").arriving_type == db.catalog.lookup_label("PART").type_id


@pytest.mark.parametrize("keys", [(1, 2, 3), ("a", "b", "c")])
def test_generalized_endpoint_rewrites_the_committed_edges(tmp_path, keys):
    """Generalizing R's arriving side from S1 (keyed on X) to Root (keyed on
    K) retypes ARRIVING after K and rewrites the edge already committed."""
    path = tmp_path / "retarget.log"
    db = Database(path)
    k_type = "int" if isinstance(keys[0], int) else "char"
    for text in (f"create type Root as (K {k_type}) nodetype", "alter table Root add primary key(K)",
                 "create type S1 under Root as (X int)", "alter table S1 add primary key(X)",
                 "create type S2 under Root as (Y int)", "alter table S2 add primary key(Y)",
                 f"CREATE (:S1 {{K: {keys[0]!r}, X: 100}})-[:R]->(:S1 {{K: {keys[1]!r}, X: 200}})",
                 f"MATCH (a:S1 {{X: 100}}) CREATE (a)-[:R]->(:S2 {{K: {keys[2]!r}, Y: 300}})"):
        db.execute(text)
    for reopened in (False, True):
        if reopened:
            db.close()
            db = Database(path)
        r = db.catalog.lookup_label("R")
        assert r.arriving_type == db.catalog.lookup_label("ROOT").type_id
        assert r.own_column(ARRIVING).data_type == db.catalog.lookup_label("ROOT").own_column("K").data_type
        view = db.read_view()
        edges = list(view.scan_type([r.type_id]))
        assert [(e.get(LEAVING), e.get(ARRIVING)) for e in edges] == [(100, keys[1]), (100, keys[2])]
        assert [view.resolve_endpoints(e) for e in edges] == [e.ends for e in edges]
    db.close()


def test_edge_to_a_node_without_the_referenced_key_is_refused_at_commit(db):
    """S1 rows are keyed on X and need no K, the key of Root."""
    for text in ("create type Root as (K int) nodetype", "alter table Root add primary key(K)",
                 "create type S1 under Root as (X int)", "alter table S1 add primary key(X)",
                 "create type S2 under Root as (Y int)", "alter table S2 add primary key(Y)",
                 "create type E as () edgetype (leaving Root, arriving Root)",
                 "CREATE (:S1 {X: 100})-[:R]->(:S1 {X: 200})"):  # uids 1-3
        db.execute(text)
    with pytest.raises(CommitError, match="ARRIVING is null: node 5 has no value in the key "
                                          "of ROOT") as err:
        db.execute("CREATE (:Root {K: 1})-[:E]->(:S1 {X: 5})")
    assert err.value.rule == "reference"
    # generalizing R's arriving side to Root leaves the committed edge no K to hold
    with pytest.raises(CommitError, match="ARRIVING is null: node 2 has no value in the key "
                                          "of ROOT") as err:
        db.execute("MATCH (a:S1 {X: 100}) CREATE (a)-[:R]->(:S2 {K: 3, Y: 300})")
    assert err.value.rule == "reference"
    assert db.execute("MATCH (s:S1) RETURN s.X").rows == [[100], [200]]


def test_unrelated_endpoint_is_rejected(db):
    db.execute("CREATE (a:P {n:1})-[:E]->(b:P {n:2})")
    db.execute("CREATE (:Q {m:1})")
    with pytest.raises(ExecutionError, match="cannot be the source"):
        db.execute("MATCH (q:Q), (p:P) THEN CREATE (q)-[:E]->(p) END")


def test_create_then_uses_fresh_bindings(db):
    db.execute("CREATE (a:P {n:1}) THEN CREATE (a)-[:E]->(b:P {n:2})")
    g = graph_from_db(db)
    assert sorted(e[1:] for e in g.edges.values()) == [(1, 2)]


def test_edge_reference_columns_hold_endpoint_keys(db):
    db.execute("CREATE (a:P {n:1})-[:E]->(b:P {n:2})")
    edge = next(db.read_view().scan_type(db.catalog.subtype_closure(db.catalog.lookup_label("E").type_id)))
    assert edge.get(LEAVING) == 1 and edge.get(ARRIVING) == 2


def test_arrow_directions_fold_as_written():
    """Random arrow spellings: <-[...]- and -[...]-> around each edge must
    land tail and head exactly as the arrows point."""
    for seed in range(25):
        rng = random.Random(seed)
        db = Database()
        n = rng.randint(2, 5)
        aliases = [f"N{i}" for i in range(n)]
        parts = [f"({a}:T {{k:{i}}})" for i, a in enumerate(aliases)]
        arrow_pairs = []
        for _ in range(rng.randint(1, 6)):
            left, right = rng.sample(aliases, 2)
            direction = rng.choice(["out", "in"])
            glyph = "-[:E]->" if direction == "out" else "<-[:E]-"
            parts.append(f"({left}){glyph}({right})")
            arrow_pairs.append((left, direction, right))
        db.execute("CREATE " + ", ".join(parts))
        uid_of = {i + 1: aliases[i] for i in range(n)}
        g = graph_from_db(db)
        got = sorted((uid_of[t], uid_of[h]) for (_lbl, t, h) in g.edges.values())
        assert got == sorted(fold_arrows(arrow_pairs))


@pytest.mark.parametrize("text, error, message", [
    ("CREATE TYPE T AS (A BLOB) NODETYPE", SchemaError, "unknown column type BLOB"),
    ("MATCH (a:P) SET a.M = a", ExecutionError, "M cannot hold a whole row"),
    ("MATCH (a:P {N: n}) CREATE (n)-[:E]->(a)", ExecutionError, "N is not a node"),
    ("CREATE (:X:Y)", ExecutionError, "cannot define X:Y on the fly"),
    ("CREATE TYPE B UNDER Nope AS (X INT)", SchemaError, "unknown supertype NOPE"),
    ("MATCH (a:P) SET a = 1", ExecutionError, "SET expects alias.property assignments"),
    ("MATCH (a:P) SET b.N = 1", ExecutionError, "unknown identifier B"),
    ("MATCH (a:P) DELETE b", ExecutionError, "unknown identifier B"),
    ("MATCH (a:P) THEN COMMIT END", ExecutionError, "cannot execute CommitStatement here"),
])
def test_statements_the_executor_refuses_leave_the_database_as_it_was(db, text, error, message):
    db.execute("CREATE (:P {N: 1})")
    before = db.state_hash()
    with pytest.raises(error, match=message):
        db.execute(text)
    assert db.state_hash() == before
