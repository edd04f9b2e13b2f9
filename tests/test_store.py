"""Transaction staging, snapshot isolation and the commit validation order."""

import time

import pytest

from graphtables import Database, values
from graphtables.catalog import ARRIVING, ID, LEAVING, Multiplicity
from graphtables.errors import CommitError, StorageError


@pytest.fixture
def db():
    return Database()


def seed_people(db):
    tx = db.begin()
    person = tx.define_node_type("PERSON", [("NAME", values.STRING)])
    child = tx.define_edge_type("CHILD", [], "PERSON", "PERSON")
    fred = tx.insert_row("PERSON", {"NAME": "Fred"})
    mary = tx.insert_row("PERSON", {"NAME": "Mary"})
    edge = tx.insert_row("CHILD", {LEAVING: fred, ARRIVING: mary})
    tx.commit()
    return person, child, fred, mary, edge


def test_staged_rows_stay_private_until_commit(db):
    tx = db.begin()
    tx.define_node_type("PERSON", [("NAME", values.STRING)])
    uid = tx.insert_row("PERSON", {"NAME": "Fred"})
    assert tx.view().get_row(uid).get("NAME") == "Fred"
    assert db.read_view().get_row(uid) is None
    assert db.catalog.lookup_label("PERSON") is None
    tx.commit()
    assert db.read_view().get_row(uid).get("NAME") == "Fred"



def test_commit_returns_nothing(db):
    tx = db.begin()
    tx.define_node_type("PERSON", [("NAME", values.STRING)])
    tx.insert_row("PERSON", {"NAME": "Fred"})
    assert tx.commit() is None

def test_open_snapshot_does_not_see_later_commits(db):
    seed_people(db)
    early = db.begin()
    tx = db.begin()
    late = tx.insert_row("PERSON", {"NAME": "Zoe"})
    tx.commit()
    assert early.view().get_row(late) is None
    assert db.read_view().get_row(late) is not None


def test_auto_key_takes_the_uid(db):
    seed_people(db)
    row = db.read_view().get_row(1)
    assert row.get(ID) == 1 == row.uid


def test_stage_rejects_unknown_columns_and_bad_values(db):
    seed_people(db)
    tx = db.begin()
    with pytest.raises(StorageError, match="no column"):
        tx.insert_row("PERSON", {"NOPE": 1})
    with pytest.raises(StorageError, match="cannot hold"):
        tx.insert_row("PERSON", {"NAME": 4})


def test_closed_transaction_refuses_work(db):
    seed_people(db)
    tx = db.begin()
    tx.rollback()
    with pytest.raises(StorageError, match="rolled-back"):
        tx.insert_row("PERSON", {"NAME": "X"})


def test_empty_commit_is_a_no_op(db):
    seed_people(db)
    seq = db.store.commit_seq
    db.begin().commit()
    assert db.store.commit_seq == seq


def test_dangling_edge_reference_aborts(db):
    seed_people(db)
    tx = db.begin()
    tx.insert_row("CHILD", {LEAVING: 1, ARRIVING: 99})
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "reference"
    assert tx.status == "aborted"
    assert db.read_view().get_row(tx.staged and max(tx.staged)) is None


def test_delete_with_incident_edges_is_restricted(db):
    _, _, fred, _, edge = seed_people(db)
    tx = db.begin()
    tx.delete_row(fred)
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "reference"
    assert "CASCADE" in str(err.value)

    tx = db.begin()
    tx.delete_row(fred, cascade=True)
    tx.commit()
    view = db.read_view()
    assert view.get_row(fred) is None
    assert view.get_row(edge) is None


def test_duplicate_key_within_hierarchy_scope(db):
    db.execute("create type Part as (PartID char) nodetype")
    db.execute("create type PurchasedPart under Part as (SupplNo int)")
    db.execute("alter table Part add primary key(PartID)")
    tx = db.begin()
    tx.insert_row("PART", {"PARTID": "P01"})
    tx.insert_row("PURCHASEDPART", {"PARTID": "P01"})
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "key"
    assert "duplicate" in str(err.value)


def test_null_key_is_a_key_violation(db):
    db.execute("create type Part as (PartID char) nodetype")
    db.execute("alter table Part add primary key(PartID)")
    tx = db.begin()
    tx.insert_row("PART", {})
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "key"


def test_demoted_primary_key_stays_unique(db):
    db.execute("CREATE (:Node {Tag: 'a'}), (:Node {Tag: 'b'})")
    db.execute("ALTER TABLE Node ADD PRIMARY KEY (Tag)")
    with pytest.raises(CommitError) as err:
        db.execute("MATCH (n:Node {Tag: 'b'}) SET n.ID = 1")
    assert err.value.rule == "key"
    assert db.execute("MATCH (n:Node) RETURN n.Tag, n.ID").rows == [["a", 1], ["b", 2]]


def test_unique_key_covers_subtypes_and_ignores_nulls(db):
    db.execute("create type Part as (Code char) nodetype")
    db.execute("create type Bought under Part as (Supplier int)")
    db.execute("CREATE (:Part {Code: 'p'}), (:Bought {Code: 'b'})")
    db.execute("alter table Part add primary key(Code)")
    with pytest.raises(CommitError) as err:
        db.execute("MATCH (x:Bought) SET x.ID = 1")
    assert err.value.rule == "key"
    db.execute("MATCH (x:Part) SET x.ID = NULL")
    assert db.execute("MATCH (x:Part) RETURN x.Code, x.ID").rows == [["p", None], ["b", None]]


def test_validation_order_is_stable():
    """One commit breaking every rule reports the earliest in commit order:
    type, key, reference, multiplicity, constraint.  Repairing each in turn
    brings up the next, each with its message."""
    expected = [
        ("type", "type violation on PART: column WEIGHT cannot hold 'heavy' (uid 2)"),
        ("key", "key violation on PART: duplicate key ('D',) (uid 4, 3)"),
        ("reference", "reference violation on OWNS: LEAVING value 404 matches no "
                      "PERSON row (uid 5)"),
        ("multiplicity", "multiplicity violation on OWNS: PART node 6 receives 2 OWNS "
                         "edge(s), outside 0..1 (uid 6)"),
        ("constraint", "constraint violation on PART: check (Weight < 100) failed (uid 8)"),
    ]
    for repaired in range(len(expected) + 1):
        fixed = {rule for rule, _ in expected[:repaired]}
        db = Database()
        db.execute("create type Part as (PartID char, Weight int) nodetype")
        db.execute("create type Person as (Name char) nodetype")
        db.execute("create type Owns as () edgetype (leaving Person, arriving Part)")
        db.execute("alter table Part add primary key(PartID)")
        db.execute("ALTER TYPE Owns SET CARDINALITY LEAVING 0..* ARRIVING 0..1")
        db.execute("ALTER TABLE Part ADD CHECK (Weight < 100)")
        db.execute("CREATE (:Person {Name: 'p'})")  # uid 1

        tx = db.begin()
        typed = tx.insert_row("PART", {"PARTID": "T", "WEIGHT": 1})
        if "type" not in fixed:
            tx.staged[typed].values["WEIGHT"] = "heavy"  # sneak a mistyped value past staging
        tx.insert_row("PART", {"PARTID": "D"})
        tx.insert_row("PART", {"PARTID": "E" if "key" in fixed else "D"})
        tx.insert_row("OWNS", {LEAVING: 1 if "reference" in fixed else 404, ARRIVING: "T"})
        tx.insert_row("PART", {"PARTID": "M"})
        for _ in range(1 if "multiplicity" in fixed else 2):
            tx.insert_row("OWNS", {LEAVING: 1, ARRIVING: "M"})
        tx.insert_row("PART", {"PARTID": "C", "WEIGHT": 5 if "constraint" in fixed else 500})
        if repaired == len(expected):
            tx.commit()
            assert len(db.execute("MATCH (:Person)-[e:Owns]->(:Part) RETURN e.ID")) == 2
            continue
        with pytest.raises(CommitError) as err:
            tx.commit()
        assert (err.value.rule, str(err.value)) == expected[repaired]


def test_multiplicity_checked_after_references(db):
    seed_people(db)
    tx = db.begin()
    tx.set_cardinality("CHILD", Multiplicity(0, None, 1, None))
    tx.insert_row("CHILD", {LEAVING: 1, ARRIVING: 77})
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "reference"


def test_schema_install_scans_existing_rows(db):
    seed_people(db)  # Fred has no arriving CHILD edge
    tx = db.begin()
    tx.set_cardinality("CHILD", Multiplicity(0, None, 1, 1))
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "multiplicity"
    assert "receives 0" in str(err.value)

    tx = db.begin()
    tx.add_constraint("PERSON", "NAME <> 'Mary'")
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "constraint"
    assert "NAME <> 'Mary'" in str(err.value)


def test_constraint_guards_future_rows(db):
    seed_people(db)
    tx = db.begin()
    tx.add_constraint("PERSON", "NAME <> 'Nobody'")
    tx.commit()
    tx = db.begin()
    tx.insert_row("PERSON", {"NAME": "Nobody"})
    with pytest.raises(CommitError) as err:
        tx.commit()
    assert err.value.rule == "constraint"


def test_update_rewrites_staged_edge_references(db):
    db.execute("create type Part as (PartID char) nodetype")
    db.execute("create type Needs as () edgetype (leaving Part, arriving Part)")
    db.execute("alter table Part add primary key(PartID)")
    tx = db.begin()
    a = tx.insert_row("PART", {"PARTID": "A"})
    b = tx.insert_row("PART", {"PARTID": "B"})
    e = tx.insert_row("NEEDS", {LEAVING: "A", ARRIVING: "B"})
    tx.update_row(a, {"PARTID": "A2"})
    tx.commit()
    row = db.read_view().get_row(e)
    assert row.get(LEAVING) == "A2"
    assert db.read_view().resolve_endpoints(row) == (a, b)


def test_update_of_committed_key_rewrites_committed_edges(db):
    db.execute("create type Part as (PartID char) nodetype")
    db.execute("create type Needs as () edgetype (leaving Part, arriving Part)")
    db.execute("alter table Part add primary key(PartID)")
    db.execute("CREATE (a:Part {PartID:'A'})-[:Needs]->(b:Part {PartID:'B'})")
    view = db.read_view()
    part = db.catalog.lookup_label("PART")
    a = view.lookup_by_value([part.type_id], "PARTID", "A")[0]

    tx = db.begin()
    tx.update_row(a.uid, {"PARTID": "A2"})
    tx.commit()
    view = db.read_view()
    edge = next(view.scan_type(db.catalog.subtype_closure(db.catalog.lookup_label("NEEDS").type_id)))
    assert edge.get(LEAVING) == "A2"
    assert view.resolve_endpoints(edge)[0] == a.uid


def test_key_swap_cascades_into_edge_columns(db):
    _, _, fred, mary, edge = seed_people(db)
    tx = db.begin()
    tx.alter_primary_key("PERSON", ["NAME"])
    tx.commit()
    row = db.read_view().get_row(edge)
    assert row.get(LEAVING) == "Fred" and row.get(ARRIVING) == "Mary"
    assert db.read_view().resolve_endpoints(row) == (fred, mary)
    # reference columns are now typed after the new key
    child = db.catalog.lookup_label("CHILD")
    assert child.own_column(LEAVING).data_type == values.STRING


def test_drop_column_scrubs_values(db):
    seed_people(db)
    db.execute("alter table person add primary key(name)")
    tx = db.begin()
    rewritten = tx.drop_column("PERSON", ID)
    tx.commit()
    assert rewritten == 2
    for row in db.read_view().scan_type(db.catalog.subtype_closure(db.catalog.lookup_label("PERSON").type_id)):
        assert ID not in row.values


def test_state_hash_tracks_content_and_uid_counter(db):
    a = db.state_hash()
    seed_people(db)
    b = db.state_hash()
    assert a != b
    # identical content built along a different uid history hashes differently
    other = Database()
    tx = other.begin()
    tx.define_node_type("PERSON", [("NAME", values.STRING)])
    tx.define_edge_type("CHILD", [], "PERSON", "PERSON")
    wasted = tx.insert_row("PERSON", {"NAME": "temp"})
    fred = tx.insert_row("PERSON", {"NAME": "Fred"})
    del tx.staged[wasted]
    tx.commit()
    assert other.state_hash() != b


def test_scan_of_a_type_skips_other_types_staged_rows(db):
    tx = db.begin()
    tx.define_node_type("P", [("N", values.INTEGER)])
    tx.define_node_type("Q", [("N", values.INTEGER)])
    q = tx.insert_row("Q", {"N": 0})
    tx.commit()
    p_tid, q_tid = db.catalog.lookup_label("P").type_id, db.catalog.lookup_label("Q").type_id
    tx = db.begin()
    staged = [tx.insert_row("P", {"N": n}) for n in range(20000)]
    point = tx.savepoint()
    tx.insert_row("P", {"N": -1})
    tx.insert_row("Q", {"N": -1})
    tx.restore(point)
    view = tx.view()
    assert [r.uid for r in view.scan_type(view.catalog.subtype_closure(p_tid))] == staged
    started = time.perf_counter()
    for _ in range(1000):
        assert [r.uid for r in view.scan_type(view.catalog.subtype_closure(q_tid))] == [q]
    elapsed = time.perf_counter() - started
    # filtering all 20,000 staged rows per scan took about 1.2 s here
    assert elapsed < 0.4, f"1,000 scans of one Q row took {elapsed:.2f} s"


@pytest.mark.parametrize("text, message", [
    ("MATCH (a:P) RETURN x", "unknown identifier X"),
    ("MATCH (a:P {N: n}) RETURN n.Y", "N has no fields"),
    ("ALTER TABLE Nope ADD COLUMN X INT", "unknown type NOPE"),
    ("ALTER TABLE P ADD PRIMARY KEY (N, M)", "P is an edge endpoint and needs a single-column key"),
    ("ALTER TABLE P ADD CHECK (a.N > 0)", "constraints may only reference column names"),
    ("MATCH (a:P {N: 1}) THEN DELETE a; DELETE a END", "unknown uid 1"),
    ("MATCH (a:P {N: 1}) THEN DELETE a; SET a.M = 5 END", "unknown uid 1"),
])
def test_statements_the_store_refuses_leave_the_database_as_it_was(db, text, message):
    from graphtables.errors import GraphTablesError
    db.execute("CREATE (:P {N: 1, M: 2})-[:E]->(:P {N: 2, M: 3})")
    before = db.state_hash()
    with pytest.raises(GraphTablesError, match=message):
        db.execute(text)
    assert db.state_hash() == before


def test_rows_go_only_into_node_and_edge_types_the_catalog_holds(db):
    from graphtables.errors import SchemaError
    db.execute("CREATE TYPE Addr AS (City STRING)")
    tx = db.begin()
    with pytest.raises(StorageError, match="ADDR is a plain type; it has no rows of its own"):
        tx.insert_row("ADDR", {"CITY": "Köln"})
    with pytest.raises(SchemaError, match="unknown type id 999"):
        tx.insert_row(999, {})


def test_a_structured_value_holding_a_list_is_looked_up_as_no_value_and_refused_at_commit(db):
    """Only the Python API can stage it: the value index leaves it out,
    and a probe by it finds nothing, rather than raising TypeError."""
    db.execute("CREATE TYPE Addr AS (City STRING)")
    db.execute("CREATE TYPE H AS (K INT, A Addr) NODETYPE")
    addr, home = (db.catalog.lookup_label(label).type_id for label in ("ADDR", "H"))
    unhashable = values.StructValue(addr, (("CITY", ["Köln"]),))
    tx = db.begin()
    tx.insert_row("H", {"K": 1, "A": unhashable})
    view = tx.view()
    assert view.lookup_by_value((home,), "A", values.StructValue(addr, (("CITY", "Köln"),))) == []
    assert view.lookup_by_value((home,), "A", unhashable) == []
    with pytest.raises(CommitError, match="structured value field CITY is invalid"):
        tx.commit()
