import random
from dataclasses import FrozenInstanceError
from types import MappingProxyType

import pytest

from graphtables import Database, values
from graphtables.catalog import (
    ARRIVING,
    ID,
    KIND_EDGE,
    KIND_NODE,
    KIND_PLAIN,
    LEAVING,
    Catalog,
    ColumnDescriptor,
    Constraint,
    Multiplicity,
)
from graphtables.errors import CommitError, GraphTablesError, SchemaError
from graphtables.parser import parse_expression
from graphtables.storage import ReadView, Store, _Commit
from oracles import rebuilt_catalog


def col(name, data_type=values.STRING):
    return ColumnDescriptor(name, data_type)


@pytest.fixture
def cat():
    return Catalog()


def test_node_type_gets_auto_integer_key(cat):
    person = cat.define_node_type("PERSON", [col("NAME")])
    assert [c.name for c in person.columns] == [ID, "NAME"]
    assert person.columns[0].data_type == values.INTEGER
    assert not person.columns[0].nullable
    assert person.primary_key == [ID]


def test_subtype_inherits_columns_and_key(cat):
    part = cat.define_node_type("PART", [col("PARTID"), col("DESIGNATION")])
    bought = cat.define_node_type("PURCHASEDPART", [col("SUPPLNO", values.INTEGER)],
                                  supertype=part.type_id)
    made = cat.define_node_type("INHOUSEPRODUCT", [col("PLAN")], supertype=part.type_id)

    assert set(cat.subtype_closure(part.type_id)) == {part.type_id, bought.type_id, made.type_id}
    assert cat.subtype_closure(bought.type_id) == (bought.type_id,)
    assert [c.name for c in cat.effective_columns(bought.type_id)] == \
        [ID, "PARTID", "DESIGNATION", "SUPPLNO"]
    assert cat.effective_key(bought.type_id) == [ID]
    assert cat.key_declarer(bought.type_id).type_id == part.type_id
    assert bought.primary_key == []



def test_effective_columns_see_a_column_added_after_a_cached_call(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    bought = cat.define_node_type("PURCHASEDPART", [], supertype=part.type_id)
    assert [c.name for c in cat.effective_columns(bought.type_id)] == [ID, "PARTID"]
    cat.widen_type(part.type_id, col("PRICE", values.DECIMAL))
    assert [c.name for c in cat.effective_columns(bought.type_id)] == [ID, "PARTID", "PRICE"]
    cat.drop_column(part.type_id, "PRICE")
    assert [c.name for c in cat.effective_columns(bought.type_id)] == [ID, "PARTID"]
    assert isinstance(cat.effective_columns(bought.type_id), tuple)

def test_edge_type_reference_columns_follow_endpoint_keys(cat):
    person = cat.define_node_type("PERSON", [col("NAME")])
    child = cat.define_edge_type("CHILD", [], person.type_id, person.type_id)
    assert [c.name for c in child.columns] == [ID, LEAVING, ARRIVING]
    # endpoint key is the auto integer ID, so the reference columns are integers
    assert child.columns[1].data_type == values.INTEGER
    assert child.multiplicity.is_default()


def test_endpoint_needs_single_column_key(cat):
    spot = cat.define_node_type("SPOT", [col("A"), col("B")])
    cat.install_primary_key(spot.type_id, ["A", "B"])
    with pytest.raises(SchemaError, match="single-column key"):
        cat.define_edge_type("LINK", [], spot.type_id, spot.type_id)


def test_label_and_column_collisions(cat):
    cat.define_node_type("PERSON", [col("NAME")])
    with pytest.raises(SchemaError, match="already exists"):
        cat.define_node_type("PERSON", [])
    with pytest.raises(SchemaError, match="already declared"):
        cat.define_node_type("OTHER", [col("X"), col("X")])
    with pytest.raises(SchemaError, match="unknown data type"):
        cat.define_node_type("BAD", [ColumnDescriptor("X", "float")])


def test_a_label_names_one_type_of_any_kind(db):
    """ALTER and HTTP name a type by its label alone, so no two types of any
    kinds share one."""
    db.execute("create type X as (A int) nodetype")
    with pytest.raises(SchemaError, match="node type X already exists"):
        db.execute("create type X as () edgetype (leaving X, arriving X)")
    db.execute("create type Address as (City char)")
    with pytest.raises(SchemaError, match="plain type ADDRESS already exists"):
        db.execute("CREATE (:Address {City: 'Bonn'})")
    db.execute("create type E as () edgetype (leaving X, arriving X)")
    db.execute("ALTER TYPE E SET CARDINALITY LEAVING 0..1 ARRIVING 0..*")
    assert [d.label for d in db.catalog.types()] == ["X", "ADDRESS", "E"]


def test_edge_type_cannot_redeclare_its_built_in_columns(cat):
    db = Database()
    db.execute("create type P as (Name char) nodetype")
    with pytest.raises(SchemaError, match="column ID already declared"):
        db.execute("create type E as (ID char, LEAVING char) edgetype(leaving P, arriving P)")
    person = cat.define_node_type("PERSON", [col("NAME")])
    for name in (ID, LEAVING, ARRIVING):
        with pytest.raises(SchemaError, match=f"column {name} already declared"):
            cat.define_edge_type("KNOWS", [col(name)], person.type_id, person.type_id)
    # a new edge type created with an ID value stores it in its one ID column
    db.execute("CREATE (:P {Name: 'a'})-[:F {ID: 7, W: 1}]->(:P {Name: 'b'})")
    columns = [c.name for c in db.catalog.lookup_label("F", "edge").columns]
    assert columns == [ID, LEAVING, ARRIVING, "W"]
    assert db.execute("MATCH ()-[f:F]->() RETURN f.ID, f.W").rows == [[7, 1]]


def test_subtype_cannot_shadow_inherited_column(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    with pytest.raises(SchemaError, match="already declared"):
        cat.define_node_type("SUB", [col("PARTID")], supertype=part.type_id)


def test_supertype_cannot_widen_with_a_subtype_column(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    sub = cat.define_node_type("SUB", [col("COLOUR")], supertype=part.type_id)
    with pytest.raises(SchemaError, match="already declared"):
        cat.widen_type(part.type_id, col("COLOUR"))
    assert cat.column_owner(sub.type_id, "COLOUR") == sub.type_id
    assert cat.column_owner(sub.type_id, "PARTID") == part.type_id
    assert cat.column_owner(sub.type_id, "NOPE") is None


def test_widen_is_always_nullable(cat):
    person = cat.define_node_type("PERSON", [col("NAME")])
    added = cat.widen_type(person.type_id, ColumnDescriptor("AGE", values.INTEGER, nullable=False))
    assert added.nullable


def test_drop_column_guards(cat):
    part = cat.define_node_type("PART", [col("PARTID"), col("COLOR")])
    sub = cat.define_node_type("SUB", [col("EXTRA")], supertype=part.type_id)
    person = cat.define_node_type("PERSON", [col("NAME")])
    edge = cat.define_edge_type("AT", [], person.type_id, person.type_id)

    with pytest.raises(SchemaError, match="primary key"):
        cat.drop_column(part.type_id, ID)
    with pytest.raises(SchemaError, match="reference column"):
        cat.drop_column(edge.type_id, LEAVING)
    with pytest.raises(SchemaError, match="inherited"):
        cat.drop_column(sub.type_id, "PARTID")
    with pytest.raises(SchemaError, match="no column"):
        cat.drop_column(part.type_id, "NOPE")

    # the primary-key guard looks downward too: a subtype may key itself
    # on an inherited column
    cat.install_primary_key(sub.type_id, ["COLOR"])
    with pytest.raises(SchemaError, match="primary key of SUB"):
        cat.drop_column(part.type_id, "COLOR")


def test_rekey_demotes_the_old_key_to_unique(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    cat.install_primary_key(part.type_id, ["PARTID"])
    part = cat.get(part.type_id)
    assert part.primary_key == ["PARTID"]
    assert [ID] in part.unique_keys
    assert cat.effective_key(part.type_id) == ["PARTID"]
    # now ID is an ordinary column and may go
    cat.drop_column(part.type_id, ID)
    assert cat.get(part.type_id).unique_keys == []


def test_key_scopes_are_every_key_on_the_chain_over_its_declarers_closure(cat):
    part = cat.define_node_type("PART", [col("PARTID")]).type_id
    cat.install_primary_key(part, ["PARTID"])
    sub = cat.define_node_type("SUB", [col("CODE")], supertype=part).type_id
    cat.install_primary_key(sub, ["CODE"])
    assert cat.key_scopes(sub) == ((part, ("PARTID",), (part, sub)), (part, (ID,), (part, sub)),
                                   (sub, ("CODE",), (sub,)))
    other = cat.define_node_type("OTHER", [], supertype=part).type_id
    assert cat.key_scopes(part) == ((part, ("PARTID",), (part, sub, other)),
                                    (part, (ID,), (part, sub, other)))
    assert cat.key_scopes(other) == cat.key_scopes(part)


def test_subtype_key_leaves_supertype_key_alone(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    sub = cat.define_node_type("SUB", [col("CODE")], supertype=part.type_id)
    cat.install_primary_key(sub.type_id, ["CODE"])
    assert cat.effective_key(sub.type_id) == ["CODE"]
    assert cat.effective_key(part.type_id) == [ID]
    assert part.primary_key == [ID]


def test_unique_keys_scrubbed_when_member_column_dropped(cat):
    t = cat.define_node_type("T", [col("A"), col("B")])
    cat.install_primary_key(t.type_id, ["A"])
    cat.install_primary_key(t.type_id, ["B"])
    assert ["A"] in cat.get(t.type_id).unique_keys
    cat.drop_column(t.type_id, "A")
    assert ["A"] not in cat.get(t.type_id).unique_keys


@pytest.mark.parametrize("checks,drop,message", [
    (["ALTER TABLE A ADD CHECK (V < 3)"], "A DROP COLUMN V", r"check \(V < 3\) of A"),
    (["ALTER TABLE B ADD CHECK (V + X > 0)"], "A DROP COLUMN V", r"check \(V \+ X > 0\) of B"),
    (["ALTER TABLE B ADD CHECK (V + X > 0)"], "B DROP COLUMN X", r"check \(V \+ X > 0\) of B"),
], ids=["own check", "subtype check on the inherited column", "subtype check on its own column"])
def test_a_column_a_check_reads_is_not_dropped(checks, drop, message):
    """A CHECK on the type, or on a subtype that reads the inherited column,
    keeps its column: the drop is refused and the CHECK still judges rows."""
    db = Database()
    for text in ("CREATE (:A {K: 1, V: 1, W: 1})", "ALTER TABLE A ADD PRIMARY KEY (K)",
                 "CREATE TYPE B UNDER A AS (X INT)", "CREATE (:B {K: 2, V: 1, X: 1})", *checks):
        db.execute(text)
    b_checks = db.catalog.facts(db.catalog.lookup_label("B").type_id).constraints
    with pytest.raises(SchemaError, match=f"column {drop[-1]} is read by {message}"):
        db.execute(f"ALTER TABLE {drop}")
    assert db.catalog.facts(db.catalog.lookup_label("B").type_id).constraints == b_checks
    with pytest.raises(CommitError, match="check"):
        db.execute("CREATE (:B {K: 3, V: 5, X: -9})")
    db.execute("ALTER TABLE A DROP COLUMN W")


def test_multiplicity_validation(cat):
    person = cat.define_node_type("PERSON", [col("NAME")])
    edge = cat.define_edge_type("CHILD", [], person.type_id, person.type_id)
    cat.set_multiplicity(edge.type_id, Multiplicity(1, 1, 0, None))
    assert cat.get(edge.type_id).multiplicity.leaving_max == 1
    with pytest.raises(SchemaError):
        cat.set_multiplicity(edge.type_id, Multiplicity(2, 1, 0, None))
    with pytest.raises(SchemaError):
        Multiplicity(-1, None, 0, None).validate()


def test_constraint_must_reference_known_columns(cat):
    t = cat.define_node_type("T", [col("A", values.INTEGER)])
    cat.add_constraint(t.type_id, Constraint("A > 0"), {"A"})
    with pytest.raises(SchemaError, match="unknown column"):
        cat.add_constraint(t.type_id, Constraint("B > 0"), {"B"})


def test_clone_is_independent(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    other = cat.clone()
    other.install_primary_key(part.type_id, ["PARTID"])
    other.widen_type(part.type_id, col("NEW"))
    assert cat.get(part.type_id).primary_key == [ID]
    assert cat.effective_column(part.type_id, "NEW") is None
    assert other.effective_key(part.type_id) == ["PARTID"]


def test_plain_types_live_in_their_own_namespace(cat):
    plain = cat.define_plain_type("ADDRESS", [col("CITY")])
    assert cat.lookup_label("ADDRESS", "plain").type_id == plain.type_id
    assert cat.lookup_label("ADDRESS", "node") is None
    holder = cat.define_node_type(
        "CONTACT",
        [ColumnDescriptor("HOME", values.STRUCTURED, struct_type_id=plain.type_id)])
    assert holder.own_column("HOME").struct_type_id == plain.type_id
    with pytest.raises(SchemaError, match="no plain type"):
        cat.define_node_type("BROKEN", [ColumnDescriptor("X", values.STRUCTURED,
                                                         struct_type_id=999)])


def test_subtype_closure_is_an_immutable_memo_renewed_by_new_types(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    first = cat.subtype_closure(part.type_id)
    assert first == (part.type_id,)
    assert cat.subtype_closure(part.type_id) is first
    bought = cat.define_node_type("PURCHASEDPART", [], supertype=part.type_id)
    assert cat.subtype_closure(part.type_id) == (part.type_id, bought.type_id)


def memoised_facts(catalog) -> dict:
    """Every fact `catalog` memoises, read through it."""
    types = list(catalog.types())
    nodes = [d.label for d in types if d.kind == KIND_NODE]
    labels = [((d.label,), d.kind) for d in types] + [((a, b), KIND_NODE) for a in nodes for b in nodes]
    return {"facts": {d.type_id: catalog.facts(d.type_id) for d in types},
            "type ids": [catalog.type_ids(kind) for kind in (KIND_NODE, KIND_EDGE, KIND_PLAIN)],
            "constrained": catalog.constrained_edge_types(),
            "labels": {key: catalog.label_type(*key) for key in labels}}


def schema_step(rng, catalog, n: int) -> None:
    """One random schema change to `catalog`; it may be refused."""
    nodes, edges = list(catalog.types(KIND_NODE)), list(catalog.types(KIND_EDGE))
    desc = rng.choice(nodes + edges)
    names = [c.name for c in catalog.effective_columns(desc.type_id)]
    step = rng.choice(["node", "node", "edge", "widen", "drop", "key", "check", "cardinality",
                       "retarget"])
    if step == "node":
        catalog.define_node_type(f"N{n}", [col(f"A{n}", values.INTEGER)],
                                 rng.choice([None, *(d.type_id for d in nodes)]))
    elif step == "edge":
        catalog.define_edge_type(f"E{n}", [col("W", values.INTEGER)],
                                 rng.choice(nodes).type_id, rng.choice(nodes).type_id)
    elif step == "widen":
        catalog.widen_type(desc.type_id, col(f"C{n}", values.INTEGER))
    elif step == "drop":
        catalog.drop_column(desc.type_id, rng.choice(names))
    elif step == "key" and desc.kind == KIND_NODE:
        catalog.install_primary_key(desc.type_id, rng.sample(names, rng.randint(1, min(2, len(names)))))
    elif step == "check":
        text = f"{rng.choice(names)} {rng.choice(['< 3', 'IS NOT NULL', '<> 0'])}"
        catalog.add_constraint(desc.type_id, Constraint(text, *parse_expression(text)),
                               {text.split()[0]})
    elif step == "cardinality" and edges:
        lo, hi = rng.randint(0, 1), rng.choice([None, 1, 2])
        catalog.set_multiplicity(rng.choice(edges).type_id, Multiplicity(lo, hi, 0, rng.choice([None, 1])))
    elif step == "retarget" and edges:
        edge = rng.choice(edges)
        side = rng.choice([LEAVING, ARRIVING])
        endpoint = edge.leaving_type if side == LEAVING else edge.arriving_type
        catalog.retarget_endpoint(edge.type_id, side, rng.choice(catalog.supertype_chain(endpoint)))


@pytest.mark.parametrize("seed", range(6))
def test_memoised_facts_equal_a_rebuilt_catalogs_and_are_immutable(seed):
    """Seeded schema histories on a long-lived catalog and on clones taken
    along the way: after every step, each catalog's memoised facts equal a
    catalog's rebuilt from its descriptors, and no memoised container can
    be changed by its reader."""
    rng = random.Random(seed)
    catalogs = [Catalog()]
    catalogs[0].define_node_type("ROOT", [col("K", values.INTEGER)])
    refused = 0
    for n in range(80):
        catalog = rng.choice(catalogs)
        if rng.random() < 0.1:
            catalogs.append(catalog.clone())
        try:
            schema_step(rng, catalog, n)
        except SchemaError:
            refused += 1
        for catalog in catalogs:
            found = memoised_facts(catalog)
            assert found == memoised_facts(rebuilt_catalog(catalog))
            for facts in found["facts"].values():
                for name in ("chain", "closure", "columns", "key", "key_columns", "scopes",
                             "constraints"):
                    assert isinstance(getattr(facts, name), tuple)
                    hash(getattr(facts, name))  # so every item is immutable too
                assert isinstance(facts.column, MappingProxyType)
                with pytest.raises(FrozenInstanceError):
                    facts.key = ()
            assert all(isinstance(ids, frozenset) for ids in found["type ids"])
            assert isinstance(found["constrained"], tuple)
    assert len(catalogs) > 2 and refused < 60
    assert sum(len(list(c.types())) for c in catalogs) > 3 * len(catalogs)


def test_replayed_subtype_is_matched_by_its_supertype_label(tmp_path):
    # replay reads Part's closure to relink the first edge, before the
    # record that adds the subtype
    path = tmp_path / "parts.log"
    db = Database(path)
    db.execute("create type Part as (PartID char) nodetype")
    db.execute("CREATE (:Stock {no:1})-[:Holds]->(:Part {PartID:'P01'})")
    db.execute("create type PurchasedPart under Part as (SupplNo int)")
    db.execute("MATCH (s:Stock) THEN CREATE (s)-[:Holds]->(:PurchasedPart {PartID:'P02'}) END")
    db.close()
    db = Database(path)
    table = db.execute("MATCH (:Stock)-[:Holds]->(p:Part) RETURN p.PartID")
    assert sorted(row[0] for row in table.rows) == ["P01", "P02"]
    db.close()


def test_descriptors_are_immutable(cat):
    person = cat.define_node_type("PERSON", [col("NAME")])
    edge = cat.define_edge_type("CHILD", [], person.type_id, person.type_id)
    cat.add_constraint(person.type_id, Constraint("NAME <> ''"), {"NAME"})
    person = cat.get(person.type_id)
    for obj, field in ((person, "label"), (person.columns[0], "nullable"),
                       (edge.multiplicity, "leaving_min"), (person.constraints[0], "text")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, None)


def test_clone_shares_descriptors_until_it_replaces_one(cat):
    part = cat.define_node_type("PART", [col("PARTID")])
    other = cat.clone()
    assert other.get(part.type_id) is part
    other.widen_type(part.type_id, col("NEW"))
    assert cat.get(part.type_id) is part
    assert [c.name for c in other.get(part.type_id).columns] == [ID, "PARTID", "NEW"]


def test_root_node_type_may_declare_its_own_id_column(cat, tmp_path):
    code = ColumnDescriptor(ID, values.STRING)
    own = cat.define_node_type("OWN", [col("NAME"), code])
    assert [(c.name, c.data_type, c.nullable) for c in own.columns] == [
        ("NAME", values.STRING, True), (ID, values.STRING, False)]
    assert own.primary_key == [ID]

    path = tmp_path / "own.log"
    db = Database(path)
    db.execute("create type Own as (Name char, ID char) nodetype")
    db.execute("CREATE (:Own {Name: 'o', ID: 'k'})")
    with pytest.raises(CommitError, match="key column ID is null"):
        db.execute("CREATE (:Own {Name: 'x'})")
    described = db.catalog.descriptor_to_dict(db.catalog.lookup_label("OWN"))
    db.close()
    db = Database(path)
    assert db.catalog.descriptor_to_dict(db.catalog.lookup_label("OWN")) == described
    assert db.execute("MATCH (o:Own) RETURN o.ID, o.Name").rows == [["k", "o"]]
    db.close()


def test_failed_statements_and_rollback_leave_published_descriptors_alone():
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:R]->(:P {N: 2})")
    db.execute("ALTER TABLE P ADD CHECK (N > 0)")
    catalog = db.catalog
    published = {d.type_id: d for d in catalog.types()}
    p_tid = catalog.lookup_label("P").type_id

    # an auto-committed statement that widens P, then fails its commit
    with pytest.raises(CommitError):
        db.execute("CREATE (:P {N: -1, Z: 5})")
    session = db.session()
    session.execute("BEGIN")
    session.execute("ALTER TABLE P ADD COLUMN X int")
    widened = session.tx.catalog.get(p_tid)
    # a statement inside BEGIN that widens P again, then fails: its
    # savepoint gives back the very descriptor the first statement made
    with pytest.raises(GraphTablesError, match="cannot compare"):
        session.execute("CREATE (:P {N: 3, Y: 2}), (:P {N: 'x' < 1})")
    assert session.tx.catalog.get(p_tid) is widened
    session.execute("ROLLBACK")

    assert db.catalog is catalog
    assert all(catalog.get(tid) is desc for tid, desc in published.items())
    assert [d.type_id for d in catalog.types()] == sorted(published)


# --- a new primary key is judged at commit, over the rows commit sees ---

@pytest.mark.parametrize("rows, message", [
    ("CREATE (:Q {N: 1, W: 10}), (:Q {N: 2, W: 10})", "duplicate key"),
    ("CREATE (:Q {N: 1, W: 10}), (:Q {N: 2})", "key column W is null"),
])
@pytest.mark.parametrize("in_transaction", [False, True])
def test_new_key_over_bad_rows_is_refused_at_commit(rows, message, in_transaction):
    db = Database()
    db.execute(rows)
    published = db.catalog
    with pytest.raises(CommitError, match=message) as err:
        if in_transaction:
            session = db.session()
            for text in ("BEGIN", "ALTER TABLE Q ADD PRIMARY KEY (W)", "COMMIT"):
                session.execute(text)
        else:
            db.execute("ALTER TABLE Q ADD PRIMARY KEY (W)")
    assert err.value.rule == "key"
    assert db.catalog is published
    assert db.catalog.effective_key(db.catalog.lookup_label("Q").type_id) == [ID]


def test_new_key_commits_once_the_transaction_repairs_its_duplicates():
    db = Database()
    db.execute("CREATE (:Q {N: 1, W: 10})-[:R]->(:Q {N: 2, W: 10})")
    session = db.session()
    for text in ("BEGIN", "ALTER TABLE Q ADD PRIMARY KEY (W)",
                 "MATCH (q:Q {N: 2}) SET q.W = 20", "COMMIT"):
        session.execute(text)
    assert db.catalog.effective_key(db.catalog.lookup_label("Q").type_id) == ["W"]
    assert db.execute("MATCH (a:Q)-[e:R]->(b:Q) RETURN a.N, e.LEAVING, b.N, e.ARRIVING").rows == [
        [1, 10, 2, 20]]


def key_check_reads(monkeypatch, db, text):
    """The type-id lists `check_keys` scans and the columns it probes in the
    store while `text` commits."""
    scans, probes, checking = [], [], []
    scan, lookup, check = ReadView.scan_type, Store.index_candidates, _Commit.check_keys

    def scanned(self, type_ids):
        if checking:
            scans.append(sorted(type_ids))
        return scan(self, type_ids)

    def probed(self, type_id, column, value):
        probes.append(column)
        return lookup(self, type_id, column, value)

    def check_keys(self):
        checking.append(True)
        check(self)
        checking.clear()
    monkeypatch.setattr(ReadView, "scan_type", scanned)
    monkeypatch.setattr(Store, "index_candidates", probed)
    monkeypatch.setattr(_Commit, "check_keys", check_keys)
    db.execute(text)
    return scans, probes


def test_a_new_key_probes_every_row_for_the_new_key_only(monkeypatch):
    """The key a rekey demotes was unique over its whole scope at the last
    commit, so only the new primary key is checked over every row: by one
    scan of the scope grouped by key value, with no lookup per row."""
    db = Database()
    db.execute("CREATE " + ", ".join(f"(:Q {{N: {i}, W: {i}}})" for i in range(100)))
    scans, probes = key_check_reads(monkeypatch, db, "ALTER TABLE Q ADD PRIMARY KEY (W)")
    assert scans == [[db.catalog.lookup_label("Q").type_id]]
    assert probes == []


def test_a_new_subtype_checks_no_row(monkeypatch):
    """A new subtype joins the scope of its supertype's key with no rows of
    its own, and the key's declarer had it at BEGIN, so no row is checked."""
    db = Database()
    db.execute("CREATE " + ", ".join(f"(:Q {{N: {i}, W: {i}}})" for i in range(100)))
    assert key_check_reads(monkeypatch, db, "CREATE TYPE U UNDER Q AS (X INT)") == ([], [])


@pytest.mark.parametrize("change", ["MATCH (q:Q {N: 2}) SET q.W = 1",
                                    "MATCH (q:Q {N: 2}) SET q.ID = 1"])
def test_a_new_key_refuses_a_duplicate_of_the_new_or_the_demoted_key(change):
    db = Database()
    db.execute("CREATE (:Q {N: 1, W: 1}), (:Q {N: 2, W: 2})")
    session = db.session()
    for text in ("BEGIN", "ALTER TABLE Q ADD PRIMARY KEY (W)", change):
        session.execute(text)
    with pytest.raises(CommitError, match="duplicate key") as err:
        session.execute("COMMIT")
    assert err.value.rule == "key"


def test_a_demoted_key_is_probed_over_the_rows_a_subtype_kept_to_its_own_key():
    """U's rows hold U's own key and R's as well, so a U row may not repeat
    an R row's ID; and R's new key W is judged over U's rows too."""
    db = Database()
    for text in ("CREATE (:R {ID: 0, W: 0})", "CREATE TYPE U UNDER R AS (X INT)",
                 "ALTER TABLE U ADD PRIMARY KEY (X)", "CREATE (:R {ID: 5, W: 5})"):
        db.execute(text)
    with pytest.raises(CommitError, match=r"duplicate key \(5,\)") as err:
        db.execute("CREATE (:U {ID: 5, X: 1})")
    assert err.value.rule == "key"
    db.execute("CREATE (:U {ID: 6, X: 1, W: 5})")
    with pytest.raises(CommitError, match=r"duplicate key \(5,\)") as err:
        db.execute("ALTER TABLE R ADD PRIMARY KEY (W)")
    assert err.value.rule == "key"
    assert db.catalog.effective_key(db.catalog.lookup_label("R").type_id) == ["ID"]


def test_the_rows_of_a_subtype_created_in_their_transaction_hold_the_supertypes_key():
    db = Database()
    db.execute("CREATE (:R {ID: 5})")
    session = db.session()
    for text in ("BEGIN", "CREATE TYPE U UNDER R AS (X INT)", "CREATE (:U {ID: 5, X: 1})"):
        session.execute(text)
    with pytest.raises(CommitError, match=r"duplicate key \(5,\)") as err:
        session.execute("COMMIT")
    assert err.value.rule == "key"


def test_a_key_installed_and_demoted_in_one_transaction_is_probed_over_every_row():
    db = Database()
    db.execute("CREATE (:Q {N: 1, W: 1, X: 1}), (:Q {N: 2, W: 1, X: 2})")
    session = db.session()
    for text in ("BEGIN", "ALTER TABLE Q ADD PRIMARY KEY (W)", "ALTER TABLE Q ADD PRIMARY KEY (X)"):
        session.execute(text)
    with pytest.raises(CommitError, match="duplicate key") as err:
        session.execute("COMMIT")
    assert err.value.rule == "key"


@pytest.mark.parametrize("statement, message", [
    ("ALTER TABLE R ADD PRIMARY KEY (N)", "R is an edge type, not a node type"),
    ("ALTER TYPE P SET CARDINALITY LEAVING 0..1 ARRIVING 0..*",
     "P is a node type, not an edge type"),
])
def test_a_statement_on_the_wrong_kind_of_type_names_the_kind_it_needs(statement, message):
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:R {N: 2}]->(:P {N: 3})")
    with pytest.raises(SchemaError) as err:
        db.execute(statement)
    assert str(err.value) == message


@pytest.mark.parametrize("check", ["-N < 0", "NOT (N < 0)", "N IS NOT NULL", "(N + 1) * 2 > 0"])
def test_a_column_a_check_reads_under_any_operator_cannot_be_dropped(check):
    db = Database()
    db.execute("CREATE (:P {N: 1, M: 2})")
    db.execute(f"ALTER TABLE P ADD CHECK ({check})")
    with pytest.raises(SchemaError, match=r"column N is read by check \(.*\) of P"):
        db.execute("ALTER TABLE P DROP COLUMN N")
    db.execute("ALTER TABLE P DROP COLUMN M")
