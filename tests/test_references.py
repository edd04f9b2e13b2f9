"""Edge references: an edge binds its endpoint nodes by uid when it is
staged, and its LEAVING/ARRIVING columns read as those nodes' current keys,
inside a transaction as well as after commit and reopen."""

import random

import pytest

from graphtables import Database
from graphtables.engine import render_row
from graphtables.errors import CommitError, GraphTablesError

EDGES = "MATCH (a:Q)-[e:R]->(b:Q) RETURN a.N, e.LEAVING, b.N, e.ARRIVING"


def keyed(db):
    db.execute("create type Q as (N int, W int) nodetype")
    db.execute("create type R as () edgetype (leaving Q, arriving Q)")
    db.execute("alter table Q add primary key(N)")
    return db


@pytest.fixture
def qdb(db):
    return keyed(db)


def run(session, *texts):
    for text in texts:
        session.execute(text)


def test_cascade_reaches_the_edges_of_a_node_created_in_the_same_transaction(qdb):
    run(qdb.session(), "BEGIN", "CREATE (:Q {N: 1})-[:R]->(:Q {N: 2})",
        "MATCH (a:Q {N: 1}) DELETE a CASCADE", "COMMIT")
    assert qdb.execute(EDGES).rows == []
    assert qdb.execute("MATCH (a:Q) RETURN a.N").rows == [[2]]


def test_cascaded_edge_does_not_attach_to_a_node_another_session_keyed_alike(qdb):
    sess = qdb.session()
    run(sess, "BEGIN", "CREATE (:Q {N: 1})-[:R]->(:Q {N: 2})",
        "MATCH (a:Q {N: 1}) DELETE a CASCADE")
    qdb.execute("CREATE (:Q {N: 1, W: 7})")
    sess.execute("COMMIT")
    assert qdb.execute(EDGES).rows == []


def test_restrict_covers_a_node_created_in_the_same_transaction(qdb):
    sess = qdb.session()
    run(sess, "BEGIN", "CREATE (:Q {N: 1})-[:R]->(:Q {N: 2})", "MATCH (a:Q {N: 1}) DELETE a")
    with pytest.raises(CommitError, match="CASCADE") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "reference"


def test_edge_reads_its_endpoints_current_key_inside_the_transaction(qdb):
    qdb.execute("CREATE (:Q {N: 1})-[:R]->(:Q {N: 2})")
    sess = qdb.session()
    run(sess, "BEGIN", "MATCH (a:Q {N: 1}) SET a.N = 10")
    assert sess.execute("MATCH (a:Q)-[e:R]->() RETURN a.N, e.LEAVING").rows == [[10, 10]]
    assert sess.execute("MATCH ()-[e:R {LEAVING: 10}]->() RETURN e.ARRIVING").rows == [[2]]
    sess.execute("COMMIT")
    assert qdb.execute(EDGES).rows == [[10, 10, 2, 2]]


def test_staged_edge_survives_another_session_rekeying_its_endpoint(qdb):
    qdb.execute("CREATE (:Q {N: 1}), (:Q {N: 2})")
    sess = qdb.session()
    run(sess, "BEGIN", "MATCH (a:Q {N: 1}), (b:Q {N: 2}) CREATE (a)-[:R]->(b)")
    qdb.execute("MATCH (a:Q {N: 1}) SET a.N = 10")
    sess.execute("COMMIT")
    assert qdb.execute(EDGES).rows == [[10, 10, 2, 2]]


def test_new_key_after_deleting_an_endpoint_fails_as_a_graphtables_error(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 1})-[:R]->(:Q {N: 2, W: 2})")
    sess = qdb.session()
    with pytest.raises(GraphTablesError):
        run(sess, "BEGIN", "MATCH (a:Q {N: 1}) DELETE a",
            "ALTER TABLE Q ADD PRIMARY KEY (W)", "COMMIT")
    assert qdb.execute(EDGES).rows == [[1, 1, 2, 2]]


def test_new_key_after_a_cascade_delete_commits(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10})-[:R]->(:Q {N: 2, W: 20})-[:R]->(:Q {N: 3, W: 30})")
    run(qdb.session(), "BEGIN", "MATCH (a:Q {N: 1}) DELETE a CASCADE",
        "ALTER TABLE Q ADD PRIMARY KEY (W)", "COMMIT")
    assert qdb.execute(EDGES).rows == [[2, 20, 3, 30]]


def test_new_key_rewrites_an_edge_committed_while_the_alter_was_open(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10}), (:Q {N: 2, W: 20})")
    sess = qdb.session()
    run(sess, "BEGIN", "ALTER TABLE Q ADD PRIMARY KEY (W)")
    qdb.execute("MATCH (a:Q {N: 1}), (b:Q {N: 2}) CREATE (a)-[:R]->(b)")
    sess.execute("COMMIT")
    view = qdb.read_view()
    edge = next(view.scan_type(qdb.catalog.subtype_closure(qdb.catalog.lookup_label("R").type_id)))
    assert (edge.get("LEAVING"), edge.get("ARRIVING")) == (10, 20)
    assert view.resolve_endpoints(edge) == edge.ends


def test_new_key_refuses_a_null_row_committed_while_the_alter_was_open(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10})")
    sess = qdb.session()
    run(sess, "BEGIN", "ALTER TABLE Q ADD PRIMARY KEY (W)")
    qdb.execute("CREATE (:Q {N: 3})")
    with pytest.raises(CommitError, match="key column W is null") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "key"
    assert qdb.catalog.effective_key(qdb.catalog.lookup_label("Q").type_id) == ["N"]


def test_dropped_column_refuses_a_value_committed_while_the_drop_was_open(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10})")
    sess = qdb.session()
    run(sess, "BEGIN", "ALTER TABLE Q DROP COLUMN W")
    qdb.execute("CREATE (:Q {N: 3, W: 30})")
    with pytest.raises(CommitError, match="undeclared column W") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "type"
    assert qdb.execute("MATCH (q:Q) RETURN q.N, q.W").rows == [[1, 10], [3, 30]]


def test_retarget_binds_the_node_holding_the_key_when_set_runs(qdb):
    qdb.execute("CREATE (:Q {N: 1})-[:R]->(:Q {N: 2})")
    sess = qdb.session()
    run(sess, "BEGIN", "MATCH ()-[e:R]->() SET e.LEAVING = 5", "CREATE (:Q {N: 5})")
    with pytest.raises(CommitError) as err:
        sess.execute("COMMIT")
    assert err.value.rule == "reference"
    assert qdb.execute(EDGES).rows == [[1, 1, 2, 2]]


def test_retarget_follows_a_node_rekeyed_after_the_set(qdb):
    qdb.execute("CREATE (:Q {N: 1})-[:R]->(:Q {N: 2}), (:Q {N: 3})")
    sess = qdb.session()
    run(sess, "BEGIN", "MATCH ()-[e:R]->() SET e.ARRIVING = 3",
        "MATCH (c:Q {N: 3}) SET c.N = 30", "COMMIT")
    assert qdb.execute(EDGES).rows == [[1, 1, 30, 30]]


def test_retarget_away_from_a_node_checks_its_lower_bound(qdb):
    qdb.execute("CREATE (a:Q {N: 1})-[:R]->(b:Q {N: 2}), (b)-[:R]->(a)")
    qdb.execute("ALTER TYPE R SET CARDINALITY LEAVING 1..* ARRIVING 0..*")
    with pytest.raises(CommitError) as err:
        qdb.execute("MATCH (:Q {N: 1})-[e:R]->() SET e.LEAVING = 2")
    assert err.value.rule == "multiplicity"
    assert qdb.execute(EDGES).rows == [[1, 1, 2, 2], [2, 2, 1, 1]]


# --- statements read their snapshot; COMMIT checks the latest state ---

def test_dropped_column_scrubs_only_the_rows_of_the_snapshot(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10})")
    sess = qdb.session()
    sess.execute("BEGIN")
    qdb.execute("CREATE (:Q {N: 2, W: 20})")
    sess.execute("ALTER TABLE Q DROP COLUMN W")
    assert sess.execute("MATCH (q:Q) RETURN q.N").rows == [[1]]
    with pytest.raises(CommitError, match="undeclared column W") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "type"
    assert qdb.execute("MATCH (q:Q) RETURN q.N, q.W").rows == [[1, 10], [2, 20]]


def test_a_transaction_reads_the_catalog_of_its_begin(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10})")
    sess = qdb.session()
    sess.execute("BEGIN")
    qdb.execute("ALTER TABLE Q DROP COLUMN W")
    q_tid = qdb.catalog.lookup_label("Q").type_id
    assert [c.name for c in sess.tx.catalog.effective_columns(q_tid)] == ["ID", "N", "W"]
    assert sess.execute("MATCH (q:Q) RETURN q.N, q.W").rows == [[1, 10]]
    [[row]] = sess.execute("MATCH (q:Q {W: 10}) RETURN q").rows
    assert render_row(sess.view(), row) == "Q(N=1,W=10)"
    sess.execute("COMMIT")
    [[row]] = qdb.execute("MATCH (q:Q) RETURN q").rows
    assert render_row(qdb.read_view(), row) == "Q(N=1)"


def test_schema_change_after_another_schema_commit_conflicts(qdb):
    sess = qdb.session()
    sess.execute("BEGIN")
    qdb.execute("ALTER TABLE Q ADD COLUMN Z int")
    sess.execute("ALTER TABLE Q ADD COLUMN Y int")
    with pytest.raises(CommitError, match="changed the schema") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "conflict"
    q_tid = qdb.catalog.lookup_label("Q").type_id
    assert [c.name for c in qdb.catalog.effective_columns(q_tid)] == ["ID", "N", "W", "Z"]


def test_set_on_a_row_deleted_after_begin_conflicts_at_commit(qdb):
    qdb.execute("CREATE (:Q {N: 1})")
    sess = qdb.session()
    sess.execute("BEGIN")
    qdb.execute("MATCH (q:Q {N: 1}) DELETE q")
    sess.execute("MATCH (q:Q {N: 1}) SET q.W = 5")
    with pytest.raises(CommitError, match="changed by a commit after") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "conflict"
    assert qdb.execute("MATCH (q:Q) RETURN q.N").rows == []


def test_retarget_does_not_bind_a_node_committed_after_begin(qdb):
    qdb.execute("CREATE (:Q {N: 1})-[:R]->(:Q {N: 2})")
    sess = qdb.session()
    sess.execute("BEGIN")
    qdb.execute("CREATE (:Q {N: 3})")
    sess.execute("MATCH ()-[e:R]->() SET e.ARRIVING = 3")
    assert sess.execute("MATCH (x:Q)-[e:R]->(y:Q) RETURN x.N, y.N").rows == []
    with pytest.raises(CommitError, match="ARRIVING value 3 matches no Q row") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "reference"
    assert qdb.execute(EDGES).rows == [[1, 1, 2, 2]]


def test_new_key_refuses_a_duplicate_committed_before_the_alter(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10})")
    sess = qdb.session()
    sess.execute("BEGIN")
    qdb.execute("CREATE (:Q {N: 2, W: 10})")
    sess.execute("ALTER TABLE Q ADD PRIMARY KEY (W)")
    with pytest.raises(CommitError, match="duplicate key") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "key"
    assert qdb.catalog.effective_key(qdb.catalog.lookup_label("Q").type_id) == ["N"]


def test_set_on_a_row_whose_column_was_dropped_after_begin_conflicts(qdb):
    qdb.execute("CREATE (:Q {N: 1, W: 10})")
    sess = qdb.session()
    sess.execute("BEGIN")
    qdb.execute("ALTER TABLE Q DROP COLUMN W")
    sess.execute("MATCH (q:Q {N: 1}) SET q.W = 5")
    with pytest.raises(CommitError, match="changed by a commit after") as err:
        sess.execute("COMMIT")
    assert err.value.rule == "conflict"
    assert qdb.execute("MATCH (q:Q) RETURN q.N").rows == [[1]]


def test_set_on_an_edge_after_a_rekey_to_another_key_type_commits(db):
    db.execute("create type Q as (N int, W string) nodetype")
    db.execute("create type R as (X int) edgetype (leaving Q, arriving Q)")
    db.execute("alter table Q add primary key(N)")
    db.execute("CREATE (:Q {N: 1, W: 'a'})-[:R]->(:Q {N: 2, W: 'b'})")
    run(db.session(), "BEGIN", "ALTER TABLE Q ADD PRIMARY KEY (W)",
        "MATCH ()-[e:R]->() SET e.X = 1", "COMMIT")
    assert db.execute("MATCH ()-[e:R]->() RETURN e.LEAVING, e.ARRIVING, e.X").rows == [
        ["a", "b", 1]]


# --- randomized three-session streams ---

def test_a_subtype_nodes_edges_take_the_supertype_key_it_changes():
    """E references A's key K; a B node keyed on its own X still changes
    the K its E edges hold, and a later A keyed alike does not take them."""
    db = Database()
    for text in ("create type A as (K int) nodetype", "alter table A add primary key(K)",
                 "create type B under A as (X int) nodetype", "alter table B add primary key(X)",
                 "create type P as (N int) nodetype",
                 "create type E as () edgetype (leaving P, arriving A)",
                 "CREATE (:P {N: 1})", "CREATE (:B {K: 1, X: 7})",
                 "MATCH (p:P), (b:B) CREATE (p)-[:E]->(b)", "MATCH (b:B) SET b.K = 9"):
        db.execute(text)
    view = db.read_view()
    [edge] = view.scan_type({db.catalog.lookup_label("E").type_id})
    assert edge.values["ARRIVING"] == 9
    db.execute("CREATE (:A {K: 1})")
    view = db.read_view()
    [edge] = view.scan_type({db.catalog.lookup_label("E").type_id})
    assert view.resolve_endpoints(edge) == edge.ends == (1, 2)


def test_a_unique_key_set_beside_a_concurrent_edge_set_both_commit(db):
    """Edges reference a primary key column only, so a SET of the ID key that
    ADD PRIMARY KEY demoted rewrites no edge and conflicts with no edge write."""
    for text in ("create type Q as (N int) nodetype",
                 "create type R as (X int) edgetype (leaving Q, arriving Q)",
                 "alter table Q add primary key(N)", "CREATE (:Q {N: 1})-[:R {X: 0}]->(:Q {N: 2})"):
        db.execute(text)
    one, two = db.session(), db.session()
    run(one, "BEGIN", "MATCH (a:Q {N: 1}) SET a.ID = 100")
    run(two, "BEGIN", "MATCH ()-[e:R]->() SET e.X = 5")
    run(one, "COMMIT")
    run(two, "COMMIT")
    assert db.execute("MATCH (a:Q)-[e:R]->(b:Q) RETURN a.ID, e.X, e.LEAVING, e.ARRIVING").rows == [
        [100, 5, 1, 2]]


KEYS = range(1, 9)
S_KEYS = range(9, 13)  # the N of S nodes, apart from Q's
# the share of steps that are S statements; the others keep their own shares
# of the rest, the edge read 20% of them
S_SHARE = 0.2


def random_stream(rng: random.Random, length: int) -> list[tuple[int, str]]:
    """[(session, statement)] over Q/R and S, a subtype of Q keyed on its
    own Y: creates, rekeys of either column, retargets, edge and node
    deletes with and without CASCADE, key swaps between N and W, one
    cardinality rule, and edge reads; sessions open and close transactions
    at random.  W starts as 10 * N, so a retarget value may name a node
    under one key and nothing under the other.  An R edge at an S node holds
    the S node's N or W, Q's key, which SETs of S nodes change; S nodes
    take N from `S_KEYS`, so that Q nodes leave them room."""
    open_tx = [False, False, False]
    out = []
    for _ in range(length):
        s = rng.randrange(3)
        i, j = rng.choice(KEYS), rng.choice(KEYS)
        roll = rng.random()
        if rng.random() < S_SHARE:
            y, n, k = rng.choice(KEYS[:4]), rng.choice(S_KEYS), rng.choice(S_KEYS)
            text = rng.choice([f"CREATE (:S {{N: {n}, W: {10 * n}, Y: {y}}})",
                               f"CREATE (:S {{N: {n}, W: {10 * n}, Y: {y}}})-[:R]->"
                               f"(:Q {{N: {j}, W: {10 * j}}})",
                               f"MATCH (a:Q {{N: {i}}}), (b:S {{Y: {y}}}) CREATE (a)-[:R]->(b)",
                               f"MATCH (a:S {{Y: {y}}}), (b:Q {{N: {i}}}) CREATE (a)-[:R]->(b)",
                               f"MATCH (a:S {{Y: {y}}}) SET a.N = {k}",
                               f"MATCH (a:S {{Y: {y}}}) SET a.W = {10 * k}",
                               f"MATCH (a:S {{Y: {y}}}) SET a.N = {k}, a.W = {10 * k}"])
        elif roll < 0.12:
            text = ("COMMIT" if rng.random() < 0.75 else "ROLLBACK") if open_tx[s] else "BEGIN"
            open_tx[s] = text == "BEGIN"
        elif roll < 0.22:
            text = f"CREATE (:Q {{N: {i}, W: {10 * i}}})"
        elif roll < 0.32:
            text = f"CREATE (:Q {{N: {i}, W: {10 * i}}})-[:R]->(:Q {{N: {j}, W: {10 * j}}})"
        elif roll < 0.44:
            text = f"MATCH (a:Q {{N: {i}}}), (b:Q {{N: {j}}}) CREATE (a)-[:R]->(b)"
        elif roll < 0.54:
            k = rng.choice(KEYS)
            text = rng.choice([f"MATCH (a:Q {{N: {i}}}) SET a.N = {k}",
                               f"MATCH (a:Q {{N: {i}}}) SET a.W = {10 * k}",
                               f"MATCH (a:Q {{N: {i}}}) SET a.N = {k}, a.W = {10 * k}"])
        elif roll < 0.62:
            side = rng.choice(["LEAVING", "ARRIVING"])
            k = rng.choice(KEYS) * rng.choice([1, 10])
            text = f"MATCH (:Q {{N: {i}}})-[e:R]->(:Q {{N: {j}}}) SET e.{side} = {k}"
        elif roll < 0.70:
            text = f"MATCH (a:Q {{N: {i}}}) DELETE a" + (" CASCADE" if rng.random() < 0.6 else "")
        elif roll < 0.74:
            text = f"MATCH (:Q {{N: {i}}})-[e:R]->() DELETE e"
        elif roll < 0.78:
            text = f"ALTER TABLE Q ADD PRIMARY KEY ({rng.choice(['N', 'W'])})"
        elif roll < 0.80:
            text = "ALTER TYPE R SET CARDINALITY LEAVING 0..2 ARRIVING 0..*"
        else:
            text = "MATCH (a:Q)-[e:R]->(b:Q) RETURN a.N, a.W, e.LEAVING, b.N, b.W, e.ARRIVING"
        out.append((s, text))
    return out


def snapshot(db) -> tuple:
    rows = sorted((r.uid, r.type_id, sorted(r.values.items()))
                  for desc in db.catalog.types()
                  for r in db.read_view().scan_type({desc.type_id}))
    components = sorted((sorted(c.nodes), sorted(c.edges)) for c in db.graphs.components())
    return rows, components, db.state_hash()


def assert_edges_resolve_to_their_ends(db) -> None:
    """Each committed edge's stored LEAVING/ARRIVING name the nodes it binds."""
    view = db.read_view()
    for desc in db.catalog.types("edge"):
        for edge in view.scan_type({desc.type_id}):
            assert view.resolve_endpoints(edge) == edge.ends, edge


@pytest.mark.parametrize("seed", range(12))
def test_random_streams_read_endpoint_keys_and_reopen_alike(tmp_path, seed):
    rng = random.Random(8100 + seed)
    db = keyed(Database(tmp_path / "stream.db"))
    db.execute("create type S under Q as (Y int) nodetype")
    db.execute("alter table S add primary key(Y)")
    sessions = [db.session() for _ in range(3)]
    reads = 0
    for s, text in random_stream(rng, 200):  # 160 steps not on S, as many as before S
        sess, seq = sessions[s], db.store.commit_seq
        try:
            result = sess.execute(text)
        except GraphTablesError:
            continue
        if db.store.commit_seq != seq:
            assert_edges_resolve_to_their_ends(db)
        if text.startswith("MATCH (a:Q)-[e:R]->(b:Q) RETURN"):
            catalog = sess.tx.catalog if sess.tx is not None else db.catalog
            key = catalog.effective_key(catalog.lookup_label("Q").type_id)[0]
            for a_n, a_w, leaving, b_n, b_w, arriving in result.rows:
                assert leaving == (a_n if key == "N" else a_w), (text, key)
                assert arriving == (b_n if key == "N" else b_w), (text, key)
                reads += 1
    for sess in sessions:
        if sess.tx is not None:
            try:
                sess.execute("COMMIT")
            except GraphTablesError:
                pass
    assert_edges_resolve_to_their_ends(db)
    before = snapshot(db)
    db.close()
    reopened = Database(tmp_path / "stream.db")
    assert snapshot(reopened) == before
    reopened.close()
    assert reads > 0
