"""Each commit drops the row versions, and the index entries, that no open
snapshot can read.  An open transaction or a view `Database.read_view`
returned pins its snapshot until the transaction ends or the handle is
dropped; while it is pinned, it reads exactly that snapshot."""

import gc
import random
import tracemalloc

import pytest

from graphtables import Database
from graphtables.errors import CommitError

SCHEMA = ("create type C as (K int, V int) nodetype",
          "alter table C add primary key(K)",
          "create type L as (W int) edgetype (leaving C, arriving C)")


def keyed_chain(n: int = 10) -> Database:
    """Nodes C {K: 0..n-1} with an L edge from each to the next."""
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    nodes = ", ".join(f"(c{k}:C {{K: {k}, V: 0}})" for k in range(n))
    links = ", ".join(f"(c{k})-[:L {{W: {k}}}]->(c{k + 1})" for k in range(n - 1))
    db.execute(f"CREATE {nodes}, {links}")
    return db


def live_uids(db) -> set:
    view = db.read_view()
    return {row.uid for desc in db.catalog.types() for row in view.scan_type({desc.type_id})}


def assert_pruned(db) -> None:
    """The store holds one version per live uid, and each index entry is
    one a live row makes; no set is empty."""
    store, uids = db.store, live_uids(db)
    assert {uid: len(versions) for uid, versions in store._versions.items()} == dict.fromkeys(uids, 1)
    index = store.index
    assert all(index.types.values()) and set().union(*index.types.values()) == uids
    for columns in index.values.values():
        for column, entries in columns.items():
            for value, held in entries.items():
                assert held and all(store.latest(uid).values.get(column) == value for uid in held)
    for side, ends in enumerate(index.ends):
        for node, edges in ends.items():
            assert edges and all(store.latest(uid).ends[side] == node for uid in edges)


def reads(db, view) -> tuple:
    """What `view` reads of the chain: nodes by scan and by key lookup, and
    each node's leaving edges."""
    tid = {label: db.catalog.lookup_label(label).type_id for label in "CL"}
    nodes = {row.uid: (row.values["K"], row.values["V"]) for row in view.scan_type({tid["C"]})}
    lookups = {k: [row.uid for row in view.lookup_by_value([tid["C"]], "K", k)] for k in range(12)}
    edges = {uid: [(row.values["W"], ends) for row, *ends in view.edges_adjacent(uid, "leaving")]
             for uid in nodes}
    return nodes, lookups, edges


def churn(db, writes: int, seed: int = 0) -> None:
    """`writes` commits of another session: increments, cascade deletes and
    re-creates that link the new node to a neighbour."""
    rng, writer = random.Random(seed), db.session()
    for _ in range(writes):
        k = rng.randrange(10)
        roll = rng.random()
        if roll < 0.6:
            writer.execute(f"MATCH (c:C {{K: {k}}}) SET c.V = c.V + 1")
        elif db.execute(f"MATCH (c:C {{K: {k}}}) RETURN c.K").rows:
            writer.execute(f"MATCH (c:C {{K: {k}}}) DELETE c CASCADE")
        else:
            writer.execute(f"CREATE (:C {{K: {k}, V: {rng.randrange(5)}}})")
            writer.execute(f"MATCH (a:C {{K: {k}}}), (b:C {{K: {(k + 1) % 10}}}) "
                           f"CREATE (a)-[:L {{W: {rng.randrange(5)}}}]->(b)")


@pytest.mark.parametrize("holder", ["begin", "read_view"])
def test_a_pinned_reader_reads_its_snapshot_until_released(holder):
    db = keyed_chain()
    db.execute("MATCH (c:C {K: 3}) SET c.V = 7")
    if holder == "begin":
        session = db.session()
        session.execute("BEGIN")
        view = session.tx.view()
        rows = session.execute("MATCH (a:C)-[e:L]->(b:C) RETURN a.K, a.V, e.W, b.K").rows
    else:
        view = db.read_view()
    before = reads(db, view)
    assert before[0][4] == (3, 7) and len(before[0]) == 10

    churn(db, 1000)
    assert reads(db, view) == before
    if holder == "begin":
        assert session.execute("MATCH (a:C)-[e:L]->(b:C) RETURN a.K, a.V, e.W, b.K").rows == rows
    assert len(db.store._versions) > len(live_uids(db))  # the pinned history is kept

    if holder == "begin":
        session.execute("ROLLBACK")
    del view
    assert db._pins == {}
    db.execute("MATCH (c:C {K: 0}) SET c.V = c.V + 1")
    assert_pruned(db)


def test_many_sets_of_one_row_retain_no_memory():
    """20,000 single-row SETs with no snapshot open: the row keeps one
    version and the store's memory stays flat."""
    db = Database()
    db.execute("CREATE (:P {N: 0, V: 0})")
    (uid,) = db.store._versions

    def set_value(v):
        tx = db.begin()
        tx.update_row(uid, {"V": v})
        tx.commit()
    set_value(-1)  # the first write builds what every later one reuses
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for v in range(20000):
            set_value(v)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 500_000
    assert [len(versions) for versions in db.store._versions.values()] == [1]
    assert db.execute("MATCH (p:P) RETURN p.V").rows == [[19999]]


def test_a_released_pin_lets_the_next_commit_drop_what_it_held():
    """Versions and index entries a pinned view still reads stay, whatever
    else commits; the first commit after the release drops them, several
    versions of one row at once, retargeted edge ends and deleted rows alike."""
    db = keyed_chain(4)
    view = db.read_view()
    for old, new in ((1, 10), (10, 11), (11, 12)):
        db.execute(f"MATCH (c:C {{K: {old}}}) SET c.K = {new}")
    db.execute("MATCH (a:C {K: 0})-[e:L]->() SET e.ARRIVING = 3")
    db.execute("MATCH (c:C {K: 2}) DELETE c CASCADE")
    tid = db.catalog.lookup_label("C").type_id
    assert [row.values["K"] for row in view.lookup_by_value([tid], "K", 1)] == [1]
    assert db.read_view().lookup_by_value([tid], "K", 1) == []
    assert len(db.store._versions[2]) == 4  # K 1, 10, 11 and 12
    assert db.store.index.values[tid]["K"].keys() >= {1, 2, 10, 11, 12}

    db.execute("MATCH (c:C {K: 0}) SET c.V = 1")
    assert len(db.store._versions[2]) == 4  # still pinned
    del view
    db.execute("MATCH (c:C {K: 0}) SET c.V = 2")
    assert_pruned(db)
    assert set(db.store.index.values[tid]["K"]) == {0, 12, 3}


def _committed(db):
    tx = db.begin()
    tx.commit()
    return tx


def _rolled_back(db):
    tx = db.begin()
    tx.rollback()
    return tx


def _conflicted(db):
    """A transaction whose commit fails: another commit changed its row."""
    tx = db.begin()
    tx.update_row(1, {"V": 1})
    db.execute("MATCH (c:C {K: 0}) SET c.V = 2")
    with pytest.raises(CommitError, match="conflict"):
        tx.commit()
    return tx


def _dropped(make):
    def end(db):
        make(db)
    return end


def _dropped_in_a_cycle(make):
    def end(db):
        cycle = [make(db)]
        cycle.append(cycle)
    return end


@pytest.mark.parametrize("end", [
    _committed, _rolled_back, _conflicted,
    _dropped(Database.begin), _dropped(Database.read_view),
    _dropped_in_a_cycle(Database.begin), _dropped_in_a_cycle(Database.read_view),
], ids=["commit", "rollback", "failed commit", "dropped transaction", "dropped view",
        "transaction in a dropped cycle", "view in a dropped cycle"])
def test_every_way_a_handle_ends_releases_its_pin(end):
    db = keyed_chain(3)
    held = db.read_view()  # keeps the history while `end` runs
    db.execute("MATCH (c:C {K: 1}) SET c.V = 5")
    handle = end(db)  # a transaction that ended is still referenced here
    gc.collect()
    assert list(db._pins.values()) == [held.snapshot]
    del held
    db.execute("MATCH (c:C {K: 2}) DELETE c CASCADE")
    assert db._pins == {}
    assert handle is None or handle.status != "open"
    assert_pruned(db)


def test_a_pin_made_while_a_commit_publishes_holds_that_commit():
    """A commit that lands between a pin's read of the latest snapshot and
    its entry in the registry may drop what that snapshot read: the pin
    reads the latest snapshot again, and holds the commit's."""
    db = keyed_chain(2)
    pending = ["MATCH (c:C {K: 0}) SET c.V = 9"]

    class CommitFirst(dict):
        def __setitem__(self, key, value):
            if pending:
                db.execute(pending.pop())
            dict.__setitem__(self, key, value)

    db._pins = CommitFirst()
    seq = db.published[0]
    view = db.read_view()
    assert view.snapshot == seq + 1 == db.published[0]
    assert list(db._pins.values()) == [seq + 1]
    tid = db.catalog.lookup_label("C").type_id
    assert [row.values["V"] for row in view.lookup_by_value([tid], "K", 0)] == [9]
    assert len(db.store._versions[1]) == 1  # the commit dropped the version at `seq`


def test_a_pin_released_while_a_commit_reads_the_oldest_one():
    """Another thread may let its last pin go while a commit reads the
    oldest: the commit then keeps nothing back, and does not fail."""
    db = keyed_chain(2)

    class ReleasedOnRead(dict):
        def values(self):
            self.clear()  # the reader drops its view just now
            return super().values()

    db._pins = ReleasedOnRead()
    view = db.read_view()
    db.execute("MATCH (c:C {K: 0}) SET c.V = 4")
    assert db.refusal is None and view.snapshot < db.published[0]
    assert all(len(versions) == 1 for versions in db.store._versions.values())
