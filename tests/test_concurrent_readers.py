"""Lock-free readers against commits that land while they read.

Each test makes a commit happen at the point where a reader walks one of
the store's live tables, or the component registry, and checks that the
reader neither fails nor sees a half-applied commit."""

import sys
import threading
import time

from graphtables import Database
from graphtables.graphset import GraphSet
from graphtables.storage import Row, Store


def commit_once_inside(monkeypatch, db, statement):
    """Make the next `Store.version_at` call commit `statement` first."""
    version_at = Store.version_at
    pending = [statement]

    def committing(self, uid, snapshot):
        if pending:
            db.execute(pending.pop())
        return version_at(self, uid, snapshot)
    monkeypatch.setattr(Store, "version_at", committing)


def test_adjacent_edges_survive_a_commit_to_the_same_node(monkeypatch):
    db = Database()
    db.execute("CREATE (c:C {N: 0})<-[:R]-(:O {K: 1})")
    view = db.read_view()
    c = view.lookup_by_value([db.catalog.lookup_label("C").type_id], "N", 0)[0]
    commit_once_inside(monkeypatch, db,
                       "MATCH (c:C {N: 0}) THEN CREATE (c)<-[:R]-(:O {K: 2}) END")
    edges = view.edges_adjacent(c.uid, "arriving")
    assert [view.get_row(leaving).get("K") for _, leaving, _ in edges] == [1]
    assert len(db.read_view().edges_adjacent(c.uid, "arriving")) == 2


def test_value_lookup_survives_a_commit_of_the_same_value(monkeypatch):
    db = Database()
    db.execute("CREATE (:C {N: 0, M: 'first'})")
    tids = [db.catalog.lookup_label("C").type_id]
    view = db.read_view()
    assert len(view.lookup_by_value(tids, "N", 0)) == 1   # builds the index
    commit_once_inside(monkeypatch, db, "CREATE (:C {N: 0, M: 'second'})")
    assert [r.get("M") for r in view.lookup_by_value(tids, "N", 0)] == ["first"]
    assert len(db.read_view().lookup_by_value(tids, "N", 0)) == 2


class _PausingValues(dict):
    """Row values whose first `get` calls `pause` before answering."""

    def __init__(self, pause, **values):
        super().__init__(**values)
        self.pause = pause

    def get(self, key, default=None):
        pause, self.pause = self.pause, None
        if pause is not None:
            pause()
        return super().get(key, default)


def test_commit_waits_for_a_value_index_build():
    store = Store()
    writer = threading.Thread(target=store.apply, args=(2, [(2, None, Row(2, 7, {"N": 1}))]))
    writer_waited = []

    def commit_during_build():
        writer.start()
        writer.join(timeout=0.5)
        writer_waited.append(writer.is_alive())

    store.apply(1, [(1, None, Row(1, 7, _PausingValues(commit_during_build, N=1)))])
    assert 1 in store.index_candidates(7, "N", 1)   # the first probe builds the index
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert writer_waited == [True]
    # the commit that waited indexes its row in the index built meanwhile
    assert sorted(store.index_candidates(7, "N", 1)) == [1, 2]


def test_show_graphs_reads_one_committed_state(monkeypatch):
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:R]->(:P {N: 2})")
    writer = threading.Thread(target=db.execute, args=("MATCH ()-[r:R]->() DELETE r",))
    components = GraphSet.components
    writer_waited = []

    def unlink_during_read(self):
        if not writer.is_alive() and not writer_waited:
            writer.start()
            writer.join(timeout=0.5)
            writer_waited.append(writer.is_alive())
        return components(self)
    monkeypatch.setattr(GraphSet, "components", unlink_during_read)
    assert db.execute("SHOW GRAPHS").rows == [[1, 2, 1]]
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert writer_waited == [True]
    assert db.execute("SHOW GRAPHS").rows == [[1, 1, 0], [2, 1, 0]]


def test_readers_and_a_writer_stress_one_node():
    """Three readers follow a node's edges, look its neighbours up by value
    and list the components while a writer adds edges to the node.  Every
    read sees a whole number of committed edges and nothing fails."""
    db = Database()
    db.execute("CREATE (c:C {N: 0})<-[:R]-(:O {K: 0})")
    stop, errors, seen = threading.Event(), [], []

    def read():
        while not stop.is_set():
            ks = [r[0] for r in db.execute("MATCH (c:C {N: 0})<-[:R]-(o:O) RETURN o.K").rows]
            assert sorted(ks) == list(range(len(ks)))
            assert db.execute(f"MATCH (o:O {{K: {len(ks) - 1}}}) RETURN o.K").rows == [[len(ks) - 1]]
            (graph,) = db.execute("SHOW GRAPHS").rows
            assert graph[1] == graph[2] + 1   # a star: one node more than edges
            seen.append(len(ks))

    def write():
        k = 1
        while not stop.is_set():
            db.execute(f"MATCH (c:C {{N: 0}}) THEN CREATE (c)<-[:R]-(:O {{K: {k}}}) END")
            k += 1

    def recording(work):
        def run():
            try:
                work()
            except Exception as exc:   # reported by the assertion below
                errors.append(exc)
                stop.set()
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=recording(read)) for _ in range(3)]
    threads.append(threading.Thread(target=recording(write)))
    try:
        for t in threads:
            t.start()
        stop.wait(timeout=1.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert max(seen) > 1


def test_pinned_readers_and_a_pruning_writer_stress_a_sum():
    """Readers each hold a view across several reads while a writer moves
    units between two nodes, deletes and re-creates a third, and so drops
    versions at every commit.  A view reads the same rows each time, with
    the sum held, and nothing fails."""
    db = Database()
    db.execute("CREATE (:C {N: 0, V: 50}), (:C {N: 1, V: 50}), (:C {N: 2, V: 0})")
    tid = db.catalog.lookup_label("C").type_id
    stop, errors, seen = threading.Event(), [], []

    def read():
        while not stop.is_set():
            view = db.read_view()
            first = [(r.uid, r.values["V"]) for r in view.scan_type({tid})]
            time.sleep(0)
            again = [(r.uid, r.values["V"]) for n in (0, 1, 2)
                     for r in view.lookup_by_value([tid], "N", n)]
            assert first == again and first[0][1] + first[1][1] == 100
            seen.append(view.snapshot)

    def write():
        session = db.session()
        while not stop.is_set():
            session.execute("BEGIN")
            session.execute("MATCH (a:C {N: 0}), (b:C {N: 1}) SET a.V = a.V - 1, b.V = b.V + 1")
            session.execute("COMMIT")
            session.execute("MATCH (c:C {N: 2}) DELETE c")
            session.execute("CREATE (:C {N: 2, V: 0})")

    def recording(work):
        def run():
            try:
                work()
            except Exception as exc:   # reported by the assertion below
                errors.append(exc)
                stop.set()
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=recording(read)) for _ in range(3)]
    threads.append(threading.Thread(target=recording(write)))
    try:
        for t in threads:
            t.start()
        stop.wait(timeout=1.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(set(seen)) > 1
    db.execute("MATCH (c:C {N: 2}) SET c.V = 1")  # with every view gone, drops all history
    assert all(len(versions) == 1 for versions in db.store._versions.values())
