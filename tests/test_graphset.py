"""Incremental connected components against a from-scratch union-find.

The registry reads edge endpoints from the store, so each case runs a
`GraphSet` over a real `Store` and publishes every delta to both, store
first, as a commit does."""

import random

import pytest

from graphtables import Database, storage
from graphtables.errors import GraphTablesError, StorageError
from graphtables.graphset import GraphSet
from graphtables.storage import Row, Store

from oracles import union_find_components


NODE, EDGE = 1, 2  # type ids; the store does not look them up


def commit(gs: GraphSet, added_nodes=(), added_edges=(), removed_nodes=(), removed_edges=()):
    """Publish one delta to the store, then to `gs` as the changes
    (uid, row before, row after) a commit passes.  Removed edges are given
    by uid."""
    store = gs.store
    final = {uid: None for uid in [*removed_nodes, *removed_edges]}
    final.update({uid: Row(uid, NODE, {}) for uid in added_nodes})
    final.update({e: Row(e, EDGE, {}, (t, h)) for e, t, h in added_edges})
    changes = [(uid, store.latest(uid), row) for uid, row in sorted(final.items())]
    store.apply(store.commit_seq + 1, changes)
    gs.apply_delta(changes)


def snapshot(gs: GraphSet):
    return {c.representative: (frozenset(c.nodes), frozenset(c.edges))
            for c in gs.components()}


def oracle_snapshot(nodes, edge_ends):
    return {rep: (frozenset(ns), frozenset(es))
            for rep, (ns, es) in union_find_components(nodes, edge_ends).items()}


def test_isolated_nodes_are_singleton_components():
    gs = GraphSet(Store())
    commit(gs, [3, 1, 2], [], [], [])
    comps = gs.components()
    assert [c.representative for c in comps] == [1, 2, 3]
    assert all(c.edges == set() for c in comps)


def test_edge_merges_and_keeps_smallest_representative():
    gs = GraphSet(Store())
    commit(gs, [1, 2, 3], [(10, 2, 3)], [], [])
    assert gs.component_of(3).representative == 2
    commit(gs, [], [(11, 3, 1)], [], [])
    assert gs.component_of(2).representative == 1
    assert gs.component_of(1).edges == {10, 11}


def test_self_loop_stays_inside_one_component():
    gs = GraphSet(Store())
    commit(gs, [1], [(5, 1, 1)], [], [])
    assert snapshot(gs) == {1: (frozenset({1}), frozenset({5}))}


def test_edge_removal_can_split_a_component():
    gs = GraphSet(Store())
    commit(gs, [1, 2, 3], [(10, 1, 2), (11, 2, 3)], [], [])
    assert len(gs.components()) == 1
    commit(gs, [], [], [], [11])
    assert snapshot(gs) == {
        1: (frozenset({1, 2}), frozenset({10})),
        3: (frozenset({3}), frozenset()),
    }


def test_parallel_edge_removal_keeps_the_component_joined():
    gs = GraphSet(Store())
    commit(gs, [1, 2], [(10, 1, 2), (11, 1, 2)], [], [])
    commit(gs, [], [], [], [10])
    assert snapshot(gs) == {1: (frozenset({1, 2}), frozenset({11}))}


def test_node_removal_takes_its_edges_along():
    gs = GraphSet(Store())
    commit(gs, [1, 2, 3], [(10, 1, 2), (11, 2, 3)], [], [])
    commit(gs, [], [], [2], [10, 11])
    assert snapshot(gs) == {
        1: (frozenset({1}), frozenset()),
        3: (frozenset({3}), frozenset()),
    }


def test_unknown_uid_has_no_component():
    gs = GraphSet(Store())
    with pytest.raises(StorageError):
        gs.component_of(9)


def test_random_delta_sequences_match_union_find():
    rng = random.Random(7)
    for _ in range(60):
        gs = GraphSet(Store())
        nodes: set[int] = set()
        edges: dict[int, tuple[int, int]] = {}
        next_uid = 1
        for _step in range(rng.randint(1, 25)):
            add_n, add_e, rem_n, rem_e = [], [], [], []
            choice = rng.random()
            if choice < 0.45 or not nodes:
                for _ in range(rng.randint(1, 3)):
                    add_n.append(next_uid)
                    next_uid += 1
            elif choice < 0.8:
                pool = sorted(nodes)
                for _ in range(rng.randint(1, 3)):
                    add_e.append((next_uid, rng.choice(pool), rng.choice(pool)))
                    next_uid += 1
            elif choice < 0.9 and edges:
                rem_e = rng.sample(sorted(edges), min(len(edges), rng.randint(1, 2)))
            else:
                victims = rng.sample(sorted(nodes), min(len(nodes), 1))
                rem_n = victims
                rem_e = [e for e, (t, h) in edges.items() if t in victims or h in victims]
            commit(gs, add_n, add_e, rem_n, rem_e)
            nodes.update(add_n)
            for e, t, h in add_e:
                edges[e] = (t, h)
            for e in rem_e:
                edges.pop(e, None)
            for v in rem_n:
                nodes.discard(v)
            assert snapshot(gs) == oracle_snapshot(nodes, edges)


def test_registry_follows_committed_statements():
    db = Database()
    db.execute("CREATE (a:P {n:1})-[:E]->(b:P {n:2}), (c:P {n:3})")
    reps = {c.representative: set(c.nodes) for c in db.graphs.components()}
    assert reps == {1: {1, 2}, 3: {3}}
    db.execute("MATCH (a {n:1}), (c {n:3}) THEN CREATE (a)-[:E]->(c) END")
    assert {c.representative for c in db.graphs.components()} == {1}
    db.execute("MATCH (b {n:2}) DELETE b CASCADE")
    reps = {c.representative: set(c.nodes) for c in db.graphs.components()}
    assert reps == {1: {1, 3}}


def test_cutting_a_bridge_searches_about_twice_the_small_side(monkeypatch):
    """Deleting the edge between an 800-node and a 5-node component adds no
    edge back, expands about twice the small side's nodes, and leaves the
    large side in its old component object."""
    gs = GraphSet(Store())
    big, small = range(1, 801), range(801, 806)
    commit(gs, [*big, *small],
           [(1000 + u, u, u + 1) for u in [*big[:-1], *small[:-1]]] + [(2000, 400, 801)])
    old = gs.component_of(1)
    added, expanded = [], set()
    monkeypatch.setattr(gs, "add_edge", lambda *args: added.append(args))
    real = storage.ReadView.edges_adjacent
    monkeypatch.setattr(storage.ReadView, "edges_adjacent",
                        lambda view, uid, *rest: expanded.add(uid) or real(view, uid, *rest))
    commit(gs, removed_edges=[2000])
    assert added == []
    assert len(expanded) <= 2 * len(small) + 2
    assert gs.component_of(400) is old and old.nodes == set(big)
    assert snapshot(gs)[801] == (frozenset(small), frozenset(range(1801, 1805)))


GRAPH_SCHEMA = ("create type N as (K int) nodetype",
                "alter table N add primary key(K)",
                "create type E as (W int) edgetype (leaving N, arriving N)")


def graph_statement(rng):
    i, j, w = rng.randint(0, 11), rng.randint(0, 11), rng.randint(0, 3)
    return rng.choice([
        f"CREATE (:N {{K: {i}}})",
        f"CREATE (:N {{K: {i}}})-[:E {{W: {w}}}]->(:N {{K: {j}}})",
        f"MATCH (a:N {{K: {i}}}), (b:N {{K: {j}}}) CREATE (a)-[:E {{W: {w}}}]->(b)",
        f"MATCH (a:N {{K: {i}}}), (b:N {{K: {j}}}) CREATE (a)-[:E {{W: {w}}}]->(b)",
        f"MATCH (a:N {{K: {i}}}) CREATE (a)-[:E {{W: {w}}}]->(a)",  # a self-loop
        f"MATCH (a:N {{K: {i}}}), (b:N) CREATE (a)-[:E {{W: {w}}}]->(b)",  # a hub
        f"MATCH ()-[e:E {{W: {w}}}]->() DELETE e",  # several edges in one commit
        f"MATCH (a:N {{K: {i}}}) DELETE a CASCADE",
        f"MATCH ()-[e:E {{W: {w}}}]->() SET e.LEAVING = {i}",
        f"MATCH ()-[e:E]->(b:N {{K: {i}}}) SET e.ARRIVING = {j}, e.W = {w}",
        f"MATCH (a:N {{K: {i}}}) SET a.K = {j + 20}",
    ])


@pytest.mark.parametrize("seed", range(8))
def test_committed_statements_match_union_find(seed):
    """After every commit of a seeded stream of auto-commit statements and
    BEGIN blocks, the registry equals a union-find over the committed rows,
    and every node's component is the object that lists it."""
    rng = random.Random(seed)
    db = Database()
    for text in GRAPH_SCHEMA:
        db.execute(text)
    session = db.session()
    for _ in range(150):
        block = [graph_statement(rng) for _ in range(rng.choice([1, 1, 1, 2, 4]))]
        if len(block) > 1:
            block = ["BEGIN", *block, rng.choice(["COMMIT", "COMMIT", "ROLLBACK"])]
        for text in block:
            try:
                session.execute(text)
            except GraphTablesError:
                pass
        view = db.read_view()
        rows = [row for row in map(view.get_row, range(1, db.peek_uid())) if row is not None]
        nodes = {row.uid for row in rows if row.ends is None}
        edges = {row.uid: row.ends for row in rows if row.ends is not None}
        assert snapshot(db.graphs) == oracle_snapshot(nodes, edges)
        for comp in db.graphs.components():
            assert all(db.graphs.component_of(uid) is comp for uid in comp.nodes)


def test_a_commit_stamps_each_component_it_changes_with_its_seq(tmp_path):
    """`seq` is the seq of the last commit that changed a component's
    membership or wrote one of its rows: a link, both pieces of an unlink,
    a node or edge SET, an edge delete and a DELETE ... CASCADE stamp it, and a
    rolled-back or refused commit stamps nothing.  The same holds in a
    database just reopened, whose components all hold the open's seq."""
    path = tmp_path / "stamps.db"
    db = Database(path)
    for text in GRAPH_SCHEMA:
        db.execute(text)
    db.execute("CREATE (:N {K: 1})-[:E {W: 0}]->(:N {K: 2}), (:N {K: 3})-[:E {W: 0}]->(:N {K: 4}), "
               "(:N {K: 5})")
    log = path.read_bytes()
    check_stamps(db)
    db.close()
    path.write_bytes(log)
    db = Database(path)
    assert {comp.seq for comp in db.graphs.components()} == {db.store.commit_seq}
    check_stamps(db)
    db.close()


def check_stamps(db):
    """The stamping checks, on `db` just after the CREATE above."""
    uid = {row.values["K"]: row.uid
           for row in db.read_view().scan_type({db.catalog.lookup_label("N").type_id})}

    def stamps():
        """Node K -> its component's seq."""
        return {k: db.graphs.component_of(u).seq for k, u in uid.items()}

    def stamped(text):
        """The nodes whose component `text`'s commit stamped with its seq;
        every other stamp stays as it was."""
        old = stamps()
        db.execute(text)
        new, seq = stamps(), db.store.commit_seq
        assert all(new[k] in (old[k], seq) for k in new)
        return {k for k in new if new[k] == seq != old[k]}

    assert stamped("MATCH (a:N {K: 2}), (b:N {K: 3}) CREATE (a)-[:E {W: 1}]->(b)") == {1, 2, 3, 4}
    assert stamped("MATCH ()-[e:E {W: 1}]->() DELETE e") == {1, 2, 3, 4}
    assert db.graphs.component_of(uid[1]) is not db.graphs.component_of(uid[3])
    assert stamped("MATCH (a:N {K: 5}) SET a.K = 6") == {5}
    assert stamped("MATCH (:N {K: 3})-[e:E]->() SET e.W = 5") == {3, 4}
    assert stamped("MATCH (a:N {K: 6}) CREATE (a)-[:E {W: 2}]->(a)") == {5}
    assert stamped("MATCH ()-[e:E {W: 2}]->() DELETE e") == {5}
    del uid[2]
    assert stamped("MATCH (a:N {K: 2}) DELETE a CASCADE") == {1}
    session, old = db.session(), stamps()
    for text in ("BEGIN", "MATCH (a:N {K: 1}) SET a.K = 7", "MATCH (a:N {K: 3}) DELETE a CASCADE",
                 "ROLLBACK"):
        session.execute(text)
    assert stamps() == old
    with pytest.raises(GraphTablesError):
        db.execute("MATCH (a:N {K: 1}) SET a.K = 4")  # K is the key
    assert stamps() == old


def registry(db):
    """Representative -> (node uids, edge uids) of every component."""
    return {comp.representative: (comp.nodes, comp.edges) for comp in db.graphs.components()}


@pytest.mark.parametrize("seed", range(6))
def test_reopen_rebuilds_each_component_with_its_writers_seq(tmp_path, seed):
    """A seeded stream of merges, splits, retargets and cascades: the
    registry that reopen builds from the live rows equals the writer's in
    membership and representatives, and each component holds the open's seq,
    the writer's last."""
    rng = random.Random(seed)
    path = tmp_path / "graph.db"
    db = Database(path)
    for text in GRAPH_SCHEMA:
        db.execute(text)
    session = db.session()
    for _ in range(100):
        block = [graph_statement(rng) for _ in range(rng.choice([1, 1, 2]))]
        if len(block) > 1:
            block = ["BEGIN", *block, "COMMIT"]
        for text in block:
            try:
                session.execute(text)
            except GraphTablesError:
                pass
    written, seq = registry(db), db.store.commit_seq
    db.close()

    reopened = Database(path)
    assert registry(reopened) == written
    assert {comp.seq for comp in reopened.graphs.components()} == {seq}
    reopened.close()


def test_reopen_after_each_commit_of_a_split_and_merge_history_keeps_the_registry(tmp_path):
    path = tmp_path / "stamps.db"
    db = Database(path)
    for text in GRAPH_SCHEMA:
        db.execute(text)
    for text in ["CREATE (:N {K: 1})-[:E {W: 0}]->(:N {K: 2}), "
                 "(:N {K: 3})-[:E {W: 0}]->(:N {K: 4}), (:N {K: 5})",
                 "MATCH (a:N {K: 2}), (b:N {K: 3}) CREATE (a)-[:E {W: 1}]->(b)",
                 "CREATE (:N {K: 7})",
                 "MATCH ()-[e:E {W: 1}]->() DELETE e",
                 "MATCH (a:N {K: 5}) SET a.K = 6",
                 "MATCH (:N {K: 3})-[e:E]->() SET e.W = 5",
                 "MATCH ()-[e:E {W: 5}]->() SET e.LEAVING = 1",
                 "MATCH (a:N {K: 6}) CREATE (a)-[:E {W: 2}]->(a)",
                 "MATCH ()-[e:E {W: 2}]->() DELETE e",
                 "MATCH (a:N {K: 2}) DELETE a CASCADE",
                 "MATCH (a:N {K: 7}) DELETE a"]:
        db.execute(text)
        reopened = Database(path)
        assert registry(reopened) == registry(db), text
        assert {comp.seq for comp in reopened.graphs.components()} == {db.store.commit_seq}
        reopened.close()
    assert len({comp.seq for comp in db.graphs.components()}) == 3
    db.close()
