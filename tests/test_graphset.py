"""Incremental connected components against a from-scratch union-find.

The registry reads edge endpoints from the store, so each case runs a
`GraphSet` over a real `Store` and publishes every delta to both, store
first, as a commit does."""

import random

import pytest

from graphtables import Database
from graphtables.errors import StorageError
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
    store.apply(store.commit_seq + 1, final)
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
