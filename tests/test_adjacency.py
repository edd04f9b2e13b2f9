"""Edge adjacency as readers see it: snapshots keep the ends an edge had when
they began, and a node keeps its committed edges while its key changes."""

import time

import pytest

from graphtables import Database
from timing import assert_linear

PAIRS = "MATCH (a:P)-[:R]->(b:P) RETURN a.N, b.N"


@pytest.fixture
def pair(db):
    db.execute("create type P as (N int) nodetype")
    db.execute("create type R as (W int) edgetype (leaving P, arriving P)")
    db.execute("alter table P add primary key(N)")
    db.execute("CREATE (:P {N: 1})-[:R]->(:P {N: 2})")
    return db


def test_open_reader_keeps_an_edge_deleted_and_added_reversed(pair):
    reader = pair.session()
    reader.execute("BEGIN")
    assert reader.execute(PAIRS).rows == [[1, 2]]
    pair.execute("MATCH (:P {N: 1})-[e:R]->(:P {N: 2}) DELETE e")
    pair.execute("MATCH (a:P {N: 1}), (b:P {N: 2}) CREATE (b)-[:R]->(a)")
    assert reader.execute(PAIRS).rows == [[1, 2]]
    assert pair.execute(PAIRS).rows == [[2, 1]]
    reader.execute("COMMIT")
    assert reader.execute(PAIRS).rows == [[2, 1]]


def test_open_reader_keeps_an_edge_retargeted_by_set(pair):
    reader = pair.session()
    reader.execute("BEGIN")
    assert reader.execute(PAIRS).rows == [[1, 2]]
    pair.execute("MATCH ()-[e:R]->() SET e.LEAVING = 2, e.ARRIVING = 1")
    assert reader.execute(PAIRS).rows == [[1, 2]]
    assert pair.execute(PAIRS).rows == [[2, 1]]
    reader.execute("COMMIT")
    assert reader.execute(PAIRS).rows == [[2, 1]]


def test_rekeyed_node_keeps_its_committed_edges_inside_the_transaction(pair):
    sess = pair.session()
    sess.execute("BEGIN")
    sess.execute("MATCH (a:P {N: 1}) THEN SET a.N = 10 END")
    assert sess.execute(PAIRS).rows == [[10, 2]]
    assert sess.execute("MATCH (b:P)<-[:R]-(a:P) RETURN b.N, a.N").rows == [[2, 10]]
    sess.execute("COMMIT")
    assert pair.execute(PAIRS).rows == [[10, 2]]


def test_edge_updated_after_its_node_is_rekeyed_commits_with_the_new_key(pair):
    sess = pair.session()
    sess.execute("BEGIN")
    sess.execute("MATCH (b:P {N: 2}) THEN SET b.N = 20 END")
    sess.execute("MATCH ()-[e:R]->() SET e.W = 5")
    sess.execute("COMMIT")
    assert pair.execute("MATCH (a:P)-[e:R]->(b:P) RETURN a.N, b.N, e.W").rows == [[1, 20, 5]]


def test_one_create_of_a_long_chain_commits_and_replays_quickly(tmp_path):
    path = tmp_path / "chain.db"
    db = Database(path)
    db.execute("create type C as (N int) nodetype")
    db.execute("create type L as () edgetype (leaving C, arriving C)")
    chain = "(:C {N: 0})" + "".join(f"-[:L]->(:C {{N: {i}}})" for i in range(1, 2001))
    started = time.perf_counter()
    db.execute("CREATE " + chain)
    assert time.perf_counter() - started < 5.0
    db.close()
    started = time.perf_counter()
    db = Database(path)
    assert time.perf_counter() - started < 5.0
    assert len(db.execute("MATCH (a:C)-[:L]->(b:C) RETURN a.N").rows) == 2000
    db.close()


def chain_db():
    db = Database()
    db.execute("create type C as (N int) nodetype")
    db.execute("create type L as () edgetype (leaving C, arriving C)")
    return db


def chain(n: int) -> str:
    return "(:C {N: 0})" + "".join(f"-[:L]->(:C {{N: {i}}})" for i in range(1, n + 1))


CHAIN_6000 = chain(6000)


def test_one_create_of_a_long_chain_under_a_cardinality_rule_commits_quickly():
    def create(n):
        db = chain_db()
        db.execute("alter type L set cardinality leaving 0..1 arriving 0..1")
        text = "CREATE " + chain(n)
        started = time.perf_counter()
        db.execute(text)
        elapsed = time.perf_counter() - started
        assert len(db.execute("MATCH (a:C)-[:L]->(b:C) RETURN a.N").rows) == n
        return elapsed
    assert_linear(create, 1500)


def test_commit_of_many_staged_edges_and_cascade_deletes_is_quick():
    db = chain_db()
    db.execute("CREATE " + CHAIN_6000)
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("MATCH (a:C)-[:L]->(b:C) CREATE (a)-[:M]->(b)")
    sess.execute("MATCH (c:C) DELETE c CASCADE")
    started = time.perf_counter()
    sess.execute("COMMIT")
    assert time.perf_counter() - started < 2.0
    assert db.execute("MATCH (c:C) RETURN c.N").rows == []
    assert db.execute("SHOW GRAPHS").rows == []
