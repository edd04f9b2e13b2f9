"""The read-only HTTP endpoint: component documents, depth trimming, and the
error table."""

import datetime
import json
import random
import threading
import urllib.error
import urllib.parse
import urllib.request
from decimal import Decimal

import pytest

from graphtables.engine import Database
from graphtables.httpd import build_document, parse_anchor_value, serve_in_thread

from conftest import FAMILY_CREATE
from oracles import graph_from_db


# --- anchor literal parsing ---

@pytest.mark.parametrize("text,expected", [
    ("'Peter Smith'", "Peter Smith"),
    ("42", 42),
    ("3.99", Decimal("3.99")),
    ("DATE'2023-06-01'", datetime.date(2023, 6, 1)),
])
def test_parse_anchor_value_literals(text, expected):
    assert parse_anchor_value(text) == expected


@pytest.mark.parametrize("text", ["", "1 2", "name", "NODE"])
def test_parse_anchor_value_rejects_non_literals(text):
    with pytest.raises(ValueError):
        parse_anchor_value(text)


# --- a served family database ---
# module scope: every test here reads, only the rekey test gets its own server

@pytest.fixture(scope="module")
def served():
    db = Database()
    db.execute(FAMILY_CREATE)
    server = serve_in_thread(db, 0)
    yield db, server.server_address[1]
    server.shutdown()


@pytest.fixture
def served_mutable(family):
    server = serve_in_thread(family, 0)
    yield family, server.server_address[1]
    server.shutdown()


def fetch(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def anchor_path(db="memory", role="ps", type_="Person", selector="NAME='Peter Smith'",
                query="?NODE"):
    return f"/{db}/{role}/{type_}/{urllib.parse.quote(selector)}{query}"


def test_component_document(served):
    _family, port = served
    status, doc = fetch(port, anchor_path())
    assert status == 200
    assert doc == {
        "anchor": 2,
        "representative": 1,
        "nodes": [
            {"uid": 1, "type": "PERSON", "key": 1,
             "properties": {"ID": 1, "NAME": "Fred Smith"}},
            {"uid": 2, "type": "PERSON", "key": 2,
             "properties": {"ID": 2, "NAME": "Peter Smith"}},
            {"uid": 3, "type": "PERSON", "key": 3,
             "properties": {"ID": 3, "NAME": "Mary Smith"}},
            {"uid": 4, "type": "PERSON", "key": 4,
             "properties": {"ID": 4, "NAME": "Lee Smith"}},
            {"uid": 5, "type": "PERSON", "key": 5,
             "properties": {"ID": 5, "NAME": "Bill Smith"}},
        ],
        "edges": [
            {"uid": 6, "type": "CHILD", "leaving": 2, "arriving": 1,
             "properties": {"ID": 6}},
            {"uid": 7, "type": "CHILD", "leaving": 1, "arriving": 3,
             "properties": {"ID": 7}},
            {"uid": 8, "type": "CHILD", "leaving": 3, "arriving": 4,
             "properties": {"ID": 8}},
            {"uid": 9, "type": "CHILD", "leaving": 3, "arriving": 5,
             "properties": {"ID": 9}},
        ],
    }


def test_document_bytes_are_unchanged(family):
    family.execute("CREATE TYPE Adult UNDER Person AS (Since DATE, Pay CURRENCY)")
    family.execute("MATCH (p:Person {Name: 'Bill Smith'}) CREATE (p)-[:Child {Note: 'adopted', "
                   "Share: 0.5}]->(:Person:Adult {Name: 'Ann Smith', Since: DATE'2020-01-02', "
                   "Pay: 12.50€})")
    body = json.dumps(build_document(family, 2, None), ensure_ascii=False)
    assert body == (
        '{"anchor": 2, "representative": 1, "nodes": ['
        '{"uid": 1, "type": "PERSON", "key": 1, "properties": {"ID": 1, "NAME": "Fred Smith"}}, '
        '{"uid": 2, "type": "PERSON", "key": 2, "properties": {"ID": 2, "NAME": "Peter Smith"}}, '
        '{"uid": 3, "type": "PERSON", "key": 3, "properties": {"ID": 3, "NAME": "Mary Smith"}}, '
        '{"uid": 4, "type": "PERSON", "key": 4, "properties": {"ID": 4, "NAME": "Lee Smith"}}, '
        '{"uid": 5, "type": "PERSON", "key": 5, "properties": {"ID": 5, "NAME": "Bill Smith"}}, '
        '{"uid": 10, "type": "ADULT", "key": 10, "properties": {"ID": 10, "NAME": "Ann Smith", '
        '"SINCE": "2020-01-02", "PAY": {"amount": "12.50", "code": "EUR"}}}], "edges": ['
        '{"uid": 6, "type": "CHILD", "leaving": 2, "arriving": 1, "properties": {"ID": 6}}, '
        '{"uid": 7, "type": "CHILD", "leaving": 1, "arriving": 3, "properties": {"ID": 7}}, '
        '{"uid": 8, "type": "CHILD", "leaving": 3, "arriving": 4, "properties": {"ID": 8}}, '
        '{"uid": 9, "type": "CHILD", "leaving": 3, "arriving": 5, "properties": {"ID": 9}}, '
        '{"uid": 11, "type": "CHILD", "leaving": 5, "arriving": 10, '
        '"properties": {"ID": 11, "NOTE": "adopted", "SHARE": "0.5"}}]}')


def test_component_document_after_rekey(served_mutable):
    family, port = served_mutable
    family.execute("ALTER TABLE Person ADD PRIMARY KEY (Name)")
    family.execute("ALTER TABLE Person DROP Id")
    status, doc = fetch(port, anchor_path())
    assert status == 200
    first = doc["nodes"][0]
    assert first == {"uid": 1, "type": "PERSON", "key": "Fred Smith",
                     "properties": {"NAME": "Fred Smith"}}
    assert doc["edges"][0]["leaving"] == "Peter Smith"
    assert doc["edges"][0]["arriving"] == "Fred Smith"


@pytest.mark.parametrize("depth,node_uids,edge_uids", [
    (0, [2], []),
    (1, [1, 2], [6]),
    (2, [1, 2, 3], [6, 7]),
    (9, [1, 2, 3, 4, 5], [6, 7, 8, 9]),
])
def test_depth_trims_to_a_neighborhood(served, depth, node_uids, edge_uids):
    _family, port = served
    status, doc = fetch(port, anchor_path(query=f"?NODE&depth={depth}"))
    assert status == 200
    assert [n["uid"] for n in doc["nodes"]] == node_uids
    assert [e["uid"] for e in doc["edges"]] == edge_uids


def test_huge_depth_stops_when_the_neighborhood_is_exhausted():
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:S]->(:P {N: 2})-[:S]->(:P {N: 3})")
    docs = []
    worker = threading.Thread(target=lambda: docs.append(build_document(db, 1, 10**12)),
                              daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert [n["uid"] for n in docs[0]["nodes"]] == [1, 2, 3]


class _CommitOnRelease:
    """Stands in for a database's commit lock; its first release runs
    `statement`, so the statement commits right after the lock is left."""

    def __init__(self, db, statement):
        self.db, self.lock, self.statement = db, db.commit_lock, statement

    def __enter__(self):
        return self.lock.__enter__()

    def __exit__(self, *exc):
        self.lock.__exit__(*exc)
        statement, self.statement = self.statement, None
        if statement is not None:
            self.db.execute(statement)
        return False


def test_document_reads_the_catalog_of_its_snapshot():
    db = Database()
    db.execute("CREATE (:P {Tag: 'a'})-[:E]->(:P {Tag: 'b'})")
    db.commit_lock = _CommitOnRelease(db, "ALTER TABLE P ADD PRIMARY KEY (Tag)")
    doc = build_document(db, 1, None)
    assert db.commit_lock.statement is None  # the ALTER committed meanwhile
    assert [n["key"] for n in doc["nodes"]] == [1, 2]
    assert [(e["leaving"], e["arriving"]) for e in doc["edges"]] == [(1, 2)]
    doc = build_document(db, 1, None)
    assert [n["key"] for n in doc["nodes"]] == ["a", "b"]
    assert [(e["leaving"], e["arriving"]) for e in doc["edges"]] == [("a", "b")]


def oracle_neighborhood(g, anchor, depth):
    """Node uids within `depth` hops of `anchor`, edge direction ignored
    (no bound for None), and [(edge uid, tail, head)] of the edges with
    both ends among them."""
    keep, frontier, hops = {anchor}, [anchor], 0
    while frontier and (depth is None or hops < depth):
        nxt = []
        for uid in frontier:
            for _label, tail, head in g.edges.values():
                if uid in (tail, head):
                    for other in (tail, head):
                        if other not in keep:
                            keep.add(other)
                            nxt.append(other)
        frontier, hops = nxt, hops + 1
    edges = sorted((e, t, h) for e, (_label, t, h) in g.edges.items()
                   if t in keep and h in keep)
    return sorted(keep), edges


@pytest.mark.parametrize("seed", range(8))
def test_document_is_the_breadth_first_neighborhood(seed):
    # node keys are the automatic integer IDs, which equal the uids
    rng = random.Random(6600 + seed)
    db = Database()
    count = rng.randint(2, 9)
    db.execute("CREATE " + ", ".join("(:P)" for _ in range(count)))
    nodes, edges = list(range(1, count + 1)), []
    for _ in range(rng.randint(2, 16)):
        roll = rng.random()
        t, h = rng.choice(nodes), rng.choice(nodes)
        if roll < 0.45 or not edges:
            h = t if roll < 0.1 else h  # a self-loop
            edges.append(db.peek_uid())
            db.execute(f"MATCH (x:P {{Id: {t}}}), (y:P {{Id: {h}}}) CREATE (x)-[:S]->(y)")
        elif roll < 0.6:  # a parallel edge
            edges.append(db.peek_uid())
            db.execute(f"MATCH (x)-[e:S]->(y) WHERE e.Id = {rng.choice(edges[:-1])} "
                       "CREATE (x)-[:S]->(y)")
        elif roll < 0.85:
            side = rng.choice(["LEAVING", "ARRIVING"])
            db.execute(f"MATCH ()-[e:S]->() WHERE e.Id = {rng.choice(edges)} SET e.{side} = {t}")
        elif roll < 0.93:
            victim = rng.choice(edges)
            db.execute(f"MATCH ()-[e:S]->() WHERE e.Id = {victim} DELETE e")
            edges.remove(victim)
        elif len(nodes) > 1:
            db.execute(f"MATCH (x:P {{Id: {t}}}) DELETE x CASCADE")
            nodes.remove(t)
            edges = [e for e in edges if db.store.latest(e) is not None]
    g = graph_from_db(db)
    for anchor in nodes:
        for depth in (0, 1, 2, 3, None):
            doc = build_document(db, anchor, depth)
            got = ([n["uid"] for n in doc["nodes"]],
                   [(e["uid"], e["leaving"], e["arriving"]) for e in doc["edges"]])
            assert got == oracle_neighborhood(g, anchor, depth), (anchor, depth)


def test_database_name_is_case_insensitive(served):
    _family, port = served
    assert fetch(port, anchor_path(db="MEMORY"))[0] == 200
    assert fetch(port, anchor_path(db="Memory"))[0] == 200


def test_role_segment_is_ignored(served):
    _family, port = served
    assert fetch(port, anchor_path(role="whoever"))[0] == 200


def test_anchor_matches_any_column_value(served):
    _family, port = served
    status, doc = fetch(port, anchor_path(selector="ID=4"))
    assert status == 200
    assert doc["anchor"] == 4
    assert len(doc["nodes"]) == 5


# --- refusals ---

@pytest.mark.parametrize("path,status,needle", [
    # query string problems
    (anchor_path(query=""), 400, "only ?NODE"),
    (anchor_path(query="?NODE&full=1"), 400, "unsupported query parameter"),
    (anchor_path(query="?NODE&depth=x"), 400, "depth must be an integer"),
    (anchor_path(query="?NODE&depth=-1"), 400, "non-negative"),
    # path shape problems
    ("/memory/Person/NAME='x'?NODE", 400, "expected /"),
    (anchor_path(selector="NAME"), 400, "anchor selector"),
    (anchor_path(selector="NAME=Peter"), 400, "unsupported anchor value"),
    (anchor_path(selector="NAME='a' 'b'"), 400, "single literal"),
    # lookups that miss
    (anchor_path(db="other"), 404, "unknown database"),
    (anchor_path(type_="Robot"), 404, "unknown node type"),
    (anchor_path(selector="SHOE='44'"), 404, "no column"),
    (anchor_path(selector="NAME='Nobody'"), 404, "no PERSON with"),
])
def test_refusals(served, path, status, needle):
    _family, port = served
    got_status, doc = fetch(port, path)
    assert got_status == status
    assert needle in doc["error"]


def test_percent_encoded_quotes_and_spaces(served):
    _family, port = served
    path = "/memory/ps/Person/NAME%3D%27Peter%20Smith%27?NODE"
    status, doc = fetch(port, path)
    assert status == 200
    assert doc["anchor"] == 2
