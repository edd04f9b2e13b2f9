"""The read-only HTTP endpoint: component documents, depth trimming, and the
error table."""

import datetime
import gc
import json
import os
import pathlib
import random
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request
import weakref
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtables import httpd, storage, values
from graphtables.catalog import ColumnDescriptor
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


def test_blanks_before_a_bad_character_are_rejected_in_bounded_time():
    """A selector value with thousands of blanks before a character no token
    starts with is refused promptly.  The regex engine keeps the interpreter
    while it backtracks, so the time bound is put on a child process."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("from graphtables.httpd import parse_anchor_value\n"
            "try:\n    parse_anchor_value('1' + ' ' * 4000 + '@')\n"
            "except Exception as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.stdout.strip() == "line 1:4002: unexpected character '@'"


# --- a served family database ---
# module scope: every test here reads, only the rekey test gets its own server

@pytest.fixture(scope="module")
def served():
    db = Database()
    db.execute(FAMILY_CREATE)
    server = serve_in_thread(db, 0)
    yield db, server.server_address[1]
    server.shutdown()
    server.server_close()


@pytest.fixture
def served_mutable(family):
    server = serve_in_thread(family, 0)
    yield family, server.server_address[1]
    server.shutdown()
    server.server_close()


def fetch_body(port, path):
    """The status and the undecoded body of a GET."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def fetch(port, path):
    status, body = fetch_body(port, path)
    return status, json.loads(body.decode("utf-8"))


def by_id(db, uid):
    """The selector of the node whose automatic ID key, which every node
    type here has, is `uid`."""
    return [d.type_id for d in db.catalog.types("node")], "ID", uid


def document(db, anchor_uid, depth):
    """`build_document` with each node's and edge's JSON text decoded."""
    doc = build_document(db, by_id(db, anchor_uid), depth)
    return {**doc, "nodes": [json.loads(text) for text in doc["nodes"]],
            "edges": [json.loads(text) for text in doc["edges"]]}


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


def test_document_bytes_are_unchanged(served_mutable):
    family, port = served_mutable
    family.execute("CREATE TYPE Adult UNDER Person AS (Since DATE, Pay CURRENCY)")
    family.execute("MATCH (p:Person {Name: 'Bill Smith'}) CREATE (p)-[:Child {Note: 'adopted', "
                   "Share: 0.5}]->(:Person:Adult {Name: 'Ann Smith', Since: DATE'2020-01-02', "
                   "Pay: 12.50€})")
    status, body = fetch_body(port, anchor_path(selector="ID=2"))
    assert status == 200
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
        '"properties": {"ID": 11, "NOTE": "adopted", "SHARE": "0.5"}}]}').encode("utf-8")


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
    worker = threading.Thread(target=lambda: docs.append(document(db, 1, 10**12)),
                              daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert [n["uid"] for n in docs[0]["nodes"]] == [1, 2, 3]


class _CommitAtLock:
    """Stands in for a database's commit lock: `statement` commits once,
    just before the lock's first acquire (`before`) or just after its first
    release."""

    def __init__(self, db, statement, before=False):
        self.db, self.lock, self.statement, self.before = db, db.commit_lock, statement, before

    def _commit(self):
        statement, self.statement = self.statement, None
        if statement is not None:
            self.db.execute(statement)

    def __enter__(self):
        if self.before:
            self._commit()
        return self.lock.__enter__()

    def __exit__(self, *exc):
        self.lock.__exit__(*exc)
        if not self.before:
            self._commit()
        return False


def test_document_reads_the_catalog_of_its_snapshot():
    db = Database()
    db.execute("CREATE (:P {Tag: 'a'})-[:E]->(:P {Tag: 'b'})")
    db.commit_lock = _CommitAtLock(db, "ALTER TABLE P ADD PRIMARY KEY (Tag)")
    doc = document(db, 1, None)
    assert db.commit_lock.statement is None  # the ALTER committed meanwhile
    assert [n["key"] for n in doc["nodes"]] == [1, 2]
    assert [(e["leaving"], e["arriving"]) for e in doc["edges"]] == [(1, 2)]
    doc = document(db, 1, None)
    assert [n["key"] for n in doc["nodes"]] == ["a", "b"]
    assert [(e["leaving"], e["arriving"]) for e in doc["edges"]] == [("a", "b")]


class _CommitsAfterLock(_CommitAtLock):
    """Commits each of `statements` in turn just after the lock's first release."""

    def __init__(self, db, statements):
        super().__init__(db, list(statements))

    def _commit(self):
        statements, self.statement = self.statement, None
        for text in statements or ():
            self.db.execute(text)


def test_document_reads_its_snapshot_while_commits_prune():
    """Commits that unlink and relink the component after the document
    captured its snapshot, and each drop what no pin holds, leave the
    document's rows alone: its view pins them."""
    db = Database()
    db.execute("CREATE (a:P {N: 1})-[:E {W: 1}]->(b:P {N: 2})-[:E {W: 2}]->(c:P {N: 3})")
    lock = db.commit_lock
    db.commit_lock = _CommitsAfterLock(db, [
        "MATCH ()-[e:E]->() DELETE e",
        "MATCH (a:P {N: 1}), (b:P {N: 2}) CREATE (a)-[:E {W: 7}]->(b)",
        "MATCH (b:P {N: 2}), (c:P {N: 3}) CREATE (b)-[:E {W: 8}]->(c)",
        "MATCH (a:P {N: 1})-[e:E]->() SET e.ARRIVING = 3",
        "MATCH (p:P {N: 2}) SET p.N = 22",
    ])
    doc = document(db, 1, None)
    assert db.commit_lock.statement is None  # the five commits ran meanwhile
    assert [(n["uid"], n["properties"]["N"]) for n in doc["nodes"]] == [(1, 1), (2, 2), (3, 3)]
    assert [(e["properties"]["W"], e["leaving"], e["arriving"]) for e in doc["edges"]] == [
        (1, 1, 2), (2, 2, 3)]
    db.commit_lock = lock
    db.execute("MATCH (p:P {N: 3}) SET p.N = 33")
    assert all(len(versions) == 1 for versions in db.store._versions.values())
    assert sorted(db.store._versions) == [1, 2, 3, 6, 7]
    doc = document(db, 1, None)
    assert [(n["uid"], n["properties"]["N"]) for n in doc["nodes"]] == [(1, 1), (2, 22), (3, 33)]
    assert [(e["properties"]["W"], e["leaving"], e["arriving"]) for e in doc["edges"]] == [
        (7, 1, 3), (8, 2, 3)]


def test_anchor_deleted_before_its_document_is_read_answers_404(served_mutable):
    family, port = served_mutable
    family.commit_lock = _CommitAtLock(
        family, "MATCH (p:Person {Name: 'Peter Smith'}) DELETE p CASCADE", before=True)
    status, doc = fetch(port, anchor_path())
    assert family.commit_lock.statement is None  # the DELETE committed meanwhile
    assert status == 404
    assert "no PERSON with" in doc["error"]


def test_selector_is_matched_in_the_document_snapshot(served_mutable):
    family, port = served_mutable
    family.commit_lock = _CommitAtLock(
        family, "MATCH (p:Person {Name: 'Peter Smith'}) SET p.Name = 'Pete Smith'", before=True)
    status, doc = fetch(port, anchor_path())
    assert family.commit_lock.statement is None  # the rename committed meanwhile
    assert status == 404
    assert "no PERSON with" in doc["error"]
    status, doc = fetch(port, anchor_path(selector="NAME='Pete Smith'"))
    assert (status, doc["anchor"]) == (200, 2)


@pytest.mark.parametrize("depth", [None, 1])
def test_document_node_count_is_the_served_node_count(served, depth):
    # perfbench's tracer counts the nodes of a request as this length
    family, port = served
    query = "?NODE" if depth is None else f"?NODE&depth={depth}"
    status, doc = fetch(port, anchor_path(query=query))
    assert status == 200
    assert len(build_document(family, by_id(family, 2), depth)["nodes"]) == len(doc["nodes"])

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
            doc = document(db, anchor, depth)
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
    # a lexical error after a long run of blanks is answered within the fetch timeout
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


def test_segments_follow_the_identifier_rule():
    db = Database()
    db.execute('CREATE (:"Teil" {"Nr": 1})-[:R]->(:"Teil" {"Nr": 2})')
    server = serve_in_thread(db, 0)
    try:
        port = server.server_address[1]
        status, doc = fetch(port, "/memory/r/%22Teil%22/%22Nr%22=1?NODE")
        assert (status, doc["anchor"]) == (200, 1)
        assert [n["type"] for n in doc["nodes"]] == ["Teil", "Teil"]
        status, doc = fetch(port, "/memory/r/Teil/Nr=1?NODE")
        assert status == 404 and "unknown node type" in doc["error"]
        status, doc = fetch(port, "/memory/r/%22Teil%22/Nr=1?NODE")
        assert status == 404 and "has no column NR" in doc["error"]
        # a segment that is not one identifier is upper-cased whole
        db.execute('CREATE (:"A B" {"C D": 1})')
        status, doc = fetch(port, "/memory/r/a%20b/c%20d=1?NODE")
        assert (status, [n["type"] for n in doc["nodes"]]) == (200, ["A B"])
    finally:
        server.shutdown()
        server.server_close()


def test_a_quoted_column_may_hold_an_equals_sign():
    """The selector splits at its first `=` token, so a double-quoted
    column name may hold `=`, plain or percent-encoded."""
    db = Database()
    db.execute('CREATE (:P {"A=B": 1, "C": \'x=y\'})')
    server = serve_in_thread(db, 0)
    try:
        port = server.server_address[1]
        for selector in ("%22A=B%22=1", "%22A%3DB%22%3D1", "C='x=y'", "C%20=%20'x=y'"):
            status, doc = fetch(port, f"/memory/r/P/{selector}?NODE")
            assert (status, doc["anchor"]) == (200, 1), selector
        status, doc = fetch(port, "/memory/r/P/%22A=B%22=%271?NODE")
        assert status == 400 and "unterminated" in doc["error"]
    finally:
        server.shutdown()
        server.server_close()


# --- the serving model ---

@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def _in_thread(*calls):
    """Run `calls` in turn on a daemon thread; the thread, so that a test can
    bound the wait with a join timeout instead of hanging."""
    thread = threading.Thread(target=lambda: [call() for call in calls], daemon=True)
    thread.start()
    return thread


def test_sequential_requests_reuse_a_handler_thread(started_threads):
    db = Database()
    db.execute(FAMILY_CREATE)
    server = serve_in_thread(db, 0)
    port = server.server_address[1]
    try:
        del started_threads[:]  # the serving loop's own thread
        for _ in range(50):
            assert fetch(port, anchor_path())[0] == 200
        assert len(started_threads) <= 2
    finally:
        server.shutdown()
        server.server_close()


def test_a_silent_connection_delays_neither_other_clients_nor_close():
    db = Database()
    db.execute(FAMILY_CREATE)
    server = serve_in_thread(db, 0)
    port = server.server_address[1]
    silent = [socket.create_connection(("127.0.0.1", port)) for _ in range(3)]
    try:
        answered = []
        fetcher = _in_thread(lambda: answered.append(fetch(port, anchor_path())[0]))
        fetcher.join(timeout=10)
        assert answered == [200]
        closer = _in_thread(server.shutdown, server.server_close)
        closer.join(timeout=10)
        assert not closer.is_alive()
    finally:
        for sock in silent:
            sock.close()


def test_close_ends_every_handler_thread(started_threads):
    db = Database()
    db.execute(FAMILY_CREATE)
    server = serve_in_thread(db, 0)
    port = server.server_address[1]
    statuses = []
    fetchers = [_in_thread(*[lambda: statuses.append(fetch(port, anchor_path())[0])] * 5)
                for _ in range(4)]
    for fetcher in fetchers:
        fetcher.join(timeout=30)
    assert statuses == [200] * 20
    handlers = [t for t in started_threads[1:] if t not in fetchers]
    assert handlers
    closer = _in_thread(server.shutdown, server.server_close)
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert [t for t in handlers if t.is_alive()] == []


# --- the memo of row texts ---

def _cold_document(log, tmp_path, selector, depth):
    """The document a freshly reopened copy of the log at `log` serves."""
    copy = tmp_path / "cold.db"
    copy.write_bytes(log.read_bytes())
    cold = Database(copy)
    try:
        return build_document(cold, selector, depth)
    finally:
        cold.close()


@pytest.mark.parametrize("seed", range(3))
def test_documents_equal_the_documents_of_a_reopened_log(tmp_path, seed):
    """Along a seeded history of row and schema changes, every document
    equals the one a reopened copy of the log renders cold: a text is
    reused only for the same row version under the same catalog, and a
    whole document only while its component's seq and the catalog hold."""
    rng = random.Random(8800 + seed)
    log = tmp_path / "live.db"
    db = Database(log)
    serial = iter(range(100, 10**6))
    db.execute("CREATE (:P {N: 1, V: 'a'})-[:S]->(:P {N: 2, V: 'b'})-[:S]->(:P {N: 3, V: 'c'}), "
               "(:P {N: 4, V: 'd'})")
    schema = {12: "ALTER TABLE P ADD COLUMN W INT", 24: "ALTER TABLE P ADD PRIMARY KEY (N)",
              36: "ALTER TABLE P DROP COLUMN V"}

    def rows(label):
        return list(db.read_view().scan_type({db.catalog.lookup_label(label).type_id}))

    def compare(anchors, depths, times=1):
        """Anchors are named by N, which stays unique (IDs after the rekey
        are NULL); each document is fetched `times` times."""
        for n in anchors:
            for depth in depths:
                selector = ([db.catalog.lookup_label("P").type_id], "N", n)
                cold = _cold_document(log, tmp_path, selector, depth)
                for _ in range(times):
                    assert build_document(db, selector, depth) == cold, (n, depth)

    for step in range(48):
        if step in schema:
            compare([r.values["N"] for r in rows("P")], [None])
            db.execute(schema[step])
            compare([r.values["N"] for r in rows("P")], [None])
            continue
        live, roll = [r.values["N"] for r in rows("P")], rng.random()
        n = rng.choice(live)
        if roll < 0.15 or len(live) < 3:
            db.execute(f"MATCH (a:P {{N: {n}}}) CREATE (a)-[:S]->(:P {{N: {next(serial)}}})")
        elif roll < 0.35:
            column = rng.choice(["V"] * (step < 36) + ["W"] * (step > 12))
            value = f"'{rng.choice('xyz')}'" if column == "V" else rng.randint(0, 9)
            db.execute(f"MATCH (a:P {{N: {n}}}) SET a.{column} = {value}")
        elif roll < 0.5:
            db.execute(f"MATCH (a:P {{N: {n}}}) SET a.N = {next(serial)}")
        elif roll < 0.7:
            db.execute(f"MATCH (a:P {{N: {n}}}), (b:P {{N: {rng.choice(live)}}}) "
                       "CREATE (a)-[:S]->(b)")
        elif roll < 0.85 and rows("S"):
            db.execute(f"MATCH ()-[e:S]->() WHERE e.Id = {rng.choice(rows('S')).uid} DELETE e")
        else:
            db.execute(f"MATCH (a:P {{N: {n}}}) DELETE a CASCADE")
        live = [r.values["N"] for r in rows("P")]
        compare(rng.sample(live, min(3, len(live))), [rng.choice([None, 1, 2])])
        compare(rng.sample(live, min(1, len(live))), [None], times=2)  # a miss, then a hit
    db.close()


def test_the_memo_holds_one_text_per_uid_and_one_map_per_database():
    db = Database()
    db.execute("CREATE (:P {N: 1, V: 0})-[:S]->(:P {N: 2, V: 0})")
    for i in range(1, 1001):
        db.execute(f"MATCH (p:P {{N: 1}}) SET p.V = {i}")
        doc = build_document(db, by_id(db, 1), None)
    assert json.loads(doc["nodes"][0])["properties"]["V"] == 1000
    catalog, entries = httpd._texts[db]
    component = db.graphs.component_of(1)
    assert catalog is db.catalog and list(entries) == [component]
    seq, texts, nodes, edges = entries[component]
    assert seq == component.seq and sorted(texts) == [1, 2, 3]
    assert [texts[uid][1] for uid in (1, 2)] == nodes and [texts[3][1]] == edges
    db.execute("ALTER TABLE P ADD COLUMN W INT")
    build_document(db, by_id(db, 2), 0)
    catalog, entries = httpd._texts[db]
    assert catalog is db.catalog and list(entries) == [component]
    assert sorted(entries[component][1]) == [2] and entries[component][2] is None
    # the memo keeps no database alive, so a dropped one takes its map along
    dropped = weakref.ref(db)
    del db, catalog, entries, component
    gc.collect()
    assert dropped() is None


def test_a_whole_document_keeps_no_text_of_a_deleted_row():
    """Rows deleted from a component that stays whole leave no text behind
    once the component is fetched whole again."""
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:S]->(:P {N: 2})-[:S]->(:P {N: 3})-[:S]->(:P {N: 4})")
    db.execute("MATCH (a:P {N: 1}), (b:P {N: 2}) CREATE (a)-[:S]->(b)")
    p_type = db.catalog.lookup_label("P").type_id
    uids = {row.values["N"]: row.uid for row in db.read_view().scan_type({p_type})}
    parallel = max(db.graphs.component_of(uids[1]).edges)
    for depth in (None, 0, 1):
        build_document(db, by_id(db, uids[4]), depth)
    db.execute(f"MATCH ()-[e:S]->() WHERE e.Id = {parallel} DELETE e")
    db.execute("MATCH (a:P {N: 4}) DELETE a CASCADE")
    component = db.graphs.component_of(uids[1])
    doc = build_document(db, by_id(db, uids[1]), None)
    assert len(doc["nodes"]) == 3 and len(doc["edges"]) == 2
    _catalog, entries = httpd._texts[db]
    assert sorted(entries[component][1]) == sorted(component.nodes | component.edges)
    assert not any({parallel, uids[4]} & set(texts) for _seq, texts, *_ in entries.values())


def test_an_unchanged_component_is_served_without_reading_its_rows(monkeypatch):
    """A second whole document of an unchanged 500-node component reads no
    more rows than the anchor's lookup, while a commit elsewhere leaves it
    unchanged and a commit inside it does not."""
    db = Database()
    db.execute("CREATE " + ", ".join(["(p0:P {N: 0})"] + [f"(p{n}:P {{N: {n}}})-[:S]->(p{n // 2})"
                                                          for n in range(1, 500)]))
    db.execute("CREATE (:P {N: 1000})")
    selector = ([db.catalog.lookup_label("P").type_id], "N", 7)
    first = build_document(db, selector, None)
    calls = []
    real = storage.ReadView.get_row
    monkeypatch.setattr(storage.ReadView, "get_row",
                        lambda view, uid: calls.append(uid) or real(view, uid))
    db.read_view().lookup_by_value(*selector)
    lookup = len(calls)
    calls.clear()
    assert build_document(db, selector, None) == first and len(first["nodes"]) == 500
    assert len(calls) <= lookup
    db.execute("MATCH (a:P {N: 1000}) SET a.N = 1001")  # another component
    calls.clear()
    assert build_document(db, selector, None) == first and len(calls) <= lookup
    db.execute("MATCH (a:P {N: 3}) SET a.N = 2000")
    calls.clear()
    assert build_document(db, selector, None) != first and len(calls) > 500


def test_documents_racing_a_writer_share_the_memo_soundly():
    """Readers share one memo while a writer commits row and schema
    changes: no reader sees node 1's counter go back, and afterwards a
    document from the memo equals one rendered cold."""
    db = Database()
    db.execute("CREATE (:P {N: 1, V: 0})-[:S]->(:P {N: 2, V: 0})")
    stop, faults = threading.Event(), []

    def read():
        last = -1
        try:
            while not stop.is_set():
                seen = document(db, 1, None)["nodes"][0]["properties"]["V"]
                if seen < last:
                    faults.append((last, seen))
                last = seen
        except Exception as exc:  # reported by the assertion below
            faults.append(exc)

    readers = [threading.Thread(target=read, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        for i in range(1, 301):
            db.execute(f"MATCH (p:P {{N: 1}}) SET p.V = {i}")
            if i % 100 == 50:
                db.execute(f"ALTER TABLE P ADD COLUMN W{i} INT")
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert faults == []
    warm = build_document(db, by_id(db, 1), None)
    del httpd._texts[db]
    assert warm == build_document(db, by_id(db, 1), None)
    assert json.loads(warm["nodes"][0])["properties"]["V"] == 300


# --- rendered bodies over every value kind ---

_TEXT = st.text(st.sampled_from('a "\\\n\x01\x7f €\U0001F600'), max_size=6)
_AMOUNT = st.decimals(-10**6, 10**6, allow_nan=False, places=2)
# column -> values it may hold; an absent column is NULL
_NODE_VALUES = st.fixed_dictionaries({}, optional={
    "N": st.integers(-10**30, 10**30),
    "D": st.decimals(-10**6, 10**6, allow_nan=False, places=3),
    "B": st.booleans(),
    'S"Q': _TEXT,
    "W": st.dates(),
    "C": st.builds(values.Currency, _AMOUNT, st.sampled_from(["EUR", "USD", "GBP"])),
    "H": st.tuples(_TEXT, st.integers(-5, 5)),
})
_COLUMNS = ["N", "D", "B", 'S"Q', "W", "C", "H"]
_HOSTILE = {"N": -10**30, "D": Decimal("-0.500"), "B": False, 'S"Q': 'q"b\\s\nc\x01€\U0001F600',
            "W": datetime.date(5, 1, 2), "C": values.Currency(Decimal("12.50"), "GBP"),
            "H": ('"x"\\', -1)}


@pytest.fixture(scope="module")
def kinds_served():
    """A served database with a quoted node label and column name that hold
    `"`, an edge type and a node type with a two-column (so null) key."""
    db = Database()
    tx = db.begin()
    addr = tx.define_plain_type("ADDR", [("CITY", values.STRING), ("ZIP", values.INTEGER)])
    tx.define_node_type('Q"T', [("N", values.INTEGER), ("D", values.DECIMAL),
                                ("B", values.BOOLEAN), ('S"Q', values.STRING),
                                ("W", values.DATE), ("C", values.CURRENCY),
                                ColumnDescriptor("H", values.STRUCTURED,
                                                 struct_type_id=addr.type_id)])
    tx.define_edge_type('R"E', [('S"Q', values.STRING)], 'Q"T', 'Q"T')
    tx.define_node_type("PAIR", [("A", values.INTEGER), ("B", values.INTEGER)])
    tx.alter_primary_key("PAIR", ["A", "B"])
    tx.commit()
    server = serve_in_thread(db, 0)
    yield db, server.server_address[1], addr.type_id
    server.shutdown()
    server.server_close()


def _assert_served(port, type_label, selector, expected):
    """The body served for an anchor is the text `json.dumps(expected,
    ensure_ascii=False)` gives, and re-encoding its decoded form gives it
    back."""
    path = f"/memory/r/{urllib.parse.quote(type_label)}/{urllib.parse.quote(selector)}?NODE"
    status, body = fetch_body(port, path)
    assert status == 200
    assert body == json.dumps(json.loads(body), ensure_ascii=False).encode("utf-8")
    assert json.loads(body) == expected
    assert body == json.dumps(expected, ensure_ascii=False).encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(_NODE_VALUES, st.one_of(st.none(), _TEXT)),
                     min_size=1, max_size=4))
def test_served_body_is_the_json_of_every_value_kind(kinds_served, rows):
    db, port, addr = kinds_served
    rows = [(_HOSTILE, '"\\\n\x01€\U0001F600')] + rows
    stored = [{name: (values.StructValue(addr, (("CITY", v[0]), ("ZIP", v[1])))
                      if name == "H" else v) for name, v in vals.items()} for vals, _ in rows]
    tx = db.begin()
    uids = [tx.insert_row('Q"T', vals) for vals in stored]
    edges = []
    for (_vals, note), a, b in zip(rows[1:], uids, uids[1:]):
        props = {} if note is None else {'S"Q': note}
        edges.append((tx.insert_row('R"E', props, ends=(a, b)), a, b, props))
    pair = tx.insert_row("PAIR", {"A": uids[0], "B": -uids[0]})
    tx.commit()

    def http(vals):
        return {name: values.http_value(vals[name]) for name in _COLUMNS if name in vals}
    _assert_served(port, 'Q"T', f"ID={uids[0]}", {
        "anchor": uids[0], "representative": uids[0],
        "nodes": [{"uid": u, "type": 'Q"T', "key": u, "properties": {"ID": u, **http(vals)}}
                  for u, vals in zip(uids, stored)],
        "edges": [{"uid": e, "type": 'R"E', "leaving": a, "arriving": b,
                   "properties": {"ID": e, **props}} for e, a, b, props in edges],
    })
    _assert_served(port, "PAIR", f"A={uids[0]}", {
        "anchor": pair, "representative": pair,
        "nodes": [{"uid": pair, "type": "PAIR", "key": None,
                   "properties": {"A": uids[0], "B": -uids[0]}}],
        "edges": [],
    })
