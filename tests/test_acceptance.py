"""Acceptance gate: eight end-to-end criteria, one report line each.

Every test appends a `criterion N: PASS/FAIL (...)` line; the module-scoped
teardown prints the collected lines with output capture suspended, so the
verdicts always reach the terminal no matter how pytest was invoked.
"""

import contextlib
import functools
import io
import json
import random
import re
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from graphtables import Database
from graphtables.errors import CommitError
from graphtables.httpd import serve_in_thread
from graphtables.repl import run_script, split_statements

from conftest import CORPUS
from generators import build_random_graph, random_chain
from oracles import canon_table, graph_from_db, oracle_match, render_chain, union_find_components
from test_engine import record_ends

_REPORT: list[str] = []


@pytest.fixture(scope="module", autouse=True)
def acceptance_report(request):
    yield
    text = "\n".join(_REPORT) + "\n"
    cap = request.config.pluginmanager.getplugin("capturemanager")
    if cap is not None:
        with cap.global_and_fixture_disabled():
            print("\n" + text, end="")
    else:
        print("\n" + text, end="")


def criterion(num):
    """Record the verdict line for one criterion, pass or fail."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                _REPORT.append(f"criterion {num}: FAIL ({exc})")
                raise
            _REPORT.append(f"criterion {num}: PASS ({detail})")
        return run
    return wrap


def fetch(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


FAMILY_NAMES = {"Fred Smith", "Mary Smith", "Lee Smith", "Bill Smith"}
FIRST_QUERY = "MATCH ({name:'Peter Smith'}) [()-[:Child]->()]+ (x) RETURN x.name"


@criterion(1)
def test_criterion_1_family_script_replays_exactly():
    db = Database()
    session = db.session()
    script = split_statements((CORPUS / "family.sql").read_text(encoding="utf-8"))
    started = time.perf_counter()
    results = [session.execute(text) for _no, text in script]

    first, second = results[1], results[2]
    assert {row[0] for row in first.rows} == FAMILY_NAMES
    assert second.columns == ["P", "X"]
    assert canon_table(second) == {
        ((2,), "Fred Smith"),
        ((2, 1), "Mary Smith"),
        ((2, 1, 3), "Lee Smith"),
        ((2, 1, 3), "Bill Smith"),
    }
    assert sorted(len(row[0]) for row in second.rows) == [1, 2, 3, 3]

    # after both ALTERs the first query must still answer the same
    again = session.execute(FIRST_QUERY)
    assert {row[0] for row in again.rows} == FAMILY_NAMES
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"replay took {elapsed:.3f} s"
    return f"family corpus replayed and requeried in {elapsed * 1000:.0f} ms"


@criterion(2)
def test_criterion_2_component_served_over_http(tmp_path):
    db = Database(tmp_path / "ps.db")
    assert run_script(db, str(CORPUS / "family.sql")) == 0
    server = serve_in_thread(db, 0)
    try:
        port = server.server_address[1]
        selector = urllib.parse.quote("NAME='Peter Smith'")
        status, doc = fetch(port, f"/ps/PS/PERSON/{selector}?NODE")
    finally:
        server.shutdown()
        db.close()

    assert status == 200
    assert len(doc["nodes"]) == 5
    assert len(doc["edges"]) == 4
    everyone = FAMILY_NAMES | {"Peter Smith"}
    assert {n["key"] for n in doc["nodes"]} == everyone
    assert {(e["leaving"], e["arriving"]) for e in doc["edges"]} == {
        ("Peter Smith", "Fred Smith"),
        ("Fred Smith", "Mary Smith"),
        ("Mary Smith", "Lee Smith"),
        ("Mary Smith", "Bill Smith"),
    }
    return "component of 5 nodes and 4 edges served with NAME-keyed endpoints"


ERP_NODE_LABELS = {
    "CUSTOMER", "CUSTORDER", "ORDERPOS", "LOCATION", "PART", "PURCHASEDPART",
    "INHOUSEPRODUCT", "STOCK", "SUPPLIER", "SUPPLORD", "PURCHPOS", "SUPPLCATALOG",
}
ERP_EDGE_LABELS = {
    "AT", "BELONGS_TO", "CAN_SUPPLY", "FROM", "HAS", "IS_PART_OF", "IS_POS_OF",
    "ORDERED_BY", "ORDERS", "SERVES", "STOCKED", "SUPPLIED", "SUPPLIED_BY",
}
ORDER_WITHOUT_POSITIONS = (
    "CREATE (c:Customer {CustNo:1999, Name:'Zoe', "
    "Address:'1 Nowhere Lane, Leeds, LS1 1AA, UK'}), "
    "(c)<-[:ORDERED_BY]-(o:CustOrder {OrdNo:2999, CustNo:1999, "
    "Datum:DATE'2023-06-01', SummE:0.00})"
)


@criterion(3)
def test_criterion_3_erp_corpus_loads_and_guards():
    db = Database()
    session = db.session()
    for _no, text in split_statements((CORPUS / "erp.sql").read_text(encoding="utf-8")):
        session.execute(text)

    assert {d.label for d in db.catalog.types("node")} == ERP_NODE_LABELS
    assert {d.label for d in db.catalog.types("edge")} == ERP_EDGE_LABELS
    part = db.catalog.lookup_label("PART", "node")
    children = {d.label for d in db.catalog.types("node") if d.supertype == part.type_id}
    assert children == {"PURCHASEDPART", "INHOUSEPRODUCT"}

    customers = len(db.execute("MATCH (c:Customer)").rows)
    with pytest.raises(CommitError) as err:
        db.execute(ORDER_WITHOUT_POSITIONS)
    assert err.value.rule == "multiplicity"
    message = str(err.value)
    assert "receives 0" in message and "outside 1..*" in message
    assert len(db.execute("MATCH (c:Customer)").rows) == customers
    return "corpus loaded clean; order without positions aborted on multiplicity"


@criterion(4)
def test_criterion_4_matcher_agrees_with_oracle():
    rng = random.Random(42210)
    started = time.perf_counter()
    comparisons = 0
    for _ in range(1000):
        db, g, node_labels, edge_labels = build_random_graph(rng)
        chain = random_chain(rng, node_labels, edge_labels, bounded=len(g.edges) > 7)
        for mode in (None, "TRAIL", "ACYCLIC"):
            prefix = "MATCH " + (mode + " " if mode else "")
            columns, want, want_shortest = oracle_match(g, chain, mode)
            table = db.execute(prefix + render_chain(chain))
            assert canon_table(table) == want, prefix + render_chain(chain)
            if want:
                assert table.columns == columns
            shortest = db.execute(prefix + "SHORTEST " + render_chain(chain))
            assert canon_table(shortest) == want_shortest, \
                prefix + "SHORTEST " + render_chain(chain)
            comparisons += 2
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"equivalence run took {elapsed:.1f} s"
    return (f"1000 random graphs, {comparisons} mode and SHORTEST comparisons, "
            f"0 mismatches in {elapsed:.1f} s")


@criterion(5)
def test_criterion_5_component_registry_agrees_with_union_find():
    rng = random.Random(51500)
    checks = 0
    for _ in range(500):
        db = Database()
        nodes: set[int] = set()
        edges: dict[int, tuple[int, int]] = {}
        for _step in range(rng.randint(2, 10)):
            roll = rng.random()
            if roll < 0.45 or not nodes:
                count = rng.randint(1, 3)
                first = db.peek_uid()
                db.execute("CREATE " + ", ".join("(:N)" for _ in range(count)))
                nodes.update(range(first, first + count))
            elif roll < 0.75:
                tail = rng.choice(sorted(nodes))
                head = rng.choice(sorted(nodes))
                uid = db.peek_uid()
                db.execute(f"MATCH (x:N {{Id: {tail}}}), (y:N {{Id: {head}}}) "
                           "THEN CREATE (x)-[:L]->(y) END")
                edges[uid] = (tail, head)
            elif roll < 0.9 and edges:
                victim = rng.choice(sorted(edges))
                db.execute(f"MATCH ()-[p:L]->() WHERE p.Id = {victim} DELETE p")
                edges.pop(victim)
            else:
                victim = rng.choice(sorted(nodes))
                db.execute(f"MATCH (x:N {{Id: {victim}}}) DELETE x CASCADE")
                nodes.discard(victim)
                edges = {e: (t, h) for e, (t, h) in edges.items()
                         if t != victim and h != victim}

            got = {c.representative: (frozenset(c.nodes), frozenset(c.edges))
                   for c in db.graphs.components()}
            want = {rep: (frozenset(ns), frozenset(es))
                    for rep, (ns, es) in union_find_components(nodes, edges).items()}
            assert got == want
            assert all(rep == min(ns) for rep, (ns, _es) in got.items())
            checks += 1
    return f"500 committed sequences, {checks} partition checks, 0 mismatches"


@criterion(6)
def test_criterion_6_statement_throughput(tmp_path):
    lines = ["CREATE (a:Hub {Name:'a'})-[:Link]->(b:Hub {Name:'b'})"]
    for i in range(1500):
        lines.append(f"CREATE (:Leaf {{N: {i}}})")
        lines.append("MATCH (x:Hub)-[:Link]->(y:Hub) RETURN y.Name")
    script = tmp_path / "throughput.sql"
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")

    timing = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = run_script(Database(), str(script), timing=True, out=timing)
    assert rc == 0
    summary = timing.getvalue().strip().splitlines()[-1]
    rate = int(re.search(r"\((\d+) statements/s\)", summary).group(1))

    # best effort: the number is reported, never enforced
    detail = f"measured {rate} statements/s against a 2500/s target"
    if rate < 1250:
        detail += "; under half target, worth a look on this hardware"
    return detail


def hundred_transactions() -> list[str]:
    statements, live = [], []
    for i in range(1, 101):
        if i % 10 == 0 and live:
            statements.append(f"MATCH (x:Item {{N: {live[-1]}}}) SET x.Tag = 'seen{i}'")
        elif i % 17 == 0 and len(live) > 2:
            a, b = live[-2], live[-1]
            statements.append(f"MATCH (x:Item {{N: {a}}}), (y:Item {{N: {b}}}) "
                              "THEN CREATE (x)-[:Next]->(y) END")
        elif i % 7 == 0 and len(live) > 2:
            gone = live.pop(0)
            statements.append(f"MATCH (x:Item {{N: {gone}}}) DELETE x CASCADE")
        else:
            live.append(i)
            statements.append(f"CREATE (:Item {{N: {i}, Tag: 'new'}})")
    return statements


@criterion(7)
def test_criterion_7_every_prefix_replays_to_the_same_state(tmp_path):
    path = tmp_path / "wal.db"
    db = Database(path)
    hashes = [db.state_hash()]
    for text in hundred_transactions():
        db.execute(text)
        hashes.append(db.state_hash())
    db.close()

    data = path.read_bytes()
    offsets = [0] + record_ends(path)
    assert len(offsets) == 101  # one log record per transaction
    clone = tmp_path / "clone.db"

    def reopened_hash(cut: int) -> str:
        clone.write_bytes(data[:cut])
        copy = Database(clone)
        digest = copy.state_hash()
        copy.close()
        return digest

    for k in range(101):
        assert reopened_hash(offsets[k]) == hashes[k], f"prefix {k}"
    # cuts inside the next record replay to the same prefix
    for k, extra in ((0, 3), (25, 5), (60, 11), (99, 7)):
        assert reopened_hash(offsets[k] + extra) == hashes[k], f"torn after {k}"

    # the same transactions again, with a checkpoint after a seeded one:
    # the log is then one record of that state and a record per later commit
    at = random.Random(70700).randrange(1, 100)
    path.unlink()
    db = Database(path)
    for k, text in enumerate(hundred_transactions(), 1):
        db.execute(text)
        assert db.state_hash() == hashes[k], f"rerun {k}"
        if k == at:
            db.checkpoint()
            assert db.state_hash() == hashes[k], "checkpoint"
    db.close()
    data = path.read_bytes()
    offsets = record_ends(path)
    assert len(offsets) == 101 - at
    for j, cut in enumerate(offsets):
        assert reopened_hash(cut) == hashes[at + j], f"prefix {j} after the checkpoint"
    for j, extra in ((0, 3), (len(offsets) // 3, 5), (len(offsets) // 2, 11),
                     (len(offsets) - 2, 7)):
        assert reopened_hash(offsets[j] + extra) == hashes[at + j], f"torn {j} after it"
    return (f"100-transaction log: all 101 prefixes and 4 torn cuts hash equal; checkpointed "
            f"after {at}, its {len(offsets)} prefixes and 4 torn cuts hash equal")


@criterion(8)
def test_criterion_8_rekey_keeps_node_uid_adjacency():
    rng = random.Random(80800)
    for _ in range(25):
        db = Database()
        n = rng.randint(2, 8)
        parts = [f"(n{i}:Node {{Tag: 't{i}'}})" for i in range(n)]
        for _ in range(rng.randint(1, 12)):
            a, b = rng.randrange(n), rng.randrange(n)
            parts.append(f"(n{a})-[:Link]->(n{b})")
        db.execute("CREATE " + ", ".join(parts))

        before = graph_from_db(db)
        db.execute("ALTER TABLE Node ADD PRIMARY KEY (Tag)")
        rekeyed = graph_from_db(db)
        assert (rekeyed.nodes, rekeyed.edges) == (before.nodes, before.edges)
        db.execute("ALTER TABLE Node DROP Id")
        dropped = graph_from_db(db)
        assert (dropped.nodes, dropped.edges) == (before.nodes, before.edges)
    return "25 random graphs: dereferenced adjacency identical through rekey and drop"
