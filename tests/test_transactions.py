"""Statements inside one BEGIN: staged rows are found through indexes as the
staging grows, and a failed statement leaves the transaction as it found it."""

import random
import sys
import time

import pytest

from graphtables.engine import Database
from graphtables.errors import GraphTablesError
from timing import assert_linear


def test_match_create_chain_inside_one_transaction_stays_linear():
    # each statement looks up the node the previous one staged
    def stage(n):
        db = Database()
        sess = db.session()
        sess.execute("CREATE (:P {N: 0})")
        sess.execute("BEGIN")
        started = time.perf_counter()
        for k in range(1, n + 1):
            sess.execute(f"MATCH (a:P {{N: {k - 1}}}) CREATE (a)-[:S]->(:P {{N: {k}}})")
        staging = time.perf_counter() - started
        sess.execute("COMMIT")
        hops = db.execute("MATCH (a:P)-[:S]->(b:P) WHERE b.N = a.N + 1 RETURN a.N")
        assert len(hops) == n
        return staging
    staging = assert_linear(stage, 625)
    if sys.gettrace() is None:  # a line tracer slows every statement alike
        assert staging < 2.0, f"2,500 chained statements took {staging:.2f} s to stage"


def test_many_one_row_creates_inside_one_transaction_stay_linear():
    def stage(n):
        db = Database()
        sess = db.session()
        sess.execute("CREATE (:P {N: 0})")
        sess.execute("BEGIN")
        stmt, params = db.statement("CREATE (:P {N: 1})")
        started = time.perf_counter()
        for _ in range(n):
            sess.execute_statement(stmt, params)
        staging = time.perf_counter() - started
        sess.execute("COMMIT")
        assert len(db.execute("MATCH (p:P {N: 1}) RETURN p.ID")) == n
        return staging
    assert_linear(stage, 5000)


def test_out_of_order_staged_updates_stay_linear():
    # each SET stages a committed row below the ones staged before it
    def update(count):
        db = Database()
        sess = db.session()
        sess.execute("BEGIN")
        stmt, _ = db.statement("CREATE (:P {N: 0})")
        for n in range(count):
            sess.execute_statement(stmt, (n,))
        sess.execute("COMMIT")
        sess.execute("BEGIN")
        started = time.perf_counter()
        for n in reversed(range(count)):
            sess.execute(f"MATCH (a:P {{N: {n}}}) SET a.V = 1")
        rows = sess.execute("MATCH (a:P) RETURN a.N").rows
        elapsed = time.perf_counter() - started
        assert rows == [[n] for n in range(count)]
        return elapsed
    assert_linear(update, 2500)


def test_lookup_first_built_inside_a_failed_statement_finds_the_restored_row():
    db = Database()
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("CREATE (:P {N: 1, V: 5})")
    # the lookup by V is first built here, while the row holds V = 6
    with pytest.raises(GraphTablesError, match="cannot compare"):
        sess.execute("MATCH (a:P {N: 1}) THEN SET a.V = 6; "
                     "MATCH (b:P {V: 6}) SET b.V = 'x' < 1 END")
    assert sess.execute("MATCH (a:P {V: 5}) RETURN a.N").rows == [[1]]
    assert sess.execute("MATCH (a:P {V: 6}) RETURN a.N").rows == []


def test_journal_holds_only_the_latest_statement():
    db = Database()
    sess = db.session()
    sess.execute("CREATE (:P {N: 0, V: 0})")
    sess.execute("BEGIN")
    stmt, params = db.statement("MATCH (a:P {N: 0}) SET a.V = a.V + 1")
    for _ in range(20000):
        sess.execute_statement(stmt, params)
    assert len(sess.tx.staged.journal) <= 1
    # a statement that fails after staging its first write undoes only itself
    with pytest.raises(GraphTablesError, match="cannot compare"):
        sess.execute("MATCH (a:P {N: 0}) THEN SET a.V = a.V + 1; "
                     "MATCH (b:P {N: 0}) SET b.V = 'x' < 1 END")
    assert sess.execute("MATCH (a:P {N: 0}) RETURN a.V").rows == [[20000]]
    sess.execute("COMMIT")
    assert db.execute("MATCH (a:P {N: 0}) RETURN a.V").rows == [[20000]]


# --- failed statements inside a transaction, differentially ---

SETUP = ("CREATE (:P {N: 1, V: 1})-[:S {W: 1}]->(:P {N: 2, V: 2})-[:S {W: 2}]->(:P {N: 3, V: 3})",
         "ALTER TABLE P ADD PRIMARY KEY(N)")
FAIL = "'x' < 1"   # raises when evaluated


def random_stream(rng: random.Random, length: int) -> list[str]:
    """Statements for one transaction over P nodes keyed by N and S edges
    identified by W.  A model of the live keys makes the statements meant
    to fail match a row, so they stage some of their writes first."""
    live = [1, 2, 3]
    edges = [1, 2]
    counter = [10]
    columns = []

    def fresh():
        counter[0] += 1
        return counter[0]

    out = []
    for _ in range(length):
        i = rng.choice(live) if live else None
        r = rng.random()
        if i is None or r < 0.12:
            k = fresh()
            out.append(f"CREATE (:P {{N: {k}, V: {rng.randrange(50)}}})")
            live.append(k)
        elif r < 0.22:
            k, w = fresh(), fresh()
            out.append(f"MATCH (a:P {{N: {i}}}) CREATE (a)-[:S {{W: {w}}}]->(:P {{N: {k}}})")
            live.append(k)
            edges.append(w)
        elif r < 0.28:
            j, w = rng.choice(live), fresh()
            out.append(f"MATCH (a:P {{N: {i}}}), (b:P {{N: {j}}}) CREATE (a)-[:S {{W: {w}}}]->(b)")
            edges.append(w)
        elif r < 0.36:
            out.append(f"MATCH (a:P {{N: {i}}}) SET a.V = {rng.randrange(50)}")
        elif r < 0.42:
            k = fresh()
            out.append(f"MATCH (a:P {{N: {i}}}) SET a.N = {k}")
            live[live.index(i)] = k
        elif r < 0.47:
            out.append(f"MATCH (a:P {{N: {i}}}) DELETE a CASCADE")
            live.remove(i)
        elif r < 0.51 and edges:
            w = rng.choice(edges)
            out.append(f"MATCH ()-[e:S {{W: {w}}}]->() DELETE e")
            edges.remove(w)
        elif r < 0.53:
            name = f"C{fresh()}"
            out.append(f"ALTER TABLE P ADD COLUMN {name} INTEGER")
            columns.append(name)
        elif r < 0.56 and columns:
            out.append(f"MATCH (a:P {{N: {i}}}) SET a.{rng.choice(columns)} = {rng.randrange(9)}")
        elif r < 0.58:
            out.append(f"CREATE (:P {{N: {fresh()}, Z{fresh()}: 1}})")
        elif r < 0.60:
            out.append("ALTER TABLE P ADD CHECK (V IS NULL OR V >= 0)")
        elif r < 0.63:
            out.append("MATCH (a:P)-[e:S]->(b:P) RETURN a.N, a.V, e.W, b.N")
        elif r < 0.66:
            out.append(f"MATCH (a:P {{V: {rng.randrange(50)}}}) RETURN a.N")
        # the statements below fail after staging part of their writes
        elif r < 0.70:
            out.append(f"CREATE (:P {{N: {fresh()}, V: 1}}), (:P {{N: {FAIL}}})")
        elif r < 0.73:
            out.append(f"CREATE (:P {{N: {fresh()}, Y{fresh()}: 1}}), (:P {{N: {FAIL}}})")
        elif r < 0.76:
            out.append(f"CREATE (:Q{fresh()} {{V: 1}}), (:Q {{V: {FAIL}}})")
        elif r < 0.80:
            out.append(f"MATCH (a:P {{N: {i}}}) SET a.V = 7, a.N = {fresh()}, a.V = {FAIL}")
        elif r < 0.84:
            out.append(f"MATCH (a:P {{N: {i}}}) THEN DELETE a CASCADE; CREATE (:P {{N: {FAIL}}}) END")
        elif r < 0.88:
            out.append(f"MATCH (a:P {{N: {i}}}) THEN CREATE (a)-[:S {{W: {fresh()}}}]->"
                       f"(:P {{N: {fresh()}}}); SET a.V = {FAIL} END")
        elif r < 0.91 and edges:
            out.append(f"MATCH ()-[e:S {{W: {rng.choice(edges)}}}]->() THEN DELETE e; "
                       f"CREATE (:P {{N: {FAIL}}}) END")
        elif r < 0.94:
            out.append(f"MATCH (a:P {{N: {i}}}) THEN ALTER TABLE P ADD COLUMN D{fresh()} INTEGER; "
                       f"SET a.V = {FAIL} END")
        elif r < 0.95:
            out.append(f"MATCH (a:P {{N: {i}}}) THEN ALTER TYPE S SET CARDINALITY "
                       f"LEAVING 0..0 ARRIVING 0..*; SET a.V = {FAIL} END")
        elif r < 0.97:
            # the first lookup by V may come here, after a row's V changed
            out.append(f"MATCH (a:P {{N: {i}}}) THEN SET a.V = 77; "
                       f"MATCH (b:P {{V: 77}}) SET b.V = {FAIL} END")
        else:
            out.append(f"MATCH (a:P {{N: {i}}}) [()-[e:S]->()]{{0,1}} (b) SET a.V = 1, a.X = e")
    return out


def run_stream(statements):
    """Run `statements` in one transaction; returns the database, the
    indexes of the statements that failed, and every read's rows."""
    db = Database()
    sess = db.session()
    for text in SETUP:
        sess.execute(text)
    sess.execute("BEGIN")
    failed, reads = [], []
    for n, text in enumerate(statements):
        try:
            result = sess.execute(text)
        except GraphTablesError:
            failed.append(n)
            continue
        if result is not None:
            reads.append(sorted(result.rows))
    sess.execute("COMMIT")
    return db, failed, reads


def content(db):
    """Committed rows per type label, without ID, which takes the uid."""
    out = {}
    for desc in db.catalog.types():
        rows = db.read_view().scan_type({desc.type_id})
        out[desc.label] = sorted(sorted((k, repr(v)) for k, v in row.values.items() if k != "ID")
                                 for row in rows)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_failed_statements_leave_no_trace_in_the_commit(seed):
    statements = random_stream(random.Random(seed), 150)
    full, failed, full_reads = run_stream(statements)
    kept = [text for n, text in enumerate(statements) if n not in failed]
    clean, clean_failed, clean_reads = run_stream(kept)
    assert clean_failed == []
    assert len(failed) >= 15   # the stream exercised the undo
    assert all(FAIL in statements[n] or "a.X = e" in statements[n] for n in failed)
    assert content(full) == content(clean)
    assert ([full.catalog.descriptor_to_dict(d) for d in full.catalog.types()]
            == [clean.catalog.descriptor_to_dict(d) for d in clean.catalog.types()])
    assert full_reads == clean_reads
