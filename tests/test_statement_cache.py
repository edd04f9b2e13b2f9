"""The statement template cache: texts of one token shape share a parsed
template and run with their own literal values, and a cached run behaves
exactly like a fresh parse of the same text."""

import random
import sys
import threading

import pytest

from graphtables import engine
from graphtables.engine import Database
from graphtables.errors import ExecutionError, GraphTablesError
from graphtables.parser import parse_statement, shape, tokenize


def run_fresh(session, text):
    """What `Session.execute` does, with a parse of every text."""
    tokens = tokenize(text)
    _key, params = shape(tokens)
    try:
        return session.execute_statement(parse_statement(text, tokens), params)
    except RecursionError:
        raise ExecutionError("statement nests too deeply") from None


def outcome(run, text):
    """A comparable record of running `text`: the result table, or the
    error's class, message and source position."""
    try:
        result = run(text)
    except GraphTablesError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))
    return None if result is None else (result.columns, result.rows)


def differential(texts, cached_db, fresh_db):
    cached, fresh = cached_db.session(), fresh_db.session()
    for text in texts:
        got = outcome(cached.execute, text)
        want = outcome(lambda t: run_fresh(fresh, t), text)
        assert got == want, text
    assert cached_db.state_hash() == fresh_db.state_hash()


SCHEMA = [
    "CREATE TYPE N AS (K INT, V INT, S CHAR, D DATE, C CURRENCY, F BOOL) NODETYPE",
    "ALTER TABLE N ADD PRIMARY KEY (K)",
    "CREATE TYPE E AS (W INT) EDGETYPE (LEAVING N, ARRIVING N)",
]
CHAIN = [f"CREATE (:N {{K: {k}, V: {10 * k}, S: 's{k}'}})" for k in range(-6, 8)] + [
    f"MATCH (a:N {{K: {k}}}), (b:N {{K: {k + 1}}}) CREATE (a)-[:E {{W: {k}}}]->(b)"
    for k in range(0, 7)]


def twice_each(*texts):
    """Run the first text until its shape is cached, then the others."""
    first, *rest = texts
    return [first, first, first, *rest, *rest, first]


# each pair is one token shape with two value sets; the second text must
# not run with the first text's values where the parser read them
FIXED_PAIRS = [
    ("MATCH (a:N {K: 0}) [()-[:E]->()]{1,3} (b) RETURN b.K",
     "MATCH (a:N {K: 0}) [()-[:E]->()]{2,3} (b) RETURN b.K"),
    ("MATCH (a:N {K: 0}) [()-[:E]->()]{1,2} (b) RETURN b.K",
     "MATCH (a:N {K: 0}) [()-[:E]->()]{3,2} (b) RETURN b.K"),
    ("ALTER TABLE N ADD COLUMN X CHAR(5)", "ALTER TABLE N DROP COLUMN X",
     "ALTER TABLE N ADD COLUMN X CHAR(9)"),
    ("ALTER TYPE E SET CARDINALITY LEAVING 0..1 ARRIVING 0..*",
     "ALTER TYPE E SET CARDINALITY LEAVING 1..1 ARRIVING 1..*",
     "ALTER TYPE E SET CARDINALITY LEAVING 1..* ARRIVING 0..*"),
    ("MATCH (a:N {K: 1}) RETURN a.V + 1", "MATCH (a:N {K: 1}) RETURN a.V+2",
     "MATCH (a:N {K: 1}) RETURN a.V  +  3"),
    ("MATCH (a:N {K: -5}) RETURN a.K, a.V", "MATCH (a:N {K: -6}) RETURN a.K, a.V",
     "MATCH (a:N {K: - -5}) RETURN a.K", "MATCH (a:N {K: - - 6}) RETURN a.K"),
    ("MATCH (a:N) RETURN a.K", '"MATCH" (a:N) RETURN a.K', '"match" (a:N) RETURN a.K'),
    ("MATCH (a:N {K: 2}) SET a.F = TRUE", "MATCH (a:N {K: 2}) SET a.F = NULL",
     "MATCH (a:N {F: TRUE}) RETURN a.K", "MATCH (a:N {F: NULL}) RETURN a.K"),
    ("MATCH (a:N {K: 3}) SET a.D = DATE'2023-03-22', a.C = 12.50€",
     "MATCH (a:N {K: 4}) SET a.D = DATE'2024-01-02', a.C = 7€",
     "MATCH (a:N {D: DATE'2024-01-02'}) RETURN a.K, a.C",
     "MATCH (a:N {K: 4}) SET a.C = -7€", "MATCH (a:N {K: 4}) SET a.C = 7$"),
    ("MATCH (a:N {K: 5}) SET a.S = 'O''Hara'", "MATCH (a:N {S: 'O''Hara'}) RETURN a.K",
     "MATCH (a:N {S: 'nobody'}) RETURN a.K"),
    ("MATCH (a:N {K: 6}) SET a.V = a.V / 4", "MATCH (a:N {K: 6}) SET a.V = a.V / 0"),
]


@pytest.mark.parametrize("texts", FIXED_PAIRS, ids=lambda t: t[0][:40])
def test_cached_run_matches_a_fresh_parse(texts):
    differential(SCHEMA + CHAIN + twice_each(*texts), Database(), Database())


def test_check_text_of_each_statement_is_stored_and_replayed(tmp_path):
    cached_db, fresh_db = Database(tmp_path / "cached.db"), Database(tmp_path / "fresh.db")
    texts = twice_each("ALTER TABLE N ADD CHECK (V > 5)", "ALTER TABLE N ADD CHECK (V > 7)",
                       "ALTER TABLE N ADD CHECK (V>7 )",
                       "MATCH (a:N {K: 1}) SET a.V = 6", "MATCH (a:N {K: 1}) SET a.V = 8")
    differential(SCHEMA + ["CREATE (:N {K: 1, V: 9})"] + texts, cached_db, fresh_db)
    for db in (cached_db, fresh_db):
        db.close()
    reopened = [Database(tmp_path / "cached.db"), Database(tmp_path / "fresh.db")]
    checks = [[c.text for c in db.catalog.lookup_label("N").constraints] for db in reopened]
    assert checks[0] == checks[1] == ["V > 5", "V > 5", "V > 5", "V > 7", "V>7",
                                      "V > 7", "V>7", "V > 5"]
    assert reopened[0].state_hash() == reopened[1].state_hash()
    for db in reopened:
        db.close()


def test_deep_nesting_is_an_execution_error_cached_or_not():
    deep_sum = "MATCH (a:N {K: 1}) SET a.V = " + "+".join(["1"] * 3000)
    deep_parens = "MATCH (a:N {K: 1}) SET a.V = " + "(" * 3000 + "1" + ")" * 3000
    texts = SCHEMA + CHAIN + [deep_sum] * 4 + [deep_parens] * 3
    cached_db, fresh_db = Database(), Database()
    differential(texts, cached_db, fresh_db)
    with pytest.raises(ExecutionError, match="nests too deeply"):
        cached_db.execute(deep_sum.replace("+1", "+2", 1))
    with pytest.raises(ExecutionError, match="nests too deeply"):
        cached_db.execute(deep_parens)


def test_a_negative_literal_in_a_doc_is_an_index_probe(monkeypatch):
    from graphtables import storage
    db = Database()
    for text in SCHEMA + CHAIN:
        db.execute(text)
    probes = []

    def no_scan(*args, **kwargs):
        raise AssertionError("a doc literal must not scan its type")

    lookup = storage.ReadView.lookup_by_value
    monkeypatch.setattr(storage.ReadView, "scan_type", no_scan)
    monkeypatch.setattr(storage.ReadView, "lookup_by_value",
                        lambda self, tids, column, value: probes.append(value) or
                        lookup(self, tids, column, value))
    for k in (5, 6, 5, 4):
        assert db.execute(f"MATCH (a:N {{K: -{k}}}) RETURN a.V").rows == [[-10 * k]]
    assert probes == [-5, -6, -5, -4]


def test_a_thousand_statements_of_five_shapes_parse_a_few_times(monkeypatch):
    db = Database()
    for text in SCHEMA + CHAIN:
        db.execute(text)
    parses = []
    parse = engine.parse_statement
    monkeypatch.setattr(engine, "parse_statement",
                        lambda text, tokens=None: parses.append(text) or parse(text, tokens))
    rng = random.Random(8)
    shapes = ["CREATE (:N {{K: {0}, V: {1}}})",
              "MATCH (a:N {{K: {0}}}) SET a.V = a.V + {1}",
              "MATCH (a:N {{K: {0}}})-[:E]->(b) RETURN b.K, b.V",
              "MATCH (a:N {{K: {0}}}) WHERE a.V > {1} RETURN a.S",
              "MATCH (a:N {{K: {0}}}) DELETE a CASCADE"]
    for i in range(1000):
        db.execute(shapes[i % 5].format(100 + i // 5, rng.randrange(100)))
    assert len(parses) <= 10


def test_one_off_shapes_are_not_kept():
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    for k in range(1, 60):
        db.execute("CREATE " + ", ".join(f"(:N {{K: {k * 1000 + j}}})" for j in range(k)))
    assert len(db._templates) == 0
    db.execute("CREATE (:N {K: -1})")
    db.execute("CREATE (:N {K: -2})")
    assert len(db._templates) == 1


def test_the_number_of_templates_is_bounded():
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    for _ in range(2):
        for k in range(engine._TEMPLATES + 40):
            db.execute("MATCH (a:N {K: 1}) RETURN a.K" + ", a.V" * k)
    assert len(db._templates) == engine._TEMPLATES


def test_threads_sharing_a_database_get_their_own_values(monkeypatch):
    """Sessions on several threads admit, evict and hit templates of one
    Database at once; every statement must still see its own literals."""
    db = Database()
    for text in SCHEMA + CHAIN:
        db.execute(text)
    monkeypatch.setattr(engine, "_TEMPLATES", 3)
    shapes = ["MATCH (a:N {{K: {0}}}) RETURN a.V",
              "MATCH (a:N) WHERE a.K = {0} RETURN a.V",
              "MATCH (a:N {{K: {0}}}) RETURN a.V, a.K",
              "MATCH (a:N {{S: 's{0}'}}) RETURN a.V",
              "MATCH (a:N {{K: -{0}}}) RETURN -a.V",
              "MATCH (a:N {{K: {0}}})-[:E]->(b) RETURN a.V"]
    errors = []

    def worker(seed):
        rng, session = random.Random(seed), db.session()
        try:
            for _ in range(300):
                i, k = rng.randrange(len(shapes)), rng.randrange(0, 7)
                rows = session.execute(shapes[i].format(k)).rows
                if rows[0][0] != 10 * k:
                    errors.append((shapes[i].format(k), rows))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(db._templates) <= 3


# --- seeded random streams ---

def random_statement(rng) -> str:
    k = rng.randrange(-6, 9)
    v = rng.choice([0, 1, 7, -3, 40, "2.5", "-1.25", "'x'", "TRUE", "NULL"])
    sp = rng.choice(["", " ", "  "])
    lo = rng.randrange(0, 4)
    forms = [
        f"CREATE (:N {{K: {rng.randrange(20, 60)}, V: {v}}})",
        f"MATCH (a:N {{K: {k}}}) SET a.V ={sp}{v}",
        f"MATCH (a:N {{K: {k}}}) SET a.V = a.V +{sp}{v}",
        f"MATCH (a:N {{K: {k}}}) RETURN a.V, a.S",
        f"MATCH (a:N {{K: {k}}}) RETURN a.V{sp}*{sp}{rng.randrange(1, 4)}",
        f"MATCH (a:N) WHERE a.V > {v} RETURN a.K",
        f"MATCH (a:N {{V: {v}}}) RETURN a.K",
        f"MATCH (a:N {{K: -{abs(k)}}}) RETURN a.K",
        f"MATCH (a:N {{K: {k}}}) [()-[:E]->()]{{{lo},{lo + rng.randrange(-1, 3)}}} (b) RETURN b.K",
        f"MATCH (a:N {{K: {k}}})-[e:E]->(b) RETURN e.W, b.K",
        f"MATCH (a:N {{K: {k}}}), (b:N {{K: {k + 1}}}) CREATE (a)-[:E {{W: {v}}}]->(b)",
        f"MATCH (a:N {{K: {k}}}) DELETE a CASCADE",
        f"MATCH (a:N {{S: 's{k}'}}) SET a.S = 's{rng.randrange(9)}'",
        f"MATCH (a:N {{K: {k}}}) SET a.D = DATE'2020-0{rng.randrange(1, 10)}-1{lo}'",
        f"ALTER TYPE E SET CARDINALITY LEAVING {lo}..{lo + 1} ARRIVING 0..*",
        f"MATCH (a:N {{K: {k}}}) RETURN {v}",
        "BEGIN", "COMMIT", "ROLLBACK",
    ]
    return rng.choice(forms)


@pytest.mark.parametrize("seed", range(4))
def test_random_streams_match_a_fresh_parse(seed):
    rng = random.Random(4100 + seed)
    texts = SCHEMA + CHAIN
    for _ in range(300):
        text = random_statement(rng)
        texts += [text] * rng.choice([1, 1, 2])
    differential(texts, Database(), Database())
