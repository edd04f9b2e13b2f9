"""A commit finds each staged row's facts once and judges only what it
changed.  Single- and two-row commits from seeded streams are judged twice
more: every state a commit leaves must commit whole on an empty store
(`whole_state_judge`), and every state a commit refuses must be refused
whole, by the same rule (Nicolas 1982: an incremental check is correct only
if it equals checking the whole state)."""

import random

import pytest

from graphtables import Database, storage
from graphtables.catalog import ARRIVING, LEAVING
from graphtables.errors import CommitError, GraphTablesError
from oracles import judge_state, whole_state_judge

# A keyed on K with U unique (its key before K) and a check on V; B under A
# keyed apart, on X; C under A with A's key; E edges between A rows, at most
# two leaving and two arriving at each
SCHEMA = ("create type A as (K int, U int, V int, N int) nodetype",
          "alter table A add primary key(U)",
          "alter table A add primary key(K)",
          "alter table A add check (V < 40)",
          "create type B under A as (X int) nodetype",
          "alter table B add primary key(X)",
          "create type C under A as (Y int) nodetype",
          "create type E as (W int) edgetype (leaving A, arriving A)",
          "alter type E set cardinality leaving 0..2 arriving 0..2")


def write(rng):
    """The statements of one commit: mostly one auto-committed statement of
    one or two rows, else a transaction that rekeys A while it writes the A
    rows whose N is NULL."""
    k, m, u, x = (rng.randint(0, 6) for _ in range(4))
    v, n, w = rng.choice([1, 7, 45]), rng.choice([None, 1, 2, 3, 4]), rng.randint(0, 2)
    nv = "" if n is None else f", N: {n}"
    if rng.random() < 0.08:
        return ["BEGIN", f"ALTER TABLE A ADD PRIMARY KEY ({rng.choice('KN')})",
                f"MATCH (a:A) WHERE a.N IS NULL SET a.V = {v}", "COMMIT"]
    return [rng.choice([
        f"CREATE (:A {{K: {k}, U: {u}, V: {v}{nv}}})",
        f"CREATE (:A {{K: {k}, U: {u}{nv}}}), (:A {{K: {m}, N: {w}}})",
        f"CREATE (:B {{K: {k}, X: {x}, U: {u + 7}{nv}}})",
        f"CREATE (:C {{K: {k}, Y: {x}, U: {u}{nv}}})",
        f"MATCH (c:C {{K: {k}}}) SET c.Y = {m}",
        f"MATCH (a:A {{K: {k}}}) SET a.K = {m}",
        f"MATCH (a:A {{K: {k}}}) SET a.U = {u}",
        f"MATCH (a:A {{K: {k}}}) SET a.V = {v}",
        f"MATCH (a:A {{K: {k}}}) SET a.N = {'NULL' if n is None else n}",
        f"MATCH (b:B {{X: {x}}}) SET b.X = {m}",
        f"MATCH (a:A {{K: {k}}}), (b:A {{K: {m}}}) CREATE (a)-[:E {{W: {w}}}]->(b)",
        f"MATCH (a:A {{K: {k}}}), (b:A {{K: {m}}}) CREATE (a)-[:E {{W: {w}}}]->(b)",
        f"MATCH (a:A {{K: {k}}}) DELETE a",
        f"MATCH (a:A {{K: {k}}}) DELETE a CASCADE",
        f"MATCH ()-[e:E {{W: {w}}}]->() SET e.ARRIVING = {m}",
        f"MATCH ()-[e:E {{W: {w}}}]->() DELETE e",
    ])]


@pytest.mark.parametrize("seed", range(12))
def test_one_and_two_row_commits_judge_as_the_whole_state(seed, monkeypatch):
    # the latest post state a commit built: before its delete rule, whose
    # refusal leaves the staged deletions uncascaded, and when its staging is final
    states = []
    for rule in ("delete_cascade", "check_types"):
        def judged(commit, real=getattr(storage._Commit, rule)):
            states.append((commit.catalog, list(commit.post.scan_type(
                [desc.type_id for desc in commit.catalog.types()]))))
            real(commit)
        monkeypatch.setattr(storage._Commit, rule, judged)
    rng = random.Random(3100 + seed)
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    session = db.session()
    accepted = refused = 0
    for step in range(300):
        texts, seq = write(rng), db.store.commit_seq
        states.clear()
        try:
            for text in texts:
                try:
                    session.execute(text)
                except CommitError:
                    raise
                except GraphTablesError:
                    if text == "BEGIN" or session.tx is None:
                        break  # a statement refused before any commit
        except CommitError as exc:
            refused += 1
            catalog, rows = states[-1]
            with pytest.raises(CommitError) as whole:
                judge_state(catalog, rows, db._next_uid)
            assert whole.value.rule == exc.rule, f"step {step}: {texts!r} refused by {exc}, " \
                                                 f"its state whole by {whole.value}"
            continue
        if db.store.commit_seq != seq:
            accepted += 1
            try:
                whole_state_judge(db)
            except CommitError as exc:
                pytest.fail(f"step {step}: the state {texts!r} committed is refused whole: {exc}")
    assert accepted >= 50 and refused >= 40


def test_a_rekey_judges_the_staged_rows_of_a_type_below_it_whole():
    """C inherits A's key, so when A is rekeyed on N, a C row that the same
    transaction writes on another column is judged on every column."""
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    db.execute("CREATE (:C {K: 1, U: 1})")
    session = db.session()
    session.execute("BEGIN")
    session.execute("ALTER TABLE A ADD PRIMARY KEY (N)")
    session.execute("MATCH (c:C) SET c.V = 1")
    with pytest.raises(CommitError) as err:
        session.execute("COMMIT")
    assert err.value.rule == "key" and "key column N is null" in str(err.value)


def test_a_commit_looks_each_staged_row_up_once(monkeypatch):
    """A one-row SET of a non-key column looks its committed row up once and
    probes no value index; a key SET probes the store's index once per type of
    the key's scope and stages the node's edge from the adjacency, with no
    lookup; a CREATE of a node and an edge looks each of the two up once."""
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    db.execute("CREATE (:A {K: 1, U: 1}), (:A {K: 2, U: 2})")
    db.execute("MATCH (a:A {K: 1}), (b:A {K: 2}) CREATE (a)-[:E]->(b)")
    one = next(row.uid for row in db.read_view().scan_type([db.catalog.lookup_label("A").type_id])
               if row.get("K") == 1)
    lookups, probes = [], []
    for name in ("latest", "newest"):
        monkeypatch.setattr(storage.Store, name, lambda store, uid, real=getattr(storage.Store, name):
                            lookups.append(uid) or real(store, uid))
    probe = storage.Store.index_candidates
    monkeypatch.setattr(storage.Store, "index_candidates",
                        lambda store, *args: probes.append(args[1:]) or probe(store, *args))

    def commit(*texts):
        session = db.session()
        session.execute("BEGIN")
        for text in texts:
            session.execute(text)
        staged = sorted(session.tx.staged)
        lookups.clear()
        probes.clear()
        session.execute("COMMIT")
        return staged

    assert commit("MATCH (a:A {K: 1}) SET a.V = 5") == [one]
    assert lookups == [one] and probes == []
    assert commit("MATCH (a:A {K: 1}) SET a.K = 7") == [one]
    assert lookups == [one] and probes == [("K", 7)] * 3  # A, B and C
    assert db.execute("MATCH (a:A)-[e:E]->() RETURN a.K, e.LEAVING").rows == [[7, 7]]
    made = commit("MATCH (b:A {K: 2}) CREATE (b)-[:E {W: 1}]->(:A {K: 3, U: 3})")
    assert len(made) == 2 and sorted(lookups) == made
    assert db.execute(f"MATCH ()-[e:E {{W: 1}}]->() RETURN e.{LEAVING}, e.{ARRIVING}").rows \
        == [[2, 3]]
