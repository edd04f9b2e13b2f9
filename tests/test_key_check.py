"""The commit's key check against a reference check that probes the post
view (staged rows included) once per checked row.  Over seeded streams of
writes, rekeys and transactions, both must accept or refuse each commit
alike, with the same rule, message and uid pair; every committed state must
commit whole; and a commit reads no staged value index at all."""

import random

import pytest

from graphtables import Database, storage
from graphtables.errors import CommitError, GraphTablesError
from oracles import whole_state_judge


def reference_check_keys(commit):
    """Each staged row holds every key declared on its supertype chain,
    unique over the declaring type and its subtypes; a key that its
    declarer did not have in the BEGIN catalog is checked over every row it
    covers.  Each checked row looks its key up in the post view and is
    refused at the first other row that holds it, naming the declaring type."""
    catalog, post, base = commit.catalog, commit.post, commit.tx._catalog_base

    def declared(cat, tid):
        desc = cat.get(tid)
        return [tuple(key) for key in (desc.primary_key, *desc.unique_keys) if key]

    def held(tid, key):
        return tid in {d.type_id for d in base.types()} and key in declared(base, tid)

    rows = [row for _, _, row in commit.changes if row is not None]
    scopes = {}
    for tid in sorted({r.type_id for r in rows}):
        for ancestor in catalog.supertype_chain(tid):
            for key in declared(catalog, ancestor):
                scopes[ancestor, key] = False
    for tid in commit.changed:
        for ancestor in catalog.supertype_chain(tid):
            for key in declared(catalog, ancestor):
                if not held(ancestor, key):
                    scopes[ancestor, key] = True
    for (scope_tid, key), every_row in scopes.items():
        closure = catalog.subtype_closure(scope_tid)
        for row in post.scan_type(closure) if every_row else rows:
            if row.type_id not in closure:
                continue
            kv = tuple(row.values.get(c) for c in key)
            if None in kv:
                continue
            for other in post.lookup_by_value(closure, key[0], kv[0]):
                if other.uid != row.uid and tuple(other.values.get(c) for c in key) == kv:
                    raise CommitError("key", catalog.get(scope_tid).label,
                                      f"duplicate key {kv!r}", (other.uid, row.uid))


SCHEMA = ("create type A as (K int, L int, V int) nodetype",
          "create type B under A as (X int) nodetype",
          "create type O as (K int, V int) nodetype",
          "alter table O add primary key(K)",
          "create type C as (W int) edgetype (leaving O, arriving O)")


REKEYS = ("ALTER TABLE A ADD PRIMARY KEY (K)", "ALTER TABLE A ADD PRIMARY KEY (K, L)",
          "ALTER TABLE A ADD PRIMARY KEY (ID)", "ALTER TABLE A ADD PRIMARY KEY (L, V)",
          "ALTER TABLE B ADD PRIMARY KEY (X)", "ALTER TABLE B ADD PRIMARY KEY (X, K)",
          "ALTER TABLE O ADD PRIMARY KEY (V)", "ALTER TABLE O ADD PRIMARY KEY (K)")


def key_statement(rng):
    k, m, v, x = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3), rng.randint(0, 4)
    l = rng.choice([None, 0, 1])  # a NULL column of a composite key holds no key value
    lv = "" if l is None else f", L: {l}"
    return rng.choice([
        f"CREATE (:A {{K: {k}, V: {v}{lv}}})",
        f"CREATE (:A {{ID: {x}, K: {k}{lv}}})",
        f"CREATE (:B {{K: {k}, X: {x}, V: {v}{lv}}})",
        f"CREATE (:B {{ID: {x + 2}, K: {k}, X: {x}}})",
        f"CREATE (:O {{K: {k}, V: {v}}})",
        f"MATCH (a:A {{K: {k}}}) SET a.V = {v}",
        f"MATCH (a:A {{V: {v}}}) SET a.V = {(v + 1) % 4}",
        f"MATCH (a:A {{K: {k}}}) SET a.K = {m}",
        f"MATCH (a:A {{V: {v}}}) SET a.L = {'NULL' if l is None else l}",
        f"MATCH (a:A {{K: {k}}}) SET a.ID = {x}",
        f"MATCH (a:B {{X: {x}}}) SET a.X = {m}",
        f"MATCH (a:A {{K: {k}}}) DELETE a",
        f"MATCH (a:O {{K: {k}}}) SET a.K = {m}",
        f"MATCH (a:O {{K: {k}}}) SET a.V = {v}",
        f"MATCH (a:O {{K: {k}}}), (b:O {{K: {m}}}) CREATE (a)-[:C {{W: {v}}}]->(b)",
        f"MATCH (a:O {{K: {k}}}), (b:O {{K: {m}}}) CREATE (a)-[:C {{ID: {x + 100}}}]->(b)",
        f"MATCH ()-[e:C {{W: {v}}}]->() SET e.ID = {x + 100}",
        f"MATCH (a:O {{K: {k}}}) DELETE a CASCADE",
        rng.choice(REKEYS),
    ])


def outcome(check):
    try:
        check()
    except CommitError as exc:
        return exc.rule, str(exc), exc.uids
    return None


@pytest.mark.parametrize("seed", range(10))
def test_key_check_matches_the_reference(seed, monkeypatch):
    real, outcomes = storage._Commit.check_keys, []

    def both(commit):
        want = outcome(lambda: reference_check_keys(commit))
        got = outcome(lambda: real(commit))
        assert got == want
        outcomes.append(got)
        if got is not None:
            raise CommitError(got[0], "", "")

    monkeypatch.setattr(storage._Commit, "check_keys", both)
    rng = random.Random(seed)
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    sessions = [db.session(), db.session()]
    for _ in range(400):
        session = rng.choice(sessions)
        roll = rng.random()
        try:
            if session.tx is None and roll < 0.15:
                session.execute("BEGIN")
            elif session.tx is not None and roll < 0.25:
                session.execute(rng.choice(["COMMIT", "COMMIT", "ROLLBACK"]))
            else:
                session.execute(key_statement(rng))
        except GraphTablesError:
            pass
    refused = [o for o in outcomes if o is not None]
    assert len(refused) >= 10 and len(outcomes) - len(refused) >= 40


def test_a_commit_reads_no_staged_value_index(monkeypatch):
    """A SET of a non-key column makes no key probe, a key SET probes the
    store only, and no commit builds its staging's value index."""
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    db.execute("CREATE (:O {K: 1, V: 1}), (:O {K: 2, V: 2}), (:B {K: 1, X: 1})")
    db.execute("MATCH (a:O {K: 1}), (b:O {K: 2}) CREATE (a)-[:C {W: 1}]->(b)")
    probes = []
    real = storage.Store.index_candidates
    monkeypatch.setattr(storage.Store, "index_candidates",
                        lambda store, *probe: probes.append(probe) or real(store, *probe))
    o1, o2, b, edge = (row.uid for row in db.read_view().scan_type(
        [db.catalog.lookup_label(label).type_id for label in ("O", "B", "C")]))

    def commit(stage):
        tx = db.begin()
        stage(tx)
        probes.clear()
        tx.commit()
        assert tx.staged.index.values == {}
        return [probe[1:] for probe in probes]

    assert commit(lambda tx: tx.update_row(o1, {"V": 5})) == []
    assert commit(lambda tx: tx.update_row(edge, {"W": 2})) == []
    assert commit(lambda tx: tx.update_row(b, {"V": 3, "L": 4})) == []
    # the rekeyed node restages its edge, whose own key did not change
    assert commit(lambda tx: tx.update_row(o1, {"K": 7})) == [("K", 7)]
    assert commit(lambda tx: tx.insert_row("O", {"K": 3})) == [("K", 3)]
    assert commit(lambda tx: tx.delete_row(o2, cascade=True)) == []
    with pytest.raises(CommitError) as err:
        commit(lambda tx: tx.insert_row("O", {"K": 7}))
    assert err.value.uids[0] == o1


# row constraints, so that a commit that adds one must judge every row
CHECKS = ("ALTER TABLE A ADD CHECK (V < 3)", "ALTER TABLE O ADD CHECK (V <> 2)")
# multiplicities, so that a commit that sets one must judge every endpoint, and
# that one edge deletion may leave a node short of its minimum
CARDINALITIES = tuple(f"ALTER TYPE C SET CARDINALITY LEAVING {leaving} ARRIVING {arriving}"
                      for leaving, arriving in (("0..*", "0..*"), ("1..*", "0..*"),
                                                ("0..*", "1..*"), ("0..2", "0..*"),
                                                ("0..*", "0..1"), ("1..2", "1..*")))
# column changes, which rewrite every row that held the dropped column
COLUMNS = tuple(f"ALTER TABLE {label} {change}" for label in "ABOC"
                for change in ("ADD COLUMN Z int", "DROP COLUMN Z", "DROP COLUMN L",
                               "DROP COLUMN W", "DROP COLUMN V"))


def schema_statement(rng):
    """A statement of the whole-state streams beside `key_statement`'s."""
    k, v, roll = rng.randint(0, 5), rng.randint(0, 3), rng.random()
    if roll < 0.5:
        return rng.choice(CARDINALITIES if roll < 0.25 else COLUMNS)
    return rng.choice([
        f"MATCH (a:O) CREATE (a)-[:C {{W: {v}}}]->(a)",
        f"MATCH ()-[e:C {{W: {v}}}]->() DELETE e",
        f"MATCH (a:A {{K: {k}}}) SET a.Z = {v}",
        f"MATCH (a:O {{K: {k}}}) SET a.Z = {v}",
    ])


@pytest.mark.parametrize("seed", range(40))
def test_every_committed_state_commits_whole(seed):
    """Nicolas (1982): an incremental check is correct only if it equals
    checking the whole state, so each state a commit leaves must commit
    whole on an empty store.  The streams also add row constraints, set
    multiplicities, add and drop columns, delete edges, and rekey more
    often; in a transaction, a rekey is a pair on one type, so a key
    installed there may be demoted before COMMIT."""
    rng = random.Random(7700 + seed)
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    sessions = [db.session(), db.session()]
    for step in range(300):
        session, roll, seq = rng.choice(sessions), rng.random(), db.store.commit_seq
        if session.tx is None and roll < 0.15:
            texts = ["BEGIN"]
        elif session.tx is not None and roll < 0.25:
            texts = [rng.choice(["COMMIT", "COMMIT", "ROLLBACK"])]
        elif roll > 0.99:
            texts = [rng.choice(CHECKS)]
        elif roll > 0.85:
            texts = [schema_statement(rng)]
        elif roll > 0.79 and session.tx is not None:
            label = rng.choice("ABO")
            texts = rng.sample([text for text in REKEYS if f" {label} " in text], 2)
        elif roll > 0.79:
            texts = [rng.choice(REKEYS)]
        else:
            texts = [key_statement(rng)]
        for text in texts:
            try:
                session.execute(text)
            except GraphTablesError:
                pass
        if db.store.commit_seq != seq:
            try:
                whole_state_judge(db)
            except CommitError as exc:
                pytest.fail(f"step {step}: the state {texts!r} committed is refused whole: {exc}")


KEYED_APART = ("create type A as (K int, V int) nodetype", "alter table A add primary key(K)",
               "create type B under A as (X int) nodetype", "alter table B add primary key(X)",
               "create type P as (N int) nodetype",
               "create type E as () edgetype (leaving P, arriving A)")


def keyed_apart():
    """A keyed on K, `B UNDER A` keyed on X, and E edges from P into A."""
    db = Database()
    for text in KEYED_APART:
        db.execute(text)
    return db


def test_a_subtype_row_holds_its_supertypes_key_whatever_the_commit_touches():
    """A B row holds A's key K as well as its own X, so the state after
    the B CREATE would hold a duplicate K, and the later SET of a non-key
    column, whose state differs only in V, is no more refused for it."""
    db = keyed_apart()
    db.execute("CREATE (:A {K: 1, V: 0})")
    with pytest.raises(CommitError, match=r"duplicate key \(1,\)") as err:
        db.execute("CREATE (:B {K: 1, X: 1, V: 5})")
    assert err.value.rule == "key"
    db.execute("MATCH (a:A {V: 0}) SET a.V = 2")
    db.execute("CREATE (:B {K: 2, X: 1, V: 5})")
    db.execute("MATCH (a:A {V: 2}) SET a.V = 3")
    assert db.execute("MATCH (a:A) RETURN a.K, a.V").rows == [[1, 3], [2, 5]]


def test_a_key_violation_names_the_type_that_declares_the_key():
    """A B row that repeats an A row's K breaks A's key, not B's own X."""
    db = keyed_apart()
    db.execute("CREATE (:A {K: 1})")
    with pytest.raises(CommitError) as err:
        db.execute("CREATE (:B {K: 1, X: 1})")
    assert str(err.value) == "key violation on A: duplicate key (1,) (uid 1, 2)"
    db.execute("CREATE (:B {K: 2, X: 1})")
    with pytest.raises(CommitError) as err:
        db.execute("CREATE (:B {K: 3, X: 1})")
    assert str(err.value) == "key violation on B: duplicate key (1,) (uid 3, 4)"


def test_setting_an_edge_reference_to_the_value_it_holds_keeps_its_endpoint():
    db = keyed_apart()
    db.execute("CREATE (:P {N: 1}), (:A {K: 1})")
    with pytest.raises(CommitError) as err:
        db.execute("CREATE (:B {K: 1, X: 7})")
    assert err.value.rule == "key"
    db.execute("CREATE (:B {K: 2, X: 7})")
    db.execute("MATCH (p:P), (b:B) CREATE (p)-[:E]->(b)")
    db.execute("MATCH ()-[e:E]->() SET e.ARRIVING = 2")
    assert db.execute("MATCH (:P)-[:E]->(b:B) RETURN b.X").rows == [[7]]
    assert db.execute("MATCH (:P)-[e:E]->(a:A) RETURN a.K, e.ARRIVING").rows == [[2, 2]]
