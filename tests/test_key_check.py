"""The commit's key check against a reference copy of the check it
replaced, which probed the post view (staged rows included) once per
checked row.  Over seeded streams of writes, rekeys and transactions, both
must accept or refuse each commit alike, with the same rule, message and
uid pair; and a commit reads no staged value index at all."""

import random

import pytest

from graphtables import Database, storage
from graphtables.errors import CommitError, GraphTablesError


def reference_check_keys(commit):
    """The key check as it was: every staged row, or every row of a
    rekeyed scope, looks its key up in the post view and is refused at the
    first other row that holds it."""
    catalog, post, base = commit.catalog, commit.post, commit.tx._catalog_base
    rows = [row for _, _, row in commit.changes if row is not None]
    scopes = {}
    for tid in sorted({r.type_id for r in rows}):
        declarer = catalog.key_declarer(tid)
        if declarer is not None:
            scopes[declarer.type_id, tuple(declarer.primary_key)] = False
        for ancestor in catalog.supertype_chain(tid):
            for key in catalog.get(ancestor).unique_keys:
                scopes[ancestor, tuple(key)] = False
    for tid in sorted(commit.rekeyed):
        desc, old = catalog.get(tid), commit.changed[tid]
        held = list(old.unique_keys)
        if all(base.key_declarer(t) is old for t in base.subtype_closure(tid)):
            held.append(old.primary_key)
        for key in (desc.primary_key, *desc.unique_keys):
            if key not in held:
                scopes[tid, tuple(key)] = True
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
                    raise CommitError("key", catalog.get(row.type_id).label,
                                      f"duplicate key {kv!r}", (other.uid, row.uid))


SCHEMA = ("create type A as (K int, L int, V int) nodetype",
          "create type B under A as (X int) nodetype",
          "create type O as (K int, V int) nodetype",
          "alter table O add primary key(K)",
          "create type C as (W int) edgetype (leaving O, arriving O)")


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
        rng.choice(["ALTER TABLE A ADD PRIMARY KEY (K)", "ALTER TABLE A ADD PRIMARY KEY (K, L)",
                    "ALTER TABLE A ADD PRIMARY KEY (ID)", "ALTER TABLE A ADD PRIMARY KEY (L, V)",
                    "ALTER TABLE B ADD PRIMARY KEY (X)", "ALTER TABLE B ADD PRIMARY KEY (X, K)",
                    "ALTER TABLE O ADD PRIMARY KEY (V)", "ALTER TABLE O ADD PRIMARY KEY (K)"]),
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
