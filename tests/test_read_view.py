"""`ReadView`'s three indexed reads against a brute-force answer.

`scan_type`, `lookup_by_value` and `edges_adjacent` find their rows through
indexes over the committed versions and over a transaction's staging.  Over
seeded histories of several sessions, each read is compared with what
`get_row` gives for every uid ever allocated, in views of open transactions,
of the latest state and of snapshots kept from earlier in the history."""

import random

import pytest

from graphtables import Database
from graphtables import values as val
from graphtables.errors import GraphTablesError

SCHEMA = ("create type P as (N int, V int) nodetype",
          "create type Q under P as (W int) nodetype",
          "create type O as (N int, V int) nodetype",
          "create type R as (W int) edgetype (leaving P, arriving P)",
          "create type S as (W int) edgetype (leaving P, arriving P)",
          "alter table P add primary key(N)")


def brute_force(view, uids):
    return [row for row in map(view.get_row, uids) if row is not None]


def shown(rows):
    return [(r.uid, r.type_id, sorted(r.values.items()), r.ends) for r in rows]


def check(view, db):
    """Each of the three reads equals its brute-force answer in `view`."""
    catalog = view.catalog
    rows = brute_force(view, range(1, db.peek_uid()))
    tid = {label: catalog.lookup_label(label).type_id for label in "PQORS"}
    for label in "PQO":
        for subtypes in (True, False):
            closure = set(catalog.subtype_closure(tid[label])) if subtypes else {tid[label]}
            assert (shown(view.scan_type(closure))
                    == shown(r for r in rows if r.type_id in closure)), (label, subtypes)
    probes = {column: {r.values.get(column) for r in rows} | {None, 99}
              for column in ("N", "V", "W")}
    for type_ids in ([tid["P"]], [tid["P"], tid["Q"]], [tid["Q"], tid["O"]],
                     [tid["R"], tid["S"]], [tid["O"]]):
        for column, values in probes.items():
            for value in values:
                expected = [r for r in rows if r.type_id in type_ids
                            and val.values_equal(r.values.get(column), value)]
                assert (shown(view.lookup_by_value(type_ids, column, value))
                        == shown(expected)), (type_ids, column, value)
    for uid in range(1, db.peek_uid()):
        for side, direction in enumerate(("leaving", "arriving")):
            for edge_tids in (None, {tid["R"]}, {tid["S"]}):
                expected = [(r, *r.ends) for r in rows if r.ends is not None
                            and r.ends[side] == uid
                            and (edge_tids is None or r.type_id in edge_tids)]
                got = view.edges_adjacent(uid, direction, edge_tids)
                assert ([(shown([r]), a, b) for r, a, b in got]
                        == [(shown([r]), a, b) for r, a, b in expected]), (uid, direction)


def statement(rng):
    n, m, v = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 3)
    return rng.choice([
        f"CREATE (:P {{N: {n}, V: {v}}})",
        f"CREATE (:Q {{N: {n}, V: {v}, W: {v}}})",
        f"CREATE (:O {{N: {n}, V: {v}}})",
        f"MATCH (a:P {{N: {n}}}) SET a.V = {v}",
        f"MATCH (a:Q {{N: {n}}}) SET a.W = {v}, a.V = {v}",
        f"MATCH (a:O {{V: {v}}}) SET a.V = {(v + 1) % 4}",
        f"MATCH (a:P {{N: {n}}}) DELETE a CASCADE",
        f"MATCH (a:O {{N: {n}}}) DELETE a",
        f"MATCH (a:P {{N: {n}}}), (b:P {{N: {m}}}) CREATE (a)-[:R {{W: {v}}}]->(b)",
        f"MATCH (a:P {{N: {n}}}), (b:P {{N: {m}}}) CREATE (a)-[:S {{W: {v}}}]->(b)",
        f"MATCH ()-[e:R {{W: {v}}}]->() SET e.LEAVING = {n}",
        f"MATCH ()-[e:S]->(b:P {{N: {n}}}) SET e.ARRIVING = {m}, e.W = {v}",
        f"MATCH ()-[e:R {{W: {v}}}]->() DELETE e",
        # stages a write, then fails: the savepoint takes the write back
        f"MATCH (a:P {{N: {n}}}) THEN SET a.V = 7; MATCH (b:P {{N: {n}}}) SET b.V = 'x' < 1 END",
        f"CREATE (:O {{N: {n}, V: 7}}), (:O {{N: {m}, V: 'x' < 1}})",
    ])


def history(seed, steps=120):
    """Run a seeded history; yield each open view and kept snapshot after every step."""
    rng = random.Random(seed)
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    sessions = [db.session() for _ in range(3)]
    kept = []
    # a lower uid committed after a higher one, with a retarget among them
    first, second = sessions[:2]
    first.execute("BEGIN")
    first.execute("CREATE (:P {N: 1, V: 0})-[:R {W: 0}]->(:Q {N: 2, V: 0, W: 0})")
    second.execute("CREATE (:P {N: 3, V: 1}), (:O {N: 3, V: 1})")
    kept.append(db.read_view())
    first.execute("MATCH ()-[e:R]->() SET e.LEAVING = 2")
    with pytest.raises(GraphTablesError):
        first.execute("MATCH (a:P {N: 1}) THEN SET a.V = 7; MATCH (b:P) SET b.V = 'x' < 1 END")
    first.execute("COMMIT")
    for _ in range(steps):
        sess = rng.choice(sessions)
        roll = rng.random()
        try:
            if sess.tx is None and roll < 0.15:
                sess.execute("BEGIN")
            elif sess.tx is not None and roll < 0.12:
                sess.execute(rng.choice(["COMMIT", "COMMIT", "ROLLBACK"]))
            else:
                sess.execute(statement(rng))
        except GraphTablesError:
            pass
        if rng.random() < 0.1:
            kept.append(db.read_view())
        yield db, [s.tx.view() for s in sessions if s.tx is not None] + [db.read_view()] + kept


@pytest.mark.parametrize("seed", range(6))
def test_reads_match_a_brute_force_answer(seed):
    for db, views in history(seed):
        for view in views:
            check(view, db)
