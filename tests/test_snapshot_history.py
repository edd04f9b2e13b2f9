"""A snapshot-isolation history checker.

Seeded, single-threaded interleavings of 2-4 sessions run BEGIN, reads,
`SET c.V = c.V + 1` increments, `DELETE ... CASCADE` and re-creates, and
COMMIT or ROLLBACK over a few keyed nodes joined in a ring.  A dict model
keeps the state after each acknowledged commit, a node as its key -> (which
creation of the key it is, V), and each open transaction keeps the writes
it staged.  The checker asserts that

- every read equals the model at its transaction's snapshot plus the
  transaction's own writes;
- a commit is acknowledged exactly when no node it wrote was written by a
  commit after its snapshot (first committer wins) and the keys it creates
  are free, so each acknowledged increment counts exactly once and a
  deleted node stays deleted unless it is re-created;
- the final state equals the model, and a reopen of the log reaches the
  same `state_hash`.

A failure prints the history up to the step that broke a rule."""

import itertools
import random

import pytest

from graphtables import Database
from graphtables.errors import CommitError

KEYS = range(4)
SCHEMA = ("create type C as (K int, V int) nodetype",
          "alter table C add primary key(K)",
          "create type L as (W int) edgetype (leaving C, arriving C)")


def apply_ops(state, ops):
    """The (nodes, edges) after `ops`: ("inc" | "del" | "new", key, node)."""
    nodes, edges = dict(state[0]), set(state[1])
    for op, k, node in ops:
        if op == "inc":
            nodes[k] = (node, nodes[k][1] + 1)
        elif op == "del":
            del nodes[k]
            edges = {e for e in edges if k not in e}
        else:
            nodes[k] = (node, 0)
    return nodes, edges


class History:
    """One seeded history against one file-backed database, and its model."""

    def __init__(self, seed: int, path):
        self.rng = random.Random(seed)
        self.path = path
        self.db = Database(path)
        for text in SCHEMA:
            self.db.execute(text)
        ring = ", ".join(f"(c{k}:C {{K: {k}, V: 0}})" for k in KEYS)
        links = ", ".join(f"(c{k})-[:L]->(c{(k + 1) % len(KEYS)})" for k in KEYS)
        self.db.execute(f"CREATE {ring}, {links}")
        self.new_node = itertools.count(len(KEYS))
        # the committed (nodes, edges) after each acknowledged commit, and the
        # nodes each of those commits wrote
        self.states = [({k: (k, 0) for k in KEYS}, {(k, (k + 1) % len(KEYS)) for k in KEYS})]
        self.written: list[set] = []
        self.sessions = [self.db.session() for _ in range(self.rng.randint(2, 4))]
        # per session: None, or (snapshot index, the ops staged so far)
        self.open: list = [None] * len(self.sessions)
        self.trail: list[str] = []

    def fail(self, message: str):
        pytest.fail(f"{message}\nhistory:\n  " + "\n  ".join(self.trail), pytrace=False)

    def run(self, who: int, text: str):
        self.trail.append(f"s{who}: {text}")
        return self.sessions[who].execute(text)

    def step(self) -> None:
        who = self.rng.randrange(len(self.sessions))
        if self.open[who] is None:
            self.run(who, "BEGIN")
            self.open[who] = (len(self.states) - 1, [])
            return
        snapshot, ops = self.open[who]
        nodes, edges = apply_ops(self.states[snapshot], ops)
        values = {k: v for k, (_, v) in nodes.items()}
        roll, k = self.rng.random(), self.rng.choice(KEYS)
        if roll < 0.25:
            got = self.run(who, f"MATCH (c:C {{K: {k}}}) RETURN c.V").rows
            if got != ([[values[k]]] if k in values else []):
                self.fail(f"s{who} read C {k} as {got}; its snapshot holds {values.get(k)}")
        elif roll < 0.35:
            got = dict(map(tuple, self.run(who, "MATCH (c:C) RETURN c.K, c.V").rows))
            if got != values:
                self.fail(f"s{who} read {got}; its snapshot holds {values}")
        elif roll < 0.42 and not ops:  # a staged delete leaves its edges until commit
            got = {tuple(row) for row in self.run(who, "MATCH (a:C)-[:L]->(b:C) RETURN a.K, b.K").rows}
            if got != edges:
                self.fail(f"s{who} read edges {sorted(got)}; its snapshot holds {sorted(edges)}")
        elif roll < 0.62:
            self.run(who, f"MATCH (c:C {{K: {k}}}) SET c.V = c.V + 1")
            if k in nodes:
                ops.append(("inc", k, nodes[k][0]))
        elif roll < 0.72:
            if k in nodes:
                self.run(who, f"MATCH (c:C {{K: {k}}}) DELETE c CASCADE")
                ops.append(("del", k, nodes[k][0]))
            else:
                self.run(who, f"CREATE (:C {{K: {k}, V: 0}})")
                ops.append(("new", k, next(self.new_node)))
        elif roll < 0.8:
            self.run(who, "ROLLBACK")
            self.open[who] = None
        else:
            self.commit(who)

    def commit(self, who: int) -> None:
        snapshot, ops = self.open[who]
        self.open[who] = None
        created = {node for op, _, node in ops if op == "new"}
        deleted = {node for op, _, node in ops if op == "del"}
        touched = {node for _, _, node in ops} - created
        # nodes it wrote that a commit after its snapshot wrote too, and keys
        # it creates that the latest state gives a node it does not delete
        lost = touched & set().union(*self.written[snapshot:])
        latest = self.states[-1][0]
        taken = {k for k, (node, _) in apply_ops(self.states[snapshot], ops)[0].items()
                 if node in created and k in latest and latest[k][0] not in deleted}
        try:
            self.run(who, "COMMIT")
        except CommitError as exc:
            self.trail.append(f"    refused: {exc}")
            if not lost and not taken:
                self.fail(f"s{who}'s commit was refused, yet no node it wrote changed after "
                          f"its snapshot and no key it creates is taken: {exc}")
            return
        if lost or taken:
            self.fail(f"s{who}'s commit was acknowledged, yet nodes {sorted(lost)} it wrote "
                      f"changed after its snapshot, or keys {sorted(taken)} it creates are taken")
        if ops:
            self.states.append(apply_ops(self.states[-1], ops))
            self.written.append(touched)


def check_history(seed: int, tmp_path, steps: int = 80) -> None:
    history = History(seed, tmp_path / f"h{seed}.db")
    for _ in range(steps):
        history.step()
    for who, tx in enumerate(history.open):
        if tx is not None:
            history.commit(who)
    db, (nodes, edges) = history.db, history.states[-1]
    got = dict(map(tuple, db.execute("MATCH (c:C) RETURN c.K, c.V").rows))
    if got != {k: v for k, (_, v) in nodes.items()}:
        history.fail(f"the final state is {got}; the acknowledged commits make {nodes}")
    got = {tuple(row) for row in db.execute("MATCH (a:C)-[:L]->(b:C) RETURN a.K, b.K").rows}
    if got != edges:
        history.fail(f"the final edges are {sorted(got)}; the model holds {sorted(edges)}")
    digest = db.state_hash()
    db.close()
    again = Database(history.path)
    assert again.state_hash() == digest
    again.close()


@pytest.mark.parametrize("seed", range(40))
def test_seeded_histories_are_snapshot_isolated(seed, tmp_path):
    check_history(seed, tmp_path)
