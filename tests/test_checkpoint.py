"""Checkpoints: `Database.checkpoint()` rewrites the log as one commit
record of the live state, a commit triggers one once the log's dead row ops
outnumber its live rows and the floor, and a failed rewrite keeps the log."""

import os
import shutil
import stat

import pytest

from graphtables import Database, engine, values
from graphtables.engine import render_row
from graphtables.errors import StorageError
from graphtables.log import encode_record, read_records, write_record

from test_engine import record_ends

ZOO = [
    "CREATE TYPE Addr AS (City CHAR, Zip INT)",
    "CREATE TYPE Party AS (K INT, Name CHAR, Home Addr) NODETYPE",
    "ALTER TABLE Party ADD PRIMARY KEY (K)",
    # a subtype keyed apart from its supertype
    "CREATE TYPE Firm UNDER Party AS (Reg INT)",
    "ALTER TABLE Firm ADD PRIMARY KEY (Reg)",
    "CREATE TYPE Person UNDER Party AS (Born DATE)",
    "CREATE (:Person {K: 1, Name: 'Ada', Born: DATE'1815-12-10', Note: 'x'})",
    "CREATE (:Firm {K: 2, Reg: 77, Name: 'Acme'})",
    "MATCH (a:Person {K: 1}), (f:Firm {K: 2}) THEN CREATE (a)-[:Works {Pay: 12.50€}]->(f) END",
    "CREATE (:Person {K: 3, Name: 'Bob'})-[:Knows]->(:Person {K: 4, Name: 'Cy'})",
    # Knows is retargeted: it now arrives at Party, the common supertype
    "MATCH (a:Person {K: 3}), (f:Firm {K: 2}) THEN CREATE (a)-[:Knows]->(f) END",
    "ALTER TYPE Works SET CARDINALITY LEAVING 0..1 ARRIVING 0..*",
    "CREATE (:Loner {N: 1, Gone: 5, Amt: 1.25})",
    "ALTER TABLE Loner DROP COLUMN Gone",
    "ALTER TABLE Loner ADD CHECK (N > 0)",
    "CREATE (:Tag {T: 'a'}), (:Tag {T: 'b'})",
    "ALTER TABLE Tag ADD PRIMARY KEY (T)",
    "MATCH (x:Person {K: 4}) SET x.Name = 'Cyd'",
    "MATCH (x:Person {K: 1}) SET x.K = 11",
    "CREATE (:Person {K: 5, Name: 'Dee'})",
    "MATCH (x:Person {K: 5}) DELETE x",
    "MATCH (x:Person {K: 3}) DELETE x CASCADE",
]


def build_zoo(path) -> Database:
    db = Database(path)
    for text in ZOO:
        db.execute(text)
    addr = db.catalog.lookup_label("ADDR", "plain")
    tx = db.begin()
    tx.insert_row("PARTY", {"K": 9, "HOME": values.StructValue(
        addr.type_id, (("CITY", "Graz"), ("ZIP", 8010)))})
    tx.commit()
    tx = db.begin()  # a transaction that rolls back takes a uid the log never names
    tx.insert_row("PARTY", {"K": 10})
    tx.rollback()
    return db


def observe(db: Database) -> dict:
    """What a reopen must reproduce, read through the engine's surfaces."""
    view = db.read_view()
    per_type = {}
    for desc in db.catalog.types():
        if desc.kind == "node":
            text = f"MATCH (x:{desc.label}) RETURN x"
        elif desc.kind == "edge":
            text = f"MATCH ()-[x:{desc.label}]->() RETURN x"
        else:
            continue
        per_type[desc.label] = sorted(render_row(view, row) for (row,) in db.execute(text).rows)
    return {
        "state_hash": db.state_hash(),
        "graphs": db.execute("SHOW GRAPHS").rows,
        "components": [(comp.representative, sorted(comp.nodes), sorted(comp.edges), comp.seq)
                       for comp in db.graphs.components()],
        "per_type": per_type,
        "seq": db.published[0],
        "next_uid": (db.logged_next_uid, db.peek_uid()),
    }


def test_a_checkpoint_reopens_to_what_the_full_log_reopens_to(tmp_path):
    full, ckpt = tmp_path / "full.db", tmp_path / "ckpt.db"
    writer = build_zoo(full)
    seen = observe(writer)
    writer.close()
    shutil.copy(full, ckpt)
    db = Database(ckpt)
    db.checkpoint()
    first = ckpt.read_bytes()
    db.checkpoint()
    assert ckpt.read_bytes() == first  # two checkpoints of one state
    db.close()
    assert len(record_ends(ckpt)) == 1 and first[8:15] == b'{"seq":'

    reopened_full, reopened_ckpt = Database(full), Database(ckpt)
    # an open's components hold its last seq, and its next uid is the logged
    # one, which the writer's rolled-back transaction did not advance
    logged = seen["next_uid"][0]
    assert seen["next_uid"][1] == logged + 1
    assert observe(reopened_full) == observe(reopened_ckpt) == {
        **seen, "components": [c[:3] + (seen["seq"],) for c in seen["components"]],
        "next_uid": (logged, logged)}
    # the writer's own checkpoint is the same bytes as one of its reopened log
    reopened_full.checkpoint()
    assert full.read_bytes() == first
    for db in (reopened_full, reopened_ckpt):
        db.execute("CREATE (:Tag {T: 'c'})")
    assert observe(reopened_full) == observe(reopened_ckpt)
    reopened_full.close()
    reopened_ckpt.close()


def test_the_checkpoint_record_holds_every_descriptor_and_live_row_in_order(tmp_path):
    path = tmp_path / "z.db"
    db = build_zoo(path)
    db.checkpoint()
    live, seq, next_uid = db.store.live, db.published[0], db.logged_next_uid
    db.close()
    with open(path, "rb") as fh:
        (payload,) = read_records(fh)
    assert (payload["seq"], payload["next_uid"]) == (seq, next_uid)
    assert [d["type_id"] for d in payload["schema"]] == list(range(1, 9))
    assert [op[0] for op in payload["rows"]] == ["put"] * live
    uids = [op[1] for op in payload["rows"]]
    assert uids == sorted(uids)


@pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 300])
def test_a_streamed_record_is_the_bytes_encode_record_makes(tmp_path, count):
    """Whatever the rows fill of the last chunk, `write_record` writes what
    `encode_record` returns for the same rows, header included."""
    db = Database()
    if count:
        db.execute("CREATE " + ", ".join(f"(:P {{N: {n}, S: 'é{n}', D: 1.5}})"
                                         for n in range(count)))
    rows = list(db.store.live_rows())
    schema = [db.catalog.descriptor_to_dict(d) for d in db.catalog.types()]
    with open(tmp_path / "r.bin", "w+b") as fh:
        write_record(fh, 4, schema, iter(rows), 99)
    assert (tmp_path / "r.bin").read_bytes() == encode_record(
        4, schema, [(row.uid, None, row) for row in rows], 99)


def test_a_checkpoint_stops_the_warning_for_a_dropped_check(tmp_path, caplog):
    """A log that holds a CHECK on a column its type no longer has warns
    on open; once a checkpoint has written the catalog without it, no
    later reopen warns."""
    source = Database()
    for text in ("CREATE TYPE A AS (K INT, V INT) NODETYPE", "ALTER TABLE A ADD CHECK (V < 3)"):
        source.execute(text)
    a = source.catalog.descriptor_to_dict(source.catalog.lookup_label("A"))
    a_without_v = {**a, "columns": [c for c in a["columns"] if c[0] != "V"]}
    path = tmp_path / "old.db"
    path.write_bytes(encode_record(1, [a], {}, 1) + encode_record(2, [a_without_v], {}, 1))

    def warnings_on_open():
        caplog.clear()
        with caplog.at_level("WARNING", logger="graphtables"):
            db = Database(path)
        return db, [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    db, warned = warnings_on_open()
    assert len(warned) == 1 and "check (V < 3) of A" in warned[0]
    before = db.state_hash()
    db.checkpoint()
    db.close()
    for _ in range(2):
        db, warned = warnings_on_open()
        assert warned == []
        assert db.state_hash() == before
        assert db.catalog.lookup_label("A").constraints == []
        db.close()


def test_checkpoint_without_a_log_does_nothing(tmp_path):
    db = Database()
    db.execute("CREATE (:P {N: 1})")
    db.checkpoint()
    closed = Database(tmp_path / "c.db")
    closed.close()
    closed.checkpoint()
    assert (tmp_path / "c.db").read_bytes() == b""


def due_after_sets(tmp_path, monkeypatch, floor=4):
    """A one-row log and the floor lowered to `floor`: each SET adds one
    dead row op, so the checkpoint falls due with SET number `floor` + 1.
    Returns (db, path, run a SET of V to i)."""
    monkeypatch.setattr(engine, "_CHECKPOINT_FLOOR", floor)
    path = tmp_path / "c.db"
    db = Database(path)
    db.execute("CREATE (:P {K: 1, V: 0})")

    def set_v(i):
        assert db.execute(f"MATCH (p:P {{K: 1}}) SET p.V = {i}") is None
    return db, path, set_v


def test_a_commit_checkpoints_once_dead_row_ops_outnumber_live_rows_and_the_floor(
        tmp_path, monkeypatch):
    db, path, set_v = due_after_sets(tmp_path, monkeypatch)
    for i in range(1, 6):
        set_v(i)
    # 6 row ops for 1 live row: 5 dead, past the floor of 4
    assert len(record_ends(path)) == 1 and db._log_ops == 1
    set_v(6)
    assert len(record_ends(path)) == 2 and db._log_ops == 2
    seen = db.state_hash()
    db.close()
    db = Database(path)
    assert db.state_hash() == seen and db._log_ops == 2
    db.close()


@pytest.mark.parametrize("step", ["replace", "fsync"])
def test_a_checkpoint_that_fails_before_its_rename_keeps_the_log(tmp_path, monkeypatch, caplog,
                                                                 step):
    """The commit that made the checkpoint due is acknowledged, the old log
    reopens to the same state, and that open deletes the stale tmp file."""
    db, path, set_v = due_after_sets(tmp_path, monkeypatch)
    for i in range(1, 5):
        set_v(i)
    old_log = path.read_bytes()

    def fail(*args):
        raise OSError(5, "Input/output error")
    with monkeypatch.context() as patch, caplog.at_level("WARNING", logger="graphtables"):
        patch.setattr(os, step, fail)
        set_v(5)
    assert [r.getMessage() for r in caplog.records] == [
        f"log {path}: checkpoint failed ([Errno 5] Input/output error); the log is kept"]
    assert db.execute("MATCH (p:P) RETURN p.V").rows == [[5]]
    assert path.read_bytes().startswith(old_log) and len(record_ends(path)) == 6
    tmp = tmp_path / "c.db.tmp"
    assert tmp.exists()
    seen = db.state_hash()
    db.close()
    db = Database(path)
    assert not tmp.exists()
    assert db.state_hash() == seen
    db.close()


def test_a_checkpoint_that_fails_after_its_rename_refuses_later_commits(tmp_path, monkeypatch,
                                                                        caplog):
    """Once the log is renamed, a failed directory fsync leaves the rename
    maybe not durable: the commit stands, every later one is refused, and
    reopening the rewritten log recovers."""
    db, path, set_v = due_after_sets(tmp_path, monkeypatch)
    for i in range(1, 5):
        set_v(i)
    fsync = os.fsync

    def fail_on_a_directory(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(5, "Input/output error")
        fsync(fd)
    with monkeypatch.context() as patch, caplog.at_level("WARNING", logger="graphtables"):
        patch.setattr(os, "fsync", fail_on_a_directory)
        set_v(5)
    assert "was rewritten, but not made durable" in caplog.records[0].getMessage()
    assert len(record_ends(path)) == 1
    seen = db.state_hash()
    with pytest.raises(StorageError, match="commits are refused"):
        set_v(6)
    with pytest.raises(StorageError, match="commits are refused"):
        db.checkpoint()
    db.close()
    db = Database(path)
    assert db.state_hash() == seen
    db.execute("MATCH (p:P {K: 1}) SET p.V = 6")
    db.close()


def test_pure_inserts_never_checkpoint(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(Database, "checkpoint", lambda self: calls.append(self))
    db = Database(tmp_path / "ins.db")
    for base in range(0, 20000, 50):
        db.execute("CREATE " + ", ".join(f"(:P {{N: {n}}})" for n in range(base, base + 50)))
    assert calls == [] and db._log_ops == db.store.live == 20000
    db.close()


def test_one_row_updates_keep_the_log_near_its_live_state(tmp_path, monkeypatch):
    """50,000 one-row updates of 3,000 live rows: the log never exceeds
    3.5 times the size of the live state's checkpoint.  It peaks just before
    a checkpoint, at that checkpoint plus one record per dead row op; a
    record carries its header, seq and next uid around its one op, so here
    it takes about 2.3 times a live row's share of the checkpoint."""
    path = tmp_path / "upd.db"
    db = Database(path)
    db.execute("CREATE " + ", ".join(f"(:P {{N: {n}, V: 0}})" for n in range(3000)))
    uids = [row.uid for row in db.store.live_rows()]
    sizes, checkpoint = [], Database.checkpoint

    def measured(self):
        sizes.append(os.path.getsize(path))
        checkpoint(self)
    monkeypatch.setattr(Database, "checkpoint", measured)
    for i in range(50000):
        tx = db.begin()
        tx.update_row(uids[i * 7 % 3000], {"V": i})
        tx.commit()
    sizes.append(os.path.getsize(path))
    db.checkpoint()
    whole = os.path.getsize(path)
    assert len(sizes) > 10 and max(sizes) < 3.5 * whole
    db.close()
