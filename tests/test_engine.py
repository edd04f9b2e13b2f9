"""Database lifecycle: session transaction statements, commit-log replay,
torn-tail tolerance, and state digests."""

import datetime
import json
import os
import struct
import sys
import zlib
from decimal import Decimal

import pytest

from graphtables import values
from graphtables.engine import Database, render_row
from graphtables.errors import CommitError, ExecutionError, GraphTablesError, StorageError
from graphtables.log import read_records
from graphtables.storage import ReadView

from conftest import FAMILY_CREATE, names

DESCENDANTS = "MATCH ({Name:'Peter Smith'}) [()-[:Child]->()]+ (x) RETURN x.Name"


# --- transaction statements through a session ---

def test_begin_twice_is_refused(db):
    sess = db.session()
    sess.execute("BEGIN")
    with pytest.raises(StorageError, match="already open"):
        sess.execute("BEGIN")


def test_commit_needs_an_open_transaction(db):
    with pytest.raises(StorageError, match="no open transaction"):
        db.session().execute("COMMIT")


def test_rollback_needs_an_open_transaction(db):
    with pytest.raises(StorageError, match="no open transaction"):
        db.session().execute("ROLLBACK")


def test_open_transaction_is_private_until_commit(db):
    writer = db.session()
    writer.execute("BEGIN")
    writer.execute("CREATE (:Person {Name: 'Ada'})")
    # a concurrent reader on its own snapshot sees nothing yet
    assert db.execute("MATCH (x:Person) RETURN x.Name").rows == []
    writer.execute("COMMIT")
    assert names(db.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada"}


def test_rollback_discards_staged_work(db):
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("CREATE (:Person {Name: 'Ada'})")
    sess.execute("ROLLBACK")
    assert db.execute("MATCH (x:Person) RETURN x.Name").rows == []
    # the session is usable again afterwards
    sess.execute("CREATE (:Person {Name: 'Bea'})")
    assert names(db.execute("MATCH (x:Person) RETURN x.Name")) == {"Bea"}


def test_statement_outside_begin_commits_immediately(db):
    db.execute("CREATE (:Person {Name: 'Ada'})")
    assert names(db.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada"}


def test_multi_statement_transaction_commits_as_one(db):
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("CREATE (a:Person {Name: 'Ada'})")
    # aliases are statement-scoped, so the hookup rereads Ada from staging
    sess.execute("MATCH (a:Person {Name: 'Ada'}) "
                 "THEN CREATE (b:Person {Name: 'Bea'}), (b)-[:Knows]->(a) END")
    sess.execute("COMMIT")
    table = db.execute("MATCH (x:Person)-[:Knows]->(y:Person) RETURN y.Name")
    assert names(table) == {"Ada"}



def test_failed_statement_inside_a_transaction_leaves_no_staged_rows(db):
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("CREATE (:Q {V: 0})")
    with pytest.raises(GraphTablesError, match="cannot compare"):
        sess.execute("CREATE (:Q {V: 1}), (:Q {V: 'x' < 1})")
    sess.execute("COMMIT")
    assert db.execute("MATCH (q:Q) RETURN q.V").rows == [[0]]


def test_type_created_by_a_failed_statement_inside_a_transaction_is_undone(db):
    sess = db.session()
    sess.execute("BEGIN")
    with pytest.raises(GraphTablesError, match="cannot compare"):
        sess.execute("CREATE (:Q {V: 1}), (:Q {V: 'x' < 1})")
    sess.execute("CREATE (:R {V: 2})")
    sess.execute("COMMIT")
    assert db.catalog.lookup_label("Q") is None
    assert db.execute("MATCH (r:R) RETURN r.V").rows == [[2]]


@pytest.mark.parametrize("text", [
    "MATCH (a:P {N: 1}) [()-[e:S]->()]{1,2} (b) SET a.X = e",
    "MATCH (a:P {N: 1}) [()-[:S]->(m)]{1,2} (b) THEN CREATE (:Z {X: m}) END",
])
def test_arrays_cannot_be_stored(db, text):
    db.execute("CREATE (:P {N: 1})-[:S]->(:P {N: 2})-[:S]->(:P {N: 3})")
    with pytest.raises(ExecutionError, match="X cannot hold an array"):
        db.session().execute(text)
    assert db.catalog.lookup_label("Z") is None


# --- file-backed databases ---

def test_schema_statements_that_change_nothing_write_no_record(tmp_path):
    path = tmp_path / "noop.db"
    db = Database(path)
    db.execute("CREATE (:P {N: 1})-[:S]->(:P {N: 2})")
    before = (path.stat().st_size, db.store.commit_seq, db.catalog)
    db.execute("ALTER TYPE S SET CARDINALITY LEAVING 0..* ARRIVING 0..*")
    db.execute("ALTER TABLE P ADD PRIMARY KEY(ID)")
    assert (path.stat().st_size, db.store.commit_seq, db.catalog) == before
    db.close()


def test_reopen_replays_rows_and_schema(tmp_path):
    path = tmp_path / "family.db"
    db = Database(path)
    db.execute(FAMILY_CREATE)
    before = db.state_hash()
    db.close()

    db2 = Database(path)
    assert db2.name == "family"
    assert db2.state_hash() == before
    assert names(db2.execute(DESCENDANTS)) == {
        "Fred Smith", "Mary Smith", "Lee Smith", "Bill Smith"}
    db2.close()


def test_structured_column_survives_reopen(tmp_path):
    path = tmp_path / "homes.db"
    db = Database(path)
    db.execute("create type Addr as (City char, Zip int)")
    db.execute("create type Home as (Name char, Place Addr) nodetype")
    addr = db.catalog.lookup_label("ADDR", "plain")
    place = values.StructValue(addr.type_id, (("CITY", "Graz"), ("ZIP", 8010)))
    tx = db.begin()
    tx.insert_row("HOME", {"NAME": "h", "PLACE": place})
    tx.commit()
    with pytest.raises(CommitError, match="wrong structured type"):
        tx = db.begin()
        tx.insert_row("HOME", {"NAME": "x", "PLACE": values.StructValue(99, ())})
        tx.commit()
    before = db.state_hash()
    db.close()

    db = Database(path)
    assert db.state_hash() == before
    column = db.catalog.lookup_label("HOME").own_column("PLACE")
    assert (column.data_type, column.struct_type_id) == (values.STRUCTURED, addr.type_id)
    assert db.execute("MATCH (h:Home) RETURN h.Place").rows == [[place]]
    db.close()


@pytest.mark.parametrize("fields", [(("CITY", "Graz"), ("STREET", "Main")),
                                    (("CITY", "Graz"), ("ZIP", "8010"))],
                         ids=["undeclared-field", "field-of-the-wrong-type"])
def test_a_structured_value_with_an_invalid_field_is_refused(fields):
    db = Database()
    db.execute("create type Addr as (City char, Zip int)")
    db.execute("create type Home as (Name char, Place Addr) nodetype")
    addr = db.catalog.lookup_label("ADDR", "plain")
    tx = db.begin()
    tx.insert_row("HOME", {"NAME": "x", "PLACE": values.StructValue(addr.type_id, fields)})
    with pytest.raises(CommitError, match=f"structured value field {fields[1][0]} is invalid"):
        tx.commit()
    assert db.execute("MATCH (h:Home) RETURN h.Name").rows == []


def test_every_value_kind_survives_reopen(tmp_path):
    """Decimal, date, currency, bool and big-int values written by
    statements, and a structured value (which has no literal), reopen as
    they were committed."""
    path = tmp_path / "kinds.db"
    db = Database(path)
    db.execute("create type Addr as (City char, Zip int)")
    db.execute("create type V as (N int, D decimal, Flag bool, Day date, Price currency, "
               "Big int, Place Addr) nodetype")
    db.execute("CREATE (:V {N: 1, D: 2.5, Flag: TRUE, Day: DATE'2023-03-22', Price: 12.50€, "
               "Big: 123456789012345678901234567890})")
    db.execute("CREATE (:V {N: 2, D: 0.001, Flag: FALSE, Day: DATE'1999-12-31', "
               "Price: '0.04 GBP', Big: -1})")
    db.execute("MATCH (v:V {N: 1}) SET v.Big = v.Big * v.Big, v.D = v.D / 4")
    addr = db.catalog.lookup_label("ADDR", "plain")
    place = values.StructValue(addr.type_id, (("CITY", "Graz"), ("ZIP", 8010)))
    tx = db.begin()
    tx.insert_row("V", {"N": 3, "PLACE": place})
    tx.commit()
    query = "MATCH (v:V) RETURN v.N, v.D, v.Flag, v.Day, v.Price, v.Big, v.Place"
    before, rows = db.state_hash(), db.execute(query).rows
    db.close()

    db = Database(path)
    assert db.state_hash() == before
    assert db.execute(query).rows == rows == [
        [1, Decimal("0.625"), True, datetime.date(2023, 3, 22),
         values.Currency(Decimal("12.50"), "EUR"), 123456789012345678901234567890 ** 2, None],
        [2, Decimal("0.001"), False, datetime.date(1999, 12, 31),
         values.Currency(Decimal("0.04"), "GBP"), -1, None],
        [3, None, None, None, None, None, place]]
    db.close()


def test_reopen_rebuilds_component_registry(tmp_path):
    db = Database(tmp_path / "family.db")
    db.execute(FAMILY_CREATE)
    db.close()

    db2 = Database(tmp_path / "family.db")
    table = db2.execute("SHOW GRAPHS")
    assert table.columns == ["GRAPH", "NODES", "EDGES"]
    assert [list(r) for r in table.rows] == [[1, 5, 4]]
    db2.close()


def test_reopen_continues_the_uid_sequence(tmp_path):
    path = tmp_path / "people.db"
    db = Database(path)
    db.execute("CREATE (:Person {Name: 'Ada'}), (:Person {Name: 'Bea'})")
    db.close()

    db2 = Database(path)
    assert db2.peek_uid() == 3
    db2.execute("CREATE (:Person {Name: 'Cal'})")
    table = db2.execute("MATCH (x:Person) WHERE x.Name = 'Cal' RETURN x.Id")
    assert [r[0] for r in table.rows] == [3]
    db2.close()


def test_reopen_after_key_change_relinks_edges(tmp_path):
    path = tmp_path / "rekey.db"
    db = Database(path)
    db.execute(FAMILY_CREATE)
    db.execute("ALTER TABLE Person ADD PRIMARY KEY (Name)")
    before = db.state_hash()
    db.close()

    # replay has to restore the rewritten reference columns and still
    # reconnect edge adjacency through the new string-valued key
    db2 = Database(path)
    assert db2.state_hash() == before
    assert names(db2.execute(DESCENDANTS)) == {
        "Fred Smith", "Mary Smith", "Lee Smith", "Bill Smith"}
    db2.close()


def adjacency(db):
    """Every committed node's (edge uid, leaving, arriving) in both directions."""
    view = db.read_view()
    return {node.uid: [[(row.uid, tail, head) for row, tail, head in
                        view.edges_adjacent(node.uid, direction)]
                       for direction in ("leaving", "arriving")]
            for desc in db.catalog.types("node")
            for node in view.scan_type({desc.type_id})}


def test_replay_restores_logged_ends_through_rekeys_retargets_and_cascades(tmp_path):
    path = tmp_path / "ends.db"
    db = Database(path)
    db.execute(FAMILY_CREATE)
    db.execute("ALTER TABLE Person ADD PRIMARY KEY (Name)")
    db.execute("MATCH (x:Person {Name: 'Lee Smith'}) SET x.Name = 'Lee Jones'")
    db.execute("MATCH (:Person {Name: 'Mary Smith'})-[e:Child]->(:Person {Name: 'Bill Smith'}) "
               "SET e.LEAVING = 'Peter Smith'")
    db.execute("MATCH (x:Person {Name: 'Mary Smith'}) DELETE x CASCADE")
    db.execute("CREATE (:Person {Name: 'Mary Smith'})-[:Child]->(:Person {Name: 'Lee Smith'})")
    before = (db.state_hash(), adjacency(db), db.execute("SHOW GRAPHS").rows)
    assert before[1][2] == [[(6, 2, 1), (9, 2, 5)], []]  # Peter leaves both survivors
    db.close()

    db2 = Database(path)
    assert (db2.state_hash(), adjacency(db2), db2.execute("SHOW GRAPHS").rows) == before
    db2.close()


def test_replay_looks_up_no_endpoint(tmp_path, monkeypatch):
    path = tmp_path / "guard.db"
    db = Database(path)
    db.execute(FAMILY_CREATE)
    db.execute("ALTER TABLE Person ADD PRIMARY KEY (Name)")
    before = db.state_hash()
    db.close()

    def refuse(*args):
        raise AssertionError("replay looked an endpoint up by key")
    monkeypatch.setattr(ReadView, "resolve_endpoints", refuse)
    monkeypatch.setattr(ReadView, "lookup_by_value", refuse)
    db2 = Database(path)
    assert db2.state_hash() == before
    db2.close()


def test_edge_put_without_ends_is_refused_on_open(tmp_path):
    path = tmp_path / "old.db"
    db = Database(path)
    db.execute("CREATE (:P {N: 1})-[:S]->(:P {N: 2})")
    db.close()
    with open(path, "rb") as fh:
        payloads = list(read_records(fh))
    ((seq, edge),) = [(p["seq"], op) for p in payloads for op in p["rows"] if len(op) == 5]
    del edge[4]  # as a record written before puts carried endpoint uids
    frames = b""
    for payload in payloads:
        data = json.dumps(payload).encode("utf-8")
        frames += struct.pack(">II", len(data), zlib.crc32(data)) + data
    path.write_bytes(frames)

    with pytest.raises(StorageError, match=f"record {seq} puts edge {edge[1]} without its "
                                           "endpoint uids"):
        Database(path)


def test_file_and_memory_builds_hash_alike(tmp_path):
    statements = [
        FAMILY_CREATE,
        "MATCH (x:Person) WHERE x.Name = 'Lee Smith' SET x.Name = 'Lee Jones'",
    ]
    mem = Database()
    disk = Database(tmp_path / "twin.db")
    for text in statements:
        mem.execute(text)
        disk.execute(text)
    assert mem.state_hash() == disk.state_hash()
    disk.close()


def test_state_hash_reflects_uid_history(db):
    other = Database()
    db.execute("CREATE (:Person {Name: 'Ada'})")
    db.execute("MATCH (x:Person) DELETE x")
    other.execute("CREATE (:Person {Name: 'Ada'})")
    other.execute("MATCH (x:Person) DELETE x")
    assert db.state_hash() == other.state_hash()

    # same visible content, different allocation history
    fresh = Database()
    fresh.execute("CREATE (:Person {Name: 'Zoe'})")
    fresh.execute("MATCH (x:Person) DELETE x")
    fresh.execute("CREATE (:Person {Name: 'Ada'})")
    fresh.execute("MATCH (x:Person) DELETE x")
    assert fresh.state_hash() != db.state_hash()


def test_rolled_back_staging_leaves_the_state_hash_alone(tmp_path):
    path = tmp_path / "rollback.db"
    db = Database(path)
    db.execute("CREATE (:Person {Name: 'Ada'})")
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("CREATE (:Person {Name: 'Bea'})")
    sess.execute("ROLLBACK")
    before = db.state_hash()
    db.close()
    reopened = Database(path)
    assert reopened.state_hash() == before
    reopened.close()


def test_rows_come_back_in_uid_order_when_transactions_commit_out_of_order(db):
    db.execute("create type T as (V int) nodetype")
    first, second, third = db.session(), db.session(), db.session()
    first.execute("BEGIN")
    first.execute("CREATE (:T {V: 1})")
    second.execute("BEGIN")
    second.execute("CREATE (:T {V: 2})")
    second.execute("COMMIT")
    first.execute("COMMIT")
    assert db.execute("MATCH (t:T) RETURN t.V").rows == [[1], [2]]
    third.execute("BEGIN")
    third.execute("CREATE (:T {V: 3})")
    assert third.execute("MATCH (t:T) RETURN t.V").rows == [[1], [2], [3]]


def test_schema_change_conflicts_with_a_schema_change_committed_meanwhile(tmp_path):
    path = tmp_path / "schema.db"
    db = Database(path)
    db.execute("create type Q as (N int, W int) nodetype")
    db.execute("create type R as () edgetype (leaving Q, arriving Q)")
    db.execute("alter table Q add primary key(N)")
    db.execute("CREATE (:Q {N: 1, W: 10})-[:R]->(:Q {N: 2, W: 20})")
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("ALTER TYPE R SET CARDINALITY LEAVING 0..2 ARRIVING 0..*")
    db.execute("ALTER TABLE Q ADD PRIMARY KEY (W)")
    with pytest.raises(CommitError) as err:
        sess.execute("COMMIT")
    assert err.value.rule == "conflict"
    rows = db.execute("MATCH (a:Q)-[e:R]->(b:Q) RETURN e.LEAVING, e.ARRIVING").rows
    assert rows == [[10, 20]]
    before = db.state_hash()
    db.close()
    reopened = Database(path)
    assert reopened.state_hash() == before
    assert reopened.execute("MATCH (a:Q)-[e:R]->(b:Q) RETURN e.LEAVING, e.ARRIVING").rows == rows
    reopened.close()


def test_concurrent_increments_lose_no_update(db):
    db.execute("CREATE (:C {N: 1, V: 0})")
    first, second = db.session(), db.session()
    for sess in (first, second):
        sess.execute("BEGIN")
        sess.execute("MATCH (c:C {N: 1}) SET c.V = c.V + 1")
    first.execute("COMMIT")
    with pytest.raises(CommitError, match="changed by a commit after") as err:
        second.execute("COMMIT")
    assert err.value.rule == "conflict"
    assert db.execute("MATCH (c:C {N: 1}) RETURN c.V").rows == [[1]]


def test_update_of_a_node_deleted_meanwhile_does_not_resurrect_it(db):
    db.execute("CREATE (:Q {N: 1})-[:R]->(:Q {N: 2})")
    sess = db.session()
    sess.execute("BEGIN")
    sess.execute("MATCH (x:Q {N: 1}) SET x.M = 5")
    db.execute("MATCH (x:Q {N: 1}) DELETE x CASCADE")
    with pytest.raises(CommitError) as err:
        sess.execute("COMMIT")
    assert err.value.rule == "conflict"
    assert db.execute("MATCH (x:Q) RETURN x.N").rows == [[2]]


def test_fsync_mode_still_writes_readable_records(tmp_path):
    path = tmp_path / "careful.db"
    db = Database(path, fsync=True)
    db.execute("CREATE (:Person {Name: 'Ada'})")
    db.close()
    db2 = Database(path)
    assert names(db2.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada"}
    db2.close()


# --- damaged log tails ---

def record_ends(path):
    """Byte offsets just past each complete record frame in a log file."""
    data = path.read_bytes()
    ends, pos = [], 0
    while pos + 8 <= len(data):
        length, _crc = struct.unpack(">II", data[pos:pos + 8])
        nxt = pos + 8 + length
        if nxt > len(data):
            break
        ends.append(nxt)
        pos = nxt
    return ends


def two_commit_log(tmp_path):
    path = tmp_path / "cut.db"
    db = Database(path)
    db.execute("CREATE (:Person {Name: 'Ada'})")
    prefix = db.state_hash()
    db.execute("CREATE (:Person {Name: 'Bea'})")
    db.close()
    ends = record_ends(path)
    assert len(ends) == 2
    return path, prefix, ends


@pytest.mark.parametrize("extra", [0, 5, 13], ids=["clean", "torn-header", "torn-payload"])
def test_truncated_tail_is_dropped(tmp_path, extra):
    path, prefix, ends = two_commit_log(tmp_path)
    with open(path, "r+b") as fh:
        fh.truncate(ends[0] + extra)

    db = Database(path)
    assert names(db.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada"}
    assert db.state_hash() == prefix
    db.close()


def test_corrupt_tail_checksum_is_dropped(tmp_path):
    path, prefix, ends = two_commit_log(tmp_path)
    data = bytearray(path.read_bytes())
    data[ends[0] + 10] ^= 0xFF      # inside the second record's payload
    path.write_bytes(bytes(data))

    db = Database(path)
    assert db.state_hash() == prefix
    db.close()


def test_commits_after_a_trimmed_tail_extend_the_log(tmp_path):
    path, _prefix, ends = two_commit_log(tmp_path)
    with open(path, "r+b") as fh:
        fh.truncate(ends[0] + 3)

    # opening discards the torn fragment, so this commit lands on a clean tail
    db = Database(path)
    db.execute("CREATE (:Person {Name: 'Cal'})")
    db.close()

    db2 = Database(path)
    assert names(db2.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada", "Cal"}
    db2.close()


class _TearingLog:
    """Stands in for a database's log handle: its first write puts half the
    record in the file and raises OSError; with `cut_fails` its truncate
    raises too."""

    def __init__(self, fh, cut_fails=False):
        self.fh, self.cut_fails, self.tore = fh, cut_fails, False

    def write(self, data):
        if not self.tore:
            self.tore = True
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def truncate(self, size):
        if self.cut_fails:
            raise OSError(5, "Input/output error")
        return self.fh.truncate(size)

    def __getattr__(self, name):  # flush, fileno, close
        return getattr(self.fh, name)


@pytest.mark.parametrize("fault", ["write", "fsync"])
def test_failed_append_is_cut_away_and_later_commits_survive_reopen(tmp_path, monkeypatch,
                                                                     fault):
    path = tmp_path / "torn.db"
    db = Database(path, fsync=True)
    db.execute("CREATE (:Person {Name: 'Ada'})")
    if fault == "write":
        db._log_fh = _TearingLog(db._log_fh)
    else:
        fsync, failed = os.fsync, []

        def fsync_failing_once(fd):
            if not failed:
                failed.append(fd)
                raise OSError(5, "Input/output error")
            fsync(fd)
        monkeypatch.setattr(os, "fsync", fsync_failing_once)
    with pytest.raises(StorageError, match="torn.db"):
        db.execute("CREATE (:Person {Name: 'Bea'})")
    db.execute("CREATE (:Person {Name: 'Cal'})")
    assert names(db.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada", "Cal"}
    db.close()

    db2 = Database(path)
    assert names(db2.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada", "Cal"}
    db2.close()


def test_append_that_cannot_be_cut_away_refuses_later_commits(tmp_path):
    path = tmp_path / "stuck.db"
    db = Database(path)
    db.execute("CREATE (:Person {Name: 'Ada'})")
    db._log_fh = _TearingLog(db._log_fh, cut_fails=True)
    with pytest.raises(StorageError, match="stuck.db"):
        db.execute("CREATE (:Person {Name: 'Bea'})")
    with pytest.raises(StorageError, match="commits are refused"):
        db.execute("CREATE (:Person {Name: 'Cal'})")
    assert names(db.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada"}
    db.close()

    db2 = Database(path)
    assert names(db2.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada"}
    db2.close()


@pytest.mark.parametrize("on_disk", [True, False])
def test_commit_logged_but_not_applied_refuses_later_commits(tmp_path, monkeypatch, on_disk):
    path = tmp_path / "unapplied.db"
    db = Database(path if on_disk else None)
    db.execute("CREATE (:Person {Name: 'Ada'})")
    apply, failed = db.store.apply, []

    def apply_failing_once(seq, final):
        if not failed:
            failed.append(seq)
            raise MemoryError("stand-in apply failure")
        apply(seq, final)
    monkeypatch.setattr(db.store, "apply", apply_failing_once)
    with pytest.raises(StorageError, match="commit 2 was logged but not applied"):
        db.execute("CREATE (:Person {Name: 'Bea'})")
    with pytest.raises(StorageError, match="commits are refused"):
        db.execute("CREATE (:Person {Name: 'Cal'})")
    assert names(db.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada"}
    db.close()
    if on_disk:
        db2 = Database(path)
        assert names(db2.execute("MATCH (x:Person) RETURN x.Name")) == {"Ada", "Bea"}
        db2.close()


# --- rendering ---

def test_render_row_shows_label_and_values(family):
    view = family.read_view()
    desc = family.catalog.lookup_label("PERSON")
    row = next(r for r in view.scan_type(view.catalog.subtype_closure(desc.type_id)) if r.uid == 2)
    assert render_row(family.read_view(), row) == "PERSON(ID=2,NAME=Peter Smith)"


@pytest.mark.parametrize("value", ["surrogate", "long int"])
def test_a_row_the_log_cannot_encode_is_refused_with_its_uid(tmp_path, value):
    path = tmp_path / "encode.db"
    db = Database(path)
    db.execute("CREATE (:P {K: 'a', N: 1, S: 'x'})")
    before, size = db.state_hash(), path.stat().st_size
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        tx = db.begin()
        uid = tx.insert_row("P", {"S": "\ud800"} if value == "surrogate" else {"N": 10 ** 5000})
        with pytest.raises(StorageError, match=f"row {uid} cannot be logged"):
            tx.commit()
    finally:
        sys.set_int_max_str_digits(limit)
    assert tx.status == "aborted"
    assert db.state_hash() == before and path.stat().st_size == size
    with pytest.raises(StorageError, match="cannot be logged"):
        db.execute("CREATE (:P {K: 'b', S: '\ud800'})")
    assert db.state_hash() == before and path.stat().st_size == size
    db.execute("CREATE (:P {K: 'c', N: 3})")
    db.close()
    again = Database(path)
    assert sorted(again.execute("MATCH (p:P) RETURN p.K").rows) == [["a"], ["c"]]
    again.close()


# One record of every value kind, as encoded before the encoder took ints and
# strings straight through: the log format is a file format, so it stays.
PINNED_RECORD = (
    b'\x00\x00\x02\x96\'\xde&{{"seq":7,"schema":[{"type_id":2,"label":"E","kind":"edge",'
    b'"columns":[["ID","integer",null,false]],"supertype":null,"primary_key":["ID"],'
    b'"unique_keys":[],"leaving_type":1,"arriving_type":1,"multiplicity":[0,null,1,2],'
    b'"constraints":["N < 3"]}],"rows":[["put",1,1,{"ID":1,"NAME":"Zo\xc3\xab \\"q\\" \\\\ \\n",'
    b'"OK":true,"NO":false,"BIG":-12345678901234567890}],["put",2,1,{"ID":2,'
    b'"PRICE":{"$dec":"12.50"},"BORN":{"$date":"2023-03-22"},"COST":{"$cur":["3.10","EUR"]},'
    b'"HOME":{"$struct":[3,[["CITY","K\xc3\xb6ln"],["ZIP",50667],["SINCE",{"$date":"1999-01-02"}],'
    b'["NOTE",null]]]}}],["del",3],["put",4,2,{"ID":4,"LEAVING":1,"ARRIVING":"x\xe2\x82\xac"},'
    b'[1,null]],["put",5,2,{},[2,1]]],"next_uid":99}')


def test_a_record_of_every_value_kind_keeps_its_bytes():
    import datetime
    from decimal import Decimal

    from graphtables.log import encode_record
    from graphtables.storage import Row
    rows = {
        1: Row(1, 1, {"ID": 1, "NAME": 'Zoë "q" \\ \n', "OK": True, "NO": False,
                      "BIG": -12345678901234567890}),
        2: Row(2, 1, {"ID": 2, "PRICE": Decimal("12.50"), "BORN": datetime.date(2023, 3, 22),
                      "COST": values.Currency(Decimal("3.10"), "EUR"),
                      "HOME": values.StructValue(3, (("CITY", "Köln"), ("ZIP", 50667),
                                                     ("SINCE", datetime.date(1999, 1, 2)),
                                                     ("NOTE", None)))}),
        3: None,
        4: Row(4, 2, {"ID": 4, "LEAVING": 1, "ARRIVING": "x€"}, (1, None)),
        5: Row(5, 2, {}, (2, 1)),
    }
    schema = [{"type_id": 2, "label": "E", "kind": "edge", "columns": [["ID", "integer", None, False]],
               "supertype": None, "primary_key": ["ID"], "unique_keys": [], "leaving_type": 1,
               "arriving_type": 1, "multiplicity": [0, None, 1, 2], "constraints": ["N < 3"]}]
    assert encode_record(7, schema, rows, 99) == PINNED_RECORD


def test_reopen_drops_a_logged_check_on_a_column_its_type_no_longer_has(tmp_path, caplog):
    """A log written before DROP COLUMN refused to drop a column a check
    reads may hold that check: reopen drops it with a warning naming the type
    and the check, whether the column was the type's own or inherited, and
    keeps every check whose columns remain."""
    from graphtables.log import encode_record
    source = Database()
    for text in ("CREATE TYPE A AS (K INT, V INT) NODETYPE", "CREATE TYPE B UNDER A AS (X INT)",
                 "ALTER TABLE A ADD CHECK (V < 3)", "ALTER TABLE B ADD CHECK (V + X > 0)",
                 "ALTER TABLE B ADD CHECK (X > 0)"):
        source.execute(text)
    a, b = (source.catalog.descriptor_to_dict(source.catalog.lookup_label(label)) for label in "AB")
    a_without_v = {**a, "columns": [c for c in a["columns"] if c[0] != "V"]}
    log = tmp_path / "old.db"
    log.write_bytes(encode_record(1, [a, b], {}, 1) + encode_record(2, [a_without_v], {}, 1))
    with caplog.at_level("WARNING", logger="graphtables"):
        db = Database(log)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 2
    assert "check (V < 3) of A" in warnings[0] and "check (V + X > 0) of B" in warnings[1]
    assert [[c.text for c in db.catalog.lookup_label(label).constraints] for label in "AB"] == \
        [[], ["X > 0"]]
    db.execute("ALTER TABLE A ADD COLUMN V INT")
    db.execute("CREATE (:A {K: 2, V: 7})")
    db.execute("CREATE (:B {K: 3, V: -9, X: 1})")
    with pytest.raises(CommitError):
        db.execute("CREATE (:B {K: 4, X: 0})")
    db.close()


def test_a_commit_whose_schema_the_log_cannot_encode_is_refused_and_leaves_no_trace(tmp_path):
    """A quoted label may hold a lone surrogate, which UTF-8 cannot encode:
    the commit fails by name, and neither the log nor the catalog keeps it."""
    db = Database(tmp_path / "g.db")
    before = db.state_hash()
    with pytest.raises(StorageError, match="commit 1 cannot be logged"):
        db.execute('CREATE (:"\ud800" {K: 1})')
    assert db.state_hash() == before
    db.execute("CREATE (:P {K: 1})")
    db.close()
    reopened = Database(tmp_path / "g.db")
    assert reopened.execute("MATCH (a) RETURN a.K").rows == [[1]]
    reopened.close()
