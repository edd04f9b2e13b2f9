"""Database facade: ties the catalog, row store, commit log, component
registry and statement execution together behind one object.

One regex pass over each statement text (`lexer.split`) cuts its literals
out: the text between them and their kinds are its template key, and their
values fill the template's slots.  Texts of one key run one parsed template
with their own literal values, and tokens are built only when the key
misses; a text the split stops on (a lexical error, a name glued to a
quote) is tokenized, parsed and run uncached.  A
`Database` keeps the templates of keys it has parsed twice, at most
`_TEMPLATES` of them, so a statement shape used once, such as a bulk load,
is never retained.  A MATCH template also keeps the match plan compiled for
the latest catalog it ran under, so a repeated statement skips lexing,
parsing and planning alike.

Every open transaction and every view `read_view` returns pins its
snapshot, and each commit has the store drop the versions that ended at
or before the oldest pinned snapshot.  A transaction's pin goes when it
commits, fails to commit or rolls back; any pin goes when the transaction
or view holding it is garbage-collected, so a forgotten handle does not
keep history forever."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading

from . import catalog as cat
from . import log as logmod
from . import parser
from . import values as val
from .catalog import Catalog
from .errors import ExecutionError, StorageError
from .graphset import GraphSet
from .lexer import LITERAL_TYPES, split
from .parser import parse_expression, parse_statement
from .storage import ReadView, Row, Store, Transaction
from .syntax import (BeginStatement, CommitStatement, RollbackStatement, shareable)

# the most statement templates a Database keeps, oldest admitted evicted
# first, and the most keys it remembers having parsed once
_TEMPLATES = 256
_SIGHTINGS = 4096


class ResultTable:
    """Columnar statement result; empty `columns` means a yes/no existence
    check whose row count is the answer."""

    def __init__(self, columns: list[str], rows: list[list]):
        self.columns = columns
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"ResultTable({self.columns}, {len(self.rows)} rows)"


class _Pin:
    """One hold on the (seq, catalog) that was latest when it was made:
    entered in `Database._pins` until released, or until collected."""

    __slots__ = ("pins", "published")

    def __init__(self, db: "Database"):
        self.pins = pins = db._pins
        while True:
            self.published = published = db.published
            pins[id(self)] = published[0]
            # a commit published after the read above may have missed the
            # entry: read again, so that the pin holds a seq no commit drops
            if db.published is published:
                break

    def release(self) -> None:
        self.pins.pop(id(self), None)

    __del__ = release


class Database:
    def __init__(self, path=None, fsync: bool = False):
        # no path, or ":memory:" as sqlite3 takes it, keeps no log
        self.path = pathlib.Path(path) if path is not None and path != ":memory:" else None
        self.name = self.path.stem if self.path is not None else "memory"
        self.fsync = fsync
        self.store = Store()
        # the (seq, catalog) of the latest commit, published as one value so
        # a reader never pairs one commit's rows with another's schema
        self.published: tuple[int, Catalog] = (0, Catalog())
        # id of each unreleased `_Pin` -> the snapshot it holds
        self._pins: dict[int, int] = {}
        self.graphs = GraphSet(self.store)
        self.commit_lock = threading.RLock()
        # template key -> template, and the hashes of keys parsed once
        self._templates: dict[tuple, object] = {}
        self._sighted: set[int] = set()
        self._templates_lock = threading.Lock()
        self._next_uid = 1
        # the next_uid of the latest commit, the value its log record holds;
        # transactions that roll back advance `_next_uid` but not this
        self.logged_next_uid = 1
        self._log_fh = None
        # the log's length after its last whole record, and why every commit
        # is refused once a torn record could not be cut away or a logged
        # commit could not be applied
        self._log_size = 0
        self.refusal: str | None = None
        if self.path is not None:
            if self.path.exists():
                valid = 0
                # live row and the seq of the last record that wrote it or
                # moved an edge off it, by uid
                final: dict[int, Row] = {}
                stamps: dict[int, int] = {}
                with open(self.path, "rb") as fh:
                    for payload in logmod.read_records(fh):
                        try:
                            self._apply_record(payload, final, stamps)
                        except (LookupError, TypeError, AttributeError, ValueError) as exc:
                            raise StorageError(
                                f"commit log {self.path}: the record at byte {valid} is not "
                                f"a commit record ({type(exc).__name__}: {exc})") from exc
                        valid = fh.tell()
                    end = fh.seek(0, 2)
                # no snapshot before the log's end exists: one version per live row
                self.store.apply(self.published[0],
                                 ((uid, None, row) for uid, row in final.items()))
                if valid < end:
                    # trim the torn tail so our own appends stay readable
                    with open(self.path, "r+b") as fh:
                        fh.truncate(valid)
                for label, text in self.catalog.drop_unreadable_checks():
                    logmod.log.warning(f"commit log keeps check ({text}) of {label} on a "
                                       "column it no longer has; dropping the check")
                self._rebuild_graphs(final, stamps)
            # unbuffered: a failed append leaves no bytes behind for a later write
            self._log_fh = open(self.path, "ab", buffering=0)
            self._log_size = self._log_fh.tell()

    # --- identity and plumbing used by transactions ---

    def allocate_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def peek_uid(self) -> int:
        return self._next_uid

    def append_log_record(self, data: bytes) -> None:
        """Append one commit record.  If the write or fsync fails, the log
        is cut back to its last whole record and StorageError raised; if
        that cut fails too, every later commit is refused."""
        if self.refusal is not None:
            raise StorageError(self.refusal)
        if self._log_fh is None:
            return
        try:
            written = 0
            while written < len(data):  # an unbuffered write may be short
                written += self._log_fh.write(data[written:])
            if self.fsync:
                os.fsync(self._log_fh.fileno())
        except OSError as exc:
            try:
                self._log_fh.truncate(self._log_size)
            except OSError as cut:
                self.refusal = (f"log {self.path} keeps a torn record that could not be "
                                f"cut away ({cut}); commits are refused")
                raise StorageError(self.refusal) from exc
            raise StorageError(f"log {self.path}: append failed ({exc}); "
                               "the commit was not made") from exc
        self._log_size += len(data)

    def close(self) -> None:
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    # --- opening an existing log ---

    def _apply_record(self, payload: dict, final: dict[int, Row],
                      stamps: dict[int, int]) -> None:
        """Apply one record's schema and fold its rows into `final` and
        `stamps`; every op is decoded and checked, none is applied.  A `seq`
        that is not an integer above the last one's, or a `next_uid` that is
        not an integer (a bool is neither), raises ValueError."""
        catalog, seq = self.catalog, payload["seq"]
        if type(seq) is not int or seq <= self.published[0]:
            raise ValueError(f"seq {seq!r} is not an integer above {self.published[0]}")
        for data in payload["schema"]:
            catalog.apply_descriptor_dict(data, parse_expression)
        try:
            ops = logmod.decode_rows(payload)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise StorageError(f"log {self.path}: record {seq} holds a value that does "
                               f"not decode ({exc})") from exc
        for op in ops:
            before = final.pop(op[1], None)
            if before is not None and before.ends is not None:
                stamps[before.ends[0]] = stamps[before.ends[1]] = seq  # the component it leaves
            if op[0] == "del":
                continue
            if op[4] is None and catalog.get(op[2]).kind == cat.KIND_EDGE:
                # one replay path: logs from before puts carried ends are not read
                raise StorageError(f"log {self.path}: record {seq} puts edge "
                                   f"{op[1]} without its endpoint uids")
            final[op[1]] = Row(*op[1:])
            stamps[op[1]] = seq
        if type(payload["next_uid"]) is not int:
            raise ValueError(f"next_uid {payload['next_uid']!r} is not an integer")
        self.published = (seq, catalog)
        self.logged_next_uid = payload["next_uid"]
        self._next_uid = max(self._next_uid, self.logged_next_uid)

    def _rebuild_graphs(self, rows: dict[int, Row], stamps: dict[int, int]) -> None:
        """Build the components of the live `rows`; each takes the latest
        stamp of its members, the seq its writer's registry gave it."""
        for uid in sorted(rows):
            ends = rows[uid].ends
            if ends is None:
                self.graphs.add_node(uid)
            elif None not in ends:
                self.graphs.add_edge(uid, *ends)
        for comp in self.graphs.components():
            comp.seq = max(stamps.get(uid, 0) for uid in (*comp.nodes, *comp.edges))

    # --- statement templates ---

    def statement(self, text: str) -> tuple[object, tuple]:
        """`text`'s parsed template and the values of its literal slots.  A
        text `split` stops on is tokenized, parsed and run uncached."""
        key, params = split(text) or (None, None)
        stmt = self._templates.get(key)
        if stmt is None:
            tokens = parser.tokenize(text, params)
            stmt = parse_statement(text, tokens)
            if key is None:
                params = tuple(t.value for t in tokens if t.type in LITERAL_TYPES)
            elif shareable(stmt):
                self._admit(key, stmt)
        return stmt, params

    def _admit(self, key: tuple, stmt) -> None:
        """Keep `stmt` for its key on the key's second sighting."""
        sighting = hash(key)
        with self._templates_lock:
            if sighting not in self._sighted:
                if len(self._sighted) >= _SIGHTINGS:
                    self._sighted.clear()
                self._sighted.add(sighting)
                return
            self._sighted.discard(sighting)
            if len(self._templates) >= _TEMPLATES:
                del self._templates[next(iter(self._templates))]
            self._templates[key] = stmt

    # --- transactions and statements ---

    @property
    def catalog(self) -> Catalog:
        """The latest published catalog."""
        return self.published[1]

    def begin(self) -> Transaction:
        return Transaction(self, _Pin(self))

    def session(self) -> "Session":
        return Session(self)

    def execute(self, text: str):
        """One statement in its own auto-committed transaction."""
        return self.session().execute(text)

    def read_view(self) -> ReadView:
        """The latest committed state, pinned for as long as the view is held."""
        pin = _Pin(self)
        view = ReadView(self.store, *pin.published)
        view.pin = pin
        return view

    def publish(self, seq: int, catalog: Catalog) -> int:
        """Show commit `seq` to readers; returns the oldest snapshot that a
        pin holds, `seq` when none does.  A pin that this reading misses
        was entered after it, so it read `seq` (see `_Pin`)."""
        self.published = (seq, catalog)
        return min(self._pins.values(), default=seq)  # one step: other threads release pins

    # --- state digest (durability checks) ---

    def state_hash(self) -> str:
        view = self.read_view()
        seq, catalog = view.snapshot, view.catalog
        descriptors = [catalog.descriptor_to_dict(d) for d in catalog.types()]
        rows = [[r.uid, r.type_id, {k: val.to_jsonable(v) for k, v in sorted(r.values.items())}]
                for r in view.scan_type([d.type_id for d in catalog.types()])]
        digest = {"seq": seq, "next_uid": self.logged_next_uid,
                  "catalog": descriptors, "rows": rows}
        blob = json.dumps(digest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


class Session:
    """Statement execution context: holds the open transaction, if any."""

    def __init__(self, db: Database):
        self.db = db
        self.tx: Transaction | None = None

    def view(self) -> ReadView:
        """What this session reads now: its open transaction's view, or
        else the latest committed state."""
        return self.tx.view() if self.tx is not None else self.db.read_view()

    def execute(self, text: str):
        try:
            return self.execute_statement(*self.db.statement(text))
        except RecursionError:
            # parser and evaluator recurse on nesting; past Python's limit the
            # statement fails like any other, and the session goes on
            raise ExecutionError("statement nests too deeply") from None

    def execute_statement(self, stmt, params: tuple):
        """Run a parsed statement whose literal slots hold `params`."""
        from . import executor

        if isinstance(stmt, BeginStatement):
            if self.tx is not None:
                raise StorageError("a transaction is already open")
            self.tx = self.db.begin()
            return None
        if isinstance(stmt, CommitStatement):
            if self.tx is None:
                raise StorageError("no open transaction")
            tx, self.tx = self.tx, None
            tx.commit()
            return None
        if isinstance(stmt, RollbackStatement):
            if self.tx is None:
                raise StorageError("no open transaction")
            tx, self.tx = self.tx, None
            tx.rollback()
            return None

        if self.tx is not None:
            # a failed statement leaves the transaction as it found it
            point = self.tx.savepoint()
            try:
                return executor.run_statement(self.tx, stmt, params)
            except BaseException:
                self.tx.restore(point)
                raise
        tx = self.db.begin()
        try:
            result = executor.run_statement(tx, stmt, params)
        except BaseException:
            tx.rollback()
            raise
        tx.commit()
        return result


def render_row(view: ReadView, row: Row) -> str:
    """`PERSON(ID=2,NAME=Peter Smith)`: label plus present values in
    declaration order, as `view` reads them."""
    catalog = view.catalog
    parts = []
    for col in catalog.effective_columns(row.type_id):
        v = view.value(row, col.name)
        if v is not None:
            parts.append(f"{col.name}={val.render(v)}")
    return f"{catalog.get(row.type_id).label}({','.join(parts)})"
