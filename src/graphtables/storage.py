"""Row store and transactions.

One logical base table per node/edge type.  Rows are version-stamped with the
commit sequence numbers they became visible/invisible at, which is what gives
readers snapshot isolation under the single-writer model.  A transaction
stages row and schema changes privately; its statements read the snapshot
plus that staging (`Transaction.view`), and only commit reads the latest
state, in the one view `_Commit` builds under the lock.  Commit runs fixed
rules in order: conflicts (first committer wins: the schema, if it changed,
and each row the statements staged must be as they were at the snapshot),
the rekey cascade, delete restrict or cascade, the reference write, then
the checks of column types, keys, references, multiplicity and constraints
over the post state.  These checks are the only judges of row integrity:
a new primary key (`alter_primary_key`) is judged here over every row of
its scope, and the reference rule also refuses an edge whose LEAVING or
ARRIVING is still NULL, its endpoint holding no value in the key the edge
references.  Commit then appends one self-contained log record, and
only then publishes; a failed publish refuses every later commit.  That is
snapshot isolation, which still allows write skew.  A transaction reads
through the catalog published with its snapshot until it changes the
schema; a schema commit landing after its BEGIN makes its own schema change
conflict.

Edge rows carry their endpoints' uids (`Row.ends`) from the moment they are
staged: CREATE passes the matched nodes, and an inserted row or a `SET
e.LEAVING/ARRIVING` retarget dereferences the key value once, at staging
time, in the transaction's snapshot.  The log records both the ends and the
LEAVING/ARRIVING columns, which keep the endpoints' key values; replay
restores the ends as logged.
`ReadView.value` derives the key values from the endpoint's current key, and
one pass at commit writes that value into every staged edge.  A node whose
value changes in the key column of any type on its supertype chain, or an
edge type whose endpoint type changes, gets its committed edges staged for
that pass, so a rekey never rebinds an edge.

One index type, `_Index`, finds candidate uids: each type's uids, a value
index per column built on its first probe, and per side a map from node uid
to every edge that ever ended there, all held in sets.  Reads take a
collection of type ids, which callers resolve through the catalog, and sort
the uids they gather once.  The store keeps one over every
version it applies, and a transaction's `Staging` dict (uid -> row, None
for a deletion) one over every row its one writer, `put`, stages.  Neither
ever shrinks, because a reader at an older snapshot may still need a row
that has since changed, and an undone write leaves its entries behind: each
`ReadView` read takes both indexes' candidates and re-checks each uid once
through `get_row`.  Each savepoint starts a fresh journal of what `put`
replaces, and undoing it takes back a failed statement.  Commit finds the
types whose schema changed by comparing catalogs, and its key check reads
only the store's index, at most once per distinct staged key value.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import catalog as cat
from . import log as logmod
from . import values as val
from .catalog import ARRIVING, Catalog, ColumnDescriptor, LEAVING, Multiplicity
from .errors import CommitError, ExecutionError, SchemaError, StorageError
from .exprs import constraint_passes


@dataclass(slots=True)
class Row:
    """One node, edge or staged record.  Absent keys in `values` are NULL;
    an edge's `ends` are its (leaving uid, arriving uid), a side None when
    its key matched no node."""

    uid: int
    type_id: int
    values: dict
    ends: tuple | None = None

    def get(self, name: str):
        return self.values.get(name)


class _Version:
    __slots__ = ("row", "begin", "end")

    def __init__(self, row: Row, begin: int):
        self.row = row
        self.begin = begin
        self.end: int | None = None


class _Index:
    """Candidate uids of one collection of rows: each type's uids, each
    side's node uid -> edge uids, and per type and column, value -> uids,
    a column from its first probe on.  Entries are never removed, so a
    reader re-checks each candidate against the row it sees."""

    __slots__ = ("types", "values", "ends")

    def __init__(self):
        # type id -> its uids
        self.types: dict[int, set[int]] = {}
        # type id -> column -> value -> uids
        self.values: dict[int, dict[str, dict]] = {}
        # per side (0 leaving, 1 arriving), node uid -> uids of edges ending there
        self.ends: tuple[dict, dict] = ({}, {})

    def add(self, rows) -> None:
        types, values, (leaving, arriving) = self.types, self.values, self.ends
        for row in rows:
            uid, tid, ends = row.uid, row.type_id, row.ends
            types.setdefault(tid, set()).add(uid)
            columns = values.get(tid)
            if columns:
                for column, index in columns.items():
                    _add_value(index, row.values.get(column), uid)
            if ends is not None:
                leaving.setdefault(ends[0], set()).add(uid)
                arriving.setdefault(ends[1], set()).add(uid)

    def build(self, type_id: int, column: str, rows) -> None:
        """Index `column` over `rows`, the rows of `type_id`, unless built."""
        columns = self.values.setdefault(type_id, {})
        if column not in columns:
            index: dict = {}
            for row in rows:
                _add_value(index, row.values.get(column), row.uid)
            columns[column] = index

    def candidates(self, type_id: int, column: str, value) -> tuple[int, ...]:
        """Uids of `type_id` whose built `column` may hold `value`."""
        try:
            return tuple(self.values[type_id][column].get(value, ()))
        except TypeError:
            return ()  # an unhashable probe equals no indexed value


def _add_value(index: dict, value, uid: int) -> None:
    if value is not None:
        try:
            index.setdefault(value, set()).add(uid)
        except TypeError:
            pass  # an unhashable value equals no hashable probe


class Store:
    """Committed row versions and one index over all of them.

    Readers take no lock: they copy a live uid set or table in one step,
    which CPython makes under the GIL.  `_lock` keeps the one-time build of
    a value index and `apply` apart, since both walk and extend the index.

    `memo` is (seq, dict) of the latest commit: the matcher's hop lists read
    at that snapshot, shared by every reader of it without staged rows.
    What a snapshot sees never changes, and a list depends on nothing but
    the snapshot and its edge type ids, so it stays true; each reader stores
    a list only once it is whole and never changes it after.  The dict holds
    one entry per (node, side, edge type set) read at the latest commit, and
    `apply` drops it with the commit it belonged to."""

    def __init__(self):
        self._lock = threading.Lock()
        self.commit_seq = 0
        self._versions: dict[int, list[_Version]] = {}
        self.index = _Index()
        self.memo: tuple[int, dict] = (0, {})

    # --- reads against a snapshot ---

    def version_at(self, uid: int, snapshot: int) -> _Version | None:
        for version in reversed(self._versions.get(uid, ())):
            if version.begin <= snapshot and (version.end is None or version.end > snapshot):
                return version
        return None

    def latest(self, uid: int) -> Row | None:
        """The row as of the last commit; only the newest version can be open."""
        versions = self._versions.get(uid)
        return versions[-1].row if versions and versions[-1].end is None else None

    def newest(self, uid: int) -> _Version | None:
        """The last version of `uid`, open or ended."""
        versions = self._versions.get(uid)
        return versions[-1] if versions else None

    def index_candidates(self, type_id: int, column: str, value) -> tuple[int, ...]:
        """Over-approximate uids; caller re-checks value and visibility."""
        index = self.index
        if column not in index.values.get(type_id, ()):  # the column's first probe
            with self._lock:
                index.build(type_id, column, (version.row for uid in index.types.get(type_id, ())
                                              for version in self._versions[uid]))
        return index.candidates(type_id, column, value)

    # --- commit application (physical) ---

    def apply(self, seq: int, final: dict[int, Row | None]) -> None:
        """Publish one commit."""
        with self._lock:
            rows = []
            for uid in sorted(final):
                row = final[uid]
                versions = self._versions.setdefault(uid, [])
                if versions and versions[-1].end is None:
                    versions[-1].end = seq
                if row is not None:
                    versions.append(_Version(row, seq))
                    rows.append(row)
            self.index.add(rows)
            self.commit_seq = seq
            self.memo = (seq, {})


_ABSENT = object()


class Staging(dict):
    """Staged rows by uid, None for a deletion, written only through `put`,
    which indexes each row it stages."""

    __slots__ = ("deletes", "index", "journal")

    def __init__(self):
        # uid -> (type id, CASCADE?) of each row deleted by `delete_row`
        self.deletes: dict[int, tuple[int, bool]] = {}
        self.index = _Index()
        # (uid, replaced row or _ABSENT) per `put` since the latest savepoint,
        # None before the first; undoing a deletion also drops its record
        self.journal: list | None = None

    def put(self, uid: int, row: Row | None, deletion: tuple | None = None) -> None:
        """Stage `row` at `uid`; a `delete_row` deletion passes None and its record."""
        if self.journal is not None:
            self.journal.append((uid, self.get(uid, _ABSENT)))
        if deletion is not None:
            self.deletes[uid] = deletion
        self[uid] = row
        if row is not None:
            self.index.add((row,))

    def undo(self) -> None:
        """Undo every journaled write, newest first."""
        journal, self.journal = self.journal, None
        while journal:
            uid, row = journal.pop()
            if row is _ABSENT:
                del self[uid]
            else:
                self.put(uid, row)
            if row is not None:
                self.deletes.pop(uid, None)
        self.journal = journal

    def index_candidates(self, type_id: int, column: str, value) -> tuple[int, ...]:
        """Over-approximate staged uids; caller re-checks each."""
        index = self.index
        if column not in index.values.get(type_id, ()):  # the column's first probe
            index.build(type_id, column, (row for row in map(self.get, index.types.get(type_id, ()))
                                          if row is not None))
        return index.candidates(type_id, column, value)


class ReadView:
    """Committed state at one snapshot merged with a transaction's staging.
    Each read takes the candidate uids of the store's index and the
    staging's, and re-checks each uid once through `get_row`."""

    def __init__(self, store: Store, snapshot: int, catalog: Catalog,
                 staged: Staging | None = None):
        self.store = store
        self.snapshot = snapshot
        self.catalog = catalog
        self.staged = staged if staged is not None else Staging()

    def get_row(self, uid: int) -> Row | None:
        if uid in self.staged:
            return self.staged[uid]
        version = self.store.version_at(uid, self.snapshot)
        return version.row if version is not None else None

    def scan_type(self, type_ids):
        """Rows of the types in `type_ids`, ascending by uid."""
        groups = [g for index in (self.store.index, self.staged.index)
                  for g in map(index.types.get, type_ids) if g]
        for row in map(self.get_row, sorted(set().union(*groups))):
            if row is not None:
                yield row

    def resolver(self, bindings: dict):
        """Resolve `alias` and `alias.column` references against `bindings`,
        reading bound rows as of this view."""
        def resolve(path):
            name = path[0]
            if name not in bindings:
                raise ExecutionError(f"unknown identifier {name}")
            v = bindings[name]
            if len(path) == 1:
                return v
            if not isinstance(v, Row):
                raise ExecutionError(f"{name} has no fields")
            if len(path) > 2:   # a column holds no row
                raise ExecutionError(f"{name}.{path[1]} has no fields")
            return self.value(self.get_row(v.uid) or v, path[1])
        return resolve

    def value(self, row: Row, column: str):
        """`row`'s value in `column`.  An edge's LEAVING/ARRIVING is the
        current key of its endpoint in this view (the stored value when
        that side has no endpoint here)."""
        ends = row.ends
        if ends is None or (column != LEAVING and column != ARRIVING):
            return row.values.get(column)
        desc = self.catalog.get(row.type_id)
        end = ends[0] if column == LEAVING else ends[1]
        node = None if end is None else self.get_row(end)
        kcol = self.catalog.key_column(desc.leaving_type if column == LEAVING
                                       else desc.arriving_type)
        if node is None or kcol is None:
            return row.values.get(column)
        return node.values.get(kcol)

    def lookup_by_value(self, type_ids, column: str, value):
        """Rows among `type_ids` whose `column` equals `value`, uid ascending."""
        if value is None:
            return []
        store, staged, uids = self.store, self.staged, ()
        for tid in type_ids:
            uids += store.index_candidates(tid, column, value)
            if staged:
                uids += staged.index_candidates(tid, column, value)
        out = []
        for row in map(self.get_row, sorted(set(uids)) if len(uids) > 1 else uids):
            if (row is not None and row.type_id in type_ids
                    and val.values_equal(row.values.get(column), value)):
                out.append(row)
        return out

    # --- graph navigation ---

    def deref_node(self, node_type_id: int, key_value) -> Row | None:
        """Node of the type closure whose key equals `key_value`."""
        column = self.catalog.key_column(node_type_id)
        if column is None or key_value is None:
            return None
        rows = self.lookup_by_value(self.catalog.subtype_closure(node_type_id), column, key_value)
        return rows[0] if rows else None

    def resolve_endpoints(self, edge_row: Row) -> tuple[int | None, int | None]:
        """Endpoint uids found by dereferencing the edge's key-valued
        reference columns in this view (None for a side that matches no node)."""
        desc = self.catalog.get(edge_row.type_id)
        leaving = self.deref_node(desc.leaving_type, edge_row.values.get(LEAVING))
        arriving = self.deref_node(desc.arriving_type, edge_row.values.get(ARRIVING))
        return (leaving.uid if leaving else None, arriving.uid if arriving else None)

    def edges_adjacent(self, uid: int, direction: str, edge_type_ids=None):
        """[(edge row, leaving uid, arriving uid)] touching node `uid` on
        `direction`, uid ascending."""
        side = 0 if direction == "leaving" else 1
        uids = self.store.index.ends[side].get(uid, ())
        if self.staged:
            uids = {*uids, *self.staged.index.ends[side].get(uid, ())}
        out = []
        for row in map(self.get_row, sorted(uids)):
            if (row is not None and row.ends[side] == uid
                    and (edge_type_ids is None or row.type_id in edge_type_ids)):
                out.append((row, *row.ends))
        return out


def make_columns(columns) -> list[ColumnDescriptor]:
    """Accept ColumnDescriptor objects or (name, data_type) tuples."""
    out = []
    for c in columns:
        if isinstance(c, ColumnDescriptor):
            out.append(c)
        else:
            name, data_type = c
            out.append(ColumnDescriptor(name, data_type))
    return out


class Transaction:
    """Stages schema and row changes against a snapshot; commit validates
    and publishes them atomically."""

    def __init__(self, db, snapshot: int, catalog: Catalog):
        self.db = db
        self.snapshot = snapshot
        self.status = "open"
        # the catalog published with the snapshot, and this transaction's
        # clone of it once a statement changes the schema
        self._catalog_base = catalog
        self._catalog: Catalog | None = None
        self.staged = Staging()

    # --- catalog access ---

    @property
    def catalog(self) -> Catalog:
        return self._catalog if self._catalog is not None else self._catalog_base

    def _mutable_catalog(self) -> Catalog:
        if self._catalog is None:
            self._catalog = self._catalog_base.clone()
        return self._catalog

    def _check_open(self) -> None:
        if self.status != "open":
            raise StorageError(f"transaction is {self.status}")

    def view(self) -> ReadView:
        """Reads at the transaction's begin snapshot plus its own staging."""
        return ReadView(self.db.store, self.snapshot, self.catalog, self.staged)

    def _type(self, ref, kind: str | None = None) -> cat.TypeDescriptor:
        """The type `ref` (a type id or label) names, which must be of `kind`
        when one is given."""
        if isinstance(ref, int):
            desc = self.catalog.get(ref)
        else:
            desc = self.catalog.lookup_label(ref)
            if desc is None:
                raise SchemaError(f"unknown type {ref}")
        if kind is not None and desc.kind != kind:
            article = {cat.KIND_EDGE: "an"}
            raise SchemaError(f"{desc.label} is {article.get(desc.kind, 'a')} {desc.kind} type, "
                              f"not {article.get(kind, 'a')} {kind} type")
        return desc

    # --- schema operations ---

    def define_node_type(self, label: str, columns=(), supertype=None) -> cat.TypeDescriptor:
        self._check_open()
        catalog = self._mutable_catalog()
        sup_id = None
        if supertype is not None:
            sup_id = self._type(supertype, cat.KIND_NODE).type_id
        return catalog.define_node_type(label, make_columns(columns), sup_id)

    def define_edge_type(self, label: str, columns, leaving, arriving) -> cat.TypeDescriptor:
        self._check_open()
        catalog = self._mutable_catalog()
        ltid = self._type(leaving, cat.KIND_NODE).type_id
        atid = self._type(arriving, cat.KIND_NODE).type_id
        return catalog.define_edge_type(label, make_columns(columns), ltid, atid)

    def define_plain_type(self, label: str, columns) -> cat.TypeDescriptor:
        self._check_open()
        catalog = self._mutable_catalog()
        return catalog.define_plain_type(label, make_columns(columns))

    def widen_type(self, type_ref, column) -> ColumnDescriptor:
        self._check_open()
        desc = self._type(type_ref)
        catalog = self._mutable_catalog()
        return catalog.widen_type(desc.type_id, make_columns([column])[0])

    def retype_column(self, type_ref, name: str, data_type: str) -> None:
        self._check_open()
        desc = self._type(type_ref)
        catalog = self._mutable_catalog()
        catalog.retype_column(desc.type_id, name, data_type)
        self._retype_references({t for t in catalog.subtype_closure(desc.type_id)
                                 if catalog.key_column(t) == name}, data_type)

    def _retype_references(self, node_tids: set[int], data_type: str) -> None:
        """The edge columns that hold the key of `node_tids` take `data_type`."""
        catalog = self._catalog
        for edesc, side in catalog.edge_types_referencing(node_tids):
            catalog.retype_column(catalog.column_owner(edesc.type_id, side), side, data_type)

    def drop_column(self, type_ref, name: str) -> int:
        """Drop a column and scrub its values; returns rows rewritten."""
        self._check_open()
        desc = self._type(type_ref)
        catalog = self._mutable_catalog()
        scope = catalog.column_owner(desc.type_id, name) or desc.type_id
        rewrites = [r for r in self.view().scan_type(catalog.subtype_closure(scope))
                    if name in r.values]
        catalog.drop_column(scope, name)   # validates, may raise
        for row in rewrites:
            new_values = dict(row.values)
            del new_values[name]
            self.staged.put(row.uid, Row(row.uid, row.type_id, new_values, row.ends))
        return len(rewrites)

    def alter_primary_key(self, type_ref, key_columns) -> None:
        """Install a new primary key; commit judges every row of its scope
        and rewrites the key columns of the edges that reference it."""
        self._check_open()
        desc = self._type(type_ref, cat.KIND_NODE)
        key_columns = list(key_columns)
        catalog = self._mutable_catalog()
        # node types whose effective key will change
        old_declarer = catalog.key_declarer(desc.type_id)
        affected = {t for t in catalog.subtype_closure(desc.type_id)
                    if catalog.key_declarer(t) is old_declarer}
        edge_refs = catalog.edge_types_referencing(affected)
        if edge_refs and len(key_columns) != 1:
            raise SchemaError(f"{desc.label} is an edge endpoint and needs a single-column key")

        catalog.install_primary_key(desc.type_id, key_columns)
        self._retype_references(affected, catalog.effective_column(
            desc.type_id, key_columns[0]).data_type)

    def retarget_endpoint(self, type_ref, side: str, node_type_id: int) -> None:
        self._check_open()
        desc = self._type(type_ref, cat.KIND_EDGE)
        self._mutable_catalog().retarget_endpoint(desc.type_id, side, node_type_id)

    def set_cardinality(self, type_ref, multiplicity: Multiplicity) -> None:
        self._check_open()
        desc = self._type(type_ref, cat.KIND_EDGE)
        self._mutable_catalog().set_multiplicity(desc.type_id, multiplicity)

    def add_constraint(self, type_ref, text: str) -> None:
        self._check_open()
        from .parser import parse_expression
        from .syntax import expr_refs
        desc = self._type(type_ref)
        expr, params = parse_expression(text)
        names = set()
        for path in expr_refs(expr):
            if len(path) != 1:
                raise SchemaError("constraints may only reference column names")
            names.add(path[0])
        catalog = self._mutable_catalog()
        catalog.add_constraint(desc.type_id, cat.Constraint(text, expr, params), names)

    # --- row staging ---

    def _stage_check_values(self, desc: cat.TypeDescriptor, values: dict) -> dict:
        columns = self.catalog.facts(desc.type_id).column
        out = {}
        for name, v in values.items():
            if v is None:
                continue
            col = columns.get(name)
            if col is None:
                raise StorageError(f"{desc.label} has no column {name}")
            if not val.conforms(v, col.data_type):
                raise StorageError(f"{desc.label}.{name} cannot hold {v!r}")
            out[name] = val.coerce(v, col.data_type)
        return out

    def insert_row(self, type_ref, values: dict, ends: tuple | None = None) -> int:
        """Stage a new row.  An edge given no `ends` binds the nodes its
        LEAVING/ARRIVING values name in the snapshot; commit writes their
        keys into its LEAVING/ARRIVING."""
        self._check_open()
        desc = self._type(type_ref)
        if desc.kind == cat.KIND_PLAIN:
            raise StorageError(f"{desc.label} is a plain type; it has no rows of its own")
        staged_values = self._stage_check_values(desc, values)
        uid = self.db.allocate_uid()
        kcol = self.catalog.key_column(desc.type_id)
        # the automatic integer key takes the row uid when no value is supplied
        if kcol is not None and kcol not in staged_values:
            col = self.catalog.effective_column(desc.type_id, kcol)
            if col is not None and col.data_type == val.INTEGER:
                staged_values[kcol] = uid
        row = Row(uid, desc.type_id, staged_values, ends)
        if desc.kind == cat.KIND_EDGE and ends is None:
            row.ends = self.view().resolve_endpoints(row)
        self.staged.put(uid, row)
        return uid

    def update_row(self, uid: int, changes: dict) -> None:
        self._check_open()
        view = self.view()
        row = view.get_row(uid)
        if row is None:
            raise StorageError(f"unknown uid {uid}")
        desc = self.catalog.get(row.type_id)
        # only the written values are checked here; commit checks the row
        new_values = {**row.values, **self._stage_check_values(desc, changes)}
        for name, v in changes.items():
            if v is None:
                new_values.pop(name, None)
        new = Row(uid, row.type_id, new_values, row.ends)
        if desc.kind == cat.KIND_EDGE and (LEAVING in changes or ARRIVING in changes):
            # a retarget binds the changed sides in the transaction's snapshot
            found = view.resolve_endpoints(new)
            new.ends = tuple(bound if side in changes else end
                             for side, bound, end in zip((LEAVING, ARRIVING), found, row.ends))
        self.staged.put(uid, new)

    def delete_row(self, uid: int, cascade: bool = False) -> None:
        self._check_open()
        row = self.view().get_row(uid)
        if row is None:
            raise StorageError(f"unknown uid {uid}")
        self.staged.put(uid, None, (row.type_id, cascade))

    def savepoint(self) -> Catalog | None:
        """Start a fresh journal; returns a copy of the private catalog for
        `restore` to return to."""
        self.staged.journal = []
        return self._catalog.clone() if self._catalog is not None else None

    def restore(self, point: Catalog | None) -> None:
        """Take back everything staged since the latest savepoint."""
        self._catalog = point
        self.staged.undo()

    def rollback(self) -> None:
        self._check_open()
        self.status = "rolled-back"

    # --- commit ---

    def commit(self) -> None:
        self._check_open()
        if self.staged or self._catalog is not None:
            self.staged.journal = None  # commit's own writes are never undone
            with self.db.commit_lock:
                try:
                    _Commit(self).run()
                except Exception:
                    self.status = "aborted"
                    raise
        self.status = "committed"


class _Commit:
    """One transaction's commit under `commit_lock`: the facts its rules
    share, found once, and the rules in their fixed order.  A rule either
    stages more rows or raises CommitError; `publish` logs and applies."""

    def __init__(self, tx: Transaction):
        self.tx = tx
        self.store = tx.db.store
        self.staged = tx.staged
        # type id -> published descriptor (None for a new type) of every
        # type whose descriptor this transaction's catalog changed
        self.changed: dict[int, cat.TypeDescriptor | None] = {}
        if tx._catalog is not None:
            base = {d.type_id: d for d in tx._catalog_base.types()}
            self.changed = {d.type_id: base.get(d.type_id) for d in tx._catalog.types()
                            if d != base.get(d.type_id)}
            if not self.changed:
                tx._catalog = None  # an unchanged schema has nothing to publish
        # an unchanged schema is checked against the latest published one
        self.catalog = catalog = tx._catalog if tx._catalog is not None else tx.db.catalog
        # the one view of the latest committed state, under the lock
        self.post = ReadView(self.store, self.store.commit_seq, catalog, self.staged)
        self.node_tids = catalog.type_ids(cat.KIND_NODE)
        self.edge_tids = catalog.type_ids(cat.KIND_EDGE)
        # types whose rows are all checked again, not only the staged ones,
        # and edge types whose endpoint type changed
        self.rekeyed, self.retargeted, self.full_type, self.full_mult, self.full_constraint = (
            set(), set(), set(), set(), set())
        for tid, old in self.changed.items():
            desc = catalog.get(tid)
            if old is not None and desc.primary_key != old.primary_key:
                self.rekeyed.add(tid)
            if old is not None and (desc.leaving_type, desc.arriving_type) != (
                    old.leaving_type, old.arriving_type):
                self.retargeted.add(tid)
            if tid in self.rekeyed or (old and any(c not in desc.columns for c in old.columns)):
                self.full_type.add(tid)
            if desc.multiplicity != (old.multiplicity if old else None):
                self.full_mult.add(tid)
            if desc.constraints != (old.constraints if old else []):
                self.full_constraint.add(tid)
        # (uid, committed row or None, staged row or None), uid ascending,
        # once `write_references` has made the staging final
        self.changes: list[tuple[int, Row | None, Row | None]] = []

    def run(self) -> None:
        if not self.staged and not self.changed:
            return
        for rule in (self.conflicts, self.rekey_cascade, self.delete_cascade,
                     self.write_references, self.check_types, self.check_keys,
                     self.check_references, self.check_multiplicity, self.check_constraints):
            rule()
        self.publish()

    def _incident(self, uid: int) -> dict[int, Row]:
        """The edges at node `uid` in the post state, by uid."""
        return {erow.uid: erow for direction in ("leaving", "arriving")
                for erow, _, _ in self.post.edges_adjacent(uid, direction)}

    def _rows_to_check(self, full: set[int]):
        """The staged rows, then every row of the `full` types."""
        for _, _, row in self.changes:
            if row is not None:
                yield row
        if full:
            yield from self.post.scan_type(set().union(*map(self.catalog.subtype_closure, full)))

    # rules that raise or enlarge the staging

    def conflicts(self) -> None:
        """First committer wins, for the schema and for each row the
        statements staged.  The rows that commit stages itself are derived
        from the latest state, under the lock, so they never conflict."""
        tx = self.tx
        if tx._catalog is not None and tx.db.catalog is not tx._catalog_base:
            # publishing this catalog would revert the other commit's schema
            raise CommitError("conflict", "catalog", "another transaction changed "
                              "the schema after this one began")
        for uid in self.staged:
            version = self.store.newest(uid)
            if version is not None and max(version.begin, version.end or 0) > tx.snapshot:
                raise CommitError("conflict", self.catalog.get(version.row.type_id).label,
                                  f"row {uid} was changed by a commit after this "
                                  "transaction began", (uid,))

    def rekey_cascade(self) -> None:
        """Stage the committed edges of every node whose value changes in the
        key column of a type on its chain, and of every edge type whose endpoint
        got a new primary key or type, so that `write_references` rewrites them."""
        edge_tids = set(self.retargeted)
        if self.rekeyed:
            rekeyed = {t for tid in self.rekeyed for t in self.catalog.subtype_closure(tid)}
            edge_tids.update(edesc.type_id for edesc, _side
                             in self.catalog.edge_types_referencing(rekeyed))
        edges = list(self.post.scan_type(edge_tids)) if edge_tids else []
        facts, latest = self.catalog.facts, self.store.latest
        for uid, row in self.staged.items():
            old = latest(uid) if row is not None and row.type_id in self.node_tids else None
            if old is not None and any(old.values.get(c) != row.values.get(c)
                                       for c in facts(row.type_id).key_columns):
                edges.extend(self._incident(uid).values())
        for erow in edges:
            if erow.uid not in self.staged:
                self.staged.put(erow.uid, erow)

    def delete_cascade(self) -> None:
        """Node deletion is restrict by default, cascade on request."""
        for uid, (type_id, cascade) in self.staged.deletes.items():
            if type_id not in self.node_tids:
                continue
            incident = self._incident(uid)
            if incident and not cascade:
                raise CommitError("reference", self.catalog.get(type_id).label,
                                  f"node {uid} still has {len(incident)} incident edge(s); "
                                  "delete them first or use CASCADE", (uid,))
            for edge_uid in incident:
                self.staged.put(edge_uid, None)

    def write_references(self) -> None:
        """Every staged edge takes its endpoints' keys in LEAVING/ARRIVING
        (NULL for an endpoint with no key value, left as they are on a side
        with no endpoint).  The staging is final from here on, so this also
        lists its changes."""
        post, staged, latest = self.post, self.staged, self.store.latest
        for uid, row in sorted(staged.items()):
            if row is not None and row.type_id in self.edge_tids:
                values = dict(row.values)
                for column in (LEAVING, ARRIVING):
                    v = post.value(row, column)
                    if v is None:
                        values.pop(column, None)
                    else:
                        values[column] = v
                row = Row(uid, row.type_id, values, row.ends)
                staged.put(uid, row)
            self.changes.append((uid, latest(uid), row))

    # validation rules

    def check_types(self) -> None:
        """Staged rows, and every row of a type whose key or columns changed,
        hold only declared, conforming values and a non-null key."""
        catalog, facts = self.catalog, self.catalog.facts
        for row in self._rows_to_check(self.full_type):
            desc, columns = catalog.get(row.type_id), facts(row.type_id).column
            for name, v in row.values.items():
                col = columns.get(name)
                if col is None:
                    raise CommitError("type", desc.label,
                                      f"value for undeclared column {name}", (row.uid,))
                if not val.conforms(v, col.data_type):
                    raise CommitError("type", desc.label,
                                      f"column {name} cannot hold {v!r}", (row.uid,))
                if col.data_type != val.STRUCTURED:
                    continue
                if v.type_id != col.struct_type_id:
                    raise CommitError("type", desc.label,
                                      f"column {name} holds the wrong structured type", (row.uid,))
                fields = facts(col.struct_type_id).column
                for k, fv in v.values:
                    fcol = fields.get(k)
                    if fcol is None or (fv is not None and not val.conforms(fv, fcol.data_type)):
                        raise CommitError("type", desc.label,
                                          f"structured value field {k} is invalid", (row.uid,))
            for kcol in facts(row.type_id).key:
                if row.values.get(kcol) is None:
                    raise CommitError("key", desc.label, f"key column {kcol} is null", (row.uid,))

    def check_keys(self) -> None:
        """Each key scope (`Catalog.key_scopes`) of a staged row's type holds
        unique keys over its members.  A scope groups its staged members by
        key value, each group probing the store once; a key its declarer
        lacked at BEGIN checks all its members (a scope gains members only
        by new types, whose rows are all staged).  A row alone in its group
        whose committed version held its key is skipped, as every committed
        state holds every such key unique.  A NULL conflicts with nothing, and
        a duplicate names the key's declaring type."""
        catalog, post, store = self.catalog, self.post, self.store
        rows = [row for _, _, row in self.changes if row is not None]
        # scope -> whether every member row is checked
        scopes = dict.fromkeys((scope for tid in sorted({r.type_id for r in rows})
                                for scope in catalog.key_scopes(tid)), False)
        for tid in self.changed:
            for scope in catalog.key_scopes(tid):
                had = self.changed.get(scope[0], catalog.get(scope[0]))  # at BEGIN
                if had is None or list(scope[1]) not in (had.primary_key, *had.unique_keys):
                    scopes[scope] = True
        for (declarer, key, members), every_row in scopes.items():
            # key value -> member rows to check, uid ascending; `check_types` left
            # one kind of value in each key column, for which `==` is `values_equal`
            groups: dict[tuple, list[Row]] = {}
            for row in post.scan_type(members) if every_row else rows:
                kv = tuple(map(row.values.get, key))
                if row.type_id in members and None not in kv:
                    groups.setdefault(kv, []).append(row)
            for kv, (row, *others) in groups.items():  # by the lowest uid in each
                if not every_row:
                    old = None if others else store.latest(row.uid)
                    if old is not None and tuple(map(old.values.get, key)) == kv:
                        continue
                    committed = [uid for tid in members for uid in store.index_candidates(
                        tid, key[0], kv[0]) if uid not in self.staged]
                    others += [other for other in map(store.latest, committed) if other is not None
                               and tuple(map(other.values.get, key)) == kv]
                if others:
                    raise CommitError("key", catalog.get(declarer).label,
                                      f"duplicate key {kv!r}", (min(o.uid for o in others), row.uid))

    def check_references(self) -> None:
        catalog = self.catalog
        for uid, _, row in self.changes:
            if row is None or row.type_id not in self.edge_tids:
                continue
            desc = catalog.get(row.type_id)
            for side, end, endpoint_tid in ((LEAVING, row.ends[0], desc.leaving_type),
                                            (ARRIVING, row.ends[1], desc.arriving_type)):
                node = None if end is None else self.post.get_row(end)
                if node is None or node.type_id not in catalog.subtype_closure(endpoint_tid):
                    raise CommitError("reference", desc.label,
                                      f"{side} value {row.values.get(side)!r} matches no "
                                      f"{catalog.get(endpoint_tid).label} row", (uid,))
                if row.values.get(side) is None:
                    raise CommitError("reference", desc.label,
                                      f"{side} is null: node {end} has no value in the key "
                                      f"of {catalog.get(endpoint_tid).label}", (uid,))

    def check_multiplicity(self) -> None:
        catalog, post = self.catalog, self.post
        constrained = catalog.constrained_edge_types()
        if not constrained:
            return
        affected: set[int] = set()
        for uid, before, row in self.changes:
            # a deleted or retargeted edge leaves its former endpoints
            if before is not None and before.ends is not None:
                affected.update(before.ends)
            if row is not None:
                affected.update(row.ends if row.type_id in self.edge_tids else (uid,))
        full = {t for edesc in constrained if edesc.type_id in self.full_mult
                for endpoint in (edesc.leaving_type, edesc.arriving_type)
                for t in catalog.subtype_closure(endpoint)}
        affected.update(row.uid for row in post.scan_type(full))
        for node_uid in sorted(affected):
            node = post.get_row(node_uid)
            if node is None:
                continue
            for edesc in constrained:
                closure = catalog.subtype_closure(edesc.type_id)
                mult = edesc.multiplicity
                for direction, verb, endpoint_tid, lo, hi in (
                        ("leaving", "leaves", edesc.leaving_type,
                         mult.leaving_min, mult.leaving_max),
                        ("arriving", "receives", edesc.arriving_type,
                         mult.arriving_min, mult.arriving_max)):
                    if node.type_id not in catalog.subtype_closure(endpoint_tid):
                        continue
                    n = len(post.edges_adjacent(node_uid, direction, closure))
                    if n < lo or (hi is not None and n > hi):
                        bound = f"{lo}..{'*' if hi is None else hi}"
                        raise CommitError("multiplicity", edesc.label,
                                          f"{catalog.get(node.type_id).label} node {node_uid} "
                                          f"{verb} {n} {edesc.label} edge(s), outside {bound}",
                                          (node_uid,))

    def check_constraints(self) -> None:
        catalog = self.catalog
        for row in self._rows_to_check(self.full_constraint):
            for constraint in catalog.facts(row.type_id).constraints:
                if not constraint_passes(constraint.expr, row.values, constraint.params):
                    raise CommitError("constraint", catalog.get(row.type_id).label,
                                      f"check ({constraint.text}) failed", (row.uid,))

    def publish(self) -> None:
        """Log the commit, then apply it to the store, catalog and components."""
        db, catalog = self.tx.db, self.catalog
        seq = self.store.commit_seq + 1
        schema = [catalog.descriptor_to_dict(catalog.get(tid)) for tid in sorted(self.changed)]
        next_uid = db.peek_uid()
        db.append_log_record(logmod.encode_record(seq, schema, self.staged, next_uid))
        try:
            self.store.apply(seq, self.staged)
            db.logged_next_uid = next_uid
            db.published = (seq, catalog)
            db.graphs.apply_delta(self.changes)
        except Exception as exc:
            # memory and the log now differ; reopening the log recovers
            db.refusal = (f"commit {seq} was logged but not applied ({exc!r}); "
                          "commits are refused")
            raise StorageError(db.refusal) from exc
