"""Row store and transactions.

One logical base table per node/edge type.  Rows are version-stamped with the
commit sequence numbers they became visible/invisible at, which is what gives
readers snapshot isolation under the single-writer model.  A transaction
stages row and schema changes privately; commit validates the post state in a
fixed order (column types and keys, then references, then multiplicity, then
constraints), appends one self-contained log record, and only then publishes.

Edge rows reference their endpoints by key value (LEAVING/ARRIVING), but
navigation goes by uid.  Commit resolves each staged edge's endpoints once
(reference validation does it anyway) and stores the uid pair on the edge's
new version; replay does the same dereference once per edge.  A rekey does
not move uids and a retarget writes a new version, so a version's ends never
change.  `leaving_at`/`arriving_at` map a node uid to every edge that ever
touched it; like the value index they never shrink, because a reader at an
older snapshot may still need an edge that has since been deleted or
retargeted, and each reader re-checks the version it sees.  A node rekeyed
inside an open transaction therefore keeps its committed edges: they are
found by uid, not by the key value the transaction just changed.  Staged
edges, which have no version yet, are still resolved by key.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field

from . import catalog as cat
from . import log as logmod
from . import values as val
from .catalog import ARRIVING, Catalog, ColumnDescriptor, LEAVING, Multiplicity
from .errors import CommitError, ExecutionError, SchemaError, StorageError
from .exprs import constraint_passes


@dataclass
class Row:
    """One node, edge or staged record.  Absent keys in `values` are NULL."""

    uid: int
    type_id: int
    values: dict

    def get(self, name: str):
        return self.values.get(name)


class _Version:
    __slots__ = ("row", "begin", "end", "ends")

    def __init__(self, row: Row, begin: int, ends: tuple[int, int] | None):
        self.row = row
        self.begin = begin
        self.end: int | None = None
        # an edge version's (leaving uid, arriving uid), resolved at its commit
        self.ends = ends


class Store:
    """Committed row versions plus derived value indexes and adjacency."""

    def __init__(self):
        self.commit_seq = 0
        self._versions: dict[int, list[_Version]] = {}
        self._by_type: dict[int, dict[int, None]] = {}
        # (type_id, column) -> value -> set of uids; entries are never removed,
        # readers re-check value and visibility
        self._value_index: dict[tuple[int, str], dict] = {}
        self._indexed: dict[int, set[str]] = {}
        # node uid -> uids of the edges any version of which left / arrived
        # there; never shrinks either, readers re-check the visible version
        self.leaving_at: dict[int, set[int]] = {}
        self.arriving_at: dict[int, set[int]] = {}

    # --- reads against a snapshot ---

    def version_at(self, uid: int, snapshot: int) -> _Version | None:
        for version in reversed(self._versions.get(uid, ())):
            if version.begin <= snapshot and (version.end is None or version.end > snapshot):
                return version
        return None

    def visible(self, uid: int, snapshot: int) -> Row | None:
        version = self.version_at(uid, snapshot)
        return version.row if version is not None else None

    def latest(self, uid: int) -> Row | None:
        return self.visible(uid, self.commit_seq)

    def latest_ends(self, uid: int) -> tuple[int, int] | None:
        """Endpoint uids of the edge's latest committed version."""
        version = self.version_at(uid, self.commit_seq)
        return version.ends if version is not None else None

    def scan_committed(self, type_id: int, snapshot: int):
        for uid in list(self._by_type.get(type_id, ())):
            row = self.visible(uid, snapshot)
            if row is not None:
                yield row

    def index_candidates(self, type_id: int, column: str, value) -> set[int]:
        """Over-approximate uid set; caller re-checks value and visibility."""
        key = (type_id, column)
        index = self._value_index.get(key)
        if index is None:
            index = self._build_index(type_id, column)
        try:
            return index.get(value, set())
        except TypeError:
            return set()

    def _build_index(self, type_id: int, column: str) -> dict:
        index: dict = {}
        for versions in (self._versions.get(uid, ()) for uid in self._by_type.get(type_id, ())):
            for version in versions:
                v = version.row.values.get(column)
                if v is not None:
                    index.setdefault(v, set()).add(version.row.uid)
        self._value_index[(type_id, column)] = index
        self._indexed.setdefault(type_id, set()).add(column)
        return index

    # --- commit application (physical) ---

    def apply(self, seq: int, final: dict[int, Row | None],
              endpoint_map: dict[int, tuple[int, int]]) -> None:
        """Publish one commit; `endpoint_map` holds the endpoint uids of
        every edge row in `final`."""
        for uid in sorted(final):
            row = final[uid]
            versions = self._versions.setdefault(uid, [])
            if versions and versions[-1].end is None:
                versions[-1].end = seq
            if row is None:
                continue
            ends = endpoint_map.get(uid)
            versions.append(_Version(row, seq, ends))
            self._by_type.setdefault(row.type_id, {})[uid] = None
            for column in self._indexed.get(row.type_id, ()):
                v = row.values.get(column)
                if v is not None:
                    self._value_index[(row.type_id, column)].setdefault(v, set()).add(uid)
            if ends is not None:
                self.leaving_at.setdefault(ends[0], set()).add(uid)
                self.arriving_at.setdefault(ends[1], set()).add(uid)
        self.commit_seq = seq


class ReadView:
    """Committed state at one snapshot merged with a transaction's staging."""

    def __init__(self, store: Store, snapshot: int, catalog: Catalog,
                 staged: dict[int, Row | None] | None = None):
        self.store = store
        self.snapshot = snapshot
        self.catalog = catalog
        self.staged = staged if staged is not None else {}
        self._endpoint_memo: dict[int, tuple[int, int]] = {}
        # column -> type id -> value -> staged rows, once `freeze` is called
        self._staged_index: dict[str, dict] | None = None

    def freeze(self) -> "ReadView":
        """Declare `staged` final: lookups then probe a value index of the
        staged rows, built per column on first use, instead of rescanning
        every staged row."""
        self._staged_index = {}
        return self

    def get_row(self, uid: int) -> Row | None:
        if uid in self.staged:
            return self.staged[uid]
        return self.store.visible(uid, self.snapshot)

    def scan_type(self, type_id: int, subtypes: bool = True):
        """Rows of the type (and subtypes), ascending by uid."""
        tids = self.catalog.subtype_closure(type_id) if subtypes else [type_id]
        tidset = set(tids)
        streams = []
        for tid in tids:
            committed = [r for r in self.store.scan_committed(tid, self.snapshot)
                         if r.uid not in self.staged]
            streams.append(committed)
        staged_rows = sorted((r for r in self.staged.values()
                              if r is not None and r.type_id in tidset),
                             key=lambda r: r.uid)
        streams.append(staged_rows)
        return heapq.merge(*streams, key=lambda r: r.uid)

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
            if isinstance(v, Row):
                row = self.get_row(v.uid) or v
                return row.values.get(path[1])
            raise ExecutionError(f"{name} has no fields")
        return resolve

    def lookup_by_value(self, type_ids, column: str, value):
        """Rows among `type_ids` whose `column` equals `value`, uid ascending."""
        if value is None:
            return []
        out = []
        for tid in type_ids:
            for uid in self.store.index_candidates(tid, column, value):
                if uid in self.staged:
                    continue
                row = self.store.visible(uid, self.snapshot)
                if row is not None and row.type_id == tid and val.values_equal(row.values.get(column), value):
                    out.append(row)
        if self.staged:
            out.extend(self._staged_rows(type_ids, column, value))
        out.sort(key=lambda r: r.uid)
        return out

    def _staged_rows(self, type_ids, column: str, value) -> list[Row]:
        """Staged rows among `type_ids` whose `column` equals `value`."""
        if self._staged_index is None:
            tidset = set(type_ids)
            return [r for r in self.staged.values()
                    if r is not None and r.type_id in tidset
                    and val.values_equal(r.values.get(column), value)]
        index = self._staged_index.get(column)
        if index is None:
            index = self._staged_index[column] = {}
            for row in self.staged.values():
                v = None if row is None else row.values.get(column)
                if v is not None:
                    try:
                        index.setdefault(row.type_id, {}).setdefault(v, []).append(row)
                    except TypeError:
                        pass  # an unhashable value equals no hashable probe
        out = []
        for tid in type_ids:
            by_value = index.get(tid)
            if by_value:
                try:
                    candidates = by_value.get(value, ())
                except TypeError:
                    continue
                out += [r for r in candidates if val.values_equal(r.values.get(column), value)]
        return out

    # --- graph navigation ---

    def key_column(self, node_type_id: int) -> str | None:
        key = self.catalog.effective_key(node_type_id)
        return key[0] if len(key) == 1 else None

    def deref_node(self, node_type_id: int, key_value) -> Row | None:
        """Node of the type closure whose key equals `key_value`."""
        column = self.key_column(node_type_id)
        if column is None or key_value is None:
            return None
        rows = self.lookup_by_value(self.catalog.subtype_closure(node_type_id), column, key_value)
        return rows[0] if rows else None

    def resolve_endpoints(self, edge_row: Row) -> tuple[int | None, int | None]:
        """Endpoint uids found by dereferencing the edge's key-valued
        reference columns in this view (None for a side that matches no node)."""
        memo = self._endpoint_memo.get(edge_row.uid)
        if memo is not None:
            return memo
        desc = self.catalog.get(edge_row.type_id)
        leaving = self.deref_node(desc.leaving_type, edge_row.values.get(LEAVING))
        arriving = self.deref_node(desc.arriving_type, edge_row.values.get(ARRIVING))
        ends = (leaving.uid if leaving else None, arriving.uid if arriving else None)
        self._endpoint_memo[edge_row.uid] = ends
        return ends

    def edges_adjacent(self, node_row: Row, direction: str, edge_type_ids=None):
        """[(edge row, leaving uid, arriving uid)] touching the node on
        `direction`, uid ascending: committed edges through the uid
        adjacency, staged edges (which have no version yet) by key."""
        side = 0 if direction == "leaving" else 1
        store, uid, out = self.store, node_row.uid, []
        for euid in (store.leaving_at if side == 0 else store.arriving_at).get(uid, ()):
            version = None if euid in self.staged else store.version_at(euid, self.snapshot)
            if version is None or version.ends is None or version.ends[side] != uid:
                continue
            if edge_type_ids is None or version.row.type_id in edge_type_ids:
                out.append((version.row, *version.ends))
        if self.staged:
            catalog = self.catalog
            if edge_type_ids is None:
                edge_type_ids = [d.type_id for d in catalog.types(cat.KIND_EDGE)]
            for etid in edge_type_ids:
                desc = catalog.get(etid)
                endpoint_tid = desc.leaving_type if side == 0 else desc.arriving_type
                kcol = None if endpoint_tid is None else self.key_column(endpoint_tid)
                key_value = node_row.values.get(kcol)
                for erow in self._staged_rows((etid,), LEAVING if side == 0 else ARRIVING, key_value):
                    ends = self.resolve_endpoints(erow)
                    if ends[side] == uid:
                        out.append((erow, *ends))
        out.sort(key=lambda t: t[0].uid)
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


@dataclass
class CascadeReport:
    edge_types: list[str] = field(default_factory=list)
    rows_rewritten: int = 0


# the Transaction attributes that a statement's staging changes
_STAGING = ("staged", "_cascade_deletes", "_dirty_types", "_full_key_check",
            "_full_mult_check", "_full_constraint_check")


class Transaction:
    """Stages schema and row changes against a snapshot; commit validates
    and publishes them atomically."""

    def __init__(self, db, snapshot: int):
        self.db = db
        self.snapshot = snapshot
        self.status = "open"
        self._catalog: Catalog | None = None
        self.staged: dict[int, Row | None] = {}
        self._cascade_deletes: set[int] = set()
        self._dirty_types: set[int] = set()
        self._full_key_check: set[int] = set()
        self._full_mult_check: set[int] = set()
        self._full_constraint_check: set[int] = set()

    # --- catalog access ---

    @property
    def catalog(self) -> Catalog:
        return self._catalog if self._catalog is not None else self.db.catalog

    def _mutable_catalog(self) -> Catalog:
        if self._catalog is None:
            self._catalog = self.db.catalog.clone()
        return self._catalog

    def _check_open(self) -> None:
        if self.status != "open":
            raise StorageError(f"transaction is {self.status}")

    def view(self) -> ReadView:
        """Reads at the transaction's begin snapshot plus its own staging."""
        return ReadView(self.db.store, self.snapshot, self.catalog, self.staged)

    def post_view(self) -> ReadView:
        """Reads at the latest committed state plus staging (validation view)."""
        return ReadView(self.db.store, self.db.store.commit_seq, self.catalog, self.staged)

    def _type(self, ref, kinds=None) -> cat.TypeDescriptor:
        if isinstance(ref, int):
            desc = self.catalog.get(ref)
        else:
            desc = self.catalog.lookup_label(ref)
            if desc is None:
                raise SchemaError(f"unknown type {ref}")
        if kinds and desc.kind not in kinds:
            raise SchemaError(f"{desc.label} is a {desc.kind} type")
        return desc

    # --- schema operations ---

    def define_node_type(self, label: str, columns=(), supertype=None) -> cat.TypeDescriptor:
        self._check_open()
        catalog = self._mutable_catalog()
        sup_id = None
        if supertype is not None:
            sup_id = self._type(supertype, (cat.KIND_NODE,)).type_id
        desc = catalog.define_node_type(label, make_columns(columns), sup_id)
        self._dirty_types.add(desc.type_id)
        return desc

    def define_edge_type(self, label: str, columns, leaving, arriving,
                         multiplicity: Multiplicity | None = None) -> cat.TypeDescriptor:
        self._check_open()
        catalog = self._mutable_catalog()
        ltid = self._type(leaving, (cat.KIND_NODE,)).type_id
        atid = self._type(arriving, (cat.KIND_NODE,)).type_id
        desc = catalog.define_edge_type(label, make_columns(columns), ltid, atid, multiplicity)
        self._dirty_types.add(desc.type_id)
        if multiplicity is not None and not multiplicity.is_default():
            self._full_mult_check.add(desc.type_id)
        return desc

    def define_plain_type(self, label: str, columns) -> cat.TypeDescriptor:
        self._check_open()
        catalog = self._mutable_catalog()
        desc = catalog.define_plain_type(label, make_columns(columns))
        self._dirty_types.add(desc.type_id)
        return desc

    def widen_type(self, type_ref, column) -> ColumnDescriptor:
        self._check_open()
        desc = self._type(type_ref)
        catalog = self._mutable_catalog()
        columns = make_columns([column])
        added = catalog.widen_type(desc.type_id, columns[0])
        self._dirty_types.add(desc.type_id)
        return added

    def retype_column(self, type_ref, name: str, data_type: str) -> None:
        self._check_open()
        desc = self._type(type_ref)
        self._mutable_catalog().retype_column(desc.type_id, name, data_type)
        self._dirty_types.add(desc.type_id)

    def drop_column(self, type_ref, name: str) -> int:
        """Drop a column and scrub its values; returns rows rewritten."""
        self._check_open()
        desc = self._type(type_ref)
        catalog = self._mutable_catalog()
        post = self.post_view()
        rewrites = []
        owner = None
        for tid in catalog.supertype_chain(desc.type_id):
            if catalog.get(tid).own_column(name) is not None:
                owner = catalog.get(tid)
        scope = desc if owner is None else owner
        for row in post.scan_type(scope.type_id, subtypes=True):
            if name in row.values:
                rewrites.append(row)
        catalog.drop_column(scope.type_id, name)   # validates, may raise
        self._dirty_types.add(scope.type_id)
        for row in rewrites:
            new_values = dict(row.values)
            del new_values[name]
            self.staged[row.uid] = Row(row.uid, row.type_id, new_values)
        return len(rewrites)

    def alter_primary_key(self, type_ref, key_columns) -> CascadeReport:
        """Install a new primary key and rewrite referencing edge columns."""
        self._check_open()
        desc = self._type(type_ref, (cat.KIND_NODE,))
        key_columns = list(key_columns)
        catalog = self._mutable_catalog()
        desc = catalog.get(desc.type_id)
        for name in key_columns:
            if catalog.effective_column(desc.type_id, name) is None:
                raise SchemaError(f"{desc.label} has no column {name}")
        post = self.post_view()

        # every row of the scope must have a unique, non-null key value
        seen: dict[tuple, int] = {}
        for row in post.scan_type(desc.type_id, subtypes=True):
            key = tuple(row.values.get(c) for c in key_columns)
            if any(v is None for v in key):
                raise SchemaError(f"{desc.label} row {row.uid} has a null value in "
                                  f"({', '.join(key_columns)})")
            if key in seen:
                raise SchemaError(f"{desc.label} values in ({', '.join(key_columns)}) "
                                  f"are not unique (rows {seen[key]}, {row.uid})")
            seen[key] = row.uid

        # node types whose effective key will change
        old_declarer = catalog.key_declarer(desc.type_id)
        affected = {t for t in catalog.subtype_closure(desc.type_id)
                    if catalog.key_declarer(t) is old_declarer}
        edge_refs = catalog.edge_types_referencing(affected)
        if edge_refs and len(key_columns) != 1:
            raise SchemaError(f"{desc.label} is an edge endpoint and needs a single-column key")

        # resolve endpoints under the old key before touching the schema
        rewrites = []
        for edesc, side in edge_refs:
            for erow in post.scan_type(edesc.type_id, subtypes=True):
                ends = (post.resolve_endpoints(erow) if erow.uid in self.staged
                        else self.db.store.latest_ends(erow.uid) or (None, None))
                endpoint_uid = ends[0] if side == LEAVING else ends[1]
                if endpoint_uid is None:
                    raise SchemaError(f"{edesc.label} row {erow.uid} has a dangling {side}")
                rewrites.append((erow, side, endpoint_uid))

        catalog.install_primary_key(desc.type_id, key_columns)
        self._dirty_types.add(desc.type_id)
        if old_declarer is not None:
            self._dirty_types.add(old_declarer.type_id)
        report = CascadeReport()
        new_col = catalog.effective_column(desc.type_id, key_columns[0]) if len(key_columns) == 1 else None
        retyped = set()
        for edesc, side in edge_refs:
            owner_tid = None
            for tid in catalog.supertype_chain(edesc.type_id):
                if catalog.get(tid).own_column(side) is not None:
                    owner_tid = tid
            if owner_tid is not None and (owner_tid, side) not in retyped:
                catalog.retype_column(owner_tid, side, new_col.data_type)
                self._dirty_types.add(owner_tid)
                retyped.add((owner_tid, side))
            if edesc.label not in report.edge_types:
                report.edge_types.append(edesc.label)
        touched = set()
        for erow, side, endpoint_uid in rewrites:
            current = self.staged.get(erow.uid, erow)
            node = post.get_row(endpoint_uid)
            new_values = dict(current.values)
            new_values[side] = node.values.get(key_columns[0])
            self.staged[erow.uid] = Row(erow.uid, erow.type_id, new_values)
            touched.add(erow.uid)
        report.rows_rewritten = len(touched)
        self._full_key_check.add(desc.type_id)
        return report

    def retarget_endpoint(self, type_ref, side: str, node_type_id: int) -> None:
        self._check_open()
        desc = self._type(type_ref, (cat.KIND_EDGE,))
        self._mutable_catalog().retarget_endpoint(desc.type_id, side, node_type_id)
        self._dirty_types.add(desc.type_id)

    def set_cardinality(self, type_ref, multiplicity: Multiplicity) -> None:
        self._check_open()
        desc = self._type(type_ref, (cat.KIND_EDGE,))
        self._mutable_catalog().set_multiplicity(desc.type_id, multiplicity)
        self._dirty_types.add(desc.type_id)
        self._full_mult_check.add(desc.type_id)

    def add_constraint(self, type_ref, text: str) -> None:
        self._check_open()
        from .parser import parse_expression
        from .syntax import expr_refs
        desc = self._type(type_ref)
        expr = parse_expression(text)
        names = set()
        for path in expr_refs(expr):
            if len(path) != 1:
                raise SchemaError("constraints may only reference column names")
            names.add(path[0])
        catalog = self._mutable_catalog()
        catalog.add_constraint(desc.type_id, cat.Constraint(text, expr), names)
        self._dirty_types.add(desc.type_id)
        self._full_constraint_check.add(desc.type_id)

    # --- row staging ---

    def _stage_check_values(self, desc: cat.TypeDescriptor, values: dict) -> dict:
        columns = {c.name: c for c in self.catalog.effective_columns(desc.type_id)}
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

    def insert_row(self, type_ref, values: dict) -> int:
        self._check_open()
        desc = self._type(type_ref)
        if desc.kind == cat.KIND_PLAIN:
            raise StorageError(f"{desc.label} is a plain type; it has no rows of its own")
        staged_values = self._stage_check_values(desc, values)
        uid = self.db.allocate_uid()
        key = self.catalog.effective_key(desc.type_id)
        # the automatic integer key takes the row uid when no value is supplied
        if len(key) == 1 and key[0] not in staged_values:
            col = self.catalog.effective_column(desc.type_id, key[0])
            if col is not None and col.data_type == val.INTEGER:
                staged_values[key[0]] = uid
        self.staged[uid] = Row(uid, desc.type_id, staged_values)
        return uid

    def update_row(self, uid: int, changes: dict) -> None:
        self._check_open()
        row = self.post_view().get_row(uid)
        if row is None:
            raise StorageError(f"unknown uid {uid}")
        desc = self.catalog.get(row.type_id)
        new_values = dict(row.values)
        for name, v in changes.items():
            if v is None:
                new_values.pop(name, None)
            else:
                new_values[name] = v
        new_row = Row(uid, row.type_id, self._stage_check_values(desc, new_values))
        if desc.kind == cat.KIND_NODE:
            self._cascade_staged_edges(row, new_row)
        self.staged[uid] = new_row

    def _cascade_staged_edges(self, old_row: Row, new_row: Row) -> None:
        """A key change on a node must follow through to staged edges that
        reference it by the old key value (committed edges are rewritten at
        commit time, found through the uid adjacency)."""
        catalog = self.catalog
        key = catalog.effective_key(old_row.type_id)
        if len(key) != 1:
            return
        kcol = key[0]
        old_key, new_key = old_row.values.get(kcol), new_row.values.get(kcol)
        if val.values_equal(old_key, new_key):
            return
        view = self.post_view()
        edge_tids = {d.type_id for d in catalog.types(cat.KIND_EDGE)}
        for suid, srow in list(self.staged.items()):
            if srow is None or srow.type_id not in edge_tids:
                continue
            edesc = catalog.get(srow.type_id)
            for side, endpoint in ((LEAVING, edesc.leaving_type), (ARRIVING, edesc.arriving_type)):
                if old_row.type_id not in catalog.subtype_closure(endpoint):
                    continue
                if not val.values_equal(srow.values.get(side), old_key):
                    continue
                ends = view.resolve_endpoints(srow)
                mine = ends[0] if side == LEAVING else ends[1]
                if mine == old_row.uid:
                    rewritten = dict(srow.values)
                    rewritten[side] = new_key
                    self.staged[suid] = Row(suid, srow.type_id, rewritten)

    def delete_row(self, uid: int, cascade: bool = False) -> None:
        self._check_open()
        row = self.post_view().get_row(uid)
        if row is None:
            raise StorageError(f"unknown uid {uid}")
        self.staged[uid] = None
        if cascade:
            self._cascade_deletes.add(uid)

    def savepoint(self) -> tuple:
        """The staging state, for `restore` to return to."""
        catalog = self._catalog.clone() if self._catalog is not None else None
        return catalog, {name: copy.copy(getattr(self, name)) for name in _STAGING}

    def restore(self, point: tuple) -> None:
        self._catalog, state = point
        for name, value in state.items():
            setattr(self, name, value)

    def rollback(self) -> None:
        self._check_open()
        self.status = "rolled-back"

    # --- commit pipeline ---

    def commit(self) -> None:
        self._check_open()
        if self.staged or self._dirty_types:
            with self.db.commit_lock:
                try:
                    self._commit_locked()
                except Exception:
                    self.status = "aborted"
                    raise
        self.status = "committed"

    def _commit_locked(self) -> None:
        catalog = self.catalog
        node_tids = {d.type_id for d in catalog.types(cat.KIND_NODE)}
        edge_tids = {d.type_id for d in catalog.types(cat.KIND_EDGE)}

        self._expand_key_cascades(catalog, node_tids)
        self._expand_deletes(catalog, node_tids)
        post = self.post_view().freeze()

        self._validate_types(post, catalog)
        self._validate_keys(post, catalog)
        endpoint_map = self._validate_references(post, catalog, edge_tids)
        self._validate_multiplicity(post, catalog, endpoint_map, edge_tids)
        self._validate_constraints(post, catalog)

        seq = self.db.store.commit_seq + 1
        schema = [catalog.descriptor_to_dict(catalog.get(tid))
                  for tid in sorted(self._dirty_types)]
        row_ops = []
        for uid in sorted(self.staged):
            row = self.staged[uid]
            if row is None:
                row_ops.append(["del", uid])
            else:
                row_ops.append(["put", uid, row.type_id, row.values])
        self.db.append_log_record(logmod.encode_record(seq, schema, row_ops, self.db.peek_uid()))

        delta = self._graph_delta(edge_tids, endpoint_map)
        self.db.store.apply(seq, self.staged, endpoint_map)
        if self._catalog is not None:
            self.db.catalog = self._catalog
        self.db.graphs.apply_delta(*delta)

    # cascading effects that enlarge the staged set

    def _expand_key_cascades(self, catalog: Catalog, node_tids: set[int]) -> None:
        """A changed node key value rewrites the reference columns of the
        node's committed edges."""
        store = self.db.store
        committed = ReadView(store, store.commit_seq, catalog)
        for uid, row in list(self.staged.items()):
            if row is None or row.type_id not in node_tids:
                continue
            old = store.latest(uid)
            if old is None:
                continue
            key = catalog.effective_key(row.type_id)
            if len(key) != 1:
                continue
            old_key, new_key = old.values.get(key[0]), row.values.get(key[0])
            if old_key == new_key:
                continue
            for side, direction in ((LEAVING, "leaving"), (ARRIVING, "arriving")):
                for erow, _, _ in committed.edges_adjacent(old, direction):
                    current = self.staged.get(erow.uid, erow)
                    # skip edges deleted or retargeted in this transaction
                    if current is not None and val.values_equal(current.values.get(side), old_key):
                        new_values = dict(current.values)
                        new_values[side] = new_key
                        self.staged[erow.uid] = Row(erow.uid, erow.type_id, new_values)

    def _expand_deletes(self, catalog: Catalog, node_tids: set[int]) -> None:
        """Node deletion is restrict by default, cascade on request."""
        deleted = [u for u, r in self.staged.items() if r is None]
        if not deleted:
            return
        store = self.db.store
        # staged edges reference nodes by key, so look for incident edges in
        # a view where the deleted nodes are still visible
        alive = ReadView(store, store.commit_seq, catalog,
                         {u: r for u, r in self.staged.items() if r is not None}).freeze()
        for uid in deleted:
            old = store.latest(uid)
            if old is None or old.type_id not in node_tids:
                continue
            incident = {erow.uid for direction in ("leaving", "arriving")
                        for erow, _, _ in alive.edges_adjacent(old, direction)
                        if self.staged.get(erow.uid, erow) is not None}
            if not incident:
                continue
            if uid in self._cascade_deletes:
                for edge_uid in incident:
                    self.staged[edge_uid] = None
            else:
                label = catalog.get(old.type_id).label
                raise CommitError("reference", label,
                                  f"node {uid} still has {len(incident)} incident edge(s); "
                                  "delete them first or use CASCADE", (uid,))

    # validation rules, in commit order

    def _validate_types(self, post: ReadView, catalog: Catalog) -> None:
        for uid, row in sorted(self.staged.items()):
            if row is None:
                continue
            desc = catalog.get(row.type_id)
            columns = {c.name: c for c in catalog.effective_columns(row.type_id)}
            for name, v in row.values.items():
                col = columns.get(name)
                if col is None:
                    raise CommitError("type", desc.label,
                                      f"value for undeclared column {name}", (uid,))
                if not val.conforms(v, col.data_type):
                    raise CommitError("type", desc.label,
                                      f"column {name} cannot hold {v!r}", (uid,))
                if col.data_type == val.STRUCTURED:
                    self._check_struct(post, catalog, desc, name, v, uid, col)
            key = catalog.effective_key(row.type_id)
            for kcol in key:
                if row.values.get(kcol) is None:
                    raise CommitError("key", desc.label, f"key column {kcol} is null", (uid,))

    def _check_struct(self, post, catalog, desc, name, sv, uid, col) -> None:
        if sv.type_id != col.struct_type_id:
            raise CommitError("type", desc.label,
                              f"column {name} holds the wrong structured type", (uid,))
        plain = catalog.get(col.struct_type_id)
        plain_cols = {c.name: c for c in plain.columns}
        for k, v in sv.values:
            pcol = plain_cols.get(k)
            if pcol is None or (v is not None and not val.conforms(v, pcol.data_type)):
                raise CommitError("type", desc.label,
                                  f"structured value field {k} is invalid", (uid,))

    def _key_scopes(self, catalog: Catalog) -> dict[int, list[str]]:
        """Scope root type id -> key columns, for every staged row's type plus
        the types whose key definitions changed this transaction."""
        scopes: dict[int, list[str]] = {}
        tids = {r.type_id for r in self.staged.values() if r is not None}
        tids |= self._full_key_check
        for tid in tids:
            declarer = catalog.key_declarer(tid)
            if declarer is not None and declarer.primary_key:
                scopes[declarer.type_id] = list(declarer.primary_key)
        return scopes

    def _validate_keys(self, post: ReadView, catalog: Catalog) -> None:
        staged_tids = {r.type_id for r in self.staged.values() if r is not None}
        for scope_tid, key in self._key_scopes(catalog).items():
            closure = set(catalog.subtype_closure(scope_tid))
            full = scope_tid in self._full_key_check
            if full:
                seen: dict[tuple, int] = {}
                for row in post.scan_type(scope_tid, subtypes=True):
                    kv = tuple(row.values.get(c) for c in key)
                    if kv in seen:
                        raise CommitError("key", catalog.get(scope_tid).label,
                                          f"duplicate key {kv!r}", (seen[kv], row.uid))
                    seen[kv] = row.uid
                continue
            if not (closure & staged_tids):
                continue
            for uid, row in sorted(self.staged.items()):
                if row is None or row.type_id not in closure:
                    continue
                kv = tuple(row.values.get(c) for c in key)
                matches = post.lookup_by_value(sorted(closure), key[0], kv[0])
                for other in matches:
                    if other.uid == uid:
                        continue
                    if tuple(other.values.get(c) for c in key) == kv:
                        raise CommitError("key", catalog.get(row.type_id).label,
                                          f"duplicate key {kv!r}", (other.uid, uid))

    def _validate_references(self, post: ReadView, catalog: Catalog,
                             edge_tids: set[int]) -> dict[int, tuple[int, int]]:
        endpoint_map: dict[int, tuple[int, int]] = {}
        for uid, row in sorted(self.staged.items()):
            if row is None or row.type_id not in edge_tids:
                continue
            desc = catalog.get(row.type_id)
            leaving = post.deref_node(desc.leaving_type, row.values.get(LEAVING))
            if leaving is None:
                raise CommitError("reference", desc.label,
                                  f"{LEAVING} value {row.values.get(LEAVING)!r} matches no "
                                  f"{catalog.get(desc.leaving_type).label} row", (uid,))
            arriving = post.deref_node(desc.arriving_type, row.values.get(ARRIVING))
            if arriving is None:
                raise CommitError("reference", desc.label,
                                  f"{ARRIVING} value {row.values.get(ARRIVING)!r} matches no "
                                  f"{catalog.get(desc.arriving_type).label} row", (uid,))
            endpoint_map[uid] = (leaving.uid, arriving.uid)
        return endpoint_map

    def _validate_multiplicity(self, post: ReadView, catalog: Catalog,
                               endpoint_map: dict[int, tuple[int, int]],
                               edge_tids: set[int]) -> None:
        constrained = [d for d in catalog.types(cat.KIND_EDGE)
                       if d.multiplicity is not None and not d.multiplicity.is_default()]
        if not constrained:
            return
        affected: set[int] = set()
        for uid, row in self.staged.items():
            if row is not None and row.type_id not in edge_tids:
                affected.add(uid)
            if uid in endpoint_map:
                affected.update(endpoint_map[uid])
            if row is None:
                affected.update(self.db.store.latest_ends(uid) or ())
        for edesc in constrained:
            if edesc.type_id not in self._full_mult_check:
                continue
            for endpoint in (edesc.leaving_type, edesc.arriving_type):
                for row in post.scan_type(endpoint, subtypes=True):
                    affected.add(row.uid)
        for node_uid in sorted(affected):
            node = post.get_row(node_uid)
            if node is None:
                continue
            ntype = node.type_id
            for edesc in constrained:
                closure = catalog.subtype_closure(edesc.type_id)
                mult = edesc.multiplicity
                if ntype in catalog.subtype_closure(edesc.leaving_type):
                    n = len(post.edges_adjacent(node, "leaving", closure))
                    self._check_bounds(edesc, "leaves", n, mult.leaving_min,
                                       mult.leaving_max, node_uid, catalog, ntype)
                if ntype in catalog.subtype_closure(edesc.arriving_type):
                    n = len(post.edges_adjacent(node, "arriving", closure))
                    self._check_bounds(edesc, "receives", n, mult.arriving_min,
                                       mult.arriving_max, node_uid, catalog, ntype)

    def _check_bounds(self, edesc, verb, n, lo, hi, node_uid, catalog, ntype) -> None:
        if n < lo or (hi is not None and n > hi):
            bound = f"{lo}..{'*' if hi is None else hi}"
            raise CommitError("multiplicity", edesc.label,
                              f"{catalog.get(ntype).label} node {node_uid} {verb} {n} "
                              f"{edesc.label} edge(s), outside {bound}", (node_uid,))

    def _validate_constraints(self, post: ReadView, catalog: Catalog) -> None:
        def check(row: Row) -> None:
            for constraint in catalog.constraints_for(row.type_id):
                if not constraint_passes(constraint.expr, row.values):
                    raise CommitError("constraint", catalog.get(row.type_id).label,
                                      f"check ({constraint.text}) failed", (row.uid,))

        for uid, row in sorted(self.staged.items()):
            if row is not None:
                check(row)
        for tid in sorted(self._full_constraint_check):
            for row in post.scan_type(tid, subtypes=True):
                check(row)

    def _graph_delta(self, edge_tids: set[int], endpoint_map):
        added_nodes, removed_nodes = [], []
        added_edges, removed_edges = [], []
        for uid in sorted(self.staged):
            row = self.staged[uid]
            prior = self.db.store.latest(uid)
            if row is None:
                if prior is None:
                    continue
                if prior.type_id in edge_tids:
                    removed_edges.append(uid)
                else:
                    removed_nodes.append(uid)
                continue
            if row.type_id in edge_tids:
                ends = endpoint_map.get(uid)
                if prior is None:
                    added_edges.append((uid, ends[0], ends[1]))
                elif self.db.store.latest_ends(uid) != ends:
                    removed_edges.append(uid)
                    added_edges.append((uid, ends[0], ends[1]))
            elif prior is None:
                added_nodes.append(uid)
        return added_nodes, added_edges, removed_nodes, removed_edges
