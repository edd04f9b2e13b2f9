"""Row store and transactions.

One logical base table per node/edge type.  Rows are version-stamped with the
commit sequence numbers they became visible/invisible at, which is what gives
readers snapshot isolation under the single-writer model.  A transaction
stages row and schema changes privately; commit validates the post state in a
fixed order (column types and keys, then references, then multiplicity, then
constraints), appends one self-contained log record, and only then publishes.
"""

from __future__ import annotations

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
    __slots__ = ("row", "begin", "end")

    def __init__(self, row: Row, begin: int):
        self.row = row
        self.begin = begin
        self.end: int | None = None

    def visible_at(self, snapshot: int) -> bool:
        return self.begin <= snapshot and (self.end is None or self.end > snapshot)


class Store:
    """Committed row versions plus derived indexes and adjacency caches."""

    def __init__(self):
        self.commit_seq = 0
        self._versions: dict[int, list[_Version]] = {}
        self._by_type: dict[int, dict[int, None]] = {}
        # (type_id, column) -> value -> set of uids; entries are never removed,
        # readers re-check value and visibility
        self._value_index: dict[tuple[int, str], dict] = {}
        self._indexed: dict[int, set[str]] = {}
        # current-state adjacency, used by commit-time checks
        self.edge_endpoints: dict[int, tuple[int, int]] = {}
        self.leaving_at: dict[int, set[int]] = {}
        self.arriving_at: dict[int, set[int]] = {}

    # --- reads against a snapshot ---

    def visible(self, uid: int, snapshot: int) -> Row | None:
        for version in reversed(self._versions.get(uid, ())):
            if version.visible_at(snapshot):
                return version.row
        return None

    def latest(self, uid: int) -> Row | None:
        return self.visible(uid, self.commit_seq)

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
              endpoint_map: dict[int, tuple[int, int]], edge_type_ids: set[int]) -> None:
        for uid in sorted(final):
            row = final[uid]
            versions = self._versions.setdefault(uid, [])
            prior = versions[-1].row if versions and versions[-1].end is None else None
            if versions and versions[-1].end is None:
                versions[-1].end = seq
            if row is None:
                if prior is not None and prior.type_id in edge_type_ids:
                    self._unlink_edge(uid)
                continue
            versions.append(_Version(row, seq))
            self._by_type.setdefault(row.type_id, {})[uid] = None
            for column in self._indexed.get(row.type_id, ()):
                v = row.values.get(column)
                if v is not None:
                    self._value_index[(row.type_id, column)].setdefault(v, set()).add(uid)
            if row.type_id in edge_type_ids:
                ends = endpoint_map.get(uid)
                if ends is not None and ends != self.edge_endpoints.get(uid):
                    self._unlink_edge(uid)
                    self.edge_endpoints[uid] = ends
                    self.leaving_at.setdefault(ends[0], set()).add(uid)
                    self.arriving_at.setdefault(ends[1], set()).add(uid)
        self.commit_seq = seq

    def relink_edge(self, uid: int, ends: tuple[int, int]) -> None:
        """Refresh the adjacency caches for one live edge (log replay)."""
        if ends == self.edge_endpoints.get(uid):
            return
        self._unlink_edge(uid)
        self.edge_endpoints[uid] = ends
        self.leaving_at.setdefault(ends[0], set()).add(uid)
        self.arriving_at.setdefault(ends[1], set()).add(uid)

    def _unlink_edge(self, uid: int) -> None:
        ends = self.edge_endpoints.get(uid)
        if ends is None:
            return
        self.leaving_at.get(ends[0], set()).discard(uid)
        self.arriving_at.get(ends[1], set()).discard(uid)
        # edge_endpoints keeps the historical entry for snapshot readers


class ReadView:
    """Committed state at one snapshot merged with a transaction's staging."""

    def __init__(self, store: Store, snapshot: int, catalog: Catalog,
                 staged: dict[int, Row | None] | None = None):
        self.store = store
        self.snapshot = snapshot
        self.catalog = catalog
        self.staged = staged if staged is not None else {}
        self._endpoint_memo: dict[int, tuple[int, int]] = {}

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
        tidset = set(type_ids)
        for row in self.staged.values():
            if row is not None and row.type_id in tidset and val.values_equal(row.values.get(column), value):
                out.append(row)
        out.sort(key=lambda r: r.uid)
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
        memo = self._endpoint_memo.get(edge_row.uid)
        if memo is not None:
            return memo
        if edge_row.uid not in self.staged and self.store.latest(edge_row.uid) is edge_row:
            cached = self.store.edge_endpoints.get(edge_row.uid)
            if cached is not None:
                return cached
        desc = self.catalog.get(edge_row.type_id)
        leaving = self.deref_node(desc.leaving_type, edge_row.values.get(LEAVING))
        arriving = self.deref_node(desc.arriving_type, edge_row.values.get(ARRIVING))
        ends = (leaving.uid if leaving else None, arriving.uid if arriving else None)
        self._endpoint_memo[edge_row.uid] = ends
        return ends

    def edges_adjacent(self, node_row: Row, direction: str, edge_type_ids=None):
        """[(edge row, leaving uid, arriving uid)] touching the node on `direction`."""
        column = LEAVING if direction == "leaving" else ARRIVING
        out = []
        if edge_type_ids is None:
            edge_type_ids = [d.type_id for d in self.catalog.types(cat.KIND_EDGE)]
        key_cache: dict[int, object] = {}
        for etid in edge_type_ids:
            desc = self.catalog.get(etid)
            endpoint_tid = desc.leaving_type if direction == "leaving" else desc.arriving_type
            if endpoint_tid is None:
                continue
            if node_row.type_id not in self.catalog.subtype_closure(endpoint_tid):
                continue
            if endpoint_tid not in key_cache:
                kcol = self.key_column(endpoint_tid)
                key_cache[endpoint_tid] = node_row.values.get(kcol) if kcol else None
            key_value = key_cache[endpoint_tid]
            if key_value is None:
                continue
            for erow in self.lookup_by_value([etid], column, key_value):
                ends = self.resolve_endpoints(erow)
                mine = ends[0] if direction == "leaving" else ends[1]
                if mine == node_row.uid:
                    out.append((erow, ends[0], ends[1]))
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
                ends = post.resolve_endpoints(erow)
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
        commit time from the adjacency caches)."""
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

    def rollback(self) -> None:
        self._check_open()
        self.status = "rolled-back"

    # --- commit pipeline ---

    def commit(self):
        self._check_open()
        if not self.staged and not self._dirty_types:
            self.status = "committed"
            return None
        with self.db.commit_lock:
            try:
                result = self._commit_locked()
            except Exception:
                self.status = "aborted"
                raise
        self.status = "committed"
        return result

    def _commit_locked(self):
        catalog = self.catalog
        post = self.post_view()
        node_tids = {d.type_id for d in catalog.types(cat.KIND_NODE)}
        edge_tids = {d.type_id for d in catalog.types(cat.KIND_EDGE)}

        self._expand_key_cascades(post, catalog, node_tids)
        post = self.post_view()
        self._expand_deletes(post, catalog, node_tids, edge_tids)
        post = self.post_view()

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
        self.db.store.apply(seq, self.staged, endpoint_map, edge_tids)
        if self._catalog is not None:
            self.db.catalog = self._catalog
        self.db.graphs.apply_delta(*delta)
        return CascadeReport()

    # cascading effects that enlarge the staged set

    def _expand_key_cascades(self, post: ReadView, catalog: Catalog, node_tids: set[int]) -> None:
        """A changed node key value rewrites the reference columns of its edges."""
        for uid, row in list(self.staged.items()):
            if row is None or row.type_id not in node_tids:
                continue
            old = self.db.store.latest(uid)
            if old is None:
                continue
            key = catalog.effective_key(row.type_id)
            if len(key) != 1:
                continue
            kcol = key[0]
            old_key, new_key = old.values.get(kcol), row.values.get(kcol)
            if old_key == new_key:
                continue
            for edge_uid in list(self.db.store.leaving_at.get(uid, ())):
                self._rewrite_edge_ref(post, edge_uid, LEAVING, new_key)
            for edge_uid in list(self.db.store.arriving_at.get(uid, ())):
                self._rewrite_edge_ref(post, edge_uid, ARRIVING, new_key)

    def _rewrite_edge_ref(self, post: ReadView, edge_uid: int, side: str, new_key) -> None:
        current = self.staged.get(edge_uid)
        if current is None and edge_uid in self.staged:
            return  # edge deleted in this transaction
        erow = current or self.db.store.latest(edge_uid)
        if erow is None:
            return
        new_values = dict(erow.values)
        new_values[side] = new_key
        self.staged[edge_uid] = Row(edge_uid, erow.type_id, new_values)

    def _expand_deletes(self, post: ReadView, catalog: Catalog,
                        node_tids: set[int], edge_tids: set[int]) -> None:
        """Node deletion is restrict by default, cascade on request."""
        for uid in [u for u, r in self.staged.items() if r is None]:
            old = self.db.store.latest(uid)
            if old is None or old.type_id not in node_tids:
                continue
            incident = set()
            for edge_uid in self.db.store.leaving_at.get(uid, set()) | \
                    self.db.store.arriving_at.get(uid, set()):
                if edge_uid in self.staged and self.staged[edge_uid] is None:
                    continue  # already deleted here
                incident.add(edge_uid)
            # staged edges reference nodes by key value, so resolve them in a
            # view where the deleted node is still visible
            alive = {u: r for u, r in self.staged.items() if r is not None}
            view = ReadView(self.db.store, self.db.store.commit_seq, catalog, alive)
            for suid, srow in alive.items():
                if srow.type_id in edge_tids:
                    ends = view.resolve_endpoints(srow)
                    if uid in ends:
                        incident.add(suid)
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
                old_ends = self.db.store.edge_endpoints.get(uid)
                if old_ends:
                    affected.update(old_ends)
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
                else:
                    old_ends = self.db.store.edge_endpoints.get(uid)
                    if old_ends != ends:
                        removed_edges.append(uid)
                        added_edges.append((uid, ends[0], ends[1]))
            elif prior is None:
                added_nodes.append(uid)
        return added_nodes, added_edges, removed_nodes, removed_edges
