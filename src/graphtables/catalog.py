"""Schema catalog: typed-table descriptors for node, edge and plain types.

Every node and edge row belongs to exactly one declared type.  Node types get
an automatic integer ID key unless a supertype already supplies the key; edge
types additionally get LEAVING and ARRIVING reference columns typed after the
keys of their endpoint types.  Descriptors are plain data; all mutation goes
through Catalog methods so invariants stay checkable in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import values
from .errors import SchemaError

KIND_NODE = "node"
KIND_EDGE = "edge"
KIND_PLAIN = "plain"

ID = "ID"
LEAVING = "LEAVING"
ARRIVING = "ARRIVING"

AUTO_EDGE_COLUMNS = (ID, LEAVING, ARRIVING)


@dataclass
class ColumnDescriptor:
    name: str
    data_type: str
    struct_type_id: int | None = None
    nullable: bool = True

    def copy(self) -> "ColumnDescriptor":
        return replace(self)


@dataclass
class Multiplicity:
    """Min-max participation per endpoint side.  None max means unbounded.

    leaving_* constrains nodes of the leaving type: how many edges of this
    type each such node must/may leave.  arriving_* mirrors that for the
    arriving type.
    """

    leaving_min: int = 0
    leaving_max: int | None = None
    arriving_min: int = 0
    arriving_max: int | None = None

    def is_default(self) -> bool:
        return (self.leaving_min, self.leaving_max, self.arriving_min, self.arriving_max) == (0, None, 0, None)

    def validate(self) -> None:
        for lo, hi in ((self.leaving_min, self.leaving_max), (self.arriving_min, self.arriving_max)):
            if lo < 0:
                raise SchemaError("multiplicity minimum must be >= 0")
            if hi is not None and hi < lo:
                raise SchemaError("multiplicity maximum below minimum")

    def copy(self) -> "Multiplicity":
        return replace(self)


@dataclass
class Constraint:
    """Row-level boolean predicate, kept with its source text for the log."""

    text: str
    expr: object = field(compare=False, default=None)
    params: tuple = field(compare=False, default=())  # values of the literal slots


@dataclass
class TypeDescriptor:
    type_id: int
    label: str
    kind: str
    columns: list[ColumnDescriptor]
    supertype: int | None = None
    primary_key: list[str] = field(default_factory=list)
    unique_keys: list[list[str]] = field(default_factory=list)
    leaving_type: int | None = None
    arriving_type: int | None = None
    multiplicity: Multiplicity | None = None
    constraints: list[Constraint] = field(default_factory=list)

    def own_column(self, name: str) -> ColumnDescriptor | None:
        for col in self.columns:
            if col.name == name:
                return col
        return None

    def copy(self) -> "TypeDescriptor":
        return TypeDescriptor(
            type_id=self.type_id,
            label=self.label,
            kind=self.kind,
            columns=[c.copy() for c in self.columns],
            supertype=self.supertype,
            primary_key=list(self.primary_key),
            unique_keys=[list(k) for k in self.unique_keys],
            leaving_type=self.leaving_type,
            arriving_type=self.arriving_type,
            multiplicity=self.multiplicity.copy() if self.multiplicity else None,
            constraints=list(self.constraints),
        )


class Catalog:
    """All live type descriptors plus lookup and evolution operations."""

    def __init__(self):
        self._types: dict[int, TypeDescriptor] = {}
        self._by_label: dict[str, dict[str, int]] = {KIND_NODE: {}, KIND_EDGE: {}, KIND_PLAIN: {}}
        self._next_type_id = 1
        # memos by type id, cleared when _install adds or replaces a type:
        # subtype closures; effective columns, also cleared when a column is
        # added or dropped; key declarers, also cleared when a key is swapped
        self._closures: dict[int, tuple[int, ...]] = {}
        self._columns: dict[int, tuple[ColumnDescriptor, ...]] = {}
        self._declarers: dict[int, TypeDescriptor | None] = {}

    # --- lookup ---

    def get(self, type_id: int) -> TypeDescriptor:
        try:
            return self._types[type_id]
        except KeyError:
            raise SchemaError(f"unknown type id {type_id}") from None

    def lookup_label(self, label: str, kind: str | None = None) -> TypeDescriptor | None:
        kinds = (kind,) if kind else (KIND_NODE, KIND_EDGE, KIND_PLAIN)
        for k in kinds:
            tid = self._by_label[k].get(label)
            if tid is not None:
                return self._types[tid]
        return None

    def types(self, kind: str | None = None):
        for tid in sorted(self._types):
            desc = self._types[tid]
            if kind is None or desc.kind == kind:
                yield desc

    def type_ids(self, kind: str) -> set[int]:
        """Ids of the `kind` types, unordered."""
        return set(self._by_label[kind].values())

    def subtype_closure(self, type_id: int) -> tuple[int, ...]:
        """type_id plus all transitive subtypes, ascending by type id."""
        closure = self._closures.get(type_id)
        if closure is not None:
            return closure
        out = [type_id]
        frontier = {type_id}
        while frontier:
            nxt = set()
            for desc in self._types.values():
                if desc.supertype in frontier and desc.type_id not in out:
                    out.append(desc.type_id)
                    nxt.add(desc.type_id)
            frontier = nxt
        closure = self._closures[type_id] = tuple(sorted(out))
        return closure

    def supertype_chain(self, type_id: int) -> list[int]:
        """Root-first chain of ancestors ending with type_id itself."""
        chain = []
        cur: int | None = type_id
        while cur is not None:
            chain.append(cur)
            cur = self.get(cur).supertype
        chain.reverse()
        return chain

    def effective_columns(self, type_id: int) -> tuple[ColumnDescriptor, ...]:
        """Inherited columns first, root type's first of all."""
        cols = self._columns.get(type_id)
        if cols is None:
            cols = self._columns[type_id] = tuple(
                col for tid in self.supertype_chain(type_id) for col in self.get(tid).columns)
        return cols

    def effective_column(self, type_id: int, name: str) -> ColumnDescriptor | None:
        for col in self.effective_columns(type_id):
            if col.name == name:
                return col
        return None

    def column_owner(self, type_id: int, name: str) -> int | None:
        """The type, on `type_id`'s supertype chain, whose own column
        `effective_column(type_id, name)` returns."""
        return next((tid for tid in self.supertype_chain(type_id)
                     if self.get(tid).own_column(name) is not None), None)

    def key_declarer(self, type_id: int) -> TypeDescriptor | None:
        """Nearest ancestor (or self) that declares a primary key."""
        if type_id not in self._declarers:
            self._declarers[type_id] = next(
                (self.get(tid) for tid in reversed(self.supertype_chain(type_id))
                 if self.get(tid).primary_key), None)
        return self._declarers[type_id]

    def effective_key(self, type_id: int) -> list[str]:
        declarer = self.key_declarer(type_id)
        return list(declarer.primary_key) if declarer else []

    def edge_types_referencing(self, node_type_ids: set[int]):
        """[(edge descriptor, side)] for edges whose endpoint type is in the set."""
        out = []
        for desc in self.types(KIND_EDGE):
            if desc.leaving_type in node_type_ids:
                out.append((desc, LEAVING))
            if desc.arriving_type in node_type_ids:
                out.append((desc, ARRIVING))
        return out

    def constraints_for(self, type_id: int) -> list[Constraint]:
        out: list[Constraint] = []
        for tid in self.supertype_chain(type_id):
            out.extend(self.get(tid).constraints)
        return out

    # --- definition ---

    def _claim_label(self, label: str, kind: str) -> None:
        if label in self._by_label[kind]:
            raise SchemaError(f"{kind} type {label} already exists")

    def _check_new_columns(self, columns: list[ColumnDescriptor],
                           inherited: tuple[ColumnDescriptor, ...]) -> None:
        seen = {c.name for c in inherited}
        for col in columns:
            if col.name in seen:
                raise SchemaError(f"column {col.name} already declared")
            seen.add(col.name)
            if col.data_type == values.STRUCTURED:
                ref = self._types.get(col.struct_type_id or -1)
                if ref is None or ref.kind != KIND_PLAIN:
                    raise SchemaError(f"column {col.name} references no plain type")
            elif col.data_type not in values.SCALAR_TYPES:
                raise SchemaError(f"unknown data type {col.data_type}")

    def _install(self, desc: TypeDescriptor) -> TypeDescriptor:
        self._types[desc.type_id] = desc
        self._by_label[desc.kind][desc.label] = desc.type_id
        self._closures.clear()
        self._columns.clear()
        self._declarers.clear()
        return desc

    def define_node_type(self, label: str, columns: list[ColumnDescriptor],
                         supertype: int | None = None) -> TypeDescriptor:
        self._claim_label(label, KIND_NODE)
        inherited: tuple[ColumnDescriptor, ...] = ()
        if supertype is not None:
            sup = self.get(supertype)
            if sup.kind != KIND_NODE:
                raise SchemaError(f"supertype {sup.label} is not a node type")
            inherited = self.effective_columns(supertype)
        self._check_new_columns(columns, inherited)
        columns = [c.copy() for c in columns]
        primary_key: list[str] = []
        if supertype is None:
            # root of a hierarchy carries the key; an explicit ID column is
            # honoured, otherwise the auto integer key is prepended
            own_id = next((c for c in columns if c.name == ID), None)
            if own_id is None:
                columns.insert(0, ColumnDescriptor(ID, values.INTEGER, nullable=False))
            else:
                own_id.nullable = False
            primary_key = [ID]
        desc = TypeDescriptor(self._next_type_id, label, KIND_NODE, columns,
                              supertype=supertype, primary_key=primary_key)
        self._next_type_id += 1
        return self._install(desc)

    def define_edge_type(self, label: str, columns: list[ColumnDescriptor],
                         leaving_type: int, arriving_type: int,
                         multiplicity: Multiplicity | None = None) -> TypeDescriptor:
        self._claim_label(label, KIND_EDGE)
        builtin = [ColumnDescriptor(ID, values.INTEGER, nullable=False)]
        for name, endpoint in ((LEAVING, leaving_type), (ARRIVING, arriving_type)):
            ref_col = self._endpoint_reference_column(endpoint)
            builtin.append(ColumnDescriptor(name, ref_col.data_type, nullable=False))
        self._check_new_columns(columns, tuple(builtin))
        columns = [*builtin, *(c.copy() for c in columns)]
        multiplicity = multiplicity or Multiplicity()
        multiplicity.validate()
        desc = TypeDescriptor(self._next_type_id, label, KIND_EDGE, columns, primary_key=[ID],
                              leaving_type=leaving_type, arriving_type=arriving_type,
                              multiplicity=multiplicity)
        self._next_type_id += 1
        return self._install(desc)

    def _endpoint_reference_column(self, node_type_id: int) -> ColumnDescriptor:
        node = self.get(node_type_id)
        if node.kind != KIND_NODE:
            raise SchemaError(f"{node.label} is not a node type")
        key = self.effective_key(node_type_id)
        if len(key) != 1:
            raise SchemaError(f"{node.label} needs a single-column key to be an edge endpoint")
        col = self.effective_column(node_type_id, key[0])
        assert col is not None
        return col

    def define_plain_type(self, label: str, columns: list[ColumnDescriptor]) -> TypeDescriptor:
        self._claim_label(label, KIND_PLAIN)
        self._check_new_columns(columns, ())
        desc = TypeDescriptor(self._next_type_id, label, KIND_PLAIN, [c.copy() for c in columns])
        self._next_type_id += 1
        return self._install(desc)

    # --- evolution (schema side; row rewrites are staged by the transaction) ---

    def widen_type(self, type_id: int, column: ColumnDescriptor) -> ColumnDescriptor:
        """Add a nullable column that no supertype or subtype declares yet."""
        desc = self.get(type_id)
        below = tuple(c for tid in self.subtype_closure(type_id) for c in self.get(tid).columns)
        self._check_new_columns([column], self.effective_columns(type_id) + below)
        column = column.copy()
        column.nullable = True
        desc.columns.append(column)
        self._columns.clear()
        return column

    def retype_column(self, type_id: int, name: str, data_type: str) -> None:
        """Internal widening, e.g. integer -> decimal, or key cascades."""
        desc = self.get(type_id)
        col = desc.own_column(name)
        if col is None:
            raise SchemaError(f"{desc.label} has no own column {name}")
        col.data_type = data_type

    def drop_column(self, type_id: int, name: str) -> None:
        desc = self.get(type_id)
        col = desc.own_column(name)
        if col is None:
            if self.effective_column(type_id, name) is not None:
                raise SchemaError(f"column {name} is inherited; drop it on the declaring type")
            raise SchemaError(f"{desc.label} has no column {name}")
        if name in desc.primary_key:
            raise SchemaError(f"column {name} is the primary key of {desc.label}")
        if desc.kind == KIND_EDGE and name in (LEAVING, ARRIVING):
            raise SchemaError(f"column {name} is a reference column of {desc.label}")
        for sub_tid in self.subtype_closure(type_id):
            sub = self.get(sub_tid)
            if name in sub.primary_key:
                raise SchemaError(f"column {name} is the primary key of {sub.label}")
        desc.columns.remove(col)
        self._columns.clear()
        desc.unique_keys = [k for k in desc.unique_keys if name not in k]

    def install_primary_key(self, type_id: int, key: list[str]) -> None:
        """Swap the primary key; the previous key survives as a unique key."""
        desc = self.get(type_id)
        for name in key:
            if self.effective_column(type_id, name) is None:
                raise SchemaError(f"{desc.label} has no column {name}")
        old = self.key_declarer(type_id)
        # only the type's own previous key is demoted; a subtype declaring a
        # key of its own leaves the supertype's key untouched
        if old is not None and old.type_id == type_id and old.primary_key != key:
            old_key = list(old.primary_key)
            old.primary_key = []
            if old_key not in old.unique_keys:
                old.unique_keys.append(old_key)
        desc.primary_key = list(key)
        self._declarers.clear()

    def retarget_endpoint(self, type_id: int, side: str, node_type_id: int) -> None:
        """Generalize one endpoint of an edge type to a supertype."""
        desc = self.get(type_id)
        if desc.kind != KIND_EDGE:
            raise SchemaError(f"{desc.label} is not an edge type")
        if side == LEAVING:
            desc.leaving_type = node_type_id
        else:
            desc.arriving_type = node_type_id

    def set_multiplicity(self, type_id: int, mult: Multiplicity) -> None:
        desc = self.get(type_id)
        if desc.kind != KIND_EDGE:
            raise SchemaError(f"{desc.label} is not an edge type")
        mult.validate()
        desc.multiplicity = mult

    def add_constraint(self, type_id: int, constraint: Constraint, column_names: set[str]) -> None:
        desc = self.get(type_id)
        known = {c.name for c in self.effective_columns(type_id)}
        missing = column_names - known
        if missing:
            raise SchemaError(f"constraint on {desc.label} references unknown column "
                              f"{', '.join(sorted(missing))}")
        desc.constraints.append(constraint)

    # --- copying and serialization ---

    def clone(self) -> "Catalog":
        other = Catalog()
        other._next_type_id = self._next_type_id
        for tid, desc in self._types.items():
            other._types[tid] = desc.copy()
        for kind, table in self._by_label.items():
            other._by_label[kind] = dict(table)
        return other

    def descriptor_to_dict(self, desc: TypeDescriptor) -> dict:
        return {
            "type_id": desc.type_id,
            "label": desc.label,
            "kind": desc.kind,
            "columns": [[c.name, c.data_type, c.struct_type_id, c.nullable] for c in desc.columns],
            "supertype": desc.supertype,
            "primary_key": list(desc.primary_key),
            "unique_keys": [list(k) for k in desc.unique_keys],
            "leaving_type": desc.leaving_type,
            "arriving_type": desc.arriving_type,
            "multiplicity": None if desc.multiplicity is None else [
                desc.multiplicity.leaving_min, desc.multiplicity.leaving_max,
                desc.multiplicity.arriving_min, desc.multiplicity.arriving_max],
            "constraints": [c.text for c in desc.constraints],
        }

    def apply_descriptor_dict(self, data: dict, parse_constraint) -> TypeDescriptor:
        """Install or replace a descriptor from its serialized form (log replay)."""
        mult = data["multiplicity"]
        desc = TypeDescriptor(
            type_id=data["type_id"],
            label=data["label"],
            kind=data["kind"],
            columns=[ColumnDescriptor(n, dt, st, nul) for n, dt, st, nul in data["columns"]],
            supertype=data["supertype"],
            primary_key=list(data["primary_key"]),
            unique_keys=[list(k) for k in data["unique_keys"]],
            leaving_type=data["leaving_type"],
            arriving_type=data["arriving_type"],
            multiplicity=None if mult is None else Multiplicity(*mult),
            constraints=[Constraint(text, *parse_constraint(text)) for text in data["constraints"]],
        )
        old = self._types.get(desc.type_id)
        if old is not None:
            del self._by_label[old.kind][old.label]
        self._next_type_id = max(self._next_type_id, desc.type_id + 1)
        return self._install(desc)
