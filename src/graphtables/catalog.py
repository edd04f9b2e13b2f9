"""Schema catalog: typed-table descriptors for node, edge and plain types.

Every node and edge row belongs to exactly one declared type.  Node types get
an automatic integer ID key unless a supertype already supplies the key; edge
types additionally get LEAVING and ARRIVING reference columns typed after the
keys of their endpoint types.  Descriptors are immutable values: a schema
change builds a new descriptor and `Catalog._install` puts it in place, so a
cloned catalog shares every descriptor it has not replaced since.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from . import values
from .errors import SchemaError
from .syntax import expr_refs

KIND_NODE = "node"
KIND_EDGE = "edge"
KIND_PLAIN = "plain"

ID = "ID"
LEAVING = "LEAVING"
ARRIVING = "ARRIVING"


@dataclass(frozen=True)
class ColumnDescriptor:
    name: str
    data_type: str
    struct_type_id: int | None = None
    nullable: bool = True


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Constraint:
    """Row-level boolean predicate, kept with its source text for the log."""

    text: str
    expr: object = field(compare=False, default=None)
    params: tuple = field(compare=False, default=())  # values of the literal slots


@dataclass(frozen=True)
class TypeDescriptor:
    """One type.  The list fields are never changed in place: a change
    replaces the whole descriptor."""

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


@dataclass(frozen=True, slots=True)
class TypeFacts:
    """What a type's descriptor and its supertypes' imply, as `Catalog.facts`
    memoises it.  Every container is immutable, so no reader can change it."""

    chain: tuple[int, ...]                  # root-first supertypes, ending with the type
    closure: tuple[int, ...]                # the type and its transitive subtypes, ascending
    columns: tuple[ColumnDescriptor, ...]   # inherited first, the root type's first of all
    column: Mapping[str, ColumnDescriptor]  # the same columns by name
    declarer: TypeDescriptor | None         # nearest ancestor (or self) with a primary key
    key: tuple[str, ...]                    # the declarer's primary key
    key_columns: tuple[str, ...]            # each single-column key column on the chain
    # (declaring type id, key, member type ids) of each primary and unique key on the chain,
    # root first, over the declarer's closure: every node an edge into the declarer may reach
    scopes: tuple[tuple[int, tuple[str, ...], tuple[int, ...]], ...]
    constraints: tuple[Constraint, ...]     # the chain's, the root type's first


_ROOT_UP = TypeFacts((), (), (), MappingProxyType({}), None, (), (), (), ())  # a root inherits


class Catalog:
    """All live type descriptors plus lookup and evolution operations."""

    def __init__(self):
        self._types: dict[int, TypeDescriptor] = {}
        self._by_label: dict[str, dict[str, int]] = {KIND_NODE: {}, KIND_EDGE: {}, KIND_PLAIN: {}}
        self._next_type_id = 1
        # facts that depend only on the descriptors, cleared by `_install`, their one
        # writer: type id -> TypeFacts, kind -> its type ids, (labels, kind) -> label
        # type, and "constrained" -> the constrained edge types
        self._memo: dict = {}

    # --- lookup ---

    def get(self, type_id: int) -> TypeDescriptor:
        try:
            return self._types[type_id]
        except KeyError:
            raise SchemaError(f"unknown type id {type_id}") from None

    def lookup_label(self, label: str, kind: str | None = None) -> TypeDescriptor | None:
        for k in (kind,) if kind else (KIND_NODE, KIND_EDGE, KIND_PLAIN):
            if (tid := self._by_label[k].get(label)) is not None:
                return self._types[tid]
        return None

    def label_type(self, labels: tuple[str, ...], kind: str) -> TypeDescriptor | None:
        """The type of a label chain like X:Y: the label whose supertype path
        holds every label (so its subtype closure holds the types that carry
        them all), or None when no `kind` type does."""
        key = (labels, kind)
        if key not in self._memo:
            tids = [self._by_label[kind].get(label) for label in labels]
            paths = [self.supertype_chain(t) for t in tids if t is not None]
            best = next((path[-1] for path in paths if all(t in path for t in tids)), None)
            self._memo[key] = None if best is None else self._types[best]
        return self._memo[key]

    def types(self, kind: str | None = None):
        """The `kind` types, or all types, by type id."""
        return (d for _, d in sorted(self._types.items()) if kind is None or d.kind == kind)

    def type_ids(self, kind: str) -> frozenset[int]:
        """Ids of the `kind` types."""
        if kind not in self._memo:
            self._memo[kind] = frozenset(self._by_label[kind].values())
        return self._memo[kind]

    def constrained_edge_types(self) -> tuple[TypeDescriptor, ...]:
        """The edge types whose multiplicity bounds anything, by type id."""
        if "constrained" not in self._memo:
            self._memo["constrained"] = tuple(d for d in self.types(KIND_EDGE)
                                              if d.multiplicity and not d.multiplicity.is_default())
        return self._memo["constrained"]

    def facts(self, type_id: int) -> TypeFacts:
        facts = self._memo.get(type_id)
        if facts is None:
            facts = self._memo[type_id] = self._derive(type_id)
        return facts

    def _derive(self, type_id: int) -> TypeFacts:
        desc = self.get(type_id)
        up = _ROOT_UP if desc.supertype is None else self.facts(desc.supertype)
        closure, frontier = [type_id], {type_id}
        while frontier:
            frontier = {d.type_id for d in self._types.values() if d.supertype in frontier}
            closure.extend(frontier)
        closure = tuple(sorted(closure))
        columns = up.columns + tuple(desc.columns)
        declarer = desc if desc.primary_key else up.declarer
        key = tuple(declarer.primary_key) if declarer else ()
        key_columns = up.key_columns
        if len(key) == 1 and key[0] not in key_columns:
            key_columns += key
        scopes = dict.fromkeys((type_id, tuple(k), closure)
                               for k in (desc.primary_key, *desc.unique_keys) if k)
        return TypeFacts(up.chain + (type_id,), closure, columns,
                         MappingProxyType({c.name: c for c in columns}), declarer, key, key_columns,
                         up.scopes + tuple(scopes), up.constraints + tuple(desc.constraints))

    def subtype_closure(self, type_id: int) -> tuple[int, ...]:
        return self.facts(type_id).closure

    def supertype_chain(self, type_id: int) -> tuple[int, ...]:
        return self.facts(type_id).chain

    def effective_columns(self, type_id: int) -> tuple[ColumnDescriptor, ...]:
        return self.facts(type_id).columns

    def effective_column(self, type_id: int, name: str) -> ColumnDescriptor | None:
        return self.facts(type_id).column.get(name)

    def column_owner(self, type_id: int, name: str) -> int | None:
        """The type, on `type_id`'s supertype chain, whose own column
        `effective_column(type_id, name)` returns."""
        return next((tid for tid in self.supertype_chain(type_id)
                     if self.get(tid).own_column(name) is not None), None)

    def key_declarer(self, type_id: int) -> TypeDescriptor | None:
        return self.facts(type_id).declarer

    def effective_key(self, type_id: int) -> list[str]:
        return list(self.facts(type_id).key)

    def key_scopes(self, type_id: int) -> tuple[tuple[int, tuple[str, ...], tuple[int, ...]], ...]:
        return self.facts(type_id).scopes

    def key_column(self, type_id: int) -> str | None:
        """The column of a single-column key, which edges reference; else None."""
        key = self.facts(type_id).key
        return key[0] if len(key) == 1 else None

    def edge_types_referencing(self, node_type_ids: set[int]):
        """[(edge descriptor, side)] for edges whose endpoint type is in the set."""
        return [(desc, side) for desc in self.types(KIND_EDGE) for side, endpoint
                in ((LEAVING, desc.leaving_type), (ARRIVING, desc.arriving_type))
                if endpoint in node_type_ids]

    # --- definition and evolution: the transaction has checked the kind of each
    # type id it passes (a supertype or endpoint is a node type, and so on) ---

    def _claim_type_id(self, label: str) -> int:
        """The id of a new type named `label`, which no type of any kind
        holds, since ALTER and HTTP name a type by its label alone;
        `_install` takes the id up."""
        existing = self.lookup_label(label)
        if existing is not None:
            raise SchemaError(f"{existing.kind} type {label} already exists")
        return self._next_type_id

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
        """Add `desc`, or put it in place of the descriptor with its type id."""
        old = self._types.get(desc.type_id)
        if old is not None:
            del self._by_label[old.kind][old.label]
        self._types[desc.type_id] = desc
        self._by_label[desc.kind][desc.label] = desc.type_id
        self._next_type_id = max(self._next_type_id, desc.type_id + 1)
        self._memo.clear()
        return desc

    def define_node_type(self, label: str, columns: list[ColumnDescriptor],
                         supertype: int | None = None) -> TypeDescriptor:
        type_id = self._claim_type_id(label)
        inherited: tuple[ColumnDescriptor, ...] = ()
        if supertype is not None:
            inherited = self.effective_columns(supertype)
        self._check_new_columns(columns, inherited)
        primary_key: list[str] = []
        if supertype is None:
            # root of a hierarchy carries the key; an explicit ID column is
            # honoured, otherwise the auto integer key is prepended
            columns = [replace(c, nullable=False) if c.name == ID else c for c in columns]
            if all(c.name != ID for c in columns):
                columns.insert(0, ColumnDescriptor(ID, values.INTEGER, nullable=False))
            primary_key = [ID]
        return self._install(TypeDescriptor(type_id, label, KIND_NODE, list(columns),
                                            supertype=supertype, primary_key=primary_key))

    def define_edge_type(self, label: str, columns: list[ColumnDescriptor],
                         leaving_type: int, arriving_type: int) -> TypeDescriptor:
        type_id = self._claim_type_id(label)
        builtin = [ColumnDescriptor(ID, values.INTEGER, nullable=False)]
        for name, endpoint in ((LEAVING, leaving_type), (ARRIVING, arriving_type)):
            ref_col = self._endpoint_reference_column(endpoint)
            builtin.append(ColumnDescriptor(name, ref_col.data_type, nullable=False))
        self._check_new_columns(columns, tuple(builtin))
        return self._install(TypeDescriptor(type_id, label, KIND_EDGE, [*builtin, *columns],
                                            primary_key=[ID], leaving_type=leaving_type,
                                            arriving_type=arriving_type,
                                            multiplicity=Multiplicity()))

    def _endpoint_reference_column(self, node_type_id: int) -> ColumnDescriptor:
        kcol = self.key_column(node_type_id)
        if kcol is None:
            raise SchemaError(f"{self.get(node_type_id).label} needs a single-column key "
                              "to be an edge endpoint")
        col = self.effective_column(node_type_id, kcol)
        assert col is not None
        return col

    def define_plain_type(self, label: str, columns: list[ColumnDescriptor]) -> TypeDescriptor:
        type_id = self._claim_type_id(label)
        self._check_new_columns(columns, ())
        return self._install(TypeDescriptor(type_id, label, KIND_PLAIN, list(columns)))

    # --- evolution (schema side; row rewrites are staged by the transaction) ---

    def widen_type(self, type_id: int, column: ColumnDescriptor) -> ColumnDescriptor:
        """Add a nullable column that no supertype or subtype declares yet."""
        desc = self.get(type_id)
        below = tuple(c for tid in self.subtype_closure(type_id) for c in self.get(tid).columns)
        self._check_new_columns([column], self.effective_columns(type_id) + below)
        column = replace(column, nullable=True)
        self._install(replace(desc, columns=[*desc.columns, column]))
        return column

    def retype_column(self, type_id: int, name: str, data_type: str) -> None:
        """Internal widening, e.g. integer -> decimal, or key cascades, of a
        column that `type_id` declares itself."""
        desc = self.get(type_id)
        self._install(replace(desc, columns=[
            replace(c, data_type=data_type) if c.name == name else c for c in desc.columns]))

    def drop_column(self, type_id: int, name: str) -> None:
        desc = self.get(type_id)
        if desc.own_column(name) is None:
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
            for constraint in sub.constraints:
                if (name,) in expr_refs(constraint.expr):
                    raise SchemaError(f"column {name} is read by check ({constraint.text}) "
                                      f"of {sub.label}")
        self._install(replace(desc, columns=[c for c in desc.columns if c.name != name],
                              unique_keys=[k for k in desc.unique_keys if name not in k]))

    def install_primary_key(self, type_id: int, key: list[str]) -> None:
        """Swap the primary key; the previous key survives as a unique key."""
        desc = self.get(type_id)
        for name in key:
            if self.effective_column(type_id, name) is None:
                raise SchemaError(f"{desc.label} has no column {name}")
        # only the type's own previous key is demoted; a subtype declaring a
        # key of its own leaves the supertype's key untouched
        old_key, unique_keys = desc.primary_key, desc.unique_keys
        if old_key and old_key != key and old_key not in unique_keys:
            unique_keys = [*unique_keys, old_key]
        self._install(replace(desc, primary_key=list(key), unique_keys=unique_keys))

    def retarget_endpoint(self, type_id: int, side: str, node_type_id: int) -> None:
        """Generalize one endpoint of an edge type to a supertype; the
        side's reference column takes the data type of that type's key."""
        desc = self.get(type_id)
        data_type = self._endpoint_reference_column(node_type_id).data_type
        columns = [replace(c, data_type=data_type) if c.name == side else c for c in desc.columns]
        endpoint = "leaving_type" if side == LEAVING else "arriving_type"
        self._install(replace(desc, columns=columns, **{endpoint: node_type_id}))

    def set_multiplicity(self, type_id: int, mult: Multiplicity) -> None:
        mult.validate()
        self._install(replace(self.get(type_id), multiplicity=mult))

    def add_constraint(self, type_id: int, constraint: Constraint, column_names: set[str]) -> None:
        desc = self.get(type_id)
        known = {c.name for c in self.effective_columns(type_id)}
        missing = column_names - known
        if missing:
            raise SchemaError(f"constraint on {desc.label} references unknown column "
                              f"{', '.join(sorted(missing))}")
        self._install(replace(desc, constraints=[*desc.constraints, constraint]))

    def drop_unreadable_checks(self) -> list[tuple[str, str]]:
        """Drop each check that reads a column its type no longer has, as a log from
        before `drop_column` refused that may hold; the (label, text) of each."""
        dropped = []
        for desc in list(self.types()):
            names = self.facts(desc.type_id).column
            gone = [c for c in desc.constraints if any(p[0] not in names for p in expr_refs(c.expr))]
            if gone:
                self._install(replace(desc, constraints=[c for c in desc.constraints if c not in gone]))
                dropped += [(desc.label, c.text) for c in gone]
        return dropped

    # --- copying and serialization ---

    def clone(self) -> "Catalog":
        """A catalog of its own that shares this one's descriptors and the
        facts found so far, which hold for it until its first `_install`."""
        other = Catalog()
        other._types = dict(self._types)
        other._by_label = {kind: dict(table) for kind, table in self._by_label.items()}
        other._next_type_id = self._next_type_id
        other._memo = dict(self._memo)
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
        return self._install(TypeDescriptor(**{
            **data,
            "columns": [ColumnDescriptor(*c) for c in data["columns"]],
            "multiplicity": None if mult is None else Multiplicity(*mult),
            "constraints": [Constraint(text, *parse_constraint(text)) for text in data["constraints"]],
        }))
