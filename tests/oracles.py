"""Independent reference implementations used to check the engine.

Nothing in here imports the package's matcher or graph registry.  The match
oracle enumerates walks directly over a plain dict graph and applies the
documented rules (per-expansion edge reuse ban, TRAIL/ACYCLIC/SIMPLE filters,
binding-row dedup) in a materialized, non-backtracking style. The partition
oracle is a textbook union-find.  The whole-state judge alone uses the
engine: it runs the engine's own commit with no committed rows, so that no
incremental shortcut applies.
"""

from __future__ import annotations

from dataclasses import dataclass


# --------------------------------------------------------------- graph model

class Graph:
    """uid -> label for nodes; uid -> (label, tail_uid, head_uid) for edges."""

    def __init__(self):
        self.nodes: dict[int, str] = {}
        self.edges: dict[int, tuple[str, int, int]] = {}


# ------------------------------------------------------------- pattern specs

@dataclass(frozen=True)
class NodeSpec:
    alias: str | None = None
    label: str | None = None

    def render(self) -> str:
        body = self.alias or ""
        if self.label:
            body += f":{self.label}"
        return f"({body})"


@dataclass(frozen=True)
class EdgeSpec:
    direction: str  # 'out' or 'in'
    alias: str | None = None
    label: str | None = None

    def render(self) -> str:
        body = self.alias or ""
        if self.label:
            body += f":{self.label}"
        return f"-[{body}]->" if self.direction == "out" else f"<-[{body}]-"


@dataclass(frozen=True)
class QuantSpec:
    chain: tuple  # (NodeSpec, EdgeSpec, NodeSpec), then (EdgeSpec, NodeSpec) per further edge
    lo: int
    hi: int | None

    def render(self) -> str:
        inner = "".join(el.render() for el in self.chain)
        if (self.lo, self.hi) == (0, 1):
            q = "?"
        elif (self.lo, self.hi) == (0, None):
            q = "*"
        elif (self.lo, self.hi) == (1, None):
            q = "+"
        else:
            hi = "" if self.hi is None else str(self.hi)
            q = f"{{{self.lo},{hi}}}"
        return f"[{inner}]{q}"


def render_chain(chain) -> str:
    return " ".join(el.render() for el in chain)


def binder_names(chain) -> list[str]:
    """Alias columns in first-appearance order, quantifier bodies inline."""
    seen: list[str] = []

    def visit(elements):
        for el in elements:
            if isinstance(el, QuantSpec):
                visit(el.chain)
            elif el.alias and el.alias not in seen:
                seen.append(el.alias)
    visit(chain)
    return seen


# ------------------------------------------------------------- match oracle

def oracle_match(g: Graph, chain, rep_mode: str | None = None):
    """All binding rows for a single-item chain, as canonical tuples.

    Returns (columns, rows, shortest_rows): `rows` is the deduplicated set for
    ALL/default behaviour, `shortest_rows` the subset a SHORTEST selection
    keeps (bindings attaining the globally minimal edge count).
    """
    columns, rows, shortest = oracle_rows(g, chain, rep_mode)
    return columns, set(rows), set(shortest)


def oracle_rows(g: Graph, chain, rep_mode: str | None = None):
    """`oracle_match`'s rows as lists in first-emission order, walking nodes
    and edges in uid order: each row where its first walk emits it, and each
    SHORTEST row where its first walk of the fewest edges does.  ANY keeps
    the first of `rows`."""
    columns = binder_names(chain)
    edge_uids = sorted(g.edges)
    emissions: list[tuple[tuple, int]] = []  # (canonical row, edge count)
    connectors = list(zip(chain[1::2], chain[2::2]))

    def node_ok(spec: NodeSpec, uid: int, bindings: dict):
        if uid not in g.nodes:
            return None
        if spec.label is not None and g.nodes[uid] != spec.label:
            return None
        if spec.alias:
            if spec.alias in bindings:
                return bindings if bindings[spec.alias] == uid else None
            out = dict(bindings)
            out[spec.alias] = uid
            return out
        return bindings

    def edge_other(spec: EdgeSpec, euid: int, cur: int):
        label, tail, head = g.edges[euid]
        if spec.label is not None and label != spec.label:
            return None
        if spec.direction == "out":
            return head if tail == cur else None
        return tail if head == cur else None

    def emit(bindings, nvisits, etrace):
        if rep_mode == "TRAIL" and len(set(etrace)) != len(etrace):
            return
        if rep_mode == "ACYCLIC" and len(set(nvisits)) != len(nvisits):
            return
        if rep_mode == "SIMPLE":
            if not etrace or nvisits[0] != nvisits[-1]:
                return
            interior = nvisits[1:-1]
            if len(set(interior)) != len(interior) or nvisits[0] in interior:
                return
        row = tuple(bindings[c] for c in columns)
        emissions.append((row, len(etrace)))

    def walk(idx, cur, bindings, nvisits, etrace):
        if idx == len(connectors):
            emit(bindings, nvisits, etrace)
            return
        conn, nspec = connectors[idx]
        if isinstance(conn, EdgeSpec):
            for euid in edge_uids:
                nxt = edge_other(conn, euid, cur)
                if nxt is None:
                    continue
                b = bindings
                if conn.alias:
                    if conn.alias in b:
                        if b[conn.alias] != euid:
                            continue
                    else:
                        b = dict(b)
                        b[conn.alias] = euid
                b = node_ok(nspec, nxt, b)
                if b is None:
                    continue
                walk(idx + 1, nxt, b, nvisits + [nxt], etrace + [euid])
            return

        # quantified segment: the body is a chain of one or more edges
        body = conn.chain
        loop = []
        for spec in body:
            if spec.alias and spec.alias not in bindings and spec.alias not in loop:
                loop.append(spec.alias)
        loopset = set(loop)

        def local(alias, val, it):
            """`it` with `alias` bound to `val` for this iteration, or None
            when it clashes; an alias bound outside must already be `val`."""
            if alias is None:
                return it
            if alias in loopset:
                if alias in it:
                    return it if it[alias] == val else None
                return {**it, alias: val}
            return it if bindings.get(alias) == val else None

        def body_step(j, cur2, it, used):
            """One iteration's walks on from body position j at cur2, edges
            in uid order, none in `used`: (end node, loop values, nodes
            visited, edges walked)."""
            spec = body[j]
            if spec.label is not None and g.nodes.get(cur2) != spec.label:
                return
            it = local(spec.alias, cur2, it)
            if it is None:
                return
            if j == len(body) - 1:
                yield cur2, it, [], []
                return
            for euid in edge_uids:
                nxt = edge_other(body[j + 1], euid, cur2)
                if euid in used or nxt is None:
                    continue
                it2 = local(body[j + 1].alias, euid, it)
                if it2 is None:
                    continue
                for end, it3, nodes, edges in body_step(j + 2, nxt, it2, used | {euid}):
                    yield end, it3, [nxt] + nodes, [euid] + edges

        def iterate(count, cur2, arrays, nvisits, etrace, used):
            if count >= conn.lo:
                stopped = dict(bindings)
                for a in loop:
                    stopped[a] = tuple(arrays[a])
                after = node_ok(nspec, cur2, stopped)
                if after is not None:
                    walk(idx + 1, cur2, after, nvisits, etrace)
            if conn.hi is not None and count >= conn.hi:
                return
            for nxt, it, nodes, edges in body_step(0, cur2, {}, used):
                arrays2 = {a: arrays[a] + [it[a]] for a in loop}
                iterate(count + 1, nxt, arrays2,
                        nvisits + nodes, etrace + edges, used | set(edges))

        iterate(0, cur, {a: [] for a in loop}, nvisits, etrace, frozenset())

    first = chain[0]
    for uid in sorted(g.nodes):
        start = node_ok(first, uid, {})
        if start is not None:
            walk(0, uid, start, [uid], [])

    best = min((count for _row, count in emissions), default=None)
    rows = list(dict.fromkeys(row for row, _count in emissions))
    shortest = list(dict.fromkeys(row for row, count in emissions if count == best))
    return columns, rows, shortest


def table_rows(table) -> list[tuple]:
    """Engine ResultTable rows -> the oracle's canonical tuples (uids), in
    the table's order."""
    return [tuple(_canon_value(v) for v in row) for row in table.rows]


def canon_table(table) -> set[tuple]:
    """`table_rows` as a set."""
    return set(table_rows(table))


def _canon_value(value):
    if isinstance(value, list):
        return tuple(_canon_value(v) for v in value)
    uid = getattr(value, "uid", None)
    return uid if uid is not None else value


# -------------------------------------------------------- partition oracle

def union_find_components(node_uids, edge_ends):
    """Partition from scratch: {representative: (node set, edge set)}.

    `edge_ends` maps edge uid -> (tail node uid, head node uid); the
    representative of a component is its smallest node uid.
    """
    parent = {uid: uid for uid in node_uids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for tail, head in edge_ends.values():
        a, b = find(tail), find(head)
        if a != b:
            parent[max(a, b)] = min(a, b)

    comps: dict[int, tuple[set, set]] = {}
    for uid in node_uids:
        comps.setdefault(find(uid), (set(), set()))[0].add(uid)
    for euid, (tail, _head) in edge_ends.items():
        comps[find(tail)][1].add(euid)
    return comps


# ------------------------------------------------------------ misc helpers

def verify_chain(g: Graph, node_uids, edge_label: str) -> bool:
    """True when consecutive nodes are joined tail-to-head by edges of the
    given label (a returned path is an actual walk of the graph)."""
    for a, b in zip(node_uids, node_uids[1:]):
        if not any(lbl == edge_label and tail == a and head == b
                   for (lbl, tail, head) in g.edges.values()):
            return False
    return True


def fold_arrows(pairs):
    """(left_alias, arrow, right_alias) -> (tail_alias, head_alias) per edge.

    `arrow` is 'out' for -[...]-> and 'in' for <-[...]-.
    """
    out = []
    for left, arrow, right in pairs:
        if arrow == "out":
            out.append((left, right))
        else:
            out.append((right, left))
    return out


def graph_from_db(db) -> Graph:
    """Snapshot the committed database into the oracle's graph model."""
    g = Graph()
    view = db.read_view()
    catalog = db.catalog
    for desc in catalog.types("node"):
        for row in view.scan_type({desc.type_id}):
            g.nodes[row.uid] = desc.label
    for desc in catalog.types("edge"):
        for row in view.scan_type({desc.type_id}):
            tail, head = view.resolve_endpoints(row)
            g.edges[row.uid] = (desc.label, tail, head)
    return g


def rebuilt_catalog(catalog):
    """A new catalog installed from `catalog`'s descriptors, as log replay
    installs them, so it holds none of the facts `catalog` memoised."""
    from graphtables.catalog import Catalog
    from graphtables.parser import parse_expression

    fresh = Catalog()
    for desc in catalog.types():
        fresh.apply_descriptor_dict(catalog.descriptor_to_dict(desc), parse_expression)
    return fresh


def whole_state_judge(db) -> None:
    """Commit every live row of `db` as one transaction of a fresh database
    with the same catalog, rebuilt from its descriptors: a committed state
    must satisfy the rules commit applies when it has to check everything.
    Raises what that commit raises."""
    view = db.read_view()
    judge_state(db.catalog, view.scan_type([desc.type_id for desc in db.catalog.types()]),
                db._next_uid)


def judge_state(catalog, rows, next_uid: int) -> None:
    """Commit `rows`, a whole state under `catalog`, as one transaction of a
    fresh database whose catalog is rebuilt from `catalog`'s descriptors and
    whose next uid is `next_uid`.  Raises what that commit raises."""
    from graphtables import Database
    from graphtables.storage import Row

    fresh = Database()
    fresh.published = (0, rebuilt_catalog(catalog))
    fresh._next_uid = next_uid
    tx = fresh.begin()
    for row in rows:
        tx.staged.put(row.uid, Row(row.uid, row.type_id, dict(row.values), row.ends))
    tx.commit()
