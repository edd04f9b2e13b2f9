"""Pattern matching for MATCH statements.

Each item's chain is compiled once per statement into steps, with edge type
ids resolved up front; a label chain reads the subtype closure of the type
`Catalog.label_type` gives it, as CREATE does.  The search is one iterative
depth-first walk over an explicit stack of frames, each holding a step's
candidates and the undo record of the one it is on: a walk has no depth
limit, and completing a binding costs O(1) at any depth.  Quantified path
patterns iterate their inner chain; identifiers that were unbound when the
quantifier was entered accumulate one value per iteration and come out as
arrays.  Repetition modes prune during traversal (a post-filter would not
terminate on cyclic data); the default rule refuses to reuse an edge within
one quantified expansion, which bounds every walk by the edge count.  A map
from each walked uid to its trace positions makes these checks O(1) per hop.

Each node's adjacency is read once per statement; a quantifier followed by a
node with a constant doc entry leaves only on rows one index lookup found;
SHORTEST skips hops past its best binding so far; ANY stops at its first.

Completed bindings are filtered by WHERE, deduplicated on the statement's
identifiers, narrowed by SHORTEST/ANY if requested, and finally projected,
returned as a table, or fed to the dependent statements.
"""

from __future__ import annotations

from . import catalog as cat
from . import values as val
from .engine import ResultTable
from .exprs import constant, eval_expr, eval_predicate
from .storage import Row, Transaction
from .syntax import (EdgePattern, MatchStatement, NodePattern, PathPattern, Ref,
                     ReturnStatement)


def run_match(tx: Transaction, stmt: MatchStatement, params: tuple):
    return _Matcher(tx, stmt, params).run()


def chain_names(elements) -> list[str]:
    """Identifiers a chain can bind, in source order: aliases plus bare
    identifiers in doc value position."""
    out: list[str] = []
    seen: set[str] = set()

    def add(name):
        if name and name not in seen:
            seen.add(name)
            out.append(name)

    def walk(element):
        if isinstance(element, PathPattern):
            for e in element.chain:
                walk(e)
            return
        add(element.alias)
        for _name, expr in element.doc or ():
            if isinstance(expr, Ref) and len(expr.path) == 1:
                add(expr.path[0])

    for element in elements:
        walk(element)
    return out


def statement_names(stmt: MatchStatement) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for item in stmt.items:
        if item.path_alias and item.path_alias not in seen:
            seen.add(item.path_alias)
            out.append(item.path_alias)
        for name in chain_names(item.chain):
            if name not in seen:
                seen.add(name)
                out.append(name)
    return out


def _canon(v):
    if isinstance(v, Row):
        return ("#row", v.uid)
    if isinstance(v, list):
        return ("#arr", tuple(_canon(x) for x in v))
    if isinstance(v, bool):
        return ("#bool", v)
    return v


# Compiled steps are tuples headed by their kind:
#   (_START, first node pattern)
#   (_HOP, edge pattern, follow pattern, edge type ids or None, the side of
#    the current node, "leaving" or "arriving")
#   (_QUANT, path pattern, follow pattern, inner steps, inner first pattern,
#    inner names, the uids the follow pattern's constant doc entry allows or
#    None)
# A pattern in a hop or an inner first pattern that checks nothing is None.
#   (_ITER_END,) closes one quantifier iteration; (_ITEM_END, item index)
# The first three choose among candidates, so they get frames.  A frame is a
# list, cheaper to build than an object: [alts, added, undo, steps, k, ctx,
# crow, on_leave, loop, count].  `alts` yields the candidates of `steps[k]`,
# entered on row `crow` within quantifier iteration `ctx`.  `added` and `undo`
# record what the current candidate changed, `on_leave` what entering the
# step changed.  A quantifier's frame also holds its `loop` (names, arrays)
# and the `count` of iterations so far; an iteration `ctx` is (steps, k, ctx,
# loop, count, trace length) of the quantifier frame that began it.
_START, _HOP, _QUANT, _ITER_END, _ITEM_END = range(5)
_UNDO = 2
_STOP, _AGAIN = "stop", "again"   # the candidates of a quantifier frame


def _checked(pattern):
    """`pattern`, or None when unifying a row with it checks and binds
    nothing (an edge's labels already chose the edge type ids it is read from)."""
    if pattern.alias is None and not pattern.doc and pattern.where is None and \
            not (pattern.labels and isinstance(pattern, NodePattern)):
        return None
    return pattern


class _Matcher:
    def __init__(self, tx: Transaction, stmt: MatchStatement, params: tuple):
        self.tx = tx
        self.view = tx.view()
        self.catalog = tx.catalog
        self.stmt = stmt
        self.params = params
        self.bindings: dict[str, object] = {}
        self._resolve = self.view.resolver(self.bindings)
        # per item: the walked uids, each uid's positions in that list, the
        # trace lengths where open quantifiers began, the repetition mode
        self.trace: list[int] = []
        self.seen: dict[int, list[int]] = {}
        self.marks: list[int] = []
        self.rep_mode: str | None = None
        self.edge_count = 0
        self.emissions: list[list] = []  # [bindings dict, edge count]
        self.sel = stmt.items[0].sel_mode if stmt.items else None
        self.bound = float("inf")        # SHORTEST: fewest edges of a binding so far
        self._hops: dict[tuple, list] = {}  # (node uid, side, edge type ids) -> _adjacent
        self.items = [self._compile(item.chain, [(_START, item.chain[0])], (_ITEM_END, i))
                      for i, item in enumerate(stmt.items)]

    def _compile(self, chain, steps: list, tail: tuple) -> list:
        for k in range(1, len(chain), 2):
            conn, follow = chain[k], chain[k + 1]
            if isinstance(conn, EdgePattern):
                etids = self._tids(conn.labels, cat.KIND_EDGE) if conn.labels else None
                side = "leaving" if conn.direction == "out" else "arriving"
                steps.append((_HOP, _checked(conn), _checked(follow), etids, side))
            else:
                inner = conn.chain
                # nothing is bound yet, so a constant doc entry is an index lookup
                keyed = any(constant(e, self.params) is not None for _n, e in follow.doc or ())
                steps.append((_QUANT, conn, follow, self._compile(inner, [], (_ITER_END,)),
                              _checked(inner[0]), chain_names(inner),
                              {r.uid for r in self._node_candidates(follow)} if keyed else None))
        steps.append(tail)
        return steps

    # --- drive ---

    def run(self):
        self._search()
        columns = [n for n in statement_names(self.stmt)
                   if any(n in b for b, _ in self.emissions)] if self.emissions else \
                  statement_names(self.stmt)
        kept = self._dedup_and_select(columns)
        dependent = self.stmt.dependent
        if isinstance(dependent, ReturnStatement):
            table = self._project(dependent, kept)
            self._run_effects(None, kept)
            return table
        if dependent is not None or self.stmt.then_block:
            self._run_effects(dependent, kept)
            return None
        return ResultTable(columns, [[b.get(c) for c in columns] for b in kept])

    def _search(self) -> None:
        """Each round undoes the top frame's current candidate, then takes
        its next candidate or, when none is left, leaves the frame."""
        stack: list[list] = []
        bindings = self.bindings
        self._next_item(stack, 0, [])
        while stack:
            f = stack[-1]
            alts, added, undo, steps, k, ctx, crow, on_leave, loop, count = f
            if added:
                for a in added:
                    del bindings[a]
                added.clear()
            step = steps[k]
            kind = step[0]
            if undo is not None:
                if kind == _HOP:
                    seen = self.seen
                    for uid in (self.trace.pop(), self.trace.pop()):
                        at = seen[uid]
                        at.pop()
                        if not at:
                            del seen[uid]
                    self.edge_count -= 1
                elif kind == _START:
                    # every deeper frame is undone, so the start is all there is
                    self.trace.pop()
                    self.seen.clear()
                else:
                    self.marks.append(undo)
                f[_UNDO] = None
            alt = next(alts, None)
            if alt is None:
                # leave the frame, undoing what entering its step changed
                stack.pop()
                if kind == _START:
                    self.trace, self.seen, self.marks, self.rep_mode, p_added = on_leave
                    for a in p_added:
                        del bindings[a]
                elif kind == _QUANT and count == 0:
                    self.marks.pop()
                elif kind == _QUANT:
                    for a in loop[0]:
                        loop[1][a].pop()
                    bindings.update(on_leave)
            elif kind == _HOP:
                if self.edge_count >= self.bound:
                    stack.pop()   # SHORTEST has a binding with no more edges
                    continue
                erow, tuid, trow = alt
                euid = erow.uid
                if not self._hop_allowed(euid, tuid):
                    continue
                trace, seen = self.trace, self.seen
                seen.setdefault(euid, []).append(len(trace))
                seen.setdefault(tuid, []).append(len(trace) + 1)
                trace += euid, tuid
                self.edge_count += 1
                f[_UNDO] = True
                epat, npat = step[1], step[2]
                if (epat is None or self._unify(epat, erow, added)) and \
                        (npat is None or self._unify(npat, trow, added)):
                    self._enter(stack, steps, k + 1, ctx, trow)
            elif kind == _START:
                self.trace.append(alt.uid)
                self.seen[alt.uid] = [0]
                f[_UNDO] = True
                if self._unify(step[1], alt, added):
                    self._enter(stack, steps, 1, None, alt)
            elif alt is _STOP:
                # leave the quantifier, if the follow pattern's keyed rows
                # allow: bind the accumulated arrays and go on
                if step[6] is not None and crow.uid not in step[6]:
                    continue
                f[_UNDO] = self.marks.pop()
                names, arrays = loop
                for a in names:
                    bindings[a] = list(arrays[a])
                    added.append(a)
                if self._unify(step[2], crow, added):
                    self._enter(stack, steps, k + 1, ctx, crow)
            elif step[4] is None or self._unify(step[4], crow, added):
                self._enter(stack, step[3], 0, (steps, k, ctx, loop, count, len(self.trace)), crow)

    def _enter(self, stack: list, steps: list, k: int, ctx, crow: Row) -> None:
        """Arrive at `steps[k]` on `crow`: push its frame, or run a step without choices."""
        step = steps[k]
        kind = step[0]
        if kind == _HOP:
            etids = step[3]
            if (etids is None or etids) and self.edge_count < self.bound:
                key = (crow.uid, step[4], etids)
                hops = self._hops.get(key)
                if hops is None:
                    hops = self._hops[key] = self._adjacent(*key)
                stack.append([iter(hops), [], None, steps, k, ctx, crow, None, None, 0])
        elif kind == _QUANT:
            names = [n for n in step[5] if n not in self.bindings]
            self.marks.append(len(self.trace))
            self._loop(stack, steps, k, ctx, crow, (names, {a: [] for a in names}), 0, None, True)
        elif kind == _ITER_END:
            q_steps, q_k, q_ctx, loop, count, before = ctx
            names, arrays = loop
            vals = {}
            for a in names:
                if a in self.bindings:
                    vals[a] = self.bindings.pop(a)
                arrays[a].append(vals.get(a))
            # an iteration that consumed nothing cannot be stacked, but it
            # may still satisfy the count
            self._loop(stack, q_steps, q_k, q_ctx, crow, loop, count + 1, vals,
                       len(self.trace) > before)
        elif self.rep_mode != "SIMPLE" or self._closed_simple_walk():
            alias = self.stmt.items[step[1]].path_alias
            if alias is None:
                self._next_item(stack, step[1] + 1, [])
            elif alias not in self.bindings:
                self.bindings[alias] = [self.view.get_row(uid) for uid in self.trace]
                self._next_item(stack, step[1] + 1, [alias])

    def _loop(self, stack, steps, k, ctx, crow, loop, count, vals, moved) -> None:
        """Push a quantifier's frame after `count` iterations: stop, then go on."""
        path = steps[k][1]
        alts = [_STOP] if count >= path.lo else []
        if moved and (path.hi is None or count < path.hi):
            alts.append(_AGAIN)
        stack.append([iter(alts), [], None, steps, k, ctx, crow, vals, loop, count])

    def _next_item(self, stack: list, i: int, p_added: list[str]) -> None:
        if i == len(self.stmt.items):
            self._emit()
            if self.sel == "ANY" and self.emissions:
                stack.clear()   # ANY keeps the first binding
            for a in p_added:
                del self.bindings[a]
            return
        steps = self.items[i]
        saved = (self.trace, self.seen, self.marks, self.rep_mode, p_added)
        self.trace, self.seen, self.marks = [], {}, []
        self.rep_mode = self.stmt.items[i].rep_mode
        alts = iter(self._node_candidates(steps[0][1]))
        stack.append([alts, [], None, steps, 0, None, None, saved, None, 0])

    def _emit(self) -> None:
        if self.stmt.where is not None and \
                not eval_predicate(self.stmt.where, self._resolve, self.params):
            return
        self.emissions.append([dict(self.bindings), self.edge_count])
        if self.sel == "SHORTEST":
            # hops stop here, so no walk longer than a binding is walked
            self.bound = self.edge_count

    def _adjacent(self, uid: int, side: str, etids) -> list[tuple]:
        """[(edge row, target uid, target row)] of the visible targets one hop
        from node `uid`; staging cannot change while the search runs."""
        out = []
        for erow, luid, auid in self.view.edges_adjacent(uid, side, etids):
            tuid = auid if side == "leaving" else luid
            trow = self.view.get_row(tuid)
            if trow is not None:
                out.append((erow, tuid, trow))
        return out

    # --- the trace and repetition checks ---

    def _hop_allowed(self, euid: int, tuid: int) -> bool:
        seen, mode = self.seen, self.rep_mode
        at = seen.get(euid)
        # the default rule: no edge twice since the outermost open quantifier
        if at is not None and (mode == "TRAIL" or self.marks and at[-1] >= self.marks[0]):
            return False
        if mode == "ACYCLIC":
            return tuid not in seen
        return mode != "SIMPLE" or tuid not in seen or tuid == self.trace[0]

    def _closed_simple_walk(self) -> bool:
        """SIMPLE needs a closed walk whose only repeated node is its start
        (hops already refuse to repeat any other node)."""
        trace = self.trace
        return len(trace) > 1 and trace[-1] == trace[0] and len(self.seen[trace[0]]) == 2

    # --- candidates and unification ---

    def _tids(self, labels, kind: str) -> tuple[int, ...]:
        """Type ids carrying every one of `labels`, subtypes included, ascending."""
        desc = self.catalog.label_type(labels, kind)
        return self.catalog.subtype_closure(desc.type_id) if desc else ()

    def _node_candidates(self, pattern: NodePattern):
        if pattern.alias is not None and pattern.alias in self.bindings:
            v = self.bindings[pattern.alias]
            if isinstance(v, Row) and self.catalog.get(v.type_id).kind == cat.KIND_NODE:
                return [v]
            return []
        tids = self._tids(pattern.labels, cat.KIND_NODE) if pattern.labels else \
            self.catalog.type_ids(cat.KIND_NODE)
        for name, expr in pattern.doc or ():
            v = constant(expr, self.params)
            if v is not None:
                return self.view.lookup_by_value(tids, name, v)
        return self.view.scan_type(tids)

    def _unify(self, pattern, row: Row, added: list[str]) -> bool:
        """Bind `row` to a node or edge pattern and check the pattern."""
        if pattern.alias is not None:
            if pattern.alias in self.bindings:
                bound = self.bindings[pattern.alias]
                if not (isinstance(bound, Row) and bound.uid == row.uid):
                    return False
            else:
                self.bindings[pattern.alias] = row
                added.append(pattern.alias)
        # an edge's labels already chose the edge type ids it is read from
        if pattern.labels and isinstance(pattern, NodePattern) and \
                row.type_id not in self._tids(pattern.labels, cat.KIND_NODE):
            return False
        if pattern.doc and not self._unify_doc(pattern.doc, row, added):
            return False
        if pattern.where is not None and \
                not eval_predicate(pattern.where, self._resolve, self.params):
            return False
        return True

    def _unify_doc(self, doc, row: Row, added: list[str]) -> bool:
        for name, expr in doc:
            prop = self.view.value(row, name)
            if isinstance(expr, Ref) and len(expr.path) == 1 and expr.path[0] not in self.bindings:
                if prop is None:
                    return False
                self.bindings[expr.path[0]] = prop
                added.append(expr.path[0])
                continue
            v = eval_expr(expr, self._resolve, self.params)
            if prop is None or v is None or not val.values_equal(v, prop):
                return False
        return True

    # --- results ---

    def _dedup_and_select(self, columns) -> list[dict]:
        """One binding per key, in the order of its first emission (ANY emits
        once); SHORTEST keeps the keys of fewest edges, in the order of their
        first walk that short."""
        seen: dict[tuple, list] = {}
        order: list[list] = []   # [bindings, fewest edges, index of that emission]
        for i, (b, edges) in enumerate(self.emissions):
            key = tuple(_canon(b.get(c)) for c in columns)
            rec = seen.get(key)
            if rec is None:
                rec = [b, edges, i]
                seen[key] = rec
                order.append(rec)
            elif edges < rec[1]:
                rec[:] = b, edges, i
        if self.sel == "SHORTEST" and order:
            best = min(rec[1] for rec in order)
            order = sorted((rec for rec in order if rec[1] == best), key=lambda rec: rec[2])
        return [rec[0] for rec in order]

    def _project(self, ret: ReturnStatement, kept) -> ResultTable:
        headers = [header for header, _ in ret.items]
        rows = []
        for b in kept:
            resolve = self.view.resolver(b)
            rows.append([eval_expr(expr, resolve, self.params) for _h, expr in ret.items])
        return ResultTable(headers, rows)

    def _run_effects(self, dependent, kept) -> None:
        from . import executor
        for b in kept:
            scope = dict(b)
            if dependent is not None and not isinstance(dependent, ReturnStatement):
                executor.run_statement(self.tx, dependent, self.params, scope)
            for stmt in self.stmt.then_block:
                executor.run_statement(self.tx, stmt, self.params, scope)
