"""Pattern matching for MATCH statements.

A `Plan` compiles each item's chain into steps once per template and
published catalog, with every label chain resolved to the subtype closure of
the type `Catalog.label_type` gives it, as CREATE does; a statement keeps the
plan of the latest catalog it ran under.  The search is one iterative
depth-first walk over an explicit stack of frames, each holding a step's
candidates and what the one it is on bound: a walk has no depth
limit, and completing a binding costs O(1) at any depth.  Quantified path
patterns iterate their inner chain, one frame per iteration of a body that
begins with a hop from a node without checks; identifiers
that were unbound when the quantifier was entered accumulate one value per
iteration and come out as arrays.  Repetition modes prune during traversal
(a post-filter would not terminate on cyclic data); the default rule refuses
to reuse an edge within one quantified expansion, which bounds every walk by
the edge count.  A map from each walked uid to its last trace position, the
position before it kept beside the trace, makes these checks O(1) per hop
with no allocation per uid.

Each node's adjacency is read once per published commit, by whichever
statement without staged rows reads it first; a quantifier followed by a
node with a constant doc entry leaves only on rows one index lookup found;
SHORTEST skips hops past its best binding so far; ANY stops at its first.

Completed bindings are filtered by WHERE, deduplicated on the statement's
identifiers (rows by uid), narrowed by SHORTEST/ANY if requested, and
finally projected, returned as a table, or fed to the dependent statements.
"""

from __future__ import annotations

from operator import attrgetter

from . import catalog as cat
from . import values as val
from .engine import ResultTable
from .exprs import eval_expr, eval_predicate
from .storage import Row, Transaction
from .syntax import (EdgePattern, Literal, MatchStatement, Param, PathPattern, Ref,
                     ReturnStatement)


def run_match(tx: Transaction, stmt: MatchStatement, params: tuple):
    plan = stmt.plan[0]
    if plan is None or plan.catalog is not tx.catalog:
        plan = Plan(stmt, tx.catalog)
        if plan.catalog is tx.db.catalog:  # published; a transaction's own catalog may change
            stmt.plan[0] = plan
    return _Matcher(tx, stmt, plan, params).run()


def _bound(elements, depth: int = 0):
    """(identifier, quantifier depth, whether it binds a row) of each binding
    a chain makes, in walk order: aliases and bare identifiers as doc values."""
    for element in elements:
        if isinstance(element, PathPattern):
            yield from _bound(element.chain, depth + 1)
            continue
        if element.alias:
            yield element.alias, depth, True
        for _name, expr in element.doc or ():
            if isinstance(expr, Ref) and len(expr.path) == 1:
                yield expr.path[0], depth, False


def _dedup_key(depth: int, row: bool):
    """How a binding of an identifier keys for deduplication: a row by its
    uid, a value as itself (tagged when a bool, as True == 1), an array of
    `depth` levels as nested tuples."""
    if depth:
        inner = _dedup_key(depth - 1, row)
        return lambda v: tuple(map(inner, v))
    return attrgetter("uid") if row else lambda v: (bool, v) if isinstance(v, bool) else v


# Compiled steps are tuples headed by their kind:
#   (_START, alias, checks, checks left on the rows read, the type ids read,
#    the doc entry an index lookup answers or None for a scan)
#   (_HOP, edge checks, follow checks, edge type ids or None, the side of
#    the current node, "leaving" or "arriving")
#   (_QUANT, path pattern, follow checks, inner steps, inner first checks,
#    inner names, the index in `Plan.keyed` of the follow pattern's lookup)
#   (_ITER_END,) closes one quantifier iteration; (_ITEM_END, item index)
# Checks are (alias, type ids or None, doc entries as (column, expression,
# the identifier it binds or None), where), or None when there are none.
# The first three choose among candidates, so they get frames.  A frame is a
# list, cheaper to build than an object: [alts, added, steps, k, ctx, crow,
# on_leave, loop, count, at].  `alts` yields the candidates of `steps[k]`,
# entered on row `crow` at trace length `at` in the iteration that
# quantifier frame `ctx` began; a candidate that walked a row leaves the
# trace longer.  `added` records the names the current candidate bound,
# `on_leave` what entering the step changed.  A quantifier's frame holds its
# `loop` (names, arrays, the trace length where it began) and the `count` of
# iterations so far, and offers `_STOP` if the count and a keyed exit admit
# `crow`, then `_AGAIN`.  For a body that begins with a hop from a node
# without checks, `_AGAIN` gives way to that hop's candidates, read once the
# exit is done: one frame per iteration.  A start frame holds in `loop` the
# checks its candidates need.
_START, _HOP, _QUANT, _ITER_END, _ITEM_END = range(5)
_ALTS, _CTX, _LOOP = 0, 4, 7   # frame fields
_STOP, _AGAIN = "stop", "again"   # the candidates of a quantifier frame


def _began(ctx: list) -> int:
    """The trace length where the outermost quantifier open in iteration `ctx` began."""
    while ctx[_CTX] is not None:
        ctx = ctx[_CTX]
    return ctx[_LOOP][2]


class Plan:
    """What the runs of a MATCH template under one catalog share: compiled
    steps, identifiers in column order with their dedup keys, and RETURN
    items as (identifier, column or None) if each reads a plain name or a
    column of a row bound outside quantifiers."""

    def __init__(self, stmt: MatchStatement, catalog: cat.Catalog):
        self.catalog = catalog
        self.keyed: list[tuple] = []   # (type ids, doc entry) of each keyed quantifier exit
        self.items = [self._compile(item.chain, [(_START, item.chain[0].alias,
                                                  *self._node(item.chain[0]))], (_ITEM_END, i))
                      for i, item in enumerate(stmt.items)]
        # identifier -> (depth, binds a row) where first bound, in column order;
        # a path alias bound by its own or an earlier item's chain emits nothing
        roles: dict[str, tuple] = {}
        for item in stmt.items:
            path = [(item.path_alias, 1, True)] if item.path_alias else []
            for name, depth, row in path + list(_bound(item.chain)):
                roles.setdefault(name, (depth, row))
        self.names = list(roles)
        self.keys = [(name, _dedup_key(*role)) for name, role in roles.items()]
        self.returns = None
        if isinstance(stmt.dependent, ReturnStatement):
            paths = [e.path if isinstance(e, Ref) else () for _h, e in stmt.dependent.items]
            if all(p and p[0] in roles and (len(p) == 1 or len(p) == 2 and roles[p[0]] == (0, True))
                   for p in paths):
                self.returns = [(*p, None)[:2] for p in paths]

    def _tids(self, pattern, kind: str) -> tuple[int, ...]:
        """Type ids carrying every label of `pattern`, subtypes included, ascending."""
        desc = self.catalog.label_type(pattern.labels, kind)
        return self.catalog.subtype_closure(desc.type_id) if desc else ()

    def _checks(self, pattern, tids, skip=None):
        """The checks of `pattern` on a row, leaving out doc entry `skip`."""
        doc = tuple((name, expr, expr.path[0] if isinstance(expr, Ref) and len(expr.path) == 1
                     else None) for name, expr in (e for e in pattern.doc or () if e is not skip))
        if pattern.alias is None and not doc and pattern.where is None and tids is None:
            return None
        return pattern.alias, tids, doc, pattern.where

    def _node(self, pattern) -> tuple:
        """A node pattern's checks, the checks left on rows read from its type
        ids, those type ids, and its first literal doc entry, which an index
        lookup answers (None: a scan reads them)."""
        tids = self._tids(pattern, cat.KIND_NODE) if pattern.labels else None
        probe = next((e for e in pattern.doc or () if isinstance(e[1], Param) or
                      isinstance(e[1], Literal) and e[1].value is not None), None)
        every = tuple(sorted(self.catalog.type_ids(cat.KIND_NODE))) if tids is None else tids
        return self._checks(pattern, tids), self._checks(pattern, None, probe), every, probe

    def _compile(self, chain, steps: list, tail: tuple) -> list:
        for k in range(1, len(chain), 2):
            conn, follow = chain[k], chain[k + 1]
            checks, _left, tids, probe = self._node(follow)
            if isinstance(conn, EdgePattern):
                # an edge's labels already chose the edge type ids it is read from
                etids = self._tids(conn, cat.KIND_EDGE) if conn.labels else None
                side = "leaving" if conn.direction == "out" else "arriving"
                steps.append((_HOP, self._checks(conn, None), checks, etids, side))
            else:
                inner = conn.chain
                if probe is not None:   # the exit reads only rows one index lookup found
                    self.keyed.append((tids, probe))
                steps.append((_QUANT, conn, checks, self._compile(inner, [], (_ITER_END,)),
                              self._node(inner[0])[0], [*dict.fromkeys(b[0] for b in _bound(inner))],
                              None if probe is None else len(self.keyed) - 1))
        steps.append(tail)
        return steps


class _Matcher:
    def __init__(self, tx: Transaction, stmt: MatchStatement, plan: Plan, params: tuple):
        self.tx = tx
        self.view = view = tx.view()
        self.stmt = stmt
        self.plan = plan
        self.params = params
        self.bindings: dict[str, object] = {}
        self._resolve = view.resolver(self.bindings)
        # per item: the walked uids, the position before each one's in that
        # list (-1: none), each uid's last position, the repetition mode
        self.trace: list[int] = []
        self.prev: list[int] = []
        self.seen: dict[int, int] = {}
        self.rep_mode: str | None = None
        self.edge_count = 0
        self.emissions: list[list] = []  # [bindings dict, edge count]
        self.sel = stmt.items[0].sel_mode if stmt.items else None
        self.bound = float("inf")        # SHORTEST: fewest edges of a binding so far
        seq, memo = view.store.memo   # (node uid, side, edge type ids) -> _hops
        self._adjacency: dict[tuple, list] = memo if seq == view.snapshot and not view.staged else {}
        self.keyed = [{r.uid for r in view.lookup_by_value(tids, name,
                                                           eval_expr(expr, None, params))}
                      for tids, (name, expr) in plan.keyed]

    # --- drive ---

    def run(self):
        self._search()
        kept = self._dedup_and_select()
        dependent, effects = self.stmt.dependent, self.stmt.then_block
        if isinstance(dependent, ReturnStatement):
            table = self._project(dependent, kept)
        elif dependent is not None or effects:
            table, effects = None, (dependent, *effects) if dependent is not None else effects
        else:
            columns = self.plan.names
            return ResultTable(columns, [[b[c] for c in columns] for b in kept])
        if effects:   # a dependent statement, then the THEN block, per binding
            from . import executor
            for b in kept:
                scope = dict(b)
                for stmt in effects:
                    executor.run_statement(self.tx, stmt, self.params, scope)
        return table

    def _search(self) -> None:
        """Each round undoes the top frame's current candidate, then takes
        its next candidate or, when none is left, leaves the frame."""
        stack: list[list] = []
        bindings = self.bindings
        self._next_item(stack, 0, [])
        while stack:
            f = stack[-1]
            alts, added, steps, k, ctx, crow, on_leave, loop, count, at = f
            if added:
                for a in added:
                    del bindings[a]
                added.clear()
            step = steps[k]
            kind = step[0]
            if len(self.trace) > at:   # the candidate was a start row or a hop
                trace, prev, seen = self.trace, self.prev, self.seen
                while len(trace) > at:
                    uid, before = trace.pop(), prev.pop()
                    if before < 0:
                        del seen[uid]
                    else:
                        seen[uid] = before
                if kind != _START:
                    self.edge_count -= 1
            alt = next(alts, None)
            if alt is _AGAIN and step[4] is None and step[3][0][0] == _HOP:
                f[_ALTS] = alts = iter(self._hops(crow, step[3][0]))   # the next iteration's first hops
                alt = next(alts, None)
            if alt is None:
                # leave the frame, undoing what entering its step changed
                stack.pop()
                if kind == _START:
                    self.trace, self.prev, self.seen, self.rep_mode, p_added = on_leave
                    for a in p_added:
                        del bindings[a]
                elif kind == _QUANT and count:
                    for a in loop[0]:
                        loop[1][a].pop()
                    bindings.update(on_leave)
            elif kind == _START:
                self.trace.append(alt.uid)
                self.prev.append(-1)
                self.seen[alt.uid] = 0
                if loop is None or self._unify(loop, alt, added):
                    self._enter(stack, steps, 1, None, alt)
            elif alt is _STOP:
                # leave the quantifier: bind the accumulated arrays and go on
                names, arrays, _at = loop
                for a in names:
                    bindings[a] = list(arrays[a])
                    added.append(a)
                if step[2] is None or self._unify(step[2], crow, added):
                    self._enter(stack, steps, k + 1, ctx, crow)
            elif alt is _AGAIN:   # a body that is one node, checks its first node or begins with a quantifier
                if step[4] is None or self._unify(step[4], crow, added):
                    self._enter(stack, step[3], 0, f, crow)
            else:
                if kind == _QUANT:   # the first hop of the next iteration
                    steps, k, ctx, step = step[3], 0, f, step[3][0]
                erow, tuid, trow = alt
                euid = erow.uid
                trace, prev, seen, mode = self.trace, self.prev, self.seen, self.rep_mode
                before = seen.get(euid, -1)
                # the default rule: no edge twice since the outermost open quantifier
                if before >= 0 and (mode == "TRAIL" or ctx is not None and before >= _began(ctx)) \
                        or mode == "ACYCLIC" and tuid in seen \
                        or mode == "SIMPLE" and tuid in seen and tuid != trace[0]:
                    continue
                prev += before, seen.get(tuid, -1)
                seen[euid], seen[tuid] = at, at + 1
                trace += euid, tuid
                self.edge_count += 1
                if (step[1] is None or self._unify(step[1], erow, added)) and \
                        (step[2] is None or self._unify(step[2], trow, added)):
                    self._enter(stack, steps, k + 1, ctx, trow)

    def _enter(self, stack: list, steps: list, k: int, ctx, crow: Row) -> None:
        """Arrive at `steps[k]` on `crow`: push its frame, or run a step without choices."""
        step = steps[k]
        kind = step[0]
        if kind == _HOP:
            hops = self._hops(crow, step)
            if hops:
                stack.append([iter(hops), [], steps, k, ctx, crow, None, None, 0, len(self.trace)])
            return
        if kind == _ITEM_END:
            if self.rep_mode != "SIMPLE" or self.prev[-1] == 0:
                # SIMPLE: a closed walk that repeats only its start (hops refuse others)
                alias = self.stmt.items[step[1]].path_alias
                if alias is None:
                    self._next_item(stack, step[1] + 1, [])
                elif alias not in self.bindings:
                    self.bindings[alias] = [self.view.get_row(uid) for uid in self.trace]
                    self._next_item(stack, step[1] + 1, [alias])
            return
        if kind == _QUANT:
            names = [n for n in step[5] if n not in self.bindings]
            loop = (names, {a: [] for a in names}, len(self.trace))
            count, vals, moved = 0, None, True
        else:
            # _ITER_END: the iteration that quantifier frame `ctx` began is done
            _alts, _added, steps, k, ctx, _crow, _leave, loop, count, at = ctx
            step = steps[k]
            vals = {}
            for a in loop[0]:
                if a in self.bindings:
                    vals[a] = self.bindings.pop(a)
                loop[1][a].append(vals.get(a))
            # an iteration that consumed nothing cannot be stacked, but it
            # may still satisfy the count
            count, moved = count + 1, len(self.trace) > at
        path = step[1]
        stop = count >= path.lo and (step[6] is None or crow.uid in self.keyed[step[6]])
        again = moved and (path.hi is None or count < path.hi)
        alts = (_STOP, _AGAIN) if stop and again else (_STOP,) if stop else \
            (_AGAIN,) if again else ()
        stack.append([iter(alts), [], steps, k, ctx, crow, vals, loop, count, len(self.trace)])

    def _next_item(self, stack: list, i: int, p_added: list[str]) -> None:
        if i == len(self.stmt.items):
            self._emit()
            if self.sel == "ANY" and self.emissions:
                stack.clear()   # ANY keeps the first binding
            for a in p_added:
                del self.bindings[a]
            return
        steps = self.plan.items[i]
        saved = (self.trace, self.prev, self.seen, self.rep_mode, p_added)
        self.trace, self.prev, self.seen = [], [], {}
        self.rep_mode = self.stmt.items[i].rep_mode
        _kind, alias, checks, checks_left, tids, probe = steps[0]
        if alias is not None and alias in self.bindings:
            v = self.bindings[alias]
            alts = [v] if isinstance(v, Row) and v.type_id in tids else []
        else:
            checks = checks_left
            alts = self.view.scan_type(tids) if probe is None else \
                self.view.lookup_by_value(tids, probe[0], eval_expr(probe[1], None, self.params))
        stack.append([iter(alts), [], steps, 0, None, None, saved, checks, 0, 0])

    def _emit(self) -> None:
        if self.stmt.where is not None and \
                not eval_predicate(self.stmt.where, self._resolve, self.params):
            return
        self.emissions.append([dict(self.bindings), self.edge_count])
        if self.sel == "SHORTEST":
            # hops stop here, so no walk longer than a binding is walked
            self.bound = self.edge_count

    def _hops(self, crow: Row, step: tuple):
        """[(edge row, target uid, target row)] of hop `step` from `crow`, or
        none if SHORTEST has a binding with no more edges.  Readers of one
        commit share them (`Store.memo`), so a list is stored whole and never
        changed; a view with staged rows or an older snapshot keeps its own."""
        etids, side = step[3], step[4]
        if etids is not None and not etids or self.edge_count >= self.bound:
            return ()
        key = (crow.uid, side, etids)
        hops = self._adjacency.get(key)
        if hops is None:
            hops = []
            for erow, luid, auid in self.view.edges_adjacent(crow.uid, side, etids):
                tuid = auid if side == "leaving" else luid
                if (trow := self.view.get_row(tuid)) is not None:
                    hops.append((erow, tuid, trow))
            self._adjacency[key] = hops
        return hops

    # --- candidates and unification ---

    def _unify(self, checks, row: Row, added: list[str]) -> bool:
        """Bind `row` to a pattern and run the pattern's checks."""
        alias, tids, doc, where = checks
        bindings = self.bindings
        if alias is not None:
            if alias not in bindings:
                bindings[alias] = row
                added.append(alias)
            elif not (isinstance(bindings[alias], Row) and bindings[alias].uid == row.uid):
                return False
        if tids is not None and row.type_id not in tids:
            return False
        for name, expr, ref in doc:
            prop = self.view.value(row, name)
            if ref is not None and ref not in bindings:
                if prop is None:
                    return False
                bindings[ref] = prop
                added.append(ref)
            elif (v := eval_expr(expr, self._resolve, self.params)) is None or prop is None \
                    or not val.values_equal(v, prop):
                return False
        return where is None or eval_predicate(where, self._resolve, self.params)

    # --- results ---

    def _dedup_and_select(self) -> list[dict]:
        """One binding per key, in the order of its first emission (ANY emits
        once); SHORTEST keeps the keys of fewest edges, in the order of their
        first walk that short."""
        keys = self.plan.keys
        seen: dict[tuple, list] = {}
        order: list[list] = []   # [bindings, fewest edges, index of that emission]
        for i, (b, edges) in enumerate(self.emissions):
            key = tuple([f(b[c]) for c, f in keys])
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
        refs, value, params = self.plan.returns, self.view.value, self.params
        if refs is None:   # an item is an expression: evaluate each through a resolver
            return ResultTable(headers, [[eval_expr(expr, resolve, params) for _h, expr in ret.items]
                                         for resolve in map(self.view.resolver, kept)])
        # rows bound here are as this view reads them
        return ResultTable(headers, [[b[a] if c is None else value(b[a], c) for a, c in refs]
                                     for b in kept])
