"""Per-layer tracing from outside the engine.

`Tracer` replaces the public entry points of each `graphtables` module with
timing wrappers while it is installed, and puts the originals back when it is
removed.  Names are replaced where callers look them up: several modules
import functions by name (`engine.parse_statement`, `matcher.eval_expr`), so
the wrapper goes into the importing module, and methods are replaced on their
class.

Every wrapped call is a frame on a per-thread stack.  A frame's self time is
its duration minus the time covered by its child frames; self time is summed
per layer, so the layers' self times plus the operation frame's own self time
(`unattributed`: the client and anything no wrapper covers) add up to the
operations' total time.  Frames of the coarse boundaries are also kept as
spans (name, start, end, parent, operation id) and written out when the run
ends.  Hot leaf functions (reads, catalog lookups, expression entry points)
are timed frames without spans, and the hottest (value comparisons, index
probes, component additions) only count.
"""

from __future__ import annotations

import collections
import itertools
import threading
from time import perf_counter_ns

# self time of these layers counts as validation while a commit is open,
# because commit-time checks read, look types up and evaluate constraints
_VALIDATION_PARTS = {"storage.read", "catalog", "exprs"}

LAYERS = ("lexer", "parser", "engine", "executor", "matcher", "exprs", "catalog",
          "storage.read", "storage.validate", "storage.apply", "log.encode",
          "log.append", "log.read", "log.decode", "graphset", "httpd")


class Tracer:
    def __init__(self, phase: str):
        self.phase = phase
        self.self_ns = collections.Counter()    # layer -> ns
        self.incl_ns = collections.Counter()    # frame name -> ns
        self.calls = collections.Counter()      # frame name -> calls
        self.counts = collections.Counter()     # counter name -> amount
        self.texts: set[str] = set()
        self.spans: list[tuple] = []            # (id, parent, op, name, start, end)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._cond = threading.Condition()
        self._op = None                         # the open operation frame
        self._op_id = 0
        self._op_thread = None
        self._remote_open = 0
        self._patches: list[tuple] = []

    # --- frames ---

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.commit_depth = 0
            local.delta_depth = 0
        return local

    def enter(self, name: str, layer: str, span: bool) -> list:
        local = self._state()
        stack = local.stack
        if local.commit_depth and layer in _VALIDATION_PARTS:
            layer = "storage.validate"
        if name == "storage.commit":
            local.commit_depth += 1
        elif name == "graphset.delta":
            local.delta_depth += 1
        parent = stack[-1] if stack else self._op
        remote = not stack and threading.get_ident() != self._op_thread
        if remote:
            with self._cond:
                self._remote_open += 1
        # [name, layer, start, child ns, span id, parent frame, remote]
        frame = [name, layer, 0, 0, next(self._ids) if span else 0, parent, remote]
        stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def exit(self, frame: list) -> int:
        end = perf_counter_ns()
        local = self._local
        local.stack.pop()
        name, layer, start, child, span_id, parent, remote = frame
        duration = end - start
        self.self_ns[layer] += duration - child
        self.incl_ns[name] += duration
        self.calls[name] += 1
        if name == "storage.commit":
            local.commit_depth -= 1
        elif name == "graphset.delta":
            local.delta_depth -= 1
        if span_id:
            self.spans.append((span_id, parent[4] if parent else 0, self._op_id,
                               name, start, end))
        if remote:
            with self._cond:
                if parent is not None:
                    parent[3] += duration
                self._remote_open -= 1
                self._cond.notify_all()
        elif parent is not None:
            parent[3] += duration
        return duration

    def run_op(self, cls: str, func):
        """Run one operation as the root frame; wait for any server-side
        frames it caused, so they nest inside it."""
        self._op_thread = threading.get_ident()
        self._op_id += 1
        self._op = None
        frame = self.enter("bench.op", "unattributed", True)
        self._op = frame
        try:
            return func()
        finally:
            with self._cond:
                self._cond.wait_for(lambda: self._remote_open == 0, timeout=10)
            self._op = None
            self.incl_ns["op:" + cls] += self.exit(frame)
            self.calls["op:" + cls] += 1

    # --- installing wrappers ---

    def _replace(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def timed(self, owner, attr, name, layer, span=True, after=None):
        func = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, layer, span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, result)
            return result
        self._replace(owner, attr, wrapper)

    def counted(self, owner, attr, counter, amount=None, only_in_delta=False):
        func = getattr(owner, attr)
        counts, local = self.counts, self._local

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            if not only_in_delta or getattr(local, "delta_depth", 0):
                counts[counter] += 1 if amount is None else amount(args, result)
            return result
        self._replace(owner, attr, wrapper)

    def install(self) -> "Tracer":
        from graphtables import (catalog, engine, executor, exprs, graphset, httpd,
                                 log, matcher, parser, storage, values)
        add = self.counts.update

        def tokens(args, result):
            add({"lexer.tokens": len(result)})

        def parsed(args, result):
            if args[0] in self.texts:
                add({"parser.repeat_texts": 1})
            self.texts.add(args[0])

        def staged(args, result):
            add({"storage.staged_rows": len(args[0].staged)})

        def nodes(args, result):
            add({"httpd.nodes": len(result["nodes"])})

        for module in (parser, httpd):
            self.timed(module, "tokenize", "lexer.tokenize", "lexer", after=tokens)
        self.timed(engine, "parse_statement", "parser.parse_statement", "parser", after=parsed)
        self.timed(engine, "parse_expression", "parser.parse_expression", "parser")

        self.timed(engine.Session, "execute", "engine.execute", "engine")
        self.timed(engine.Session, "execute_statement", "engine.execute_statement", "engine")
        self.timed(engine.Database, "__init__", "engine.open", "engine")
        self.timed(engine.Database, "_apply_record", "engine.replay", "engine")
        self.timed(engine.Database, "_rebuild_graphs", "engine.rebuild_graphs", "engine")

        self.timed(executor, "run_statement", "executor.run_statement", "executor")
        self.timed(matcher, "run_match", "matcher.run_match", "matcher")
        self.counted(matcher._Matcher, "_emit", "matcher.rows")

        for module, attr in ((matcher, "eval_expr"), (matcher, "eval_predicate"),
                             (executor, "eval_expr"), (storage, "constraint_passes")):
            self.timed(module, attr, "exprs.eval", "exprs", span=False,
                       after=lambda a, r: add({"exprs.evals": 1}))
        for module in (values, exprs):
            self.counted(module, "values_equal", "values.compares")

        for attr in ("subtype_closure", "effective_columns", "types", "lookup_label"):
            self.timed(catalog.Catalog, attr, "catalog.call", "catalog", span=False)

        view = storage.ReadView
        for attr in ("get_row", "deref_node", "resolve_endpoints"):
            self.timed(view, attr, "storage.read", "storage.read", span=False)
        # a lookup examines the index candidates plus every staged row
        self.timed(view, "lookup_by_value", "storage.read", "storage.read", span=False,
                   after=lambda a, r: add({"storage.lookups": 1, "storage.lookup_rows": len(r),
                                           "storage.examined": len(a[0].staged)}))
        self.timed(view, "edges_adjacent", "storage.read", "storage.read", span=False,
                   after=lambda a, r: add({"storage.adjacency_calls": 1,
                                           "storage.adjacent_edges": len(r)}))
        scan_type = view.scan_type

        def materialized_scan(*args, **kwargs):
            rows = list(scan_type(*args, **kwargs))
            add({"storage.scan_rows": len(rows)})
            return rows
        self._replace(view, "scan_type", materialized_scan)
        self.timed(view, "scan_type", "storage.read", "storage.read", span=False)
        self.counted(storage.Store, "index_candidates", "storage.examined",
                     amount=lambda a, r: len(r))

        self.timed(storage.Transaction, "commit", "storage.commit", "storage.validate",
                   after=staged)
        self.timed(storage.Store, "apply", "storage.apply", "storage.apply")

        self.timed(log, "encode_record", "log.encode", "log.encode")
        self.timed(engine.Database, "append_log_record", "log.append", "log.append")
        self.timed(log, "decode_rows", "log.decode", "log.decode")
        self._replace(log, "read_records", self._traced_reader(log.read_records))

        self.timed(graphset.GraphSet, "apply_delta", "graphset.delta", "graphset")
        for attr in ("add_node", "add_edge"):
            self.counted(graphset.GraphSet, attr, "graphset.add_calls", only_in_delta=True)

        self.timed(httpd._Handler, "handle", "httpd.request", "httpd")
        self.timed(httpd._Handler, "_handle", "httpd.handle", "httpd")
        self.timed(httpd, "build_document", "httpd.document", "httpd", after=nodes)
        return self

    def _traced_reader(self, read_records):
        tracer = self

        def traced(fh):
            records = read_records(fh)
            while True:
                frame = tracer.enter("log.read", "log.read", True)
                try:
                    payload = next(records, None)
                finally:
                    tracer.exit(frame)
                if payload is None:
                    return
                tracer.counts["log.records"] += 1
                yield payload
        return traced

    def remove(self) -> None:
        for owner, attr, had, original in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False
