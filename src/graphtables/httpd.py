"""Read-only HTTP service: one GET shape that returns the anchor node's
graph component as JSON.

    GET /{db}/{role}/{NodeType}/{COL}='{value}'?NODE[&depth=k]

The role segment is accepted and ignored.  The response lists the component's
nodes and edges (uid ascending) plus the component representative; `depth`
trims the component to a breadth-first neighborhood of the anchor.  The
component registry supplies membership only: the document is read from one
store snapshot, with the catalog of that snapshot, and a `depth` walk follows
the store's edge adjacency out from the anchor.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import catalog as cat
from . import values as val
from .catalog import ARRIVING, LEAVING
from .engine import Database
from .errors import GraphTablesError
from .lexer import LITERAL_TYPES, tokenize
from .storage import ReadView

DEFAULT_PORT = 8180


def parse_anchor_value(text: str):
    """The {COL}='{value}' right-hand side: a quoted string or a bare
    literal in statement syntax."""
    tokens = tokenize(text)
    if len(tokens) != 2:  # literal + end marker
        raise ValueError("anchor value must be a single literal")
    tok = tokens[0]
    if tok.type in LITERAL_TYPES:
        return tok.value
    raise ValueError(f"unsupported anchor value {text!r}")


def _subgraph(db: Database, anchor_uid: int, depth: int | None):
    """The response's node uids, edge rows and representative, plus the
    view they are read in.  Membership and the view (store, seq and catalog)
    are captured under the commit lock, so a concurrent writer can tear
    neither the component nor the catalog it is rendered with."""
    with db.commit_lock:
        component = db.graphs.component_of(anchor_uid)
        nodes = set(component.nodes)
        edges = set(component.edges)
        representative = component.representative
        view = ReadView(db.store, db.store.commit_seq, db.catalog)
    if depth is None:
        return nodes, [view.get_row(e) for e in edges], representative, view
    # breadth-first from the anchor, expanding each kept node once; an edge
    # is kept when both its ends are
    keep, frontier, rows = {anchor_uid}, [anchor_uid], {}
    for hop in range(depth + 1):
        nxt = []
        for uid in frontier:
            for direction in ("leaving", "arriving"):
                for row, *ends in view.edges_adjacent(uid, direction):
                    for other in ends:
                        if hop < depth and other not in keep:
                            keep.add(other)
                            nxt.append(other)
                    if keep.issuperset(ends):
                        rows[row.uid] = row
        if not nxt:
            break
        frontier = nxt
    return keep, list(rows.values()), representative, view


def build_document(db: Database, anchor_uid: int, depth: int | None) -> dict:
    nodes, edges, representative, view = _subgraph(db, anchor_uid, depth)
    catalog = view.catalog
    types: dict[int, tuple] = {}

    def described(type_id: int) -> tuple:
        """The label, single key column (or None) and property column names
        of a type, looked up once per document."""
        entry = types.get(type_id)
        if entry is None:
            desc = catalog.get(type_id)
            key = catalog.effective_key(type_id)
            names = [c.name for c in catalog.effective_columns(type_id)
                     if desc.kind != cat.KIND_EDGE or c.name not in (LEAVING, ARRIVING)]
            entry = types[type_id] = (desc.label, key[0] if len(key) == 1 else None, names)
        return entry

    def properties(row) -> dict:
        return {name: val.http_value(row.values[name])
                for name in described(row.type_id)[2] if name in row.values}

    node_docs = []
    for uid in sorted(nodes):
        row = view.get_row(uid)
        label, key, _names = described(row.type_id)
        key_value = row.values.get(key) if key is not None else None
        node_docs.append({"uid": uid, "type": label,
                          "key": val.http_value(key_value), "properties": properties(row)})
    edge_docs = []
    for row in sorted(edges, key=lambda r: r.uid):
        edge_docs.append({"uid": row.uid, "type": described(row.type_id)[0],
                          "leaving": val.http_value(row.values.get(LEAVING)),
                          "arriving": val.http_value(row.values.get(ARRIVING)),
                          "properties": properties(row)})
    return {"anchor": anchor_uid, "representative": representative,
            "nodes": node_docs, "edges": edge_docs}


class _Handler(BaseHTTPRequestHandler):
    db: Database  # set by make_handler

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - stdlib naming
        try:
            status, payload = self._handle()
        except GraphTablesError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - last resort
            status, payload = 500, {"error": str(exc)}
        self._reply(status, payload)

    def _handle(self):
        parsed = urllib.parse.urlsplit(self.path)
        segments = [urllib.parse.unquote(s) for s in parsed.path.split("/")]
        if len(segments) != 5 or segments[0]:
            return 400, {"error": "expected /{db}/{role}/{type}/{column}='{value}'"}
        _, db_name, _role, type_name, selector = segments
        if db_name.lower() != self.db.name.lower():
            return 404, {"error": f"unknown database {db_name}"}

        depth = None
        saw_node = False
        for key, value in urllib.parse.parse_qsl(parsed.query, keep_blank_values=True):
            if key.upper() == "NODE" and not value:
                saw_node = True
            elif key.lower() == "depth":
                try:
                    depth = int(value)
                except ValueError:
                    return 400, {"error": f"depth must be an integer, not {value!r}"}
                if depth < 0:
                    return 400, {"error": "depth must be non-negative"}
            else:
                return 400, {"error": f"unsupported query parameter {key}"}
        if not saw_node:
            return 400, {"error": "only ?NODE queries are supported"}

        if "=" not in selector:
            return 400, {"error": "anchor selector must look like COL='value'"}
        column, _, value_text = selector.partition("=")
        column = column.strip().upper()
        try:
            value = parse_anchor_value(value_text.strip())
        except (ValueError, GraphTablesError) as exc:
            return 400, {"error": str(exc)}

        desc = self.db.catalog.lookup_label(type_name.upper(), cat.KIND_NODE)
        if desc is None:
            return 404, {"error": f"unknown node type {type_name}"}
        closure = self.db.catalog.subtype_closure(desc.type_id)
        if all(self.db.catalog.effective_column(t, column) is None for t in closure):
            return 404, {"error": f"{desc.label} has no column {column}"}
        view = self.db.read_view()
        rows = view.lookup_by_value(closure, column, value)
        if not rows:
            return 404, {"error": f"no {desc.label} with {column}={value_text}"}
        return 200, build_document(self.db, rows[0].uid, depth)


def make_handler(db: Database):
    return type("BoundHandler", (_Handler,), {"db": db})


def serve(db: Database, port: int = DEFAULT_PORT) -> ThreadingHTTPServer:
    return ThreadingHTTPServer(("127.0.0.1", port), make_handler(db))


def serve_in_thread(db: Database, port: int = DEFAULT_PORT) -> ThreadingHTTPServer:
    server = serve(db, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
