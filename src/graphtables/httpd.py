"""Read-only HTTP service: one GET shape that returns the anchor node's
graph component as JSON.

    GET /{db}/{role}/{NodeType}/{COL}='{value}'?NODE[&depth=k]

The role segment is accepted and ignored.  The response lists the component's
nodes and edges (uid ascending) plus the component representative; `depth`
trims the component to a breadth-first neighborhood of the anchor.  The
component registry supplies membership only: the selector is matched and the
document read in one store snapshot, with the catalog of that snapshot, and a
`depth` walk follows the store's edge adjacency out from the anchor.

The type and column segments are names in statement syntax: one identifier,
folded to upper case unless double-quoted, so `/"Teil"/"Nr"=1` reaches a type
created as `:"Teil"`.  A segment that is not one identifier is upper-cased
whole.

Each node and edge is rendered straight to its JSON text: a type's label and
`"COLUMN": ` prefixes are encoded once per document, ints and strings are
written directly, and other values go through `json.dumps` of
`values.http_value`.  The body is the text `json.dumps(doc,
ensure_ascii=False)` gives for the document's dict form, UTF-8 encoded.

A document depends only on its members' rows and the catalog it is read with
(label, key column, column order).  So each database keeps one memo of the
texts made under one catalog, one entry per component (held weakly): its `seq`
(see `graphset`; an open gives each component it builds the open's last seq,
and the memo of a database starts empty), its texts `uid -> (row, text)` and,
at that seq, its whole document's node and edge texts, which a whole document
serves while the seq holds, reading no member (as an entity tag validates a
cached response, RFC 9110 §8.8).  A miss reuses a text only when the row its snapshot reads `is`
the text's row, and keeps only its members' texts; a `depth` document adds
texts to its anchor component's entry.  This is sound because committed rows
are never mutated (SET, a restaged edge, DROP COLUMN and a rekey each stage a
new `Row`), a commit that writes a member or moves one stamps the component
with its seq, and every schema commit publishes a new `Catalog` (replay, which
changes one catalog in place, ends before a database can serve).

The server hands each accepted connection to a handler thread that waits for
one on a queue, and starts a new daemon thread only when no thread waits, so
a client that sends one request at a time is served by one or two threads and
no connection waits behind a busy or stalled one.  A thread that finishes its connection waits for the next;
`server_close` queues one None per thread and joins only the threads that
took one, so a stalled client never holds the close (Welsh et al., "SEDA: An
Architecture for Well-Conditioned, Scalable Internet Services", SOSP 2001,
on the cost of a thread per connection).
"""

from __future__ import annotations

import json
import queue
import threading
import urllib.parse
import weakref
from http.server import BaseHTTPRequestHandler, HTTPServer
from json.encoder import encode_basestring

from . import catalog as cat
from . import values as val
from .catalog import ARRIVING, LEAVING
from .engine import Database
from .errors import GraphTablesError, LexError
from .lexer import LITERAL_TYPES, tokenize

DEFAULT_PORT = 8180

# database -> (catalog, {component: [seq, {uid: (row, text)}, whole node texts, edge texts]})
_texts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def parse_anchor_value(text: str, tokens=None):
    """The {COL}='{value}' right-hand side (or its `tokens`): a quoted
    string or a bare literal in statement syntax."""
    tokens = tokenize(text) if tokens is None else tokens
    if len(tokens) != 2:  # literal + end marker
        raise ValueError("anchor value must be a single literal")
    tok = tokens[0]
    if tok.type in LITERAL_TYPES:
        return tok.value
    raise ValueError(f"unsupported anchor value {text!r}")


def segment_name(text: str, tokens=None) -> str:
    """A type or column segment (or its `tokens` and one more): one identifier
    in statement syntax, folded unless double-quoted, else the whole upper-cased."""
    try:
        tokens = tokenize(text) if tokens is None else tokens
    except LexError:
        return text.upper()
    return tokens[0].value if len(tokens) == 2 and tokens[0].type == "ident" else text.upper()


class _AnchorGone(LookupError):
    """No node matches the selector in the snapshot its document reads."""


def _subgraph(db: Database, selector: tuple, depth: int | None):
    """The anchor's uid, the representative, the view, the anchor component's
    memo entry, and the node uids and edge rows (None when the entry holds the
    whole document), with seq, membership and view captured under the commit
    lock so a writer can tear neither; the selector is matched in that view."""
    with db.commit_lock:
        view = db.read_view()
        rows = view.lookup_by_value(*selector)
        if not rows:
            raise _AnchorGone(selector)
        anchor_uid = rows[0].uid
        component = db.graphs.component_of(anchor_uid)
        memo = _texts.get(db)
        if memo is None or memo[0] is not view.catalog:
            memo = _texts[db] = (view.catalog, weakref.WeakKeyDictionary())
        entry = memo[1].get(component)
        if entry is None or entry[0] != component.seq:
            entry = memo[1][component] = [component.seq, entry[1] if entry else {}, None, None]
        head = anchor_uid, component.representative, view, entry
        if depth is None:
            if entry[2] is not None:
                return *head, None, None
            nodes, edges = set(component.nodes), set(component.edges)
    if depth is None:
        return *head, nodes, [view.get_row(e) for e in edges]
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
    return *head, keep, list(rows.values())


def _json(value) -> str:
    """`json.dumps(val.http_value(value), ensure_ascii=False)`, direct for ints and strings."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return encode_basestring(value)
    return json.dumps(val.http_value(value), ensure_ascii=False)


def build_document(db: Database, selector: tuple, depth: int | None) -> dict:
    """The component document of the first node that `selector`, a `(type
    ids, column, value)` triple, matches in the document's snapshot; its
    lists may be the memo's, so a caller must not change them."""
    anchor_uid, representative, view, entry, nodes, edges = _subgraph(db, selector, depth)
    if nodes is None:
        return {"anchor": anchor_uid, "representative": representative,
                "nodes": entry[2], "edges": entry[3]}
    catalog, known = view.catalog, entry[1]
    texts = known if depth is not None else {}  # a whole document keeps its members' texts
    types: dict[int, tuple] = {}

    def described(type_id: int) -> tuple:
        """The encoded label, single key column (or None) and (name, `"NAME": `)
        property columns of a type, looked up once per document."""
        found = types.get(type_id)
        if found is None:
            desc = catalog.get(type_id)
            columns = [(c.name, encode_basestring(c.name) + ": ")
                       for c in catalog.effective_columns(type_id)
                       if desc.kind != cat.KIND_EDGE or c.name not in (LEAVING, ARRIVING)]
            found = types[type_id] = (encode_basestring(desc.label),
                                      catalog.key_column(type_id), columns)
        return found

    def properties(values: dict, cols: list) -> str:
        return ", ".join([prefix + _json(values[name]) for name, prefix in cols if name in values])

    node_docs = []
    for uid in sorted(nodes):
        row = view.get_row(uid)
        text = known.get(uid)
        if text is None or text[0] is not row:
            label, key, columns = described(row.type_id)
            text = (row, f'{{"uid": {uid}, "type": {label}, '
                    f'"key": {_json(row.values.get(key))}, '
                    f'"properties": {{{properties(row.values, columns)}}}}}')
        texts[uid] = text
        node_docs.append(text[1])
    edge_docs = []
    for row in sorted(edges, key=lambda r: r.uid):
        text = known.get(row.uid)
        if text is None or text[0] is not row:
            label, _key, columns = described(row.type_id)
            text = (row, f'{{"uid": {row.uid}, "type": {label}, '
                    f'"leaving": {_json(row.values.get(LEAVING))}, '
                    f'"arriving": {_json(row.values.get(ARRIVING))}, '
                    f'"properties": {{{properties(row.values, columns)}}}}}')
        texts[row.uid] = text
        edge_docs.append(text[1])
    if depth is None:  # one slice store: a racing document of this seq stores the same texts
        entry[1:] = texts, node_docs, edge_docs
    return {"anchor": anchor_uid, "representative": representative,
            "nodes": node_docs, "edges": edge_docs}


class _Handler(BaseHTTPRequestHandler):
    db: Database  # set by make_handler

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, payload: dict) -> None:
        # a 200 carries a component document, whose nodes and edges are JSON text
        text = json.dumps(payload, ensure_ascii=False) if status != 200 else (
            f'{{"anchor": {payload["anchor"]}, "representative": {payload["representative"]}, '
            f'"nodes": [{", ".join(payload["nodes"])}], "edges": [{", ".join(payload["edges"])}]}}')
        body = text.encode("utf-8")
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

        tokens = tokenize(selector)  # split at the first `=` token: "A=B"=1 is one column
        at = next((i for i, token in enumerate(tokens) if token.type == "="), None)
        if at is None:
            return 400, {"error": "anchor selector must look like COL='value'"}
        column = segment_name(selector[:tokens[at].start].strip(), tokens[:at + 1])
        value_text = selector[tokens[at].end:].strip()
        try:
            value = parse_anchor_value(value_text, tokens[at + 1:])
        except ValueError as exc:
            return 400, {"error": str(exc)}

        desc = self.db.catalog.lookup_label(segment_name(type_name), cat.KIND_NODE)
        if desc is None:
            return 404, {"error": f"unknown node type {type_name}"}
        closure = self.db.catalog.subtype_closure(desc.type_id)
        if all(self.db.catalog.effective_column(t, column) is None for t in closure):
            return 404, {"error": f"{desc.label} has no column {column}"}
        try:
            return 200, build_document(self.db, (closure, column, value), depth)
        except _AnchorGone:
            return 404, {"error": f"no {desc.label} with {column}={value_text}"}


def make_handler(db: Database):
    return type("BoundHandler", (_Handler,), {"db": db})


class _Server(HTTPServer):
    """An HTTP server that hands each accepted connection to a handler thread
    waiting on one queue, and starts a daemon thread only when none waits."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._connections = queue.SimpleQueue()  # (socket, address), or None to end a thread
        self._lock = threading.Condition()
        self._started = self._idle = 0  # handler threads started; waiting and not yet promised one
        self._ended: list[threading.Thread] = []

    def process_request(self, request, client_address):
        with self._lock:
            start = not self._idle
            if start:
                self._started += 1
            else:
                self._idle -= 1
        if start:
            threading.Thread(target=self._serve_connections, daemon=True).start()
        self._connections.put((request, client_address))

    def _serve_connections(self):
        while (connection := self._connections.get()) is not None:
            try:
                self.finish_request(*connection)
            except Exception:
                self.handle_error(*connection)
            # idle before the close, which does not block: a client that sends
            # its next request once it has read the reply then finds this
            # thread idle more often
            with self._lock:
                self._idle += 1
            self.shutdown_request(connection[0])
        with self._lock:
            self._ended.append(threading.current_thread())
            self._lock.notify_all()

    def server_close(self):
        """Close the socket and end every handler thread that waits: one None
        per thread, and a join of only those threads that took one, so a
        stalled connection never holds the close."""
        super().server_close()
        with self._lock:
            for _ in range(self._started):
                self._connections.put(None)
            # the threads counted idle now are the ones that take a None now (a
            # busy thread takes its None after its connection), and an ended
            # thread stays counted, so this waits until each of them has ended
            self._lock.wait_for(lambda: len(self._ended) >= self._idle)
            ended = list(self._ended)
        for thread in ended:
            thread.join()


def serve(db: Database, port: int = DEFAULT_PORT) -> HTTPServer:
    return _Server(("127.0.0.1", port), make_handler(db))


def serve_in_thread(db: Database, port: int = DEFAULT_PORT) -> HTTPServer:
    server = serve(db, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
