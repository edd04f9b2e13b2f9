"""The three benchmark workloads: seeded statement generators with the
independent models that check every answer.

Each workload object owns one random stream and one model, both derived from
the seed, so two objects built from the same seed produce the same setup
statements and the same operation sequence.  The engine only ever sees the
generated statement texts and HTTP requests.

An operation is an `Op`: `run()` performs it against the engine and returns
the raw answer; `check(answer)` compares the answer with the model, advances
the model for writes, and returns False for a wrong answer.
"""

from __future__ import annotations

import collections
import http.client
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    cls: str                         # operation class, e.g. "point_read"
    kind: str                        # "read" commits nothing, "write" commits
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class HttpReply:
    status: int
    body: bytes


def _first_column(table) -> list:
    return [row[0] for row in table.rows]


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    # timed operations after which resident size and the log prefix used for
    # `reopen_s` are sampled, so both measure the same amount of work on a
    # faster or slower engine
    checkpoint_ops = 0
    # after this many timed operations a round ends, and the next round
    # starts from a freshly built set-up database with its own operation
    # stream; 0 keeps one database for the whole timed phase
    round_ops = 0

    def setup_statements(self):
        raise NotImplementedError

    def start(self, db) -> None:
        self.db = db

    def stop(self) -> None:
        pass

    def reseed(self, round_no: int) -> None:
        """Gives round `round_no` of the timed phase its own operations."""
        self.rng = random.Random(f"{self.name}:{self.seed}:{round_no}")

    def warmup_ops(self):
        """One operation of each class, each made after the previous ran."""
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def at_boundary(self) -> bool:
        """True where the timed phase may stop."""
        return True

    def final_problems(self) -> list[str]:
        """Differences between the whole database and the model."""
        return []

    def defect_probes(self):
        """(description, Op) pairs that exercise a known defect.  They run
        once after the timed phase and their outcome is reported apart, so
        the defect stays visible while the timed operations all succeed."""
        return []


# --- oltp_mix: an embedding application's short interactive statements ---


class OltpMix(Workload):
    name = "oltp_mix"
    checkpoint_ops = 10000
    # deletes and updates leave versions behind, and fan-in reads slow as a
    # customer's dead edges pile up; rounds of a fixed length keep that
    # history the same on a faster or slower engine or host
    round_ops = 10000

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.rng = random.Random(f"oltp_mix:{seed}")
        self.customers = 20 if small else 200
        self.hot_count = 8 if small else 64
        # deletable orders placed by the set-up; creates and deletes are
        # equally likely, so the timed phase keeps meeting a database of
        # this size instead of one that grows and slows as it runs
        self.stock = 100 if small else 2000
        if small:
            self.checkpoint_ops = self.round_ops = 200
        self.next_ordno = 100001
        self.orders: dict[int, list] = {}            # ordno -> [custno, total]
        self.by_customer = collections.defaultdict(set)
        self.live: list[int] = []                    # deletable, oldest first
        self.hot: list[int] = []
        ranks = range(1, self.hot_count + 1)
        self.hot_weights = list(itertools.accumulate(1 / r ** 1.1 for r in ranks))

    def setup_statements(self):
        for base in range(0, self.customers, 50):
            nodes = ", ".join(f"(:Customer {{CustNo: {c}, Name: 'Customer {c}'}})"
                              for c in range(base, min(base + 50, self.customers)))
            yield f"CREATE {nodes}"
        yield "ALTER TABLE customer ADD PRIMARY KEY(custno)"
        for _ in range(self.hot_count):
            text, ordno, custno, total = self._create_text()
            self._add_order(ordno, custno, total)
            self.hot.append(ordno)
            yield text
        for custno in range(self.customers):
            parts = []
            for _ in range(self.stock // self.customers):
                ordno, self.next_ordno = self.next_ordno, self.next_ordno + 1
                total = self.rng.randint(1, 999)
                self._add_order(ordno, custno, total)
                self.live.append(ordno)
                parts.append(f"(c)<-[:PLACED_BY]-(:Orders {{OrdNo: {ordno}, Total: {total}}})")
            yield f"MATCH (c:Customer {{CustNo: {custno}}}) THEN CREATE {', '.join(parts)} END"

    def _create_text(self):
        custno = self.rng.randrange(self.customers)
        ordno, self.next_ordno = self.next_ordno, self.next_ordno + 1
        total = self.rng.randint(1, 999)
        return (f"MATCH (c:Customer {{CustNo: {custno}}}) THEN CREATE "
                f"(c)<-[:PLACED_BY]-(:Orders {{OrdNo: {ordno}, Total: {total}}}) END",
                ordno, custno, total)

    def _add_order(self, ordno, custno, total):
        self.orders[ordno] = [custno, total]
        self.by_customer[custno].add(ordno)

    def _op(self, cls, kind, text, check):
        return Op(cls, kind, lambda: self.db.execute(text), check)

    def _create(self) -> Op:
        text, ordno, custno, total = self._create_text()

        def check(result):
            self._add_order(ordno, custno, total)
            self.live.append(ordno)
            return result is None
        return self._op("create", "write", text, check)

    def _point_read(self) -> Op:
        back = min(len(self.live) - 1, int(self.rng.expovariate(1 / 50)))
        ordno = self.live[-1 - back]
        custno, total = self.orders[ordno]
        text = (f"MATCH (o:Orders {{OrdNo: {ordno}}})-[:PLACED_BY]->(c:Customer) "
                "RETURN o.Total, c.CustNo")
        return self._op("point_read", "read", text,
                        lambda t: t is not None and t.rows == [[total, custno]])

    def _update_hot(self) -> Op:
        ordno = self.rng.choices(self.hot, cum_weights=self.hot_weights)[0]
        text = f"MATCH (o:Orders {{OrdNo: {ordno}}}) SET o.Total = o.Total + 1"

        def check(result):
            self.orders[ordno][1] += 1
            return result is None
        return self._op("update_hot", "write", text, check)

    def _delete(self) -> Op:
        ordno = self.live[self.rng.randrange(len(self.live))]
        text = f"MATCH (o:Orders {{OrdNo: {ordno}}}) DELETE o CASCADE"

        def check(result):
            custno, _total = self.orders.pop(ordno)
            self.by_customer[custno].discard(ordno)
            self.live.remove(ordno)
            return result is None
        return self._op("delete", "write", text, check)

    def _fan_in(self) -> Op:
        custno = self.rng.randrange(self.customers)
        expected = collections.Counter(self.by_customer[custno])
        text = (f"MATCH (c:Customer {{CustNo: {custno}}})<-[:PLACED_BY]-(o:Orders) "
                "RETURN o.OrdNo")
        return self._op("fan_in", "read", text,
                        lambda t: t is not None and collections.Counter(_first_column(t)) == expected)

    def warmup_ops(self):
        for make in (self._create, self._create, self._point_read, self._update_hot,
                     self._fan_in, self._delete):
            yield make()

    def next_op(self) -> Op:
        r = self.rng.random()
        if r < 0.25 or len(self.live) < 2:
            return self._create()
        if r < 0.55:
            return self._point_read()
        if r < 0.70:
            return self._update_hot()
        if r < 0.95:
            return self._delete()
        return self._fan_in()

    def final_problems(self):
        table = self.db.execute("MATCH (o:Orders)-[:PLACED_BY]->(c:Customer) "
                                "RETURN o.OrdNo, o.Total, c.CustNo")
        seen = {row[0]: [row[2], row[1]] for row in table.rows}
        if seen != self.orders:
            return [f"orders differ from the model: {len(seen)} in the engine, "
                    f"{len(self.orders)} in the model"]
        return []


# --- path_query: an analyst's quantified paths and SHORTEST selectors ---


class PathQuery(Workload):
    name = "path_query"
    checkpoint_ops = 76                     # two decks

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.rng = random.Random(f"path_query:{seed}")
        # timed chain queries walk at most `reach` hops, which the recursive
        # matcher handles; the chain is longer than the ~950 hops where it
        # stops, and `defect_probes` walks all of it
        self.chain = 120 if small else 2000
        self.reach = 800
        self.grid = 4 if small else 7
        self.depth = 3 if small else 6            # tree levels below the root
        if small:
            self.checkpoint_ops = 20
        self.pool = self._make_pool()
        self.deck: list[Op] = []

    # setup: statements of at most about a hundred nodes

    def setup_statements(self):
        for start in range(0, self.chain, 100):
            stop = min(start + 100, self.chain)
            body = "".join(f"-[:Next]->(:Link {{N: {n}}})" for n in range(start + 1, stop))
            if start == 0:
                yield f"CREATE (:Link {{N: 0}}){body}"
            else:
                yield (f"MATCH (p:Link {{N: {start - 1}}}) THEN CREATE "
                       f"(p)-[:Next]->(:Link {{N: {start}}}){body} END")
        g = self.grid
        cells = []
        for r in range(g):
            row = "-[:Step]->".join(f"(c{r}_{c}:Cell {{Pos: '{r}_{c}'}})" for c in range(g))
            cells.append(row)
        down = [f"(c{r}_{c})-[:Step]->(c{r + 1}_{c})" for r in range(g - 1) for c in range(g)]
        yield "CREATE " + ", ".join(cells + down)
        yield from self._tree_statements()

    def _tree_statements(self):
        # EmpNo numbers nodes breadth first, so children of k are 3k+1..3k+3
        top = min(2, self.depth)

        def subtree(root, alias_root, to_depth):
            parts = []
            stack = [root]
            while stack:
                k = stack.pop()
                if self._depth_of(k) >= to_depth:
                    continue
                for child in (3 * k + 1, 3 * k + 2, 3 * k + 3):
                    parent = alias_root if k == root else f"(e{k})"
                    parts.append(f"{parent}<-[:ReportsTo]-(e{child}:Emp {{EmpNo: {child}}})")
                    stack.append(child)
            return parts

        yield "CREATE " + ", ".join(["(e0:Emp {EmpNo: 0})"] + subtree(0, "(e0)", top))
        first = (3 ** top - 1) // 2                # first EmpNo at depth `top`
        for k in range(first, 3 * first + 1):
            parts = subtree(k, "(p)", self.depth)
            if parts:
                yield f"MATCH (p:Emp {{EmpNo: {k}}}) THEN CREATE {', '.join(parts)} END"

    # the bounded pool of query texts, with the row count each must return

    def _make_pool(self) -> list[tuple[str, str, int]]:
        # every class is drawn in strata of nearly equal cost, so the seed
        # picks the nodes but hardly moves a deck's cost or its median
        rng, pool = self.rng, []
        last, reach = self.chain - 1, min(self.chain - 1, self.reach)
        # chain anchors: the k-th walks k eighths of `reach` hops, less up to
        # a tenth of an eighth, to the chain's end
        for s in range(1, 9):
            hops = s * reach // 8 - rng.randrange(max(1, reach // 80))
            pool.append(("chain_reach",
                         f"MATCH (s:Link {{N: {last - hops}}}) [()-[:Next]->()]+ (x) RETURN x.N",
                         hops))
        # grid pairs: one start on each of the first eight anti-diagonals,
        # in its middle, where the two mirror cells have equal work below
        # and right; the end anywhere below and right of the start.  The
        # first runs corner to corner, the costliest SHORTEST on the grid,
        # so the same query sets `read_p99_ms` on every seed
        g = self.grid
        for s in range(min(8, 2 * g - 2)):
            r1 = rng.choice([s // 2, s - s // 2])
            c1 = s - r1
            r2, c2 = rng.randrange(r1, g), rng.randrange(c1, g)
            if s == 0 or (r2, c2) == (r1, c1):
                r2, c2 = g - 1, g - 1
            pool.append(("shortest",
                         f"MATCH SHORTEST (a:Cell {{Pos: '{r1}_{c1}'}}) "
                         f"[()-[e:Step]->()]* (b:Cell {{Pos: '{r2}_{c2}'}}) RETURN e",
                         math.comb(r2 - r1 + c2 - c1, r2 - r1)))
        # tree nodes: a uniform node at a depth fixed by the query's place
        for i in range(6):
            d = 1 + i % self.depth
            k = self._at_depth(d)
            pool.append(("ancestors",
                         f"MATCH (x:Emp {{EmpNo: {k}}}) [()-[:ReportsTo]->()]+ (a) RETURN a.EmpNo",
                         d))
        for i in range(8):
            d = i % (self.depth + 1)
            k = self._at_depth(d)
            below = min(3, self.depth - d)
            pool.append(("descendants",
                         f"MATCH (x:Emp {{EmpNo: {k}}}) [()<-[:ReportsTo]-()]{{1,3}} (d) "
                         "RETURN d.EmpNo",
                         sum(3 ** i for i in range(1, below + 1))))
        for i in range(4):
            d = i % (self.depth - 1)
            k = self._at_depth(d)
            pool.append(("two_hop",
                         f"MATCH (x:Emp {{EmpNo: {k}}})<-[:ReportsTo]-(b)<-[:ReportsTo]-(c) "
                         "RETURN c.EmpNo",
                         9))
        for _ in range(4):
            r, c = rng.randrange(g), rng.randrange(g)
            walks = (c + 2 < g) + (r + 2 < g) + 2 * (r + 1 < g and c + 1 < g)
            pool.append(("two_hop",
                         f"MATCH (a:Cell {{Pos: '{r}_{c}'}})-[:Step]->(b)-[:Step]->(c) "
                         "RETURN c.Pos",
                         walks))
        return pool

    def _at_depth(self, d: int) -> int:
        """A uniform EmpNo at depth `d`; depth d holds (3^d-1)/2 .. (3^(d+1)-3)/2."""
        first = (3 ** d - 1) // 2
        return self.rng.randrange(first, first + 3 ** d)

    def defect_probes(self):
        hops = self.chain - 1
        yield (f"chain_reach over all {hops} hops",
               self._op("chain_reach", "MATCH (s:Link {N: 0}) [()-[:Next]->()]+ (x) RETURN x.N",
                        hops))

    def _depth_of(self, k: int) -> int:
        depth = 0
        while k > 0:
            k = (k - 1) // 3
            depth += 1
        return depth

    def _op(self, cls, text, rows) -> Op:
        return Op(cls, "read", lambda: self.db.execute(text),
                  lambda t: t is not None and len(t.rows) == rows)

    def warmup_ops(self):
        first = {}
        for cls, text, rows in self.pool:
            first.setdefault(cls, (cls, text, rows))
        return [self._op(*entry) for entry in first.values()]

    def next_op(self) -> Op:
        # the timed phase stops only between decks, so every run makes each
        # query of the pool equally often
        if not self.deck:
            order = list(self.pool)
            self.rng.shuffle(order)
            self.deck = [self._op(*entry) for entry in reversed(order)]
        return self.deck.pop()

    def at_boundary(self):
        return not self.deck


# --- component_fetch: the HTTP view over large components ---


class ComponentFetch(Workload):
    name = "component_fetch"
    checkpoint_ops = 1500

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.rng = random.Random(f"component_fetch:{seed}")
        small_sizes = [self.rng.randint(3, 8) for _ in range(12)] if small else \
            [self.rng.randint(5, 40) for _ in range(150)]
        sizes = small_sizes + ([30, 60] if small else [400, 600, 800])
        self.rng.shuffle(sizes)
        if small:
            self.checkpoint_ops = 60
        self.sizes = sizes
        self.parts = sum(sizes)
        self.adj: dict[int, set[int]] = collections.defaultdict(set)
        self.comp_of: dict[int, int] = {}           # PartNo -> component id
        self.members: dict[int, set[int]] = {}      # component id -> PartNos
        self.links: list[tuple[int, int]] = []      # edges added in the timed phase
        self.new_ids = itertools.count(-1, -1)      # ids for split-off components
        self.server = None

    def setup_statements(self):
        first = 0
        for size in self.sizes:
            parts = [f"(p{first}:Part {{PartNo: {first}}})"]
            self.members[first] = {first}
            self.comp_of[first] = first
            for n in range(first + 1, first + size):
                parent = self.rng.randrange(first, n)
                parts.append(f"(p{n}:Part {{PartNo: {n}}})-[:IS_PART_OF]->(p{parent})")
                self._connect(n, parent)
                self.members[first].add(n)
                self.comp_of[n] = first
            first += size
            yield "CREATE " + ", ".join(parts)

    def _connect(self, a, b):
        self.adj[a].add(b)
        self.adj[b].add(a)

    def start(self, db):
        from graphtables import httpd
        super().start(db)
        self.server = httpd.serve_in_thread(db, 0)
        self.port = self.server.server_address[1]

    def stop(self):
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None

    def _get(self, path: str) -> HttpReply:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return HttpReply(response.status, response.read())
        finally:
            conn.close()

    # the model: component membership, merged on link and re-derived by a
    # breadth-first search on unlink

    def _reach(self, start: int, depth: int | None) -> set[int]:
        seen, frontier, level = {start}, [start], 0
        while frontier and (depth is None or level < depth):
            level += 1
            nxt = []
            for u in frontier:
                for v in self.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def _fetch(self) -> Op:
        anchor = self.rng.randrange(self.parts)
        depth = self.rng.randint(1, 3) if self.rng.random() < 0.5 else None
        path = f"/{self.db.name}/r/Part/PARTNO={anchor}?NODE"
        if depth is not None:
            path += f"&depth={depth}"
        cls = "fetch" if depth is None else "fetch_depth"
        nodes = self.members[self.comp_of[anchor]] if depth is None else self._reach(anchor, depth)
        edges = sum(len(self.adj[u] & nodes) for u in nodes) // 2

        def check(reply):
            if reply.status != 200:
                return False
            doc = json.loads(reply.body)
            return (len(doc["nodes"]) == len(nodes) and len(doc["edges"]) == edges
                    and any(n["properties"].get("PARTNO") == anchor for n in doc["nodes"]))
        return Op(cls, "read", lambda: self._get(path), check)

    def _link(self) -> Op:
        # b lies in a small component, so two large ones never merge and the
        # sizes fetched stay near the set-up's
        while True:
            a, b = self.rng.randrange(self.parts), self.rng.randrange(self.parts)
            if self.comp_of[a] != self.comp_of[b] and len(self.members[self.comp_of[b]]) <= 40:
                break
        text = (f"MATCH (a:Part {{PartNo: {a}}}), (b:Part {{PartNo: {b}}}) "
                "THEN CREATE (a)-[:IS_PART_OF]->(b) END")

        def check(result):
            big, small = self.comp_of[a], self.comp_of[b]
            if len(self.members[big]) < len(self.members[small]):
                big, small = small, big
            for n in self.members.pop(small):
                self.comp_of[n] = big
                self.members[big].add(n)
            self._connect(a, b)
            self.links.append((a, b))
            return result is None
        return Op("link", "write", lambda: self.db.execute(text), check)

    def _unlink(self) -> Op:
        a, b = self.links[self.rng.randrange(len(self.links))]
        text = f"MATCH (a:Part {{PartNo: {a}}})-[e:IS_PART_OF]->(b:Part {{PartNo: {b}}}) DELETE e"

        def check(result):
            self.links.remove((a, b))
            self.adj[a].discard(b)
            self.adj[b].discard(a)
            old = self.comp_of[a]
            side = self._reach(a, None)
            if b not in side:
                new = next(self.new_ids)
                self.members[old] -= side
                self.members[new] = side
                for n in side:
                    self.comp_of[n] = new
            return result is None
        return Op("unlink", "write", lambda: self.db.execute(text), check)

    def warmup_ops(self):
        for make in (self._fetch, self._fetch, self._link, self._unlink):
            yield make()

    def next_op(self) -> Op:
        if self.rng.random() < 0.90:
            return self._fetch()
        # links stay few, so the component sizes hover around the setup's
        if len(self.links) < 2 or (len(self.links) < 6 and self.rng.random() < 0.5):
            return self._link()
        return self._unlink()

    def final_problems(self):
        engine = sorted(len(c.nodes) for c in self.db.graphs.components())
        model = sorted(len(m) for m in self.members.values())
        if engine != model:
            return ["component sizes differ from the model"]
        return []


WORKLOADS = {cls.name: cls for cls in (OltpMix, PathQuery, ComponentFetch)}
