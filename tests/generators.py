"""Random graph and pattern generators for the matcher equivalence checks.

Graphs stay tiny on purpose (at most 8 nodes, 12 edges, 3 labels total) so
the brute-force oracle in `oracles.py` finishes instantly while still hitting
self-loops, parallel edges, diamonds and disconnected pieces.
"""

from __future__ import annotations

import random

from graphtables import Database

from oracles import EdgeSpec, Graph, NodeSpec, QuantSpec, graph_from_db

QUANTS = [(0, 1), (0, None), (1, None), (1, 2), (2, 3)]
NODE_ALIASES = ["X", "Y", "Z", "W"]
EDGE_ALIASES = ["P", "Q", "R"]


def random_graph_statement(rng: random.Random):
    """One CREATE statement plus the label vocabulary it draws from.

    Every edge label keeps a fixed (tail label, head label) pair per graph;
    an edge table's endpoint columns are typed after one node table each, so
    mixing unrelated endpoint types would be rejected.
    """
    if rng.random() < 0.6:
        node_labels, edge_labels = ["A"], ["E", "F"]
        ends = {"E": ("A", "A"), "F": ("A", "A")}
    else:
        node_labels, edge_labels = ["A", "B"], ["E"]
        ends = {"E": (rng.choice(node_labels), rng.choice(node_labels))}
    n = rng.randint(1, 8)
    m = rng.randint(0, 12)
    labels = [rng.choice(node_labels) for _ in range(n)]
    parts = [f"(n{i}:{labels[i]})" for i in range(n)]
    by_label = {lab: [i for i, l in enumerate(labels) if l == lab]
                for lab in node_labels}
    for _ in range(m):
        elabel = rng.choice(edge_labels)
        tails, heads = by_label[ends[elabel][0]], by_label[ends[elabel][1]]
        if not tails or not heads:
            continue
        a, b = rng.choice(tails), rng.choice(heads)
        parts.append(f"(n{a})-[:{elabel}]->(n{b})")
    return "CREATE " + ", ".join(parts), node_labels, edge_labels


def build_random_graph(rng: random.Random) -> tuple[Database, Graph, list, list]:
    db = Database()
    stmt, node_labels, edge_labels = random_graph_statement(rng)
    db.execute(stmt)
    return db, graph_from_db(db), node_labels, edge_labels


def random_chain(rng: random.Random, node_labels, edge_labels,
                 bounded: bool = False):
    """A chain of 1..3 node positions with edges or quantified hops between.

    With `bounded` set, only quantifiers with a finite upper bound and a
    one-edge body are drawn; callers pass it for dense graphs, where the
    number of edge-distinct walks (and with an alias in the body, the number
    of result rows) grows factorially and an unbounded repetition would swamp
    engine and oracle alike.  Otherwise a body may take two edges, so an
    iteration can end on a hop that is not its first; its bounds are finite
    for the same reason.
    """
    used_nodes: list[str] = []
    used_edges: list[str] = []

    def node_spec(allow_reuse=True) -> NodeSpec:
        alias = None
        if rng.random() < 0.6:
            if allow_reuse and used_nodes and rng.random() < 0.2:
                alias = rng.choice(used_nodes)
            else:
                fresh = [a for a in NODE_ALIASES if a not in used_nodes]
                if fresh:
                    alias = fresh[0]
                    used_nodes.append(alias)
        label = None
        if rng.random() < 0.55:
            label = rng.choice(node_labels)
        elif rng.random() < 0.06:
            label = "ZZ"  # no such type anywhere
        return NodeSpec(alias, label)

    def edge_spec() -> EdgeSpec:
        alias = None
        if rng.random() < 0.3:
            fresh = [a for a in EDGE_ALIASES if a not in used_edges]
            if fresh:
                alias = fresh[0]
                used_edges.append(alias)
        label = rng.choice(edge_labels) if rng.random() < 0.7 else None
        return EdgeSpec(rng.choice(["out", "in"]), alias, label)

    quants = [(0, 1), (1, 2)] if bounded else QUANTS
    positions = rng.randint(1, 3)
    chain: list = [node_spec()]
    for _ in range(positions - 1):
        if rng.random() < 0.45:
            lo, hi = rng.choice(quants)
            inner = (node_spec(), edge_spec(), node_spec())
            if not bounded and rng.random() < 0.35:
                inner += (edge_spec(), node_spec())
                lo, hi = rng.choice([q for q in QUANTS if q[1] is not None])
            chain.append(QuantSpec(inner, lo, hi))
        else:
            chain.append(edge_spec())
        chain.append(node_spec())
    return chain
