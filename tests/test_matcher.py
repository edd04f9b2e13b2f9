"""Pattern matching semantics, from single hops to quantified walks.

The family fixture pins the uids: Fred=1, Peter=2, Mary=3, Lee=4, Bill=5,
with CHILD edges 6 (2->1), 7 (1->3), 8 (3->4), 9 (3->5); parent -> child
runs along the edge direction.
"""

import math
import random
import time

import pytest

from graphtables import Database, matcher
from graphtables.matcher import _Matcher
from graphtables.storage import ReadView, Row
from graphtables.errors import CommitError, ExecutionError

from conftest import names
from generators import build_random_graph, random_chain
from oracles import canon_table, graph_from_db, oracle_rows, render_chain, table_rows


def canon(table):
    return canon_table(table)


# ---------------------------------------------------------------- basic hops

def test_single_hop_bindings(family):
    table = family.execute("MATCH (p:Person)-[:Child]->(c:Person) RETURN p.name, c.name")
    assert table.columns == ["NAME", "NAME"]
    assert {(a, b) for a, b in table.rows} == {
        ("Peter Smith", "Fred Smith"),
        ("Fred Smith", "Mary Smith"),
        ("Mary Smith", "Lee Smith"),
        ("Mary Smith", "Bill Smith"),
    }


def test_reverse_arrow_hop(family):
    table = family.execute("MATCH (c)<-[:Child]-(p) WHERE c.name = 'Mary Smith' RETURN p.name")
    assert names(table) == {"Fred Smith"}


def test_doc_literal_filters_anchor(family):
    table = family.execute("MATCH ({name:'Peter Smith'})-[:Child]->(x) RETURN x.name")
    assert names(table) == {"Fred Smith"}


def test_doc_binder_captures_value(family):
    table = family.execute("MATCH ({name:'Fred Smith'})-[:Child]->({name:x})")
    assert table.columns == ["X"]
    assert canon(table) == {("Mary Smith",)}


def test_unknown_labels_match_nothing(family):
    assert family.execute("MATCH (x:Nowhere) RETURN x.name").rows == []
    assert family.execute("MATCH (a)-[:NoSuch]->(b)").rows == []


def test_existence_result_has_no_columns(family):
    yes = family.execute("MATCH ({name:'Peter Smith'})-[:Child]->({name:'Fred Smith'})")
    assert yes.columns == [] and len(yes.rows) == 1
    no = family.execute("MATCH ({name:'Peter Smith'})-[:Child]->({name:'Lee Smith'})")
    assert no.rows == []


def test_comma_joins_items_on_shared_aliases(family):
    table = family.execute(
        "MATCH (a)-[:Child]->(b), (b)-[:Child]->(c) RETURN a.name, c.name")
    assert {(a, c) for a, c in table.rows} == {
        ("Peter Smith", "Mary Smith"),
        ("Fred Smith", "Lee Smith"),
        ("Fred Smith", "Bill Smith"),
    }


def test_statement_where_spans_items(family):
    table = family.execute(
        "MATCH (a)-[:Child]->(b) WHERE b.name = 'Bill Smith' RETURN a.name")
    assert names(table) == {"Mary Smith"}


# ------------------------------------------------------------- quantified

def test_descendants_by_plus(family):
    table = family.execute(
        "MATCH ({name:'Peter Smith'}) [()-[:Child]->()]+ (x) RETURN x.name")
    assert table.columns == ["NAME"]
    assert names(table) == {"Fred Smith", "Mary Smith", "Lee Smith", "Bill Smith"}


def test_loop_alias_accumulates_ancestor_arrays(family):
    table = family.execute(
        "MATCH ({name:'Peter Smith'}) [(p)-[:Child]->()]+ ({name:x})")
    assert table.columns == ["P", "X"]
    assert canon(table) == {
        ((2,), "Fred Smith"),
        ((2, 1), "Mary Smith"),
        ((2, 1, 3), "Lee Smith"),
        ((2, 1, 3), "Bill Smith"),
    }


def test_exact_repetition_count(family):
    table = family.execute(
        "MATCH ({name:'Peter Smith'}) [()-[:Child]->()]{2,2} (x) RETURN x.name")
    assert names(table) == {"Mary Smith"}


def test_open_lower_bound(family):
    table = family.execute(
        "MATCH ({name:'Peter Smith'}) [()-[:Child]->()]{2,} (x) RETURN x.name")
    assert names(table) == {"Mary Smith", "Lee Smith", "Bill Smith"}


def test_optional_hop(family):
    table = family.execute(
        "MATCH ({name:'Fred Smith'}) [()-[:Child]->()]? (x) RETURN x.name")
    assert names(table) == {"Fred Smith", "Mary Smith"}


def test_star_includes_the_anchor_itself(family):
    table = family.execute(
        "MATCH ({name:'Mary Smith'}) [()-[:Child]->()]* (x) RETURN x.name")
    assert names(table) == {"Mary Smith", "Lee Smith", "Bill Smith"}


# --------------------------------------------------- cyclic graph behaviour

@pytest.fixture
def triangle():
    """a->b->c->a plus a chord a->c; uids a=1 b=2 c=3, edges 4,5,6,7."""
    db = Database()
    db.execute("CREATE (a:N {k:'a'})-[:E]->(b:N {k:'b'})-[:E]->(c:N {k:'c'})"
               "-[:E]->(a), (a)-[:E]->(c)")
    return db


def test_expansion_cannot_reuse_an_edge(triangle):
    table = triangle.execute("MATCH (x {k:'a'}) [()-[:E]->()]{3,3} (y)")
    assert canon(table) == {(1, 1), (1, 2)}


def test_distinct_walks_to_one_binding_collapse(triangle):
    table = triangle.execute("MATCH ({k:'a'}) [()-[:E]->()]+ (y {k:'b'})")
    assert canon(table) == {(2,)}


def test_acyclic_rejects_node_revisits(triangle):
    table = triangle.execute("MATCH ACYCLIC (x {k:'a'}) [()-[:E]->()]{3,3} (y)")
    assert table.rows == []
    table = triangle.execute("MATCH ACYCLIC ({k:'a'}) [()-[:E]->()]+ (y)")
    assert canon(table) == {(2,), (3,)}


def test_simple_needs_a_closed_distinct_walk(triangle):
    table = triangle.execute("MATCH SIMPLE (x {k:'a'}) [()-[:E]->()]+ (y {k:'a'})")
    assert canon(table) == {(1, 1)}
    assert triangle.execute("MATCH SIMPLE (x {k:'a'}) [()-[:E]->()]+ (y {k:'b'})").rows == []


def test_shortest_keeps_global_minimum(triangle):
    table = triangle.execute("MATCH SHORTEST ({k:'a'}) [()-[:E]->()]+ (y)")
    assert canon(table) == {(2,), (3,)}


def test_any_is_deterministic(triangle):
    assert canon(triangle.execute("MATCH ANY ({k:'a'}) [()-[:E]->()]+ (y)")) == {(2,)}
    # with a zero minimum the anchor itself is the first emission
    assert canon(triangle.execute("MATCH ANY ({k:'a'}) [()-[:E]->()]* (y)")) == {(1,)}


def test_prebound_alias_filters_each_iteration(triangle):
    table = triangle.execute("MATCH (p {k:'a'}) [(p)-[:E]->(q)]+ (x)")
    assert canon(table) == {(1, (2,), 2), (1, (3,), 3)}


def test_path_alias_binds_the_whole_trace(triangle):
    table = triangle.execute("MATCH P = (x {k:'a'})-[:E]->(y)")
    assert canon(table) == {((1, 4, 2), 1, 2), ((1, 7, 3), 1, 3)}


def test_nested_quantifiers_flatten(triangle):
    nested = triangle.execute("MATCH (s {k:'a'}) [ () [()-[:E]->()]{1,1} () ]{2,2} (y)")
    flat = triangle.execute("MATCH (s {k:'a'}) [()-[:E]->()]{2,2} (y)")
    assert canon(nested) == canon(flat) == {(1, 1), (1, 3)}


def test_element_where_clause(triangle):
    table = triangle.execute("MATCH (x:N WHERE x.k <> 'a')")
    assert canon(table) == {(2,), (3,)}


# ------------------------------------------- long walks and emission order

def chain_db(hops):
    """Link nodes N = 0..hops joined by Next edges, built 20 hops per
    statement."""
    db = Database()
    db.execute("CREATE (:Link {N: 0})")
    for start in range(1, hops + 1, 20):
        stop = min(start + 20, hops + 1)
        db.execute(f"MATCH (p:Link {{N: {start - 1}}}) THEN CREATE (p)"
                   + "".join(f"-[:Next]->(:Link {{N: {i}}})" for i in range(start, stop))
                   + " END")
    return db


@pytest.mark.parametrize("hops", [2000, 10000])
def test_quantified_walk_has_no_depth_limit(hops):
    table = chain_db(hops).execute(
        "MATCH (:Link {N: 0}) [()-[:Next]->()]+ (x) RETURN x.N")
    assert table.rows == [[n] for n in range(1, hops + 1)]


def plain(v):
    if isinstance(v, Row):
        return v.uid
    if isinstance(v, list):
        return tuple(plain(x) for x in v)
    return v


def plain_table(table):
    return table.columns, [[plain(v) for v in row] for row in table.rows]


# each query's columns and rows, in emission order: the DFS order, a quantifier
# stopping before it iterates again, ANY's first binding
FAMILY_ORDER = {
    "MATCH ({name:'Peter Smith'}) [()-[:Child]->()]+ (x) RETURN x.name":
        (["NAME"], [["Fred Smith"], ["Mary Smith"], ["Lee Smith"], ["Bill Smith"]]),
    "MATCH ({name:'Peter Smith'}) [(p)-[:Child]->()]+ ({name:x})":
        (["P", "X"], [[(2,), "Fred Smith"], [(2, 1), "Mary Smith"],
                      [(2, 1, 3), "Lee Smith"], [(2, 1, 3), "Bill Smith"]]),
    "MATCH ({name:'Mary Smith'}) [()-[:Child]->()]* (x) RETURN x.name":
        (["NAME"], [["Mary Smith"], ["Lee Smith"], ["Bill Smith"]]),
    "MATCH (a:Person) [()-[:Child]->()]+ (b) RETURN a.name, b.name":
        (["NAME", "NAME"], [["Fred Smith", "Mary Smith"], ["Fred Smith", "Lee Smith"],
                            ["Fred Smith", "Bill Smith"], ["Peter Smith", "Fred Smith"],
                            ["Peter Smith", "Mary Smith"], ["Peter Smith", "Lee Smith"],
                            ["Peter Smith", "Bill Smith"], ["Mary Smith", "Lee Smith"],
                            ["Mary Smith", "Bill Smith"]]),
    "MATCH (a) [()<-[e:Child]-()]+ (b)":
        (["A", "E", "B"], [[1, (6,), 2], [3, (7,), 1], [3, (7, 6), 2], [4, (8,), 3],
                           [4, (8, 7), 1], [4, (8, 7, 6), 2], [5, (9,), 3], [5, (9, 7), 1],
                           [5, (9, 7, 6), 2]]),
    "MATCH P = (a {name:'Peter Smith'}) [()-[:Child]->()]{1,3} (b)":
        (["P", "A", "B"], [[(2, 6, 1), 2, 1], [(2, 6, 1, 7, 3), 2, 3],
                           [(2, 6, 1, 7, 3, 8, 4), 2, 4], [(2, 6, 1, 7, 3, 9, 5), 2, 5]]),
    "MATCH SHORTEST (a:Person) [()-[:Child]->()]+ (b) RETURN a.name, b.name":
        (["NAME", "NAME"], [["Fred Smith", "Mary Smith"], ["Peter Smith", "Fred Smith"],
                            ["Mary Smith", "Lee Smith"], ["Mary Smith", "Bill Smith"]]),
    "MATCH SHORTEST ({name:'Peter Smith'}) [(p)-[e:Child]->(q)]* (x)":
        (["P", "E", "Q", "X"], [[(), (), (), 2]]),
    "MATCH ANY (a:Person) [()-[:Child]->()]+ (b) RETURN a.name, b.name":
        (["NAME", "NAME"], [["Fred Smith", "Mary Smith"]]),
    "MATCH ANY ({name:'Fred Smith'}) [()-[:Child]->(c)]{2,} (x)":
        (["C", "X"], [[(3, 4), 4]]),
}

TRIANGLE_ORDER = {
    "MATCH (x) [()-[:E]->()]+ (y)":
        (["X", "Y"], [[1, 2], [1, 3], [1, 1], [2, 3], [2, 1], [2, 2], [3, 1], [3, 2], [3, 3]]),
    "MATCH TRAIL (x) [(p)-[:E]->()]+ (y)":
        (["X", "P", "Y"], [[1, (1,), 2], [1, (1, 2), 3], [1, (1, 2, 3), 1],
                           [1, (1, 2, 3, 1), 3], [1, (1,), 3], [1, (1, 3), 1],
                           [1, (1, 3, 1), 2], [1, (1, 3, 1, 2), 3], [2, (2,), 3],
                           [2, (2, 3), 1], [2, (2, 3, 1), 2], [2, (2, 3, 1), 3],
                           [3, (3,), 1], [3, (3, 1), 2], [3, (3, 1, 2), 3], [3, (3, 1), 3]]),
    "MATCH ACYCLIC (x) [()-[:E]->(q)]+ (y)":
        (["X", "Q", "Y"], [[1, (2,), 2], [1, (2, 3), 3], [1, (3,), 3], [2, (3,), 3],
                           [2, (3, 1), 1], [3, (1,), 1], [3, (1, 2), 2]]),
    "MATCH SIMPLE P = (x) [()-[:E]->()]+ (x)":
        (["P", "X"], [[(1, 4, 2, 5, 3, 6, 1), 1], [(1, 7, 3, 6, 1), 1],
                      [(2, 5, 3, 6, 1, 4, 2), 2], [(3, 6, 1, 4, 2, 5, 3), 3],
                      [(3, 6, 1, 7, 3), 3]]),
    "MATCH (s {k:'a'}) [ () [()-[:E]->()]{1,2} () ]{2,2} (y)":
        (["S", "Y"], [[1, 3], [1, 1], [1, 2]]),
    "MATCH (a)-[:E]->(b), (b) [()-[e:E]->()]{1,2} (c)":
        (["A", "B", "E", "C"], [[1, 2, (5,), 3], [1, 2, (5, 6), 1], [1, 3, (6,), 1],
                                [1, 3, (6, 4), 2], [1, 3, (6, 7), 3], [2, 3, (6,), 1],
                                [2, 3, (6, 4), 2], [2, 3, (6, 7), 3], [3, 1, (4,), 2],
                                [3, 1, (4, 5), 3], [3, 1, (7,), 3], [3, 1, (7, 6), 1]]),
    "MATCH SHORTEST (x) [(p)-[:E]->()]{2,} (y)":
        (["X", "P", "Y"], [[1, (1, 2), 3], [1, (1, 3), 1], [2, (2, 3), 1], [3, (3, 1), 2],
                           [3, (3, 1), 3]]),
    "MATCH ANY (x) [()-[:E]->()]+ (y)":
        (["X", "Y"], [[1, 2]]),
    "MATCH ANY ({k:'a'}) [()-[:E]->()]* (y)":
        (["Y"], [[1]]),
}


@pytest.mark.parametrize("text", FAMILY_ORDER)
def test_family_rows_keep_their_order(family, text):
    assert plain_table(family.execute(text)) == FAMILY_ORDER[text]


@pytest.mark.parametrize("text", TRIANGLE_ORDER)
def test_triangle_rows_keep_their_order(triangle, text):
    assert plain_table(triangle.execute(text)) == TRIANGLE_ORDER[text]


# ------------------------------------------------------------ pruned search

def with_selector(text, sel):
    """`text` with its selector replaced by `sel` (None for no selector)."""
    rest = text.split(" ")[1:]
    mode = [rest.pop(0)] if rest[0] in ("TRAIL", "ACYCLIC", "SIMPLE") else []
    if rest[0] in ("SHORTEST", "ANY"):
        rest.pop(0)
    return " ".join(["MATCH", *mode, *([sel] if sel else []), *rest])


def assert_any_is_first_row(db, text):
    columns, rows = plain_table(db.execute(with_selector(text, None)))
    assert plain_table(db.execute(with_selector(text, "ANY"))) == (columns, rows[:1]), text


def test_any_returns_the_first_row_of_the_unselected_match(family, triangle):
    for db, texts in ((family, FAMILY_ORDER), (triangle, TRIANGLE_ORDER)):
        for text in texts:
            if "), (" not in text:   # a selector takes one path pattern
                assert_any_is_first_row(db, text)
    rng = random.Random(61200)
    for _ in range(150):
        db, g, nlabels, elabels = build_random_graph(rng)
        chain = random_chain(rng, nlabels, elabels, bounded=len(g.edges) > 7)
        mode = rng.choice([None, "TRAIL", "ACYCLIC"])
        assert_any_is_first_row(db, "MATCH " + ((mode + " ") if mode else "") + render_chain(chain))


def grid_db(n, both_ways):
    """An n x n grid of Cell nodes, Pos 'r_c', with Step edges right and
    down, and left and up too when `both_ways`."""
    db = Database()
    cells = [f"(c{r}_{c}:Cell {{Pos: '{r}_{c}'}})" for r in range(n) for c in range(n)]
    steps = []
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < n and c2 < n:
                    steps.append(f"(c{r}_{c})-[:Step]->(c{r2}_{c2})")
                    if both_ways:
                        steps.append(f"(c{r2}_{c2})-[:Step]->(c{r}_{c})")
    db.execute("CREATE " + ", ".join(cells + steps))
    return db


def fewest_edge_walks(g, start, end):
    """Every walk of fewest edges from `start` to `end`, as edge uid tuples:
    a breadth-first layering, then every walk that climbs one layer a hop."""
    dist, queue = {start: 0}, [start]
    for node in queue:
        for _label, tail, head in g.edges.values():
            if tail == node and head not in dist:
                dist[head] = dist[node] + 1
                queue.append(head)
    walks = []

    def extend(node, walk):
        if node == end:
            walks.append(tuple(walk))
            return
        for euid, (_label, tail, head) in g.edges.items():
            if tail == node and dist.get(head) == dist[node] + 1 <= dist[end]:
                extend(head, walk + [euid])

    extend(start, [])
    return walks


def test_any_stops_at_its_first_binding():
    db = grid_db(3, both_ways=True)
    started = time.perf_counter()
    table = db.execute("MATCH ANY (a:Cell {Pos:'0_0'}) [()-[:Step]->()]+ (b:Cell {Pos:'2_2'}) "
                       "RETURN b.Pos")
    # enumerating every walk first took about 10 s here
    assert time.perf_counter() - started < 1.0
    assert table.rows == [["2_2"]]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mode", [None, "TRAIL"])
def test_shortest_on_a_cyclic_grid_prunes_longer_walks(n, mode):
    """SHORTEST corner to corner on a grid with edges both ways.  Enumerating
    every walk first took 9 s on 3 x 3; pruning walks longer than the best
    binding so far bounds neither the work nor the time in the worst case:
    on one 2-vCPU host 5 x 5 took 0.2 s, 6 x 6 about 2 s and 7 x 7 about
    20 s, which only a step budget on the search would cap."""
    db = grid_db(n, both_ways=True)
    g = graph_from_db(db)
    uid_of = {row[0]: plain(row[1]) for row in
              db.execute("MATCH (c:Cell) RETURN c.Pos, c").rows}
    want = {(walk,) for walk in fewest_edge_walks(g, uid_of["0_0"], uid_of[f"{n - 1}_{n - 1}"])}
    assert len(want) == math.comb(2 * n - 2, n - 1)
    started = time.perf_counter()
    table = db.execute("MATCH " + ((mode + " ") if mode else "") + "SHORTEST "
                       f"(a:Cell {{Pos:'0_0'}}) [()-[e:Step]->()]+ (b:Cell {{Pos:'{n - 1}_{n - 1}'}}) "
                       "RETURN e")
    assert time.perf_counter() - started < 1.0
    assert canon(table) == want


CORNER_SHORTEST = ("MATCH SHORTEST (a:Cell {Pos: '0_0'}) [()-[e:Step]->()]* "
                   "(b:Cell {Pos: '6_6'}) RETURN e")


def test_one_match_reads_each_adjacency_once(monkeypatch):
    db = grid_db(7, both_ways=False)
    calls = []
    adjacent = ReadView.edges_adjacent

    def counted(view, uid, direction, edge_type_ids=None):
        calls.append((uid, direction, edge_type_ids))
        return adjacent(view, uid, direction, edge_type_ids)

    monkeypatch.setattr(ReadView, "edges_adjacent", counted)
    assert len(db.execute(CORNER_SHORTEST).rows) == math.comb(12, 6)
    # reading it at every walk prefix took 3,431 calls
    assert len(calls) == len(set(calls)) <= 49


CHAIN_CREATE = ("CREATE (:N {K: 0})-[:R]->(:N {K: 1})-[:R]->(:N {K: 2})"
                "-[:R]->(:N {K: 3})")
CHAIN_REACH = "MATCH (a:N {K: 0}) [()-[:R]->()]+ (b:N) RETURN b.K"


def test_readers_of_one_commit_share_its_adjacency(monkeypatch):
    db = Database()
    db.execute(CHAIN_CREATE)
    calls = []
    adjacent = ReadView.edges_adjacent

    def counted(view, uid, direction, edge_type_ids=None):
        calls.append(uid)
        return adjacent(view, uid, direction, edge_type_ids)

    monkeypatch.setattr(ReadView, "edges_adjacent", counted)
    assert db.execute(CHAIN_REACH).rows == [[1], [2], [3]]
    first = len(calls)
    assert first == 4
    assert db.execute(CHAIN_REACH).rows == [[1], [2], [3]]
    assert len(calls) == first   # the second run reads the commit's lists
    db.execute("CREATE (:M {K: 9})")
    assert db.execute(CHAIN_REACH).rows == [[1], [2], [3]]
    assert len(calls) == 2 * first   # a commit drops them


def test_staged_edges_stay_with_their_session():
    db = Database()
    db.execute(CHAIN_CREATE)
    writer, reader = db.session(), db.session()
    for _ in range(2):
        writer.execute("BEGIN")
        writer.execute("MATCH (a:N {K: 3}) CREATE (a)-[:R]->(:N {K: 4})")
        # first round: the writer reads first; second: the reader has
        # already read the commit's lists
        assert writer.execute(CHAIN_REACH).rows == [[1], [2], [3], [4]]
        assert reader.execute(CHAIN_REACH).rows == [[1], [2], [3]]
        writer.execute("ROLLBACK")
        assert reader.execute(CHAIN_REACH).rows == [[1], [2], [3]]


def test_an_older_snapshot_keeps_its_adjacency():
    db = Database()
    db.execute(CHAIN_CREATE)
    old = db.session()
    old.execute("BEGIN")
    db.execute("MATCH (a:N {K: 3}) CREATE (a)-[:R]->(:N {K: 4})")
    # the old snapshot reads first, then the new commit, then the old again
    assert old.execute(CHAIN_REACH).rows == [[1], [2], [3]]
    assert db.execute(CHAIN_REACH).rows == [[1], [2], [3], [4]]
    assert old.execute(CHAIN_REACH).rows == [[1], [2], [3]]
    old.execute("COMMIT")
    assert old.execute(CHAIN_REACH).rows == [[1], [2], [3], [4]]


def test_a_keyed_quantifier_exit_costs_one_lookup(monkeypatch):
    db = grid_db(7, both_ways=False)
    calls = []
    lookup = ReadView.lookup_by_value

    def counted(view, type_ids, column, value):
        calls.append(value)
        return lookup(view, type_ids, column, value)

    monkeypatch.setattr(ReadView, "lookup_by_value", counted)
    assert len(db.execute(CORNER_SHORTEST).rows) == math.comb(12, 6)
    # the exit's rows, for all 3,431 exits, and the start node's candidates
    assert sorted(calls) == ["0_0", "6_6"]


def test_a_quantifier_iteration_costs_one_frame(monkeypatch):
    """Along the chain the stack holds the start frame and one frame per
    iteration begun, each offering the exit and then the next iteration's
    first hops; a frame for the hop as well doubled it."""
    hops = 1999
    depths = []
    next_item = _Matcher._next_item

    def counted(matcher, stack, i, p_added):
        depths.append(len(stack))
        return next_item(matcher, stack, i, p_added)

    monkeypatch.setattr(_Matcher, "_next_item", counted)
    table = chain_db(hops).execute("MATCH (:Link {N: 0}) [()-[:Next]->()]+ (x)")
    assert len(table.rows) == hops
    # the deepest binding: the start frame, the frame the quantifier is
    # entered with, and one frame per iteration
    assert max(depths) <= 1 + 1 + hops


def test_a_quantified_body_checks_its_first_node_once_per_iteration(monkeypatch):
    hops = 100
    evals = []
    predicate = matcher.eval_predicate

    def counted(expr, resolve, params):
        evals.append(expr)
        return predicate(expr, resolve, params)

    monkeypatch.setattr(matcher, "eval_predicate", counted)
    table = chain_db(hops).execute("MATCH (:Link {N: 0}) [(c WHERE c.N >= 0)-[:Next]->()]+ (x)")
    assert len(table.rows) == hops
    # each node 0..hops begins an iteration; the last has no hop to take
    assert len(evals) == hops + 1


# ------------------------------------------------------- dependent effects

def test_dependent_set_updates_every_binding(family):
    family.execute("MATCH (p)-[:Child]->() SET p.parent = true")
    table = family.execute("MATCH (x:Person) WHERE x.parent = true RETURN x.name")
    assert names(table) == {"Peter Smith", "Fred Smith", "Mary Smith"}


def test_set_null_removes_the_property(family):
    family.execute("MATCH (x {name:'Lee Smith'}) SET x.name = NULL")
    table = family.execute("MATCH ({name:x})")
    assert canon(table) == {("Fred Smith",), ("Peter Smith",),
                            ("Mary Smith",), ("Bill Smith",)}


def test_dependent_delete_is_restricted_by_references(family):
    with pytest.raises(CommitError) as err:
        family.execute("MATCH (x {name:'Mary Smith'}) DELETE x")
    assert err.value.rule == "reference"
    family.execute("MATCH (x {name:'Mary Smith'}) DELETE x CASCADE")
    table = family.execute("MATCH ({name:'Peter Smith'}) [()-[:Child]->()]+ (x) RETURN x.name")
    assert names(table) == {"Fred Smith"}


def test_then_block_runs_per_binding(family):
    family.execute(
        "MATCH (p)-[:Child]->(c) WHERE p.name = 'Mary Smith' "
        "THEN CREATE (c)-[:Likes]->(:Hobby {title:'chess'}) END")
    table = family.execute("MATCH (x)-[:Likes]->(h) RETURN x.name")
    assert names(table) == {"Lee Smith", "Bill Smith"}
    # one hobby node per binding row
    assert len(family.execute("MATCH (h:Hobby)").rows) == 2


def test_return_projects_expressions(family):
    table = family.execute("MATCH (x {name:'Peter Smith'}) RETURN x.name, 2 + 3")
    assert table.columns[0] == "NAME"
    assert table.rows == [["Peter Smith", 5]]


# ------------------------------------------------------- oracle equivalence

def test_matches_brute_force_oracle_on_random_graphs():
    """Rows, and their order, equal the oracle's in every mode: with no
    selector, under SHORTEST and under ANY."""
    rng = random.Random(20230322)
    for _ in range(120):
        db, g, nlabels, elabels = build_random_graph(rng)
        for _ in range(2):
            chain = random_chain(rng, nlabels, elabels, bounded=len(g.edges) > 7)
            for rep_mode in (None, "TRAIL", "ACYCLIC", "SIMPLE"):
                cols, want_all, want_shortest = oracle_rows(g, chain, rep_mode)
                for selector, want in (("", want_all), ("SHORTEST ", want_shortest),
                                       ("ANY ", want_all[:1])):
                    text = "MATCH " + (rep_mode + " " if rep_mode else "") + selector + \
                        render_chain(chain)
                    table = db.execute(text)
                    assert table_rows(table) == want, text
                    if want:
                        assert table.columns == cols, text


# ---------------------------------------------------------------- label chains

def _types_with_labels(catalog, labels, kind="node") -> set[int]:
    """The oracle for a label chain: the type ids whose subtype closures
    hold every one of `labels`, an unknown label holding none."""
    tids = None
    for label in labels:
        desc = catalog.lookup_label(label, kind)
        closure = set(catalog.subtype_closure(desc.type_id)) if desc else set()
        tids = closure if tids is None else tids & closure
    return tids


def test_a_label_chain_matches_the_types_that_carry_every_label():
    db = Database()
    for text in ("create type A as (N int) nodetype",
                 "create type B under A as (M int)",
                 "create type C under A as (M int)",
                 "create type R as (W int) edgetype (leaving A, arriving A)",
                 "create type S as (W int) edgetype (leaving A, arriving A)"):
        db.execute(text)
    # a B row with a lower uid commits after an A row with a higher uid
    early, late = db.session(), db.session()
    early.execute("BEGIN")
    early.execute("CREATE (:B {N: 1})")
    late.execute("CREATE (:A {N: 2})")
    early.execute("COMMIT")
    db.execute("CREATE (:C {N: 4}), (:B {N: 3}), (:A {N: 5})")
    for a, b in ((2, 1), (2, 4), (5, 3), (3, 4)):
        db.execute(f"MATCH (a:A {{N: {a}}}), (b:A {{N: {b}}}) CREATE (a)-[:R {{W: 1}}]->(b)")
        db.execute(f"MATCH (a:A {{N: {a}}}), (b:A {{N: {b}}}) CREATE (b)-[:S {{W: 1}}]->(a)")
    catalog, view = db.catalog, db.read_view()
    tid = {label: catalog.lookup_label(label).type_id for label in "ABCR"}
    rows = [r for r in map(view.get_row, range(1, db.peek_uid())) if r is not None]
    b_first = [r.uid for r in rows if r.type_id in (tid["A"], tid["B"])][:2]
    assert [view.get_row(uid).type_id for uid in b_first] == [tid["B"], tid["A"]]
    assert db.store.version_at(b_first[0], view.snapshot).begin > \
        db.store.version_at(b_first[1], view.snapshot).begin

    assert _types_with_labels(catalog, ("A",)) == {tid["A"], tid["B"], tid["C"]}
    assert _types_with_labels(catalog, ("A", "B")) == _types_with_labels(catalog, ("B", "A")) \
        == set(catalog.subtype_closure(tid["B"]))
    assert _types_with_labels(catalog, ("B", "C")) == _types_with_labels(catalog, ("Z",)) == set()
    for labels in (("A",), ("B",), ("C",), ("A", "B"), ("B", "A"), ("A", "B", "A"),
                   ("B", "C"), ("Z",), ("A", "Z")):
        chain = ":".join(labels)
        tids = _types_with_labels(catalog, labels)
        uids = [r.uid for r in rows if r.type_id in tids]
        got = db.execute(f"MATCH (x:{chain}) RETURN x").rows
        assert [x.uid for x, in got] == uids, chain
        for n in range(1, 6):
            got = db.execute(f"MATCH (x:{chain} {{N: {n}}}) RETURN x").rows
            assert [x.uid for x, in got] == [u for u in uids if view.get_row(u).get("N") == n]
        got = db.execute(f"MATCH (a)-[:R]->(x:{chain}) RETURN x").rows
        assert sorted(x.uid for x, in got) == sorted(
            r.ends[1] for r in rows if r.type_id == tid["R"]
            and view.get_row(r.ends[1]).type_id in tids), chain
    assert len(db.execute("MATCH (a)-[e:R]->(b) RETURN e").rows) == 4
    assert db.execute("MATCH (a)-[e:R:S]->(b) RETURN e").rows == []
    with pytest.raises(ExecutionError, match="not on one subtype path"):
        db.execute("CREATE (:B:C {N: 9})")


@pytest.mark.parametrize("text", [
    "MATCH (a:P) RETURN a.N.M",           # a plan that reads columns of bound rows
    "MATCH (a:P) RETURN a.N.M + 0",       # an expression, read through the resolver
    "MATCH (a:P) WHERE a.N.M = 1 RETURN a.N",
])
def test_a_path_past_a_column_is_refused_not_cut_to_the_column(text):
    db = Database()
    db.execute("CREATE (:P {N: 1})")
    with pytest.raises(ExecutionError, match="A.N has no fields"):
        db.execute(text)


def test_a_path_alias_is_unbound_when_a_later_item_finds_nothing_for_it():
    """The first E path's B has no F edge, so the second item finds nothing
    and leaves; the alias P it bound must go with it, or the next E path
    would find P taken and bind nothing."""
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:E]->(:P {N: 2}), "
               "(:P {N: 3})-[:E]->(:P {N: 4})-[:F]->(:Q {N: 5})")
    table = db.execute("MATCH p = (a:P)-[:E]->(b:P), (b)-[:F]->(c) RETURN a.N, c.N, p")
    assert [row[:2] for row in table.rows] == [[3, 5]]
    assert [r.values["N"] for r in table.rows[0][2][::2]] == [3, 4]
