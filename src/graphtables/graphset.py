"""Connected components over the committed graph.

Maintained incrementally from commit deltas.  The registry holds membership
only: node and edge uids per component, named by its smallest member uid.
Edge endpoints live in the store (`Row.ends`); a commit passes each uid it
wrote with its row before and after.  A removal drops its uid; every piece
it cuts off holds a surviving end of a removed edge, so only a component
with two such seeds is searched, from each in turn until at most one search
can grow (Even and Shiloach 1981): a split costs about twice its smaller side.
A component's `seq` is the seq of the last commit that changed its membership
or wrote one of its rows, or of the commit it was made in.
"""

from __future__ import annotations

from .errors import StorageError
from .storage import ReadView


class GraphComponent:
    """One weakly connected component: node uids plus the edges inside it."""

    def __init__(self, representative: int, seq: int):
        self.representative = representative
        self.seq = seq
        self.nodes: set[int] = {representative}
        self.edges: set[int] = set()


class GraphSet:
    """The components of the graph whose edge rows `store` holds."""

    def __init__(self, store):
        self.store = store
        self._components: dict[int, GraphComponent] = {}
        self._comp_of: dict[int, GraphComponent] = {}

    def components(self) -> list[GraphComponent]:
        return [self._components[rep] for rep in sorted(self._components)]

    def component_of(self, uid: int) -> GraphComponent:
        comp = self._comp_of.get(uid)
        if comp is None:
            raise StorageError(f"uid {uid} is in no graph component")
        return comp

    # --- incremental maintenance ---

    def add_node(self, uid: int) -> None:
        if uid in self._comp_of:
            return
        comp = GraphComponent(uid, self.store.commit_seq)
        self._components[uid] = comp
        self._comp_of[uid] = comp

    def add_edge(self, edge_uid: int, leaving: int, arriving: int) -> None:
        for end in (leaving, arriving):
            if end not in self._comp_of:
                self.add_node(end)
        a, b = self._comp_of[leaving], self._comp_of[arriving]
        if a is b:
            a.edges.add(edge_uid)
            return
        if len(a.nodes) < len(b.nodes):
            a, b = b, a
        del self._components[b.representative]
        for uid in b.nodes:
            self._comp_of[uid] = a
        a.nodes |= b.nodes
        a.edges |= b.edges
        a.edges.add(edge_uid)
        if b.representative < a.representative:
            del self._components[a.representative]
            a.representative = b.representative
            self._components[b.representative] = a

    def apply_delta(self, changes) -> None:
        """Follow one commit, after the store has published it.  `changes`
        holds (uid, row before, row after) per written uid, None where a
        row is absent; a row with `ends` is an edge."""
        gone = {uid: before.ends for uid, before, after in changes  # deleted or moved
                if before is not None and (after is None or before.ends != after.ends)}
        touched: dict[GraphComponent, set[int]] = {}  # -> surviving ends of removed edges
        for uid, ends in gone.items():  # edges first, while their ends still name a component
            if ends is not None and (comp := self._comp_of.get(ends[0])) is not None:
                comp.edges.discard(uid)
                seeds = touched.setdefault(comp, set())
                for end in ends:
                    if end not in gone:
                        seeds.add(end)
        for uid, ends in gone.items():
            if ends is None and (comp := self._comp_of.pop(uid, None)) is not None:
                comp.nodes.discard(uid)
                touched.setdefault(comp, set())
        for comp, seeds in touched.items():
            comp.seq = self.store.commit_seq  # a piece a split cuts off is made with it
            del self._components[comp.representative]
            if len(seeds) > 1:
                self._split(comp, seeds)
            if comp.nodes:
                if comp.representative not in comp.nodes:
                    comp.representative = min(comp.nodes)
                self._components[comp.representative] = comp
        for uid, before, after in changes:  # add_edge adds the nodes it ends at
            if after is not None:
                if before is None or before.ends != after.ends:
                    self.add_edge(uid, *after.ends) if after.ends else self.add_node(uid)
                self._comp_of[after.ends[0] if after.ends else uid].seq = self.store.commit_seq

    def _split(self, comp: GraphComponent, seeds: set[int]) -> None:
        """Move each piece cut off `comp` to a component of its own.  Searches
        are (nodes, edges, frontier); a turn expands a node of each that can grow."""
        view = ReadView(self.store, self.store.commit_seq, None)
        owner = {seed: ({seed}, set(), {seed}) for seed in seeds}
        searches = growing = list(owner.values())
        while len(growing) > 1:
            for uid in [search[2].pop() for search in growing]:
                for side, direction in ((1, "leaving"), (0, "arriving")):  # side of the other end
                    for edge, *ends in view.edges_adjacent(uid, direction):
                        if edge.uid not in comp.edges:
                            continue  # added by this commit
                        mine = owner[uid]  # a node no search reached is a search of its own
                        theirs = owner.get(ends[side]) or ({ends[side]}, set(), {ends[side]})
                        if theirs is not mine:  # the smaller search joins the larger
                            if len(theirs[0]) > len(mine[0]):
                                mine, theirs = theirs, mine
                            owner.update(dict.fromkeys(theirs[0], mine))
                            for part, joined in zip(mine, theirs):
                                part |= joined
                                joined.clear()
                        mine[1].add(edge.uid)
            growing = [search for search in searches if search[2]]
        stay = max(searches, key=lambda search: (bool(search[2]), len(search[0])))
        for nodes, edges, _ in searches:
            if nodes and nodes is not stay[0]:
                part = GraphComponent(min(nodes), self.store.commit_seq)
                part.nodes, part.edges = nodes, edges
                comp.nodes -= nodes
                comp.edges -= edges
                self._comp_of.update(dict.fromkeys(nodes, part))
                self._components[part.representative] = part
