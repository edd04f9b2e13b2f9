"""Connected components over the committed graph.

Maintained incrementally from commit deltas.  The registry holds membership
only: node and edge uids per component, named by its smallest member uid.
Edge endpoints live in the store (`Row.ends`); a commit passes each uid it
wrote with its row before and after, and the registry tells nodes from edges
and added from removed itself.  Edge removal dissolves every touched
component and rebuilds it from the surviving members, reading each surviving
edge's ends from the store's latest version.  That keeps the update code
short at the cost of some rework on deletes.
"""

from __future__ import annotations

from .errors import StorageError


class GraphComponent:
    """One weakly connected component: node uids plus the edges inside it."""

    def __init__(self, representative: int):
        self.representative = representative
        self.nodes: set[int] = {representative}
        self.edges: set[int] = set()

    def __repr__(self):
        return f"GraphComponent({self.representative}, {len(self.nodes)} nodes)"


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
        comp = GraphComponent(uid)
        self._components[uid] = comp
        self._comp_of[uid] = comp

    def add_edge(self, edge_uid: int, leaving: int, arriving: int) -> None:
        self.add_node(leaving)
        self.add_node(arriving)
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
        moved = [(uid, before, after) for uid, before, after in changes
                 if before is None or after is None or before.ends != after.ends]
        gone = {uid: before.ends for uid, before, _ in moved if before is not None}
        if gone:
            touched: dict[int, GraphComponent] = {}
            for uid, ends in gone.items():
                # an edge lies in the component of either of its ends
                comp = self._comp_of.get(uid if ends is None else ends[0])
                if comp is not None:
                    touched[comp.representative] = comp
            latest = self.store.latest
            for comp in touched.values():
                del self._components[comp.representative]
                for uid in comp.nodes:
                    del self._comp_of[uid]
                for uid in comp.nodes - gone.keys():
                    self.add_node(uid)
                for edge_uid in comp.edges - gone.keys():
                    self.add_edge(edge_uid, *latest(edge_uid).ends)
        for uid, _, after in moved:
            if after is not None and after.ends is None:
                self.add_node(uid)
        for uid, _, after in moved:
            if after is not None and after.ends is not None:
                self.add_edge(uid, *after.ends)
