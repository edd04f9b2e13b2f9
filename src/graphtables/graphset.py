"""Connected components over the committed graph.

Maintained incrementally from commit deltas.  Components are named by their
smallest member uid; edge removal dissolves every touched component and
rebuilds it from the surviving members, which keeps the update code short at
the cost of some rework on deletes.
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
    def __init__(self):
        self._components: dict[int, GraphComponent] = {}
        self._comp_of: dict[int, GraphComponent] = {}
        # edge uid -> (leaving uid, arriving uid) of every committed edge
        self.edge_ends: dict[int, tuple[int, int]] = {}

    def components(self) -> list[GraphComponent]:
        return [self._components[rep] for rep in sorted(self._components)]

    def component_of(self, uid: int) -> GraphComponent:
        comp = self._comp_of.get(uid)
        if comp is None:
            raise StorageError(f"uid {uid} is in no graph component")
        return comp

    def representative_of(self, uid: int) -> int:
        return self.component_of(uid).representative

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
            self.edge_ends[edge_uid] = (leaving, arriving)
            return
        if len(a.nodes) < len(b.nodes):
            a, b = b, a
        del self._components[b.representative]
        for uid in b.nodes:
            self._comp_of[uid] = a
        a.nodes |= b.nodes
        a.edges |= b.edges
        a.edges.add(edge_uid)
        self.edge_ends[edge_uid] = (leaving, arriving)
        if b.representative < a.representative:
            del self._components[a.representative]
            a.representative = b.representative
            self._components[b.representative] = a

    def apply_delta(self, added_nodes, added_edges, removed_nodes, removed_edges) -> None:
        removed_node_set = set(removed_nodes)
        removed_edge_set = set(removed_edges)
        if removed_node_set or removed_edge_set:
            touched: list[GraphComponent] = []
            seen: set[int] = set()
            for uid in list(removed_node_set) + [
                    end for e in removed_edge_set for end in self.edge_ends.get(e, ())]:
                comp = self._comp_of.get(uid)
                if comp is not None and comp.representative not in seen:
                    seen.add(comp.representative)
                    touched.append(comp)
            for comp in touched:
                del self._components[comp.representative]
                for uid in comp.nodes:
                    del self._comp_of[uid]
                for uid in comp.nodes - removed_node_set:
                    self.add_node(uid)
                for edge_uid in comp.edges - removed_edge_set:
                    leaving, arriving = self.edge_ends[edge_uid]
                    if leaving in removed_node_set or arriving in removed_node_set:
                        continue
                    self.add_edge(edge_uid, leaving, arriving)
            for edge_uid in removed_edge_set:
                self.edge_ends.pop(edge_uid, None)
        for uid in added_nodes:
            self.add_node(uid)
        for edge_uid, leaving, arriving in added_edges:
            self.add_edge(edge_uid, leaving, arriving)

    def clear(self) -> None:
        self._components.clear()
        self._comp_of.clear()
        self.edge_ends.clear()
