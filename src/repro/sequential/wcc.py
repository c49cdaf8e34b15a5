"""Sequential connected components (paper Section 5.2).

Provides the batch algorithm GRAPE plugs in as ``PEval`` for CC — a linear
DFS/BFS labeling — together with a :class:`DisjointSets` union-find used by
tests and by the block-centric baseline's partition-time precomputation.

Component ids follow the paper's convention: the minimum node id in the
component (node ids must be orderable for this; all our workloads use ints).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Set

from repro.graph.graph import Graph, Node

__all__ = ["DisjointSets", "connected_components", "LocalComponents"]


class DisjointSets:
    """Union-find with path compression and union by rank."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        for x in items:
            self.add(x)

    def add(self, x: Hashable) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._rank[x] = 0

    def find(self, x: Hashable) -> Hashable:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x: Hashable, y: Hashable) -> bool:
        """Merge the sets of ``x`` and ``y``; returns False if already one."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        return True

    def same(self, x: Hashable, y: Hashable) -> bool:
        return self.find(x) == self.find(y)

    def groups(self) -> Dict[Hashable, Set[Hashable]]:
        out: Dict[Hashable, Set[Hashable]] = {}
        for x in self._parent:
            out.setdefault(self.find(x), set()).add(x)
        return out

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    def __len__(self) -> int:
        return len(self._parent)


def connected_components(graph: Graph) -> Dict[Node, Node]:
    """Map every node to its component id (minimum node id reachable).

    Edge direction is ignored, matching the paper's undirected CC
    semantics.
    """
    cid: Dict[Node, Node] = {}
    for start in graph.nodes():
        if start in cid:
            continue
        members: List[Node] = []
        dq = deque([start])
        seen = {start}
        while dq:
            v = dq.popleft()
            members.append(v)
            for w in graph.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    dq.append(w)
        root = min(members)
        for v in members:
            cid[v] = root
    return cid


class LocalComponents:
    """Fragment-local component structure with O(|AFF|) cid lowering.

    This is the paper's PEval bookkeeping for CC: each local component gets
    a "root" carrying the minimum node id; every member links directly to
    its root, so a message lowering one member's cid relabels the whole
    component by following the direct links — the bounded IncEval of
    Section 5.2.
    """

    def __init__(self, graph: Graph):
        self.cid: Dict[Node, Node] = {}
        self._root_of: Dict[Node, Node] = {}
        self._members: Dict[Node, List[Node]] = {}
        for start in graph.nodes():
            if start in self._root_of:
                continue
            members: List[Node] = []
            dq = deque([start])
            seen = {start}
            while dq:
                v = dq.popleft()
                members.append(v)
                for w in graph.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        dq.append(w)
            self._install(members)

    @classmethod
    def from_partition(cls,
                       groups: Iterable[List[Node]]) -> "LocalComponents":
        """Build the structure from precomputed component member lists.

        Used by the CSR path: :func:`repro.kernels.csr_components`
        delivers the partition into components, and only the root/member
        bookkeeping (identical to the BFS constructor's) remains.
        """
        self = cls.__new__(cls)
        self.cid = {}
        self._root_of = {}
        self._members = {}
        for members in groups:
            if members:
                self._install(members)
        return self

    def _install(self, members: List[Node]) -> None:
        """Register one freshly discovered component."""
        root = min(members)
        self._members[root] = members
        for v in members:
            self._root_of[v] = root
            self.cid[v] = root

    def lower_cid(self, v: Node, new_cid: Node) -> List[Node]:
        """Lower the cid of ``v``'s whole component to ``new_cid``.

        Returns the nodes whose cid changed (empty when ``new_cid`` does
        not improve) — cost proportional to the affected component only.
        A node the structure has never seen (it joined the fragment via
        a graph update that shipped no local edges) is registered as its
        own singleton component first.
        """
        root = self._root_of.get(v)
        if root is None:
            self.add_node(v)
            root = v
        if not new_cid < self.cid[root]:
            return []
        changed = []
        for member in self._members[root]:
            if new_cid < self.cid[member]:
                self.cid[member] = new_cid
                changed.append(member)
        return changed

    def component_members(self, v: Node) -> List[Node]:
        return list(self._members[self._root_of[v]])

    def detach(self, v: Node) -> None:
        """Remove one node from its component without condemning it.

        Used for retired mirror copies whose component is known to
        survive globally: the node leaves the fragment, the remaining
        members keep their (still valid) cids.  The blob may end up
        coarser than true local connectivity, which the maintenance
        invariant allows — members of one stored component always
        belong to one global component.
        """
        root = self._root_of.pop(v, None)
        if root is None:
            return
        self.cid.pop(v, None)
        members = self._members.pop(root)
        members.remove(v)
        if not members:
            return
        new_root = root if v != root else min(members)
        self._members[new_root] = members
        if new_root != root:
            for m in members:
                self._root_of[m] = new_root

    def drop_components(self, nodes: Iterable[Node]) -> Set[Node]:
        """Condemn the whole local component of every listed node.

        The delete-aware path cannot tell which members a deletion
        actually disconnects without re-traversing, so it condemns the
        closed component and rebuilds it (:meth:`rebuild_region`) on the
        mutated graph.  Returns the removed members.
        """
        removed: Set[Node] = set()
        for v in nodes:
            root = self._root_of.get(v)
            if root is None:
                continue
            for member in self._members.pop(root):
                del self._root_of[member]
                del self.cid[member]
                removed.add(member)
        return removed

    def rebuild_region(self, graph: Graph, nodes: Set[Node]) -> None:
        """Re-discover components inside a condemned region.

        BFS restricted to ``nodes`` on the (already mutated) graph; edges
        leaving the region are ignored — the condemned components were
        closed under local edges, so a region-crossing edge can only be a
        batch insertion, and those are folded separately via
        :meth:`add_edge`.  Nodes no longer in the graph (retired by the
        batch) simply stay dropped.
        """
        seen: Set[Node] = set()
        for start in nodes:
            if start in seen or not graph.has_node(start):
                continue
            members: List[Node] = []
            dq = deque([start])
            seen.add(start)
            while dq:
                v = dq.popleft()
                members.append(v)
                for w in graph.neighbors(v):
                    if w in nodes and w not in seen:
                        seen.add(w)
                        dq.append(w)
            self._install(members)

    def add_node(self, v: Node) -> None:
        """Register a newly inserted node as its own component."""
        if v not in self._root_of:
            self._root_of[v] = v
            self._members[v] = [v]
            self.cid[v] = v

    def add_edge(self, u: Node, v: Node) -> List[Node]:
        """Merge the components of ``u`` and ``v`` (edge insertion).

        Returns the nodes whose cid changed; cost is proportional to the
        smaller component (weighted-union style).
        """
        self.add_node(u)
        self.add_node(v)
        ru, rv = self._root_of[u], self._root_of[v]
        if ru == rv:
            return []
        if len(self._members[ru]) < len(self._members[rv]):
            ru, rv = rv, ru  # absorb the smaller component rv into ru
        new_cid = min(self.cid[ru], self.cid[rv])
        changed: List[Node] = []
        for member in self._members[rv]:
            self._root_of[member] = ru
            if new_cid < self.cid[member]:
                self.cid[member] = new_cid
                changed.append(member)
        self._members[ru].extend(self._members.pop(rv))
        if new_cid < self.cid[ru]:
            for member in self._members[ru]:
                if new_cid < self.cid[member]:
                    self.cid[member] = new_cid
                    changed.append(member)
        return changed
