"""A minimal directed graph over integer-indexable nodes.

Built for the abstract lock graph (Section 4.5): nodes are added once,
edges are deduplicated, and the structure supports subgraph views used
by Johnson's algorithm.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, List, Set, Tuple, TypeVar

N = TypeVar("N", bound=Hashable)


class DiGraph(Generic[N]):
    """Directed graph with hashable nodes and deduplicated edges."""

    def __init__(self) -> None:
        self._nodes: List[N] = []
        self._index: Dict[N, int] = {}
        self._succ: List[Set[int]] = []
        self._sorted: List[List[int]] = []
        self._sorted_valid = True

    def add_node(self, node: N) -> int:
        """Insert ``node`` if absent; return its dense index."""
        idx = self._index.get(node)
        if idx is None:
            idx = len(self._nodes)
            self._index[node] = idx
            self._nodes.append(node)
            self._succ.append(set())
            self._sorted_valid = False
        return idx

    def add_edge(self, src: N, dst: N) -> None:
        i = self.add_node(src)
        j = self.add_node(dst)
        if j not in self._succ[i]:
            self._succ[i].add(j)
            self._sorted_valid = False

    def has_edge(self, src: N, dst: N) -> bool:
        i = self._index.get(src)
        j = self._index.get(dst)
        return i is not None and j is not None and j in self._succ[i]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ)

    def nodes(self) -> List[N]:
        return list(self._nodes)

    def node_at(self, idx: int) -> N:
        return self._nodes[idx]

    def successors(self, node: N) -> List[N]:
        return [self._nodes[j] for j in self._succ[self._index[node]]]

    def adjacency(self) -> List[Set[int]]:
        """Successor sets by node index (shared, do not mutate)."""
        return self._succ

    def sorted_adjacency(self) -> List[List[int]]:
        """Successor lists in ascending order (shared, do not mutate).

        Interned once and invalidated on mutation: cycle enumeration
        (:mod:`repro.graph.johnson`) walks successors in sorted order
        at every search frame, and re-sorting the same sets there
        dominated deep searches.
        """
        if not self._sorted_valid:
            self._sorted = [sorted(s) for s in self._succ]
            self._sorted_valid = True
        return self._sorted

    def edges(self) -> Iterable[Tuple[N, N]]:
        for i, succ in enumerate(self._succ):
            for j in succ:
                yield (self._nodes[i], self._nodes[j])
