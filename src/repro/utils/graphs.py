"""Graph helpers for the netlist and fanout analysis.

A graph is a plain successor mapping: ``graph[node]`` iterates the nodes
that ``node`` has an edge to.  Nodes that only appear as successors need no
entry of their own.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping

Graph = Mapping[Hashable, Iterable[Hashable]]


def bfs_distances(graph: Graph, sources: Iterable[Hashable]) -> Dict[Hashable, int]:
    """Minimum hop distance from any source to every reachable node.

    Sources themselves get distance 0.  Nodes not reachable from any source are
    absent from the returned mapping, and so are sources without an entry in
    ``graph``.
    """
    distances: Dict[Hashable, int] = {}
    frontier: List[Hashable] = []
    for node in sources:
        if node in graph and node not in distances:
            distances[node] = 0
            frontier.append(node)
    while frontier:
        next_frontier: List[Hashable] = []
        for node in frontier:
            for successor in graph.get(node, ()):
                if successor not in distances:
                    distances[successor] = distances[node] + 1
                    next_frontier.append(successor)
        frontier = next_frontier
    return distances


def find_cycle(graph: Graph) -> List[Hashable]:
    """One cycle ``[n0, n1, ..., nk]`` of ``graph``, or ``[]`` if it is acyclic.

    Every ``n(i) -> n(i+1)`` is an edge, and so is ``nk -> n0``.  The search is
    an iterative depth-first search, so deep graphs cannot overflow the
    recursion limit.
    """
    finished = set()
    for root in graph:
        if root in finished:
            continue
        # The current DFS path, and for each node on it the iterator over
        # its remaining successors.
        path = [root]
        on_path = {root: 0}
        pending = [iter(graph.get(root, ()))]
        while pending:
            for successor in pending[-1]:
                if successor in on_path:
                    return path[on_path[successor]:]
                if successor not in finished:
                    on_path[successor] = len(path)
                    path.append(successor)
                    pending.append(iter(graph.get(successor, ())))
                    break
            else:
                node = path.pop()
                del on_path[node]
                finished.add(node)
                pending.pop()
    return []
