"""Directed acyclic graph structures over variable indices.

Nodes are integers ``0..n-1``.  A structure is stored as one parent set per
node; children and a deterministic topological order are derived at
validation time and cached on the instance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dataset import ValidationError


class CycleError(ValidationError):
    """Parent sets contain a directed cycle; carries one witness cycle."""

    def __init__(self, cycle: Sequence[int]):
        self.cycle = tuple(cycle)
        path = " -> ".join(str(v) for v in self.cycle)
        super().__init__(f"directed cycle: {path}")


@dataclass(frozen=True)
class DagStructure:
    """Validated DAG: parent sets, derived child sets, topological order."""

    parents: tuple[frozenset[int], ...]
    children: tuple[frozenset[int], ...]
    topo_order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parents)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (parent, child) pairs, sorted."""
        return sorted(
            (p, c) for c, ps in enumerate(self.parents) for p in ps
        )


def _find_cycle(parents: Sequence[frozenset[int]], stuck: set[int]) -> list[int]:
    # Every stuck node has a parent in the stuck set, so walking parent
    # pointers from any stuck node must revisit a node.
    start = min(stuck)
    seen: dict[int, int] = {}
    path = [start]
    seen[start] = 0
    node = start
    while True:
        node = min(p for p in parents[node] if p in stuck)
        if node in seen:
            cycle = path[seen[node]:]
            return [node, *reversed(cycle)]
        seen[node] = len(path)
        path.append(node)


def validate_dag(parent_sets: Sequence[Iterable[int]]) -> DagStructure:
    """Build a :class:`DagStructure`, rejecting cycles with a witness.

    The topological order is deterministic: among ready nodes the smallest
    index comes first.
    """
    n = len(parent_sets)
    parents = []
    for child, ps in enumerate(parent_sets):
        pset = frozenset(int(p) for p in ps)
        for p in pset:
            if not (0 <= p < n):
                raise ValidationError(
                    f"node {child} has parent {p} outside 0..{n - 1}"
                )
        if child in pset:
            raise CycleError((child, child))
        parents.append(pset)

    children: list[set[int]] = [set() for _ in range(n)]
    for child, ps in enumerate(parents):
        for p in ps:
            children[p].add(child)

    indegree = [len(ps) for ps in parents]
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for c in children[node]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(order) < n:
        stuck = set(range(n)) - set(order)
        raise CycleError(_find_cycle(parents, stuck))

    return DagStructure(
        tuple(parents),
        tuple(frozenset(c) for c in children),
        tuple(order),
    )


def empty_structure(n: int) -> DagStructure:
    """Edgeless DAG over ``n`` nodes."""
    return validate_dag([()] * n)


def d_separated(
    structure: DagStructure, i: int, j: int, given: Iterable[int] = ()
) -> bool:
    """True when every path between ``i`` and ``j`` is blocked by ``given``.

    Uses the standard active-trail reachability sweep: states are
    (node, direction) pairs, where direction records whether the node was
    entered through a child (up) or a parent (down).
    """
    z = frozenset(int(v) for v in given)
    if i == j:
        raise ValidationError("d-separation needs two distinct endpoints")
    if i in z or j in z:
        raise ValidationError("conditioning set cannot contain an endpoint")

    # z and all its ancestors: exactly the nodes that open colliders.
    opens = set(z)
    stack = [p for v in z for p in structure.parents[v]]
    while stack:
        v = stack.pop()
        if v not in opens:
            opens.add(v)
            stack.extend(structure.parents[v])

    up, down = 0, 1
    frontier = [(i, up)]
    visited: set[tuple[int, int]] = set()
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        node, direction = state
        if node == j:
            return False
        if direction == up:
            if node in z:
                continue
            frontier.extend((p, up) for p in structure.parents[node])
            frontier.extend((c, down) for c in structure.children[node])
        else:
            if node not in z:
                frontier.extend((c, down) for c in structure.children[node])
            if node in opens:
                frontier.extend((p, up) for p in structure.parents[node])
    return True


def to_dot(structure: DagStructure, names: Sequence[str] | None = None) -> str:
    """Graphviz source for a structure; node order and edges are sorted."""
    if names is None:
        names = [f"x{i + 1}" for i in range(structure.n)]
    if len(names) != structure.n:
        raise ValidationError(
            f"{len(names)} names given for {structure.n} nodes"
        )
    lines = ["digraph structure {"]
    for name in names:
        lines.append(f'  "{name}";')
    for p, c in structure.edges():
        lines.append(f'  "{names[p]}" -> "{names[c]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
