"""Directed acyclic graph structures over variable indices.

Nodes are integers ``0..n-1``.  A structure is stored as one parent set per
node; children and a deterministic topological order are derived at
validation time and cached on the instance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import ValidationError

# Edge edit kinds, in the order the edge scan lists them; the scan's op
# codes index this tuple.
_EDIT_OPS = ("add", "delete", "reverse")


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


def _blanket(structure: DagStructure, v: int) -> set[int]:
    """The parents of ``v``, its children and its children's other parents:
    the variables whose solve key holds the policy of ``v``."""
    out = set(structure.parents[v])
    for c in structure.children[v]:
        out.add(c)
        out |= structure.parents[c]
    out.discard(v)
    return out


def _solve_inputs(structure: DagStructure, i: int) -> tuple[list[int], tuple]:
    """What a policy solve of ``i`` reads: the sorted members of its Markov
    blanket, ``i`` included, and its families as (head, parent set), the
    heads ``i`` then its children in sorted order."""
    heads = (i, *sorted(structure.children[i]))
    families = tuple((v, structure.parents[v]) for v in heads)
    return sorted(_blanket(structure, i) | {i}), families


def _edit_candidates(
    structure: DagStructure, max_parents: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every legal single-edge edit, as index arrays of op code (into
    ``_EDIT_OPS``), parent and child: additions in (parent, child) order,
    then deletions and reversals in edge order."""
    n = structure.n
    parents = structure.parents
    edge = np.zeros(n * n, dtype=bool)
    edge[[p * n + c for c, ps in enumerate(parents) for p in ps]] = True
    edge = edge.reshape(n, n)
    # reach[a, b]: a is a proper ancestor of b.  Each squaring doubles the
    # path length covered; float matmul is the fast one in numpy.
    reach = edge
    while True:
        steps = reach.astype(np.float64)
        grown = reach | (steps @ steps > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    full = np.array([len(ps) >= max_parents for ps in parents], dtype=bool)
    # Adding u -> v closes a cycle exactly when v is an ancestor of u.
    add = ~(edge | reach.T | full)
    np.fill_diagonal(add, False)
    # Reversing u -> v closes a cycle exactly when u reaches v another way,
    # that is, when u is an ancestor of another parent of v; such a path
    # cannot use u -> v itself, which would make a cycle.
    reverse = edge & ~(reach.astype(np.float64) @ edge > 0) & ~full[:, None]
    # Row-major order over [op, parent, child] is the order above.
    return np.nonzero(np.stack((add, edge, reverse)))


def dot_ids(names: Sequence[str]) -> list[str]:
    """The quoted DOT IDs of ``names``, less their quotes: each double quote
    escaped.  DOT has no escape for a final backslash, which would escape
    the closing quote, so a name ending in one raises ValidationError."""
    for name in names:
        if name.endswith("\\"):
            raise ValidationError(
                f"column name {name!r} ends in a backslash, which no DOT ID "
                "can end in; rename the column"
            )
    return [name.replace('"', '\\"') for name in names]


def to_dot(structure: DagStructure, names: Sequence[str] | None = None) -> str:
    """Graphviz source for a structure; node order and edges are sorted."""
    if names is None:
        names = [f"x{i + 1}" for i in range(structure.n)]
    if len(names) != structure.n:
        raise ValidationError(
            f"{len(names)} names given for {structure.n} nodes"
        )
    ids = dot_ids(names)
    lines = ["digraph structure {"]
    for name in ids:
        lines.append(f'  "{name}";')
    for p, c in structure.edges():
        lines.append(f'  "{ids[p]}" -> "{ids[c]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
