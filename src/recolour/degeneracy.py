"""Degeneracy orderings and partitions into parts of prescribed degeneracy.

A graph is d-degenerate when every induced subgraph has a vertex of degree at
most d; the degeneracy is the least such d.  It is witnessed by an ordering
v_1..v_n in which every vertex has at most d neighbours earlier in the order.
The ordering here is the smallest-last one (Matula & Beck, JACM 1983):
repeatedly take a minimum-degree vertex (lowest index on ties) as the *last*
remaining position.  A heap of (current degree, vertex) entries with lazy
deletion makes that O(m log n), and the ordering is built once per ``Graph``
instance and kept on it, so every layer that asks for it shares one copy.

Two facts drive the recolouring algorithms built on top of this module:

* a connected non-regular graph with maximum degree D is (D-1)-degenerate;
* a k-degenerate graph splits into parts V_1..V_r with G[V_t] p_t-degenerate
  for any non-negative budgets with sum(p_t) = k - r + 1, by inserting each
  vertex of the ordering into the first part where it has at most p_t
  already-placed neighbours (a pigeonhole argument shows one always exists).

A partition is checked by its certificate: along the insertion order, each
vertex has at most its part's budget of earlier neighbours in its own part.
That check is O(n + m) and proves every part's degeneracy bound directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush

from .errors import (
    BudgetSumMismatchError,
    InvalidPartitionError,
    NotKDegenerateError,
)
from .graph import Graph


@dataclass(frozen=True)
class DegeneracyOrdering:
    """Vertex permutation plus, per position, the count of earlier neighbours.

    ``latest_neighbour`` gives, per vertex, its neighbour latest in ``order``
    (None for an isolated vertex): the hop of a top-colour elimination walk.
    """

    order: tuple[int, ...]
    back_degree: tuple[int, ...]
    latest_neighbour: tuple[int | None, ...] = field(default=(), compare=False)

    @property
    def degeneracy(self) -> int:
        return max(self.back_degree, default=0)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """Position of each vertex in ``order``, indexed by vertex."""
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)


def smallest_last_ordering(g: Graph) -> DegeneracyOrdering:
    """Minimum-degree-removal ordering; ties broken by lowest vertex index.

    Every alive vertex v has exactly one heap entry equal to (deg[v], v), a
    removed vertex has none, and every other entry carries an older, larger
    degree and is skipped when popped.  So the first current entry popped is
    the alive vertex with the least (degree, index).  When v is removed, its
    alive neighbours are exactly those placed before it, so deg[v] is its
    back-degree.  Vertices leave in decreasing position, so the first
    neighbour of w to leave is w's latest neighbour.
    """
    deg = list(g.degree)
    heap = [(d, v) for v, d in enumerate(deg)]
    heapify(heap)
    removed = [False] * g.n
    order = [0] * g.n
    back = [0] * g.n
    latest: list[int | None] = [None] * g.n
    for i in range(g.n - 1, -1, -1):
        d, v = heappop(heap)
        while d != deg[v]:
            d, v = heappop(heap)
        order[i] = v
        back[i] = d
        removed[v] = True
        for w in g.adjacency[v]:
            if latest[w] is None:
                latest[w] = v
            if not removed[w]:
                deg[w] -= 1
                heappush(heap, (deg[w], w))
    return DegeneracyOrdering(tuple(order), tuple(back), tuple(latest))


def degeneracy_ordering(g: Graph) -> DegeneracyOrdering:
    """The smallest-last ordering of ``g``, built once per ``Graph`` instance."""
    return g.degeneracy_ordering


@dataclass(frozen=True)
class DegeneratePartition:
    """Partition of the vertices with per-part degeneracy budgets."""

    parts: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]


def _validate_parts(g: Graph, parts, budgets, order) -> None:
    """Check a partition by its certificate in O(n + m).

    ``parts`` must partition the vertices, and along ``order`` (a vertex
    permutation) every vertex must have at most its part's budget of earlier
    neighbours in its own part.  Such an order proves that each part's
    induced subgraph has degeneracy at most its budget.
    """
    part_of = [-1] * g.n
    for q, part in enumerate(parts):
        for v in part:
            if not 0 <= v < g.n or part_of[v] != -1:
                raise InvalidPartitionError("parts must partition the vertex set")
            part_of[v] = q
    if -1 in part_of:
        raise InvalidPartitionError("parts must partition the vertex set")
    if len(order) != g.n or set(order) != set(range(g.n)):
        raise InvalidPartitionError("certificate order must be a vertex permutation")
    placed = [False] * g.n
    for v in order:
        q = part_of[v]
        count = sum(1 for u in g.adjacency[v] if placed[u] and part_of[u] == q)
        if count > budgets[q]:
            raise InvalidPartitionError(
                f"vertex {v} has {count} earlier neighbours in part {q + 1}, "
                f"over its budget {budgets[q]}"
            )
        placed[v] = True


def degenerate_partition(g: Graph, k: int, budgets: tuple[int, ...]) -> DegeneratePartition:
    """Split a k-degenerate graph into parts of degeneracy at most p_1..p_r.

    Requires sum(budgets) == k - r + 1 and verifies the degeneracy bound
    instead of trusting the caller.
    """
    budgets = tuple(budgets)
    r = len(budgets)
    if r < 1:
        raise ValueError("need at least one part")
    if any(p < 0 for p in budgets):
        raise ValueError("budgets must be non-negative")
    if sum(budgets) != k - r + 1:
        raise BudgetSumMismatchError(
            f"budgets sum to {sum(budgets)}, need k - r + 1 = {k - r + 1}"
        )
    ordering = degeneracy_ordering(g)
    if ordering.degeneracy > k:
        raise NotKDegenerateError(f"graph has degeneracy {ordering.degeneracy} > {k}")

    placed_neighbours = [[0] * g.n for _ in range(r)]  # per part, per vertex
    parts: list[list[int]] = [[] for _ in range(r)]
    for v in ordering.order:
        for q in range(r):
            if placed_neighbours[q][v] <= budgets[q]:
                break
        else:
            raise AssertionError(
                "no admissible part; contradicts the back-degree bound"
            )
        parts[q].append(v)
        for u in g.adjacency[v]:
            placed_neighbours[q][u] += 1

    result = tuple(tuple(sorted(p)) for p in parts)
    _validate_parts(g, result, budgets, ordering.order)
    return DegeneratePartition(result, budgets)

