"""Immutable simple undirected graphs and the edge-list file format.

Vertices are the integers ``0..n-1``.  Edges are stored as a sorted tuple of
pairs ``(u, v)`` with ``u < v``; adjacency lists and degrees are derived and
cached on the instance, as is the degeneracy ordering.  Graphs hash and
compare by ``(n, edges)``, so they can key caches.

The edge-list text format is a bit-exact contract: first line ``n m``, then
exactly ``m`` lines ``u v``.  Self-loops and duplicate edges are rejected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .errors import GraphParseError

if TYPE_CHECKING:
    from .degeneracy import DegeneracyOrdering


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``edges`` must already be normalised (each pair increasing, whole tuple
    sorted, no duplicates); use :meth:`from_edges` to build from raw input.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) is not an increasing in-range pair")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be strictly sorted; use Graph.from_edges")
            prev = (u, v)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered edge pairs, rejecting loops and duplicates."""
        normalised = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            normalised.append((u, v) if u < v else (v, u))
        normalised.sort()
        for a, b in zip(normalised, normalised[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        return cls(n, tuple(normalised))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degree(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def max_degree(self) -> int:
        return max(self.degree, default=0)

    @cached_property
    def min_degree(self) -> int:
        return min(self.degree, default=0)

    @cached_property
    def degeneracy_ordering(self) -> DegeneracyOrdering:
        """Smallest-last degeneracy ordering, built on first use and kept."""
        from .degeneracy import smallest_last_ordering  # degeneracy imports graph

        return smallest_last_ordering(self)

    def is_regular(self) -> bool:
        return self.n == 0 or self.max_degree == self.min_degree

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def is_connected(self) -> bool:
        return len(connected_components(self)) <= 1

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced by ``vertices``, relabelled to ``0..s-1``.

        Returns the subgraph and the original label of each new vertex
        (ascending, so new vertex ``i`` is original ``labels[i]``).
        """
        labels = tuple(sorted(set(vertices)))
        index = {orig: i for i, orig in enumerate(labels)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        # a subset of sorted edges, relabelled in ascending order, stays sorted
        return Graph(len(labels), tuple(edges)), labels


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, each sorted, listed by least vertex."""
    seen = [False] * g.n
    out: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return out


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: ``n m`` header then ``m`` lines ``u v``."""
    lines = text.splitlines()
    if not lines:
        raise GraphParseError(1, "empty input, expected header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError(1, f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(1, f"expected two integers in header, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError(1, "n and m must be non-negative")

    seen: set[tuple[int, int]] = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(lineno, f"expected edge 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(lineno, f"expected two integers, got {raw!r}") from None
        if u == v:
            raise GraphParseError(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(lineno, f"vertex out of range in edge ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(lineno, f"duplicate edge ({u}, {v})")
        seen.add(key)
    if len(seen) != m:
        raise GraphParseError(lineno, f"header promised {m} edges, found {len(seen)}")
    # the checks above already reject what Graph.from_edges would
    return Graph(n, tuple(sorted(seen)))


def format_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph`; deterministic, trailing newline."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# Small named graphs used throughout the tests and docs.

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph_minus_edge(n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges.remove((n - 2, n - 1))
    return Graph.from_edges(n, edges)


def cube_graph() -> Graph:
    """The 3-dimensional hypercube; vertices are 3-bit strings."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return Graph.from_edges(8, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)
