"""Independent reference implementations that the tests compare against.

Each one computes its answer straight from a definition, slowly, so that a
faster implementation in the package can be checked against it.  None of
them is used by the package itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse.csgraph import dijkstra

from recolour.colouring import Colouring, require_proper
from recolour.corpus import MAX_CORPUS_N, _canonical_codes, _pairs
from recolour.graph import Graph


def brute_force_degeneracy(g: Graph) -> int:
    """Max over induced subgraphs of their minimum degree.

    Exponential; guarded to small graphs.
    """
    if g.n > 16:
        raise ValueError("brute-force degeneracy is limited to n <= 16")
    best = 0
    vertices = range(g.n)
    adj_sets = [set(a) for a in g.adjacency]
    for size in range(1, g.n + 1):
        for subset in combinations(vertices, size):
            inside = set(subset)
            min_deg = min(len(adj_sets[v] & inside) for v in subset)
            best = max(best, min_deg)
    return best


def canonical_code(g: Graph) -> int:
    """Isomorphism-invariant integer; equal codes mean isomorphic graphs."""
    if g.n > MAX_CORPUS_N:
        raise ValueError(f"canonical form limited to n <= {MAX_CORPUS_N}")
    if g.n <= 1:
        return 0
    bits = np.zeros(len(_pairs(g.n)), dtype=np.uint8)
    index = {pair: e for e, pair in enumerate(_pairs(g.n))}
    for edge in g.edges:
        bits[index[edge]] = 1
    return int(_canonical_codes(bits[None, :], g.n)[0])


@dataclass(frozen=True)
class VertexState:
    """Freedom classification of one vertex; ``witness`` lists the colours
    below the scratch colour that are absent from the closed neighbourhood."""

    locked: bool
    witness: tuple[int, ...]

    @property
    def free(self) -> bool:
        return not self.locked

    @property
    def superfree(self) -> bool:
        return bool(self.witness)


def vertex_state(g: Graph, c: Colouring, v: int) -> VertexState:
    """Locked / free / superfree state of ``v`` under a proper colouring.

    Locked takes precedence: a locked vertex reports no witness even when the
    palette is larger than max_degree + 1 and spare colours exist.
    """
    require_proper(g, c)
    delta = g.max_degree
    nb = {c.colours[u] for u in g.adjacency[v]}
    if len(nb) == delta:
        return VertexState(True, ())
    closed = nb | {c.colours[v]}
    witness = tuple(
        col for col in range(1, c.k + 1) if col != delta + 1 and col not in closed
    )
    return VertexState(False, witness)


def canonical_eccentricities(space) -> dict[int, int]:
    """Colour-canonical state -> its eccentricity, from one scipy BFS per
    canonical state; the largest finite distance it reaches."""
    ecc = {}
    for source in np.unique(space.canonical_index):
        dist = dijkstra(space._csgraph, directed=False, indices=source, unweighted=True)
        ecc[int(source)] = int(dist[np.isfinite(dist)].max())
    return ecc


def multi_source_distances(space, sources) -> np.ndarray:
    """Per state: its distance to the nearest of ``sources`` (inf when none
    is reachable), from scipy's multi-source search."""
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        return np.full(space.size, np.inf)
    return dijkstra(space._csgraph, indices=sources, min_only=True, unweighted=True)


def one_vertex_components(space) -> np.ndarray:
    """Per state: the least state of its component, by min-label propagation.

    Two colourings are one move apart when they agree off some vertex v, so
    for each v the states that agree off v form a clique of moves.  Every
    state takes the least label within each of its cliques, vertex after
    vertex, until no label changes.
    """
    colours = space.matrix.astype(np.int64) - 1
    radix = space.k ** np.arange(space.graph.n - 1, -1, -1, dtype=np.int64)
    code = colours @ radix
    cliques = [
        np.unique(code - colours[:, v] * radix[v], return_inverse=True)[1]
        for v in range(space.graph.n)
    ]
    labels = np.arange(space.size)
    while True:
        before = labels.copy()
        for clique in cliques:
            least = np.full(space.size, space.size)
            np.minimum.at(least, clique, labels)
            labels = least[clique]
        if np.array_equal(labels, before):
            return labels
