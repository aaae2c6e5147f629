"""Golden hashes of orderings and walks.

The hashes were recorded from the O(n^2) min-scan ordering that preceded the
smallest-last heap.  Any change to the ordering's tie-break, or to the walks
the pipeline emits, changes a hash; such a change has to say why and re-prove
the walks valid.
"""

import hashlib
import random

import pytest

from recolour.colouring import Colouring
from recolour.corpus import corpus
from recolour.degeneracy import degeneracy_ordering
from recolour.engine import find_path_non_regular
from recolour.graph import Graph

# n -> SHA-256 of (order, back_degree) over every corpus graph on n vertices
ORDERING_HASHES = {
    1: "e80ca1704ee3a0bd1030f03befe336f8c7d13bfacd30fadbeb7a4415dedee4ed",  # 1 graphs
    2: "70f22a9ffada8adecbdc7c3772d91a4bf88afc80de09639fa493e7471672d456",  # 1 graphs
    3: "3bcfc381224801fb931d5b3d41d401462b792d58ff799527db1bb3bcbf61b847",  # 2 graphs
    4: "1ea6ce79a3b76e4d8f9df39eda6c7d6e096aa20e8442c8262b18002a00eddcd3",  # 6 graphs
    5: "8c65cc69340497a0592a71fd5392a2bd5050198d84dc6800a3dc3e941b7fff1c",  # 21 graphs
    6: "c7c7668354c4025a29a42986562c8156f66488bb00e5804d480f8f5603406722",  # 112 graphs
    7: "efded27bb54f66a9387b85b6c63e57e303c04ef1474c34ea1f02b9263bbf645d",  # 853 graphs
}

# (seed, n, max degree) -> SHA-256 of the emitted walk's steps
WALK_HASHES = {
    (1, 50, 3): "d9842ad21972563c97ca92c3c5d4eae5722064eb6554507c11a0e8c4306d7cad",  # 116 steps
    (2, 50, 6): "60c010da2b01c77a5c86a607fa548650dabcf32ca2554db22539751d075dbb6b",  # 130 steps
    (3, 100, 4): "2f97191557f018fdc2002f456f691f531100c1fc212e627d993eebecb64ab0e7",  # 241 steps
    (4, 100, 5): "ab777438b968fe50e1a11534aa47c40d2cba8f02d541c16c16a387e34eb3c4ef",  # 260 steps
    (5, 200, 3): "fc781721273a70e423ecf8379a111240a19af5cb578f3e6f90096888343d2fcc",  # 431 steps
    (6, 200, 6): "c6ede5dc728ae8d73af7a7a0dd6ac6d2fb3872a9c8a64389f2aca7681064c4c4",  # 527 steps
    (7, 400, 4): "38ca41ce32e2f22b478b4af67b789bf8d519b165183f8b7ef6b8da0b283c521a",  # 985 steps
    (8, 400, 5): "fd37e36afc9fe2232213ae5e58a48b711dd6aa71edd60907354831c5b888117c",  # 1063 steps
    (9, 75, 3): "f66e1928a975fee904813bdd4b3485ff6f15899e1c947e255936e10c9c65ff61",  # 174 steps
    (10, 150, 4): "4277d516d9c4113ef6d96459dc9b4cc9066c5e29b72ce03e21ac2cd2e645b562",  # 373 steps
    (11, 300, 5): "bc578bcfd6b1741416069b5e83f5f78400f0ae655aff56b2db0e2a6b7fcf77e1",  # 779 steps
    (12, 300, 6): "bd41cef9ab9a1c6f6bceed240bb63ab9aebdfb98de1bf1322161554d40d8ad67",  # 806 steps
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def bounded_degree_graph(rng: random.Random, n: int, delta: int) -> Graph:
    """A connected non-regular graph on ``n`` vertices with maximum degree ``delta``."""
    while True:
        deg = [0] * n
        edges = set()
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            v = order[i]
            u = rng.choice([w for w in order[:i] if deg[w] < delta])
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
        for _ in range(n * delta):
            u, v = rng.randrange(n), rng.randrange(n)
            key = (min(u, v), max(u, v))
            if u != v and key not in edges and deg[u] < delta and deg[v] < delta:
                edges.add(key)
                deg[u] += 1
                deg[v] += 1
        g = Graph.from_edges(n, edges)
        if g.max_degree == delta and not g.is_regular():
            return g


def greedy_random_colouring(g: Graph, k: int, rng: random.Random) -> Colouring:
    """A random proper colouring, assigned in index order (k > max degree)."""
    cols = [0] * g.n
    for v in range(g.n):
        blocked = {cols[u] for u in g.adjacency[v]}
        cols[v] = rng.choice([c for c in range(1, k + 1) if c not in blocked])
    return Colouring(k, tuple(cols))


@pytest.mark.parametrize("n", range(1, 8))
def test_corpus_orderings_match_golden(n):
    graphs = corpus(n, n)
    orderings = [
        (o.order, o.back_degree) for o in (degeneracy_ordering(g) for g in graphs)
    ]
    assert _digest(orderings) == ORDERING_HASHES[n]


@pytest.mark.parametrize("seed, n, delta", sorted(WALK_HASHES))
def test_pipeline_walks_match_golden(seed, n, delta):
    rng = random.Random(seed)
    g = bounded_degree_graph(rng, n, delta)
    a = greedy_random_colouring(g, delta + 1, rng)
    b = greedy_random_colouring(g, delta + 1, rng)
    seq = find_path_non_regular(g, a, b)
    assert _digest(seq.steps) == WALK_HASHES[(seed, n, delta)]
