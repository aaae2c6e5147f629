"""Corpus of non-isomorphic connected graphs, canonical forms and a sampler.

Canonical form: the minimum, over all vertex permutations, of the edge
bitmask read in lexicographic pair order (adjacency-matrix minimisation).
Generation is incremental: every connected graph on n vertices is a
connected graph on n-1 vertices (remove a non-cut vertex, which always
exists) plus one new vertex with a non-empty attachment, so augmenting every
canonical (n-1)-vertex graph with every attachment and re-canonicalising
covers the lot.  Connected counts for n = 1..7: 1, 1, 2, 6, 21, 112, 853.
:func:`corpus` is the one entry point and the one range check; a single
order n is ``corpus(n, n)``.

Also here: a seeded sampler for proper colourings, used by the envelope
report and the tests.  Colouring along a degeneracy ordering always leaves
a spare colour once the palette exceeds the degeneracy, so sampling never
backtracks.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .colouring import Colouring
from .degeneracy import degeneracy_ordering
from .graph import Graph

MAX_CORPUS_N = 8


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _perm_gather(n: int) -> np.ndarray:
    """(n!, n*(n-1)/2) matrix: source pair index feeding each pair position
    after relabelling by the permutation."""
    pairs = _pairs(n)
    index = {pair: e for e, pair in enumerate(pairs)}
    rows = []
    for perm in permutations(range(n)):
        inverse = [0] * n
        for old, new in enumerate(perm):
            inverse[new] = old
        rows.append(
            [index[tuple(sorted((inverse[a], inverse[b])))] for a, b in pairs]
        )
    return np.array(rows, dtype=np.int32)


@lru_cache(maxsize=None)
def _perm_weights(n: int) -> np.ndarray:
    """(n!, n*(n-1)/2) float64 matrix W with W[p] @ bits = code of the graph
    relabelled by permutation p.  Exact: codes are sums of distinct powers
    of two below 2**28."""
    gather = _perm_gather(n)
    n_edges = gather.shape[1]
    weights = (2.0 ** np.arange(n_edges))[::-1]
    w = np.zeros(gather.shape, dtype=np.float64)
    np.put_along_axis(w, gather, np.broadcast_to(weights, gather.shape), axis=1)
    return w


def _canonical_codes(bits: np.ndarray, n: int) -> np.ndarray:
    """Canonical code of each row of ``bits`` (min over all relabellings)."""
    w = _perm_weights(n)
    out = np.empty(bits.shape[0], dtype=np.int64)
    chunk = max(1, 200_000_000 // max(1, 8 * w.shape[0]))
    block_bits = bits.astype(np.float64)
    for start in range(0, bits.shape[0], chunk):
        codes = block_bits[start : start + chunk] @ w.T  # (rows, perms)
        out[start : start + chunk] = codes.min(axis=1).astype(np.int64)
    return out


def _graph_from_code(code: int, n: int) -> Graph:
    pairs = _pairs(n)
    n_edges = len(pairs)
    edges = [
        pairs[e] for e in range(n_edges) if code & (1 << (n_edges - 1 - e))
    ]
    return Graph.from_edges(n, edges)


@lru_cache(maxsize=None)
def _generate_connected(n: int) -> list[Graph]:
    if n == 1:
        return [Graph(1, ())]
    parents = _generate_connected(n - 1)
    index = {pair: e for e, pair in enumerate(_pairs(n))}
    n_edges = len(_pairs(n))
    rows = []
    for parent in parents:
        base = np.zeros(n_edges, dtype=np.uint8)
        for edge in parent.edges:
            base[index[edge]] = 1
        for attach in range(1, 2 ** (n - 1)):
            row = base.copy()
            for v in range(n - 1):
                if attach >> v & 1:
                    row[index[(v, n - 1)]] = 1
            rows.append(row)
    codes = np.unique(_canonical_codes(np.array(rows), n))
    return [_graph_from_code(int(code), n) for code in codes]


def corpus(min_n: int = 4, max_n: int = 7) -> list[Graph]:
    """Connected corpus for min_n <= n <= max_n."""
    if not 1 <= min_n <= max_n <= MAX_CORPUS_N:
        raise ValueError(f"need 1 <= min_n <= max_n <= {MAX_CORPUS_N}")
    return [g for n in range(min_n, max_n + 1) for g in _generate_connected(n)]


def random_proper_colouring(g: Graph, k: int, rng: random.Random) -> Colouring:
    """A random proper k-colouring, assigned along a degeneracy ordering.

    Needs k above the degeneracy of ``g``; every vertex then has a spare
    colour when its turn comes, so no backtracking ever happens.
    """
    ordering = degeneracy_ordering(g)
    if k <= ordering.degeneracy:
        raise ValueError(f"palette {k} too small for degeneracy {ordering.degeneracy}")
    cols = [0] * g.n
    for v in ordering.order:
        blocked = {cols[u] for u in g.adjacency[v] if cols[u]}
        choices = [c for c in range(1, k + 1) if c not in blocked]
        cols[v] = rng.choice(choices)
    return Colouring(k, tuple(cols))

