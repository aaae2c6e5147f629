"""Golden hashes of orderings and walks.

The ordering and pipeline hashes were recorded from the O(n^2) min-scan
ordering that preceded the smallest-last heap.  Any change to the ordering's
tie-break, or to the walks the pipeline emits, changes a hash; such a change
has to say why and re-prove the walks valid.

The elimination hashes pin top-colour elimination on its own: the steps and
final colouring of ``eliminate_top_colour`` and the first round that
``elimination_plan`` reports, from seeded colourings of every small corpus
graph.

The oracle hashes pin the exhaustive route: the decisions, the shortest walks
that ``oracle_path`` reads off scipy's predecessors (which of several shortest
walks it prints rests on scipy's tie-breaks), and the explore summaries.
"""

import hashlib
import random

import pytest

from recolour.classifier import decide_k_colour_path
from recolour.colouring import Colouring
from recolour.corpus import corpus, random_proper_colouring
from recolour.degeneracy import degeneracy, degeneracy_ordering
from recolour.engine import eliminate_top_colour, elimination_plan, find_path_non_regular
from recolour.explorer import ReconfigSpace, oracle_path
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

# n -> SHA-256 of (steps, final colours, plan) for seeded colourings of every
# corpus graph on n vertices at palette D+2, and at D+1 when the degeneracy
# is at most D-1
ELIMINATION_HASHES = {
    1: "422c10081941fbeb8a64734a5029afb253467439958b0e3f5317307cc85a00d3",  # 4 starts, 3 steps
    2: "2c147febc266d67055751b4283834bad8e64c67c04c9746fdf8b718a0e63b6d4",  # 4 starts, 2 steps
    3: "cbb84ddeab15d49106862746300e4965230a3b0dc4a0d50ddd440db28bf4c841",  # 12 starts, 12 steps
    4: "93a0bbcb8dcdba192da9379dcf66e8cfdbc37008b7bf3cf17b8b8eef14d3c4a9",  # 40 starts, 42 steps
    5: "35d9b0ae0db317e4496da24fba118408321f0c948b1366cb6e9cbbeb0f4bfaf2",  # 160 starts, 168 steps
    6: "bb9150b78947dfe987f77a818f3fdd8e059ff5a870c5b82755d7fb9326959c5e",  # 876 starts, 1016 steps
    7: "882ab2a99ef554583ca7c57ecc9864114c3a9c3daba734965503b9309b1be8d8",  # 6808 starts, 8125 steps
}

# n -> SHA-256 of (answer, reason, oracle walk) for seeded pairs of every
# corpus graph on n vertices at every palette 3..D+2
ORACLE_HASHES = {
    2: "77ef16f550041b1ab932736b982e7aeda1fded9cc2e845f83ad1503907b2362f",  # 4 pairs, 7 steps
    3: "57794135b3f8f7eaf141215ad9f312746db80d4601fc96337ac1931259a0936b",  # 16 pairs, 30 steps
    4: "a62c9a888b2d6a8c98b01da90b09a8bd389c5699e0f3bcb8efd6e777ee4cade0",  # 60 pairs, 159 steps
    5: "6819eae2ba222e1e5ea33aaa55bc2e71bc2d0653c5abf2a219bfceeb79a66e81",  # 268 pairs, 903 steps
    6: "3fabb68b136383a0ceac517b2980e43afd398a13c80d97a27405eac488092e89",  # 1656 pairs, 6774 steps
}

# n -> SHA-256 of the explore summaries of every corpus graph on n vertices
# at palettes D+1 and D+2
SUMMARY_HASHES = {
    1: "a9522effe3596b3f2f2894d67b10406d358a457acc4f4c96d64009606f3983ba",  # 2 spaces
    2: "6e3d811a29177df6d1f8aa2de62f361afec29f378814b6b1914731dc87a63b10",  # 2 spaces
    3: "9ea4799af5926e602a127db03c592a89bb6f74e070fe465fdcc66d707b8d102a",  # 4 spaces
    4: "249b3e835bc54a63328dd8a0ba06d9daff2807accecad05724d9aa05025e09d9",  # 12 spaces
    5: "7e5613b3c0f4be17adf5ff7d9a668fc5ffd3e689a8db0fbadcbe354b6ce27c39",  # 42 spaces
}

ORACLE_PAIRS = 4
ELIMINATION_STARTS = 4


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


def eliminations(n: int) -> list:
    rng = random.Random(f"eliminate/{n}")
    out = []
    for g in corpus(n, n):
        palettes = [g.max_degree + 2]
        if degeneracy(g) <= g.max_degree - 1:
            palettes.insert(0, g.max_degree + 1)
        for k in palettes:
            for _ in range(ELIMINATION_STARTS):
                c = random_proper_colouring(g, k, rng)
                seq, final = eliminate_top_colour(g, c)
                plan = elimination_plan(g, c)
                out.append((
                    seq.steps, final.colours, None if plan is None else (plan.h, plan.pairs)
                ))
    return out


@pytest.mark.parametrize("n", sorted(ELIMINATION_HASHES))
def test_eliminations_match_golden(n):
    assert _digest(eliminations(n)) == ELIMINATION_HASHES[n]


def oracle_answers(n: int) -> list:
    rng = random.Random(f"oracle/{n}")
    answers = []
    for g in corpus(n, n):
        for k in range(3, g.max_degree + 3):
            space = ReconfigSpace.of(g, k)  # held, so every call below shares it
            for _ in range(ORACLE_PAIRS if space.size else 0):
                a = space.colouring_at(rng.randrange(space.size))
                b = space.colouring_at(rng.randrange(space.size))
                decision = decide_k_colour_path(g, k, a, b)
                walk = oracle_path(g, k, a, b)
                answers.append((
                    decision.answer, decision.reason, None if walk is None else walk.steps
                ))
    return answers


@pytest.mark.parametrize("n", sorted(ORACLE_HASHES))
def test_oracle_walks_match_golden(n):
    assert _digest(oracle_answers(n)) == ORACLE_HASHES[n]


@pytest.mark.parametrize("n", sorted(SUMMARY_HASHES))
def test_explore_summaries_match_golden(n):
    summaries = [
        ReconfigSpace(g, k).summary().to_json_dict()
        for g in corpus(n, n)
        for k in (g.max_degree + 1, g.max_degree + 2)
    ]
    assert _digest(summaries) == SUMMARY_HASHES[n]
