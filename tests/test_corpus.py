import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolour.colouring import is_proper
from recolour.corpus import MAX_CORPUS_N, corpus, random_proper_colouring
from recolour.degeneracy import degeneracy_ordering
from recolour.graph import Graph

from conftest import cycle_graph, path_graph, random_graph
from reference import canonical_code

# Connected graphs on n unlabelled vertices (OEIS A001349).
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_connected_counts_small(n):
    graphs = corpus(n, n)
    assert len(graphs) == CONNECTED_COUNTS[n]
    for g in graphs:
        assert g.n == n and g.is_connected()


def test_connected_count_7():
    assert len(corpus(7, 7)) == CONNECTED_COUNTS[7]


def test_corpus_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {n: [] for n in range(1, 8)}  # the atlas holds every graph on <= 7 vertices
    for h in nx.graph_atlas_g()[1:]:  # the first is the empty graph
        if nx.is_connected(h):
            g = Graph.from_edges(h.number_of_nodes(), h.edges())
            atlas[g.n].append(canonical_code(g))
    for n, codes in atlas.items():
        assert len(set(codes)) == len(codes) == CONNECTED_COUNTS[n]
        assert {canonical_code(g) for g in corpus(n, n)} == set(codes)


def test_no_isomorphic_duplicates():
    graphs = corpus(5, 5)
    codes = [canonical_code(g) for g in graphs]
    assert len(set(codes)) == len(codes)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.data())
def test_canonical_code_is_relabelling_invariant(seed, n, data):
    g = random_graph(random.Random(seed), n)
    perm = data.draw(st.permutations(range(n)))
    relabelled = Graph.from_edges(
        n, [(perm[u], perm[v]) for u, v in g.edges]
    )
    assert canonical_code(relabelled) == canonical_code(g)


def test_canonical_code_separates():
    assert canonical_code(path_graph(4)) != canonical_code(cycle_graph(4))


def test_corpus_range_and_order():
    graphs = corpus(4, 5)
    assert len(graphs) == CONNECTED_COUNTS[4] + CONNECTED_COUNTS[5]
    assert [g.n for g in graphs] == sorted(g.n for g in graphs)


@pytest.mark.parametrize(
    "min_n, max_n",
    [(0, 3), (1, MAX_CORPUS_N + 1), (5, 4)],
    ids=["min-below-one", "max-above-cap", "min-above-max"],
)
def test_corpus_rejects_bad_range(min_n, max_n):
    with pytest.raises(ValueError, match="min_n <= max_n"):
        corpus(min_n, max_n)


def test_sampler_properness():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 8))
        k = degeneracy_ordering(g).degeneracy + 1 + rng.randrange(2)
        c = random_proper_colouring(g, k, rng)
        assert is_proper(g, c)
        assert c.k == k


def test_sampler_rejects_tight_palette():
    g = cycle_graph(4)  # degeneracy 2
    with pytest.raises(ValueError):
        random_proper_colouring(g, 2, random.Random(0))


def test_sampler_deterministic():
    g = cycle_graph(5)
    a = random_proper_colouring(g, 3, random.Random(42))
    b = random_proper_colouring(g, 3, random.Random(42))
    assert a == b
