import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolour.colouring import is_proper
from recolour.corpus import (
    CONNECTED_COUNTS,
    connected_graphs,
    corpus,
    random_proper_colouring,
)
from recolour.degeneracy import degeneracy
from recolour.graph import Graph, cycle_graph, path_graph

from conftest import random_graph
from reference import canonical_code


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_connected_counts_small(n):
    graphs = connected_graphs(n)
    assert len(graphs) == CONNECTED_COUNTS[n]
    for g in graphs:
        assert g.n == n and g.is_connected()


def test_connected_count_7():
    assert len(connected_graphs(7)) == CONNECTED_COUNTS[7]


def test_corpus_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {n: [] for n in range(1, 8)}  # the atlas holds every graph on <= 7 vertices
    for h in nx.graph_atlas_g()[1:]:  # the first is the empty graph
        if nx.is_connected(h):
            g = Graph.from_edges(h.number_of_nodes(), h.edges())
            atlas[g.n].append(canonical_code(g))
    for n, codes in atlas.items():
        assert len(set(codes)) == len(codes) == CONNECTED_COUNTS[n]
        assert {canonical_code(g) for g in connected_graphs(n)} == set(codes)


def test_no_isomorphic_duplicates():
    graphs = connected_graphs(5)
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


def test_sampler_properness():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 8))
        k = degeneracy(g) + 1 + rng.randrange(2)
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
