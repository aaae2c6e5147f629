import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recolour.errors import GraphParseError
from recolour.graph import (
    Graph,
    complete_graph,
    connected_components,
    format_graph,
    parse_graph,
    path_graph,
)

from conftest import random_graph


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert g.degree == (1, 2, 1)


def test_parse_k4():
    g = parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert g == complete_graph(4)
    assert g.is_regular() and g.is_complete()


def test_parse_matches_from_edges_in_any_line_order():
    """Edge lines may come in any order and orientation; the parsed graph
    equals what Graph.from_edges makes of the same edges."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 12)
        edges = list(random_graph(rng, n, rng.random()).edges)
        rng.shuffle(edges)
        lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
        assert parse_graph(f"{n} {len(edges)}\n" + "\n".join(lines)) == Graph.from_edges(n, edges)


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("3 2\n0 1\n0 1", "duplicate edge", 3),
        ("3 2\n0 1\n1 0", "duplicate edge", 3),
        ("3 1\n2 2", "self-loop", 2),
        ("3 1\n0 3", "out of range", 2),
        ("3 1\nnope", "expected edge", 2),
        ("bad header", "header", 1),
        ("3 2\n0 1", "promised 2 edges", 2),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_format_round_trip():
    g = complete_graph(4)
    assert parse_graph(format_graph(g)) == g


def test_direct_construction_rejects_unnormalised():
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_components_k4():
    assert connected_components(complete_graph(4)) == [(0, 1, 2, 3)]


def test_components_edgeless():
    assert connected_components(Graph(3, ())) == [(0,), (1,), (2,)]


def test_components_path_plus_edge():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == [(0, 1, 2), (3, 4)]


def test_induced_subgraph_relabels():
    g = complete_graph(4)
    sub, labels = g.induced_subgraph([3, 1, 2])
    assert labels == (1, 2, 3)
    assert sub == complete_graph(3)
    # the subgraph is built from its edges directly, so they must come out
    # normalised: equal to what from_edges makes of the same edge set
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.random())
        chosen = [v for v in range(n) if rng.random() < 0.6]
        sub, labels = g.induced_subgraph(rng.sample(chosen, len(chosen)))
        assert labels == tuple(chosen)
        index = {orig: i for i, orig in enumerate(labels)}
        mapped_edges = [
            (index[v], index[u]) for u, v in g.edges if u in index and v in index
        ]
        assert sub == Graph.from_edges(len(labels), mapped_edges)


def test_adjacency_is_symmetric():
    g = parse_graph("5 4\n0 4\n4 1\n1 3\n3 2")
    for u in range(g.n):
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]
    assert g.degree == tuple(len(a) for a in g.adjacency)


@given(st.integers(2, 8), st.data())
def test_from_edges_normalises(n, data):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = data.draw(st.lists(pair, max_size=10))
    unique = {tuple(sorted(e)) for e in edges}
    g = Graph.from_edges(n, sorted(unique))
    assert set(g.edges) == unique
    assert g.m == len(unique)
    assert parse_graph(format_graph(g)) == g


def test_path_graph_shapes():
    assert path_graph(1).m == 0
    assert path_graph(4).degree == (1, 2, 2, 1)
