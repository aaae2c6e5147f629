import random

import pytest

from recolour.explorer import ReconfigSpace
from recolour.graph import (
    Graph,
    complete_graph,
    complete_graph_minus_edge,
    cube_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


@pytest.fixture
def builds(monkeypatch):
    """The (graph, palette) of every ReconfigSpace built while the test runs."""
    built = []
    enumerate_space = ReconfigSpace.__init__

    def counting(self, g, k, *args, **kwargs):
        enumerate_space(self, g, k, *args, **kwargs)
        built.append((g, k))

    monkeypatch.setattr(ReconfigSpace, "__init__", counting)
    return built


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def k4_minus_edge():
    return complete_graph_minus_edge(4)


@pytest.fixture
def cube():
    return cube_graph()


@pytest.fixture
def petersen():
    return petersen_graph()


@pytest.fixture
def star3():
    return star_graph(3)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)
