import random

import pytest

from recolour.colouring import Colouring
from recolour.explorer import ReconfigSpace
from recolour.graph import Graph


# Small named graphs used throughout the tests.

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


def random_walk_sequence(
    g: Graph, start: Colouring, length: int, rng: random.Random
) -> list[tuple[int, int]]:
    """A random valid recolouring walk from ``start`` (may stop early if
    some intermediate colouring is frozen)."""
    cols = list(start.colours)
    steps: list[tuple[int, int]] = []
    for _ in range(length):
        options = []
        for v in range(g.n):
            blocked = {cols[u] for u in g.adjacency[v]}
            options.extend(
                (v, c)
                for c in range(1, start.k + 1)
                if c != cols[v] and c not in blocked
            )
        if not options:
            break
        v, c = rng.choice(options)
        cols[v] = c
        steps.append((v, c))
    return steps
