import inspect
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recolour
from recolour.degeneracy import (
    DegeneracyOrdering,
    _validate_parts,
    degeneracy_ordering,
    degenerate_partition,
)
from recolour.errors import (
    BudgetSumMismatchError,
    InvalidPartitionError,
    NotKDegenerateError,
)
from recolour.graph import Graph

from conftest import complete_graph, cycle_graph, path_graph, random_graph
from reference import brute_force_degeneracy


def reference_min_scan_ordering(g: Graph) -> DegeneracyOrdering:
    """The O(n^2) min-scan the heap replaced: same tie-break, by definition."""
    n = g.n
    deg = list(g.degree)
    alive = [True] * n
    order = [0] * n
    for i in range(n - 1, -1, -1):
        v = min((u for u in range(n) if alive[u]), key=lambda u: (deg[u], u))
        order[i] = v
        alive[v] = False
        for w in g.adjacency[v]:
            if alive[w]:
                deg[w] -= 1
    pos = {v: i for i, v in enumerate(order)}
    back = tuple(
        sum(1 for u in g.adjacency[v] if pos[u] < i) for i, v in enumerate(order)
    )
    return DegeneracyOrdering(tuple(order), back)


def test_ordering_path(p3):
    ordering = degeneracy_ordering(p3)
    assert sorted(ordering.order) == [0, 1, 2]
    assert ordering.degeneracy == 1
    assert ordering.order[-1] in (0, 2)  # ends at an endpoint


def test_ordering_back_degrees_match_definition(k4):
    ordering = degeneracy_ordering(k4)
    assert ordering.degeneracy == 3
    for i, v in enumerate(ordering.order):
        earlier = set(ordering.order[:i])
        assert ordering.back_degree[i] == sum(
            1 for u in k4.adjacency[v] if u in earlier
        )


def test_degeneracy_examples(c6, cube, petersen):
    assert degeneracy_ordering(Graph(4, ())).degeneracy == 0
    assert degeneracy_ordering(c6).degeneracy == 2
    assert degeneracy_ordering(cube).degeneracy == 3 == brute_force_degeneracy(cube)
    assert degeneracy_ordering(petersen).degeneracy == 3


def test_petersen_brute_force_skipped_if_slow(petersen):
    # n = 10: 1023 subsets, still cheap
    assert brute_force_degeneracy(petersen) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_degeneracy_matches_brute_force(seed, n):
    g = random_graph(random.Random(seed), n)
    assert degeneracy_ordering(g).degeneracy == brute_force_degeneracy(g)


def test_degeneracy_matches_brute_force_exhaustively():
    from recolour.corpus import corpus

    for g in corpus(4, 7):
        assert degeneracy_ordering(g).degeneracy == brute_force_degeneracy(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_induced_subgraphs_never_exceed_degeneracy(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    d = degeneracy_ordering(g).degeneracy
    vertices = [v for v in range(n) if rng.random() < 0.6]
    sub, _ = g.induced_subgraph(vertices)
    assert degeneracy_ordering(sub).degeneracy <= d


def test_ordering_matches_reference_min_scan():
    rng = random.Random(1983)
    for _ in range(300):
        n = rng.randrange(0, 61)
        g = random_graph(rng, n, rng.choice((0.05, 0.1, 0.3, 0.6)))
        ordering = degeneracy_ordering(g)
        assert ordering == reference_min_scan_ordering(g)
        assert all(ordering.order[ordering.positions[v]] == v for v in range(n))
        assert ordering.latest_neighbour == tuple(
            max(adj, key=ordering.positions.__getitem__) if adj else None
            for adj in g.adjacency
        )


def test_ordering_is_built_once_per_graph(petersen):
    assert degeneracy_ordering(petersen) is degeneracy_ordering(petersen)
    fresh = Graph(petersen.n, petersen.edges)
    assert degeneracy_ordering(fresh) is not degeneracy_ordering(petersen)


def test_degeneracy_matches_networkx_core_number():
    nx = pytest.importorskip("networkx")
    rng = random.Random(310)
    for n, m in ((50, 400), (200, 600), (500, 5000), (2000, 6000), (2000, 20000)):
        edges = set()
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph.from_edges(n, edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges)
        assert degeneracy_ordering(g).degeneracy == max(nx.core_number(nxg).values())


def test_package_attribute_is_the_degeneracy_module():
    assert inspect.ismodule(recolour.degeneracy)
    assert recolour.degeneracy.degeneracy_ordering is degeneracy_ordering


def test_degeneracy_never_exceeds_max_degree():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 8))
        assert degeneracy_ordering(g).degeneracy <= g.max_degree
        if g.is_connected() and not g.is_regular():
            assert degeneracy_ordering(g).degeneracy <= g.max_degree - 1


def test_partition_k4(k4):
    part = degenerate_partition(k4, 3, (0, 2))
    assert sorted(v for p in part.parts for v in p) == [0, 1, 2, 3]
    s1, s2 = part.parts
    assert not any(u in s1 for v in s1 for u in k4.adjacency[v])
    sub, _ = k4.induced_subgraph(s2)
    assert brute_force_degeneracy(sub) <= 2


def test_partition_tree_bipartition():
    g = path_graph(6)
    part = degenerate_partition(g, 1, (0, 0))
    for side in part.parts:
        assert not any(u in side for v in side for u in g.adjacency[v])


def test_partition_errors(k4):
    with pytest.raises(BudgetSumMismatchError):
        degenerate_partition(k4, 3, (0, 1))
    with pytest.raises(NotKDegenerateError):
        degenerate_partition(k4, 2, (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7), st.integers(2, 3), st.data())
def test_partition_budget_sweep(seed, n, r, data):
    g = random_graph(random.Random(seed), n)
    k = degeneracy_ordering(g).degeneracy
    total = k - r + 1
    if total < 0:
        return
    if r == 2:
        p1 = data.draw(st.integers(0, total))
        budgets = (p1, total - p1)
    else:
        p1 = data.draw(st.integers(0, total))
        p2 = data.draw(st.integers(0, total - p1))
        budgets = (p1, p2, total - p1 - p2)
    part = degenerate_partition(g, k, budgets)
    assert sorted(v for p in part.parts for v in p) == list(range(n))
    for side, budget in zip(part.parts, part.budgets):
        sub, _ = g.induced_subgraph(side)
        assert brute_force_degeneracy(sub) <= budget


def test_validator_rejects_part_over_budget(k4):
    with pytest.raises(InvalidPartitionError):
        _validate_parts(k4, ((0, 1, 2, 3),), (0,), (0, 1, 2, 3))


def test_validator_rejects_part_over_budget_under_optimize():
    src = Path(recolour.__file__).resolve().parents[1]
    script = (
        "from itertools import combinations\n"
        "from recolour.degeneracy import _validate_parts\n"
        "from recolour.errors import InvalidPartitionError\n"
        "from recolour.graph import Graph\n"
        "k4 = Graph.from_edges(4, combinations(range(4), 2))\n"
        "try:\n"
        "    _validate_parts(k4, ((0, 1, 2, 3),), (0,), (0, 1, 2, 3))\n"
        "except InvalidPartitionError:\n"
        "    print('rejected')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, cwd=src, check=True,
    )
    assert out.stdout.strip() == "rejected"


def test_validator_rejects_non_partition(p3):
    with pytest.raises(InvalidPartitionError):
        _validate_parts(p3, ((0, 1), (1, 2)), (1, 1), (0, 1, 2))
    with pytest.raises(InvalidPartitionError):
        _validate_parts(p3, ((0,), (2,)), (0, 0), (0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(0, 2))
def test_augmented_part_dominates(seed, n, slack):
    """Part 1 of the engine's split needs no augmenting: it is already a
    maximal independent set, and part 2 stays within its budget."""
    g = random_graph(random.Random(seed), n)
    k = max(degeneracy_ordering(g).degeneracy, 2) + 2 + slack
    s1, s2 = degenerate_partition(g, k - 2, (0, k - 3)).parts
    inside = set(s1)
    assert not any(u in inside for v in s1 for u in g.adjacency[v])
    assert all(any(u in inside for u in g.adjacency[v]) for v in s2)
    sub, _ = g.induced_subgraph(s2)
    assert brute_force_degeneracy(sub) <= k - 3
