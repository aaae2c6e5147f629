import random

import pytest

from recolour.classifier import (
    REASON_BOTH_NON_FROZEN,
    REASON_CYCLE_INVARIANT,
    REASON_FROZEN_DISTINCT,
    REASON_FROZEN_EQUAL,
    REASON_INCONCLUSIVE,
    REASON_ORACLE,
    REASON_TRIVIAL_YES,
    cycle_orientation,
    decide_k_colour_path,
    frozen_census,
    winding_sum,
)
from recolour.colouring import Colouring
from recolour.corpus import random_proper_colouring
from recolour.errors import ImproperInputError, StateSpaceLimitError
from recolour.explorer import ReconfigSpace
from recolour.graph import Graph

from conftest import complete_graph, cube_graph, cycle_graph, path_graph, star_graph

FROZEN_C6 = Colouring(3, (1, 2, 3, 1, 2, 3))


def test_decide_frozen_equal(c6):
    decision = decide_k_colour_path(c6, 3, FROZEN_C6, FROZEN_C6)
    assert decision.answer is True
    assert decision.reason == REASON_FROZEN_EQUAL


def test_decide_frozen_distinct(c6):
    other = Colouring(3, (1, 2, 1, 2, 1, 2))
    decision = decide_k_colour_path(c6, 3, FROZEN_C6, other)
    assert decision.answer is False
    assert decision.reason == REASON_FROZEN_DISTINCT


def test_decide_cycle_invariant_non_frozen():
    g = cycle_graph(8)
    a = Colouring(3, (1, 2, 1, 2, 1, 2, 1, 2))      # winding 0
    b = Colouring(3, (1, 2, 3, 1, 2, 1, 2, 3))  # winding 6, not frozen
    decision = decide_k_colour_path(g, 3, a, b)
    assert decision.answer is False
    assert decision.reason == REASON_CYCLE_INVARIANT


def test_decide_cube_non_frozen(cube):
    rng = random.Random(4)
    while True:
        a = random_proper_colouring(cube, 4, rng)
        b = random_proper_colouring(cube, 4, rng)
        from recolour.colouring import is_frozen

        if not is_frozen(cube, a) and not is_frozen(cube, b) and a != b:
            break
    decision = decide_k_colour_path(cube, 4, a, b)
    assert decision.answer is True
    assert decision.reason == REASON_BOTH_NON_FROZEN


def test_decide_cube_frozen_vs_other(cube):
    frozen = Colouring(4, (1, 2, 3, 4, 4, 3, 2, 1))
    other = Colouring(4, (1, 2, 2, 3, 3, 1, 1, 4))  # proper, not frozen
    decision = decide_k_colour_path(cube, 4, frozen, other)
    assert decision.answer is False
    assert decision.reason == REASON_FROZEN_DISTINCT
    same = decide_k_colour_path(cube, 4, frozen, frozen)
    assert same.answer is True and same.reason == REASON_FROZEN_EQUAL


def test_decide_trivial_regime(p4):
    a = Colouring(4, (1, 2, 1, 2))
    b = Colouring(4, (3, 4, 3, 4))
    decision = decide_k_colour_path(p4, 4, a, b)
    assert decision.answer is True and decision.reason == REASON_TRIVIAL_YES


def test_decide_two_colours():
    g = Graph.from_edges(3, [(0, 1)])  # an edge plus an isolated vertex
    a = Colouring(2, (1, 2, 1))
    b = Colouring(2, (1, 2, 2))  # differ on the isolated vertex only
    assert decide_k_colour_path(g, 2, a, b).answer is True
    c = Colouring(2, (2, 1, 1))  # differ on the edge
    decision = decide_k_colour_path(g, 2, a, c)
    assert decision.answer is False
    assert decision.reason == REASON_FROZEN_DISTINCT


def test_decide_paths_always_yes(p4):
    a = Colouring(3, (1, 2, 1, 2))
    b = Colouring(3, (2, 3, 1, 3))
    decision = decide_k_colour_path(p4, 3, a, b)
    assert decision.answer is True


def test_decide_delta_plus_one_on_complete_graph():
    g = complete_graph(4)  # max degree 3 = k - 1: frozen-check regime
    a = Colouring(4, (1, 2, 3, 4))
    b = Colouring(4, (2, 1, 3, 4))
    decision = decide_k_colour_path(g, 4, a, b)
    assert decision.answer is False
    assert decision.reason == REASON_FROZEN_DISTINCT


def test_decide_oracle_regime():
    g = star_graph(4)  # max degree 4 >= k = 4: oracle territory
    a = Colouring(4, (1, 2, 2, 2, 2))
    b = Colouring(4, (2, 1, 1, 1, 1))
    decision = decide_k_colour_path(g, 4, a, b)
    assert decision.reason == REASON_ORACLE
    assert decision.answer is True
    tight = decide_k_colour_path(g, 4, a, b, limit=10)
    assert tight.answer is None and tight.reason == REASON_INCONCLUSIVE


def test_decide_rejects_improper(p4):
    with pytest.raises(ImproperInputError):
        decide_k_colour_path(p4, 3, Colouring(3, (1, 1, 2, 1)), Colouring(3, (1, 2, 1, 2)))
    with pytest.raises(ValueError):
        decide_k_colour_path(p4, 4, Colouring(3, (1, 2, 1, 2)), Colouring(3, (1, 2, 1, 2)))


def test_winding_is_invariant_and_decisive():
    """Exact agreement between the cycle criterion and the oracle on all
    3-colourings of C_4..C_9: equal winding sums connect two colourings
    unless the sum is maximal, which marks an isolated frozen colouring."""
    for n in range(4, 10):
        g = cycle_graph(n)
        space = ReconfigSpace(g, 3, limit=100_000)
        _, labels = space.component_labels
        order = cycle_orientation(g, tuple(range(n)))
        values = [
            winding_sum(order, space.colouring_at(i)) for i in range(space.size)
        ]
        for i in range(space.size):
            for j in range(i + 1, min(i + 40, space.size)):  # sampled pairs
                same_comp = bool(labels[i] == labels[j])
                criterion = values[i] == values[j] and abs(values[i]) < n
                assert same_comp == criterion


def test_decide_matches_oracle_on_cycles():
    for n in range(4, 8):
        g = cycle_graph(n)
        space = ReconfigSpace(g, 3, limit=100_000)
        _, labels = space.component_labels
        rng = random.Random(n)
        for _ in range(40):
            i, j = rng.randrange(space.size), rng.randrange(space.size)
            decision = decide_k_colour_path(
                g, 3, space.colouring_at(i), space.colouring_at(j)
            )
            assert decision.answer == bool(labels[i] == labels[j])


def _ring_regular_graph(n: int, degree: int) -> Graph:
    """n vertices on a circle, each joined to the nearest degree//2 on both
    sides, plus the antipode when the degree is odd (needs n even)."""
    if degree >= n or (n * degree) % 2 == 1:
        raise ValueError("no such regular graph")
    edges = set()
    for v in range(n):
        for step in range(1, degree // 2 + 1):
            edges.add(tuple(sorted((v, (v + step) % n))))
        if degree % 2 == 1:
            edges.add(tuple(sorted((v, (v + n // 2) % n))))
    return Graph.from_edges(n, sorted(edges))


def test_divisibility_frozen_search_up_to_9():
    """No frozen palette-(D+1) colouring on regular graphs whose order is
    not divisible by D+1: exhaustive search for n <= 9 over the circulant
    family, cross-checking the analytic census against enumeration."""
    checked = 0
    for n in range(4, 10):
        for degree in range(2, n):
            if (n * degree) % 2 == 1:
                continue
            k = degree + 1
            if n % k == 0 or k ** n > 2_000_000:
                continue
            g = _ring_regular_graph(n, degree)
            assert g.is_regular() and g.max_degree == degree
            census = frozen_census(g, k)
            assert census.count == 0 and census.method == "analytic-divisibility"
            space = ReconfigSpace(g, k, 2_000_000)
            assert int(space.frozen_mask.sum()) == 0
            checked += 1
    assert checked >= 10


def test_frozen_census_examples(c6, c5, p4):
    assert frozen_census(c6, 3).count == 6  # 3! orderings of the three classes
    assert frozen_census(c6, 3).method == "enumeration"
    census = frozen_census(c5, 3)
    assert census.count == 0 and census.method == "analytic-divisibility"
    census = frozen_census(p4, 3)
    assert census.count == 0 and census.method == "analytic-degree"


def test_frozen_census_below_top_palette():
    # palette smaller than max degree + 1 can still freeze: both proper
    # 2-colourings of a path are rigid
    census = frozen_census(path_graph(3), 2)
    assert census.method == "enumeration"
    assert census.count == 2


def test_frozen_census_witnesses(cube):
    census = frozen_census(cube_graph(), 4)
    assert census.count == 24
    assert len(census.witnesses) == 10
    for w in census.witnesses:
        # diagonally opposite vertices coloured alike
        assert all(w.colours[v] == w.colours[7 - v] for v in range(8))


def test_json_shapes(c5):
    same = Colouring(3, (1, 2, 3, 1, 2))
    decision = decide_k_colour_path(c5, 3, same, same)
    payload = decision.to_json_dict()
    assert payload["answer"] == "yes"
