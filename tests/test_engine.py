import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolour import colouring, engine
from recolour.colouring import (
    Colouring,
    RecolouringSequence,
    apply_sequence,
    is_proper,
    replay,
)
from recolour.corpus import random_proper_colouring
from recolour.degeneracy import degeneracy_ordering
from recolour.engine import (
    KempeComponent,
    _path_with_scratch,
    eliminate_top_colour,
    elimination_plan,
    find_path_non_regular,
    kempe_component,
    kempe_swap_via_scratch,
    reverse_sequence,
)
from recolour.errors import (
    ComponentNotMaximalError,
    DegeneracyTooHighError,
    GraphDisconnectedError,
    GraphIsRegularError,
    ImproperInputError,
    ImproperIntermediateError,
    MaxDegreeTooSmallError,
    ScratchColourInUseError,
)
from recolour.explorer import oracle_path
from recolour.graph import Graph

from conftest import path_graph, random_graph, random_walk_sequence, star_graph


# ---------------------------------------------------------------------------
# scratch swaps


def test_kempe_component_p3(p3):
    c = Colouring(3, (1, 2, 1))
    comp = kempe_component(p3, c, 0, 1, 2)
    assert comp.vertices == (0, 1, 2)


def test_swap_whole_path(p3):
    c = Colouring(3, (1, 2, 1))
    comp = kempe_component(p3, c, 0, 1, 2)
    seq = kempe_swap_via_scratch(p3, c, comp)
    assert len(seq) == 2 * 1 + 2
    out = apply_sequence(p3, c, seq)
    assert out.colours == (2, 1, 2)


def test_swap_leaves_the_scan_to_the_component_search(p3, monkeypatch):
    """The swap checks ``c`` proper only through its maximality check's
    ``kempe_component``: finding the component and swapping it scan ``c``
    twice in all."""
    scanned = []

    def counting(g, c):
        scanned.append(c)
        return is_proper(g, c)

    monkeypatch.setattr(colouring, "is_proper", counting)
    c = Colouring(3, (1, 2, 1))
    kempe_swap_via_scratch(p3, c, kempe_component(p3, c, 0, 1, 2))
    assert scanned == [c, c]


def test_swap_single_vertex():
    g = path_graph(3)
    c = Colouring(3, (1, 2, 1))
    comp = kempe_component(g, c, 1, 2, 3)  # vertex 1 alone: nothing coloured 3
    assert comp.vertices == (1,)
    with pytest.raises(ValueError):
        # 3 is the scratch colour and cannot be swapped
        kempe_swap_via_scratch(g, c, comp)


def test_swap_single_vertex_proper():
    g = star_graph(3)
    c = Colouring(5, (1, 2, 2, 3))  # scratch colour 5 free everywhere
    comp = kempe_component(g, c, 3, 3, 4)
    assert comp.vertices == (3,)
    seq = kempe_swap_via_scratch(g, c, comp)
    assert len(seq) == 1
    assert apply_sequence(g, c, seq).colours == (1, 2, 2, 4)


def test_swap_empty_component(p3):
    seq = kempe_swap_via_scratch(p3, Colouring(3, (1, 2, 1)), KempeComponent(1, 2, ()))
    assert len(seq) == 0


def test_swap_rejects_non_maximal(p4):
    c = Colouring(3, (1, 2, 1, 2))
    with pytest.raises(ComponentNotMaximalError):
        kempe_swap_via_scratch(p4, c, KempeComponent(1, 2, (0, 1)))
    with pytest.raises(ComponentNotMaximalError):
        # not connected inside the two-colour subgraph
        kempe_swap_via_scratch(
            Graph.from_edges(4, [(0, 1), (2, 3)]),
            Colouring(3, (1, 2, 1, 2)),
            KempeComponent(1, 2, (0, 3)),
        )


def test_swap_rejects_member_outside_the_two_colours():
    g = path_graph(4)
    c = Colouring(4, (1, 2, 3, 1))
    # vertex 2 is coloured 3, so the {1, 2} component of vertex 0 is {0, 1}
    with pytest.raises(ComponentNotMaximalError):
        kempe_swap_via_scratch(g, c, KempeComponent(1, 2, (0, 1, 2)))
    # the first vertex anchors the component search, which rejects it
    with pytest.raises(ValueError, match="anchor 2 is coloured 3"):
        kempe_swap_via_scratch(g, c, KempeComponent(1, 2, (2, 0, 1)))


def test_swap_rejects_scratch_in_use():
    g = path_graph(4)
    c = Colouring(3, (1, 2, 1, 3))
    comp = kempe_component(g, c, 0, 1, 2)
    assert comp.vertices == (0, 1, 2)
    with pytest.raises(ScratchColourInUseError):
        kempe_swap_via_scratch(g, c, comp)


def test_double_swap_is_identity():
    rng = random.Random(99)
    done = 0
    for _ in range(5000):
        if done >= 60:
            break
        g = random_graph(rng, rng.randrange(3, 8))
        k = g.max_degree + 1
        if k < 3 or degeneracy_ordering(g).degeneracy >= k - 1:
            continue
        low = random_proper_colouring(g, k - 1, rng)
        c = Colouring(k, low.colours)  # top colour unused anywhere
        i, j = rng.sample(range(1, k), 2)
        anchors = [v for v in range(g.n) if c.colours[v] in (i, j)]
        if not anchors:
            continue
        comp = kempe_component(g, c, rng.choice(anchors), i, j)
        seq = kempe_swap_via_scratch(g, c, comp)
        mid = apply_sequence(g, c, seq)
        back = kempe_swap_via_scratch(g, mid, kempe_component(g, mid, comp.vertices[0], j, i))
        assert apply_sequence(g, mid, back).colours == c.colours
        done += 1
    assert done == 60


# ---------------------------------------------------------------------------
# top-colour elimination


def test_elimination_plan_structure(p4):
    c = Colouring(3, (1, 2, 3, 1))
    plan = elimination_plan(p4, c)
    assert plan is not None
    # first pair starts at the earliest top-coloured vertex of the ordering,
    # later pairs follow latest-in-ordering neighbours
    assert plan.pairs[0][0] == 2
    final_v, final_colour = plan.pairs[-1]
    closed = {c.colours[final_v]} | {c.colours[u] for u in p4.adjacency[final_v]}
    assert final_colour not in closed
    assert len({v for v, _ in plan.pairs}) == len(plan.pairs)


def test_elimination_plan_none_when_unused(p4):
    assert elimination_plan(p4, Colouring(3, (1, 2, 1, 2))) is None


def test_elimination_rounds_make_progress(p4):
    """The earliest ordering position holding the top colour strictly
    increases from one round to the next."""
    from recolour.colouring import RecolouringSequence

    c = Colouring(3, (1, 2, 3, 1))
    positions = []
    while True:
        plan = elimination_plan(p4, c)
        if plan is None:
            break
        positions.append(plan.h)
        c = apply_sequence(
            p4, c, RecolouringSequence(tuple(reversed(plan.pairs)))
        )
        assert len(positions) <= p4.n
    assert positions == sorted(set(positions))
    assert not c.uses(3)


def test_eliminate_noop(p4):
    seq, out = eliminate_top_colour(p4, Colouring(3, (1, 2, 1, 2)))
    assert len(seq) == 0
    assert out.colours == (1, 2, 1, 2)


def test_eliminate_star_centre(star3):
    c = Colouring(4, (4, 1, 2, 3))
    seq, out = eliminate_top_colour(star3, c)
    assert not out.uses(4)
    assert len(seq) <= star3.n ** 2
    assert apply_sequence(star3, c, seq) == out
    # all three leaf colours block the centre, so the walk must detour
    assert len(seq) == 2


def test_eliminate_p4_example(p4):
    c = Colouring(3, (1, 2, 3, 1))
    seq, out = eliminate_top_colour(p4, c)
    assert not out.uses(3)
    assert len(seq) <= 16
    assert apply_sequence(p4, c, seq) == out
    assert oracle_path(p4, 3, c, out) is not None


def test_eliminate_top_colour_checks_each_step_once(star3, monkeypatch):
    """The returned colouring comes from one replay of the whole sequence,
    and that replay rejects an improper step that the walk produced."""
    c = Colouring(4, (1, 2, 3, 4))
    replayed = []

    def counting(g, start, seq):
        replayed.append(len(seq))
        return replay(g, start, seq)

    monkeypatch.setattr(engine, "replay", counting)
    seq, out = eliminate_top_colour(star3, c)
    assert replayed == [len(seq)] and not out.uses(4)
    # leaf 3 takes the centre's colour 1: the top colour goes, improperly
    monkeypatch.setattr(engine, "_walk", lambda *args: [(3, 1)])
    with pytest.raises(ImproperIntermediateError) as exc:
        eliminate_top_colour(star3, c)
    assert exc.value.step == 0


def test_eliminate_rejects_high_degeneracy(c5):
    with pytest.raises(DegeneracyTooHighError):
        eliminate_top_colour(c5, Colouring(3, (1, 2, 1, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_eliminate_bounds_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randrange(2, 8))
    if g.is_regular() or not g.is_connected():
        return
    k = g.max_degree + 1
    c = random_proper_colouring(g, k, rng)
    seq, out = eliminate_top_colour(g, c)
    assert not out.uses(k)
    assert len(seq) <= g.n * g.n
    assert all(count <= g.n for count in seq.recolour_counts.values())
    assert apply_sequence(g, c, seq) == out


# ---------------------------------------------------------------------------
# paths between colourings below the top colour


def middle_segment(g: Graph, a: Colouring, b: Colouring, k: int) -> RecolouringSequence:
    """The walk from ``a`` to ``b`` inside palette ``k``; both avoid colour k."""
    return RecolouringSequence(tuple(_path_with_scratch(g, list(a.colours), list(b.colours), k)))


def test_path_between_equal(p3):
    c = Colouring(2, (1, 2, 1))
    assert len(middle_segment(p3, c, c, 3)) == 0


def test_path_between_p3_flip(p3):
    seq = middle_segment(p3, Colouring(2, (1, 2, 1)), Colouring(2, (2, 1, 2)), 3)
    out = apply_sequence(p3, Colouring(3, (1, 2, 1)), seq)
    assert out.colours == (2, 1, 2)
    assert max(colour for _, colour in seq) <= 3
    assert oracle_path(p3, 3, Colouring(3, (1, 2, 1)), Colouring(3, (2, 1, 2))) is not None


def test_path_between_k4_minus_edge(k4_minus_edge):
    g = k4_minus_edge
    c1 = Colouring(3, (1, 2, 3, 3))
    c2 = Colouring(3, (2, 1, 3, 3))
    seq = middle_segment(g, c1, c2, 4)
    out = apply_sequence(g, Colouring(4, c1.colours), seq)
    assert out.colours == c2.colours
    assert len(seq) <= 10 * g.n * g.n


def test_path_between_with_isolated_vertex():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])  # P3 plus isolated vertex 3
    seq = middle_segment(g, Colouring(2, (1, 2, 1, 1)), Colouring(2, (2, 1, 2, 2)), 3)
    out = apply_sequence(g, Colouring(3, (1, 2, 1, 1)), seq)
    assert out.colours == (2, 1, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_path_between_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randrange(2, 8))
    delta = g.max_degree
    if delta < 1 or degeneracy_ordering(g).degeneracy > delta - 1:
        return
    c1 = random_proper_colouring(g, delta, rng)
    c2 = random_proper_colouring(g, delta, rng)
    seq = middle_segment(g, c1, c2, delta + 1)
    out = apply_sequence(g, Colouring(delta + 1, c1.colours), seq)
    assert out.colours == c2.colours
    assert len(seq) <= 4 * g.n * g.n + 2 * g.n * delta


# ---------------------------------------------------------------------------
# the full pipeline


def test_find_path_trivial(k4_minus_edge):
    c = Colouring(4, (1, 2, 3, 3))
    assert len(find_path_non_regular(k4_minus_edge, c, c)) == 0


def test_find_path_k4_minus_edge(k4_minus_edge):
    g = k4_minus_edge
    a = Colouring(4, (1, 2, 3, 3))
    b = Colouring(4, (4, 1, 2, 2))
    seq = find_path_non_regular(g, a, b)
    assert apply_sequence(g, a, seq).colours == b.colours
    assert len(seq) <= 3 * g.n ** 2 + 2 * g.n * g.max_degree
    assert oracle_path(g, 4, a, b) is not None


def test_find_path_scans_each_input_once(k4_minus_edge, monkeypatch):
    """Each input is scanned for properness once, on entry; the final replay
    checks every step but not the start again."""
    g = k4_minus_edge
    a = Colouring(4, (1, 2, 3, 3))
    b = Colouring(4, (4, 1, 2, 2))
    scanned = []

    def counting(g, c):
        scanned.append(c)
        return is_proper(g, c)

    monkeypatch.setattr(colouring, "is_proper", counting)
    seq = find_path_non_regular(g, a, b)
    assert scanned == [a, b]
    assert apply_sequence(g, a, seq).colours == b.colours
    with pytest.raises(ImproperInputError, match="first colouring is not proper"):
        find_path_non_regular(g, Colouring(4, (1, 1, 3, 3)), b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_find_path_random_envelope(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randrange(4, 8))
    delta = g.max_degree
    if delta < 3 or g.is_regular() or not g.is_connected():
        return
    k = delta + 1
    a = random_proper_colouring(g, k, rng)
    b = random_proper_colouring(g, k, rng)
    seq = find_path_non_regular(g, a, b)
    assert apply_sequence(g, a, seq).colours == b.colours
    assert len(seq) <= 3 * g.n ** 2 + 2 * g.n * delta


def bounded_degree_graph(rng: random.Random, n: int, delta: int) -> Graph:
    """A connected non-regular graph on ``n`` vertices with maximum degree
    ``delta``: vertex 0 gets ``delta`` leaves, every later vertex hangs off
    an earlier one with room, and random chords fill in while degrees
    allow.  The last vertex takes no chord, so it keeps degree 1."""
    degree = [0] * n
    edges = set()

    def join(u, v):
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    for v in range(1, n):
        join(0 if v <= delta else rng.choice([u for u in range(1, v) if degree[u] < delta]), v)
    for _ in range(n * delta // 2):
        u, v = rng.sample(range(n - 1), 2)
        if (min(u, v), max(u, v)) not in edges and max(degree[u], degree[v]) < delta:
            join(u, v)
    return Graph.from_edges(n, edges)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_find_path_envelope_on_larger_graphs(seed):
    """Two pairs per graph: one anywhere in palette D+1, and one with colour
    D+1 unused at both ends, which goes straight to the middle segment."""
    rng = random.Random(seed)
    n, delta = rng.randint(20, 200), rng.randint(3, 6)
    g = bounded_degree_graph(rng, n, delta)
    assert g.max_degree == delta and g.is_connected() and not g.is_regular()
    k = delta + 1
    pairs = [
        (random_proper_colouring(g, k, rng), random_proper_colouring(g, k, rng)),
        tuple(Colouring(k, random_proper_colouring(g, delta, rng).colours) for _ in range(2)),
    ]
    for a, b in pairs:
        seq = find_path_non_regular(g, a, b)
        assert apply_sequence(g, a, seq).colours == b.colours
        assert len(seq) <= 3 * n ** 2 + 2 * n * delta


def test_find_path_sets_up_each_level_once(monkeypatch):
    """One degeneracy ordering per recursion level serves both of its
    eliminations: the palettes set up run down from D+1 without repeats."""
    g = Graph.from_edges(6, [
        (0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5),
    ])
    a = Colouring(5, (5, 4, 5, 3, 1, 2))
    b = Colouring(5, (3, 4, 3, 1, 5, 4))
    setup = engine._elimination_setup
    palettes = []

    def counting(g, k):
        palettes.append(k)
        return setup(g, k)

    monkeypatch.setattr(engine, "_elimination_setup", counting)
    seq = find_path_non_regular(g, a, b)
    assert apply_sequence(g, a, seq).colours == b.colours
    assert palettes == [5, 4, 3]


def test_find_path_rejects_regular(c6, k4):
    with pytest.raises(GraphIsRegularError):
        find_path_non_regular(c6, Colouring(3, (1, 2, 3, 1, 2, 3)), Colouring(3, (1, 2, 1, 2, 1, 2)))
    with pytest.raises(GraphIsRegularError):
        find_path_non_regular(k4, Colouring(4, (1, 2, 3, 4)), Colouring(4, (1, 2, 3, 4)))


def test_find_path_rejects_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphDisconnectedError):
        find_path_non_regular(g, Colouring(2, (1, 2, 1, 2)), Colouring(2, (2, 1, 2, 1)))


def test_find_path_rejects_small_degree(p4):
    with pytest.raises(MaxDegreeTooSmallError):
        find_path_non_regular(p4, Colouring(3, (1, 2, 1, 2)), Colouring(3, (2, 1, 2, 1)))


def test_deep_recursion_stays_valid():
    # max degree 4 forces two recursion levels; replay checks every
    # intermediate colouring stays proper inside palette 5
    g = star_graph(4)
    rng = random.Random(3)
    a = Colouring(5, random_proper_colouring(g, 4, rng).colours)
    b = Colouring(5, random_proper_colouring(g, 4, rng).colours)
    seq = find_path_non_regular(g, a, b)
    assert apply_sequence(g, a, seq).colours == b.colours


# ---------------------------------------------------------------------------
# reversal


def test_reverse_empty(p3):
    assert len(reverse_sequence(Colouring(3, (1, 2, 1)), RecolouringSequence())) == 0


def test_reverse_single_step(p3):
    start = Colouring(3, (1, 2, 1))
    seq = RecolouringSequence(((0, 3),))
    assert reverse_sequence(start, seq).steps == ((0, 1),)


def test_reverse_rejects_noop(p3):
    with pytest.raises(Exception):
        reverse_sequence(Colouring(3, (1, 2, 1)), RecolouringSequence(((0, 1),)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 12))
def test_reverse_round_trip(seed, length):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randrange(2, 7))
    k = g.max_degree + 2  # roomy palette so walks rarely stall
    start = random_proper_colouring(g, k, rng)
    steps = random_walk_sequence(g, start, length, rng)
    seq = RecolouringSequence(tuple(steps))
    end = apply_sequence(g, start, seq)
    back = reverse_sequence(start, seq)
    assert apply_sequence(g, end, back) == start
