import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolour.colouring import (
    Colouring,
    RecolouringSequence,
    apply_sequence,
    colouring_from_text,
    colouring_to_text,
    is_frozen,
    is_proper,
    sequence_from_text,
    sequence_to_text,
)
from recolour.corpus import random_proper_colouring
from recolour.errors import (
    ColouringParseError,
    ImproperIntermediateError,
    NoOpStepError,
    SequenceParseError,
)
from recolour.explorer import ReconfigSpace

from conftest import random_graph, random_walk_sequence
from reference import vertex_state


FROZEN_C6 = Colouring(3, (1, 2, 3, 1, 2, 3))


def test_is_proper(p3, c6, k4):
    assert is_proper(k4, Colouring(4, (1, 2, 3, 4)))
    assert not is_proper(p3, Colouring(3, (1, 1, 2)))
    assert is_proper(c6, FROZEN_C6)


def test_is_proper_size_mismatch(p3):
    with pytest.raises(ValueError):
        is_proper(p3, Colouring(3, (1, 2)))


def test_vertex_state_frozen_cycle(c6):
    # palette 4 on C6: every vertex sees two distinct colours = max degree
    c = Colouring(4, (1, 2, 3, 1, 2, 3))
    for v in range(6):
        state = vertex_state(c6, c, v)
        assert state.locked and not state.free and not state.superfree


def test_vertex_state_middle_of_path(p3):
    # colour 3 is the top colour here, so it cannot witness superfreeness
    state = vertex_state(p3, Colouring(3, (1, 2, 1)), 1)
    assert state.free and not state.locked
    assert not state.superfree


def test_vertex_state_superfree(p4):
    # palette 3, max degree 2: vertex 3 sees only colour 1 and misses colour 2
    state = vertex_state(p4, Colouring(3, (1, 2, 1, 3)), 0)
    assert state.free
    state = vertex_state(p4, Colouring(3, (3, 1, 2, 1)), 3)
    assert state.free and not state.superfree  # 3 is the top colour
    state = vertex_state(p4, Colouring(3, (1, 2, 1, 2)), 3)
    assert not state.superfree  # sees 1, own 2; only colour 3 = top missing
    state = vertex_state(p4, Colouring(3, (2, 3, 1, 3)), 0)
    assert state.superfree and state.witness == (1,)


def test_vertex_state_k4_minus_edge(k4_minus_edge):
    # degree-3 vertex 0 sees colours {2, 3}: two distinct < max degree 3
    c = Colouring(4, (1, 2, 3, 3))
    state = vertex_state(k4_minus_edge, c, 0)
    assert state.free and not state.locked
    assert not state.superfree


def test_frozen_examples(c6, cube, p4):
    assert is_frozen(c6, FROZEN_C6)
    diag = Colouring(4, (1, 2, 3, 4, 4, 3, 2, 1))
    assert is_proper(cube, diag) and is_frozen(cube, diag)
    for cols in ((1, 2, 1, 2), (1, 2, 3, 1), (3, 1, 2, 3)):
        assert not is_frozen(p4, Colouring(3, cols))


def test_frozen_on_non_regular_is_impossible(p4):
    # a vertex of degree < k-1 cannot see k-1 other colours
    rng = random.Random(7)
    for _ in range(20):
        c = random_proper_colouring(p4, 3, rng)
        assert not is_frozen(p4, c)


def reduced(g, c):
    """Reduced form of ``c``, read off the one implementation,
    ``ReconfigSpace.reduced_mask``."""
    space = ReconfigSpace(g, c.k)
    return bool(space.reduced_mask[space.index_of(c)])


def test_reduced_form(p4, c6):
    assert reduced(p4, Colouring(3, (1, 2, 1, 2)))  # no top colour: vacuous
    assert reduced(c6, FROZEN_C6)  # frozen: everything locked
    assert not reduced(p4, Colouring(3, (1, 2, 3, 1)))  # free neighbour


def test_reduced_form_needs_top_palette(p4):
    with pytest.raises(ValueError):
        reduced(p4, Colouring(4, (1, 2, 1, 2)))


def test_apply_sequence_examples(p3):
    start = Colouring(3, (1, 2, 1))
    assert apply_sequence(p3, start, RecolouringSequence()) == start
    out = apply_sequence(p3, start, RecolouringSequence(((0, 3),)))
    assert out.colours == (3, 2, 1)
    with pytest.raises(ImproperIntermediateError) as err:
        apply_sequence(p3, start, RecolouringSequence(((0, 2),)))
    assert err.value.step == 0
    with pytest.raises(NoOpStepError):
        apply_sequence(p3, start, RecolouringSequence(((0, 1),)))
    with pytest.raises(ValueError):
        apply_sequence(p3, start, RecolouringSequence(((5, 1),)))


def test_apply_sequence_concatenation(p4):
    rng = random.Random(13)
    start = random_proper_colouring(p4, 3, rng)
    steps = random_walk_sequence(p4, start, 12, rng)
    seq = RecolouringSequence(tuple(steps))
    cut = len(steps) // 2
    first = RecolouringSequence(tuple(steps[:cut]))
    second = RecolouringSequence(tuple(steps[cut:]))
    via = apply_sequence(p4, apply_sequence(p4, start, first), second)
    assert via == apply_sequence(p4, start, seq)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_states_are_consistent(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    k = g.max_degree + 1
    c = random_proper_colouring(g, k, rng)
    for v in range(n):
        state = vertex_state(g, c, v)
        assert state.locked != state.free
        if state.superfree:
            assert state.free
        if state.locked:
            # with palette max_degree + 1 a locked vertex shows the whole
            # palette on its closed neighbourhood
            assert not state.witness
    if is_frozen(g, c):
        assert all(vertex_state(g, c, v).locked for v in range(n))


def test_colouring_text_round_trip():
    c = Colouring(4, (1, 2, 3, 4, 1))
    assert colouring_from_text(colouring_to_text(c)) == c
    assert colouring_to_text(c) == "4\n1 2 3 4 1\n"
    with pytest.raises(ColouringParseError):
        colouring_from_text("4\n1 2 9\n")
    with pytest.raises(ColouringParseError):
        colouring_from_text("nope\n1 2\n")


def test_colouring_text_round_trip_no_vertices():
    c = Colouring(3, ())
    assert colouring_to_text(c) == "3\n\n"
    assert colouring_from_text(colouring_to_text(c)) == c
    # blank lines around the two lines are skipped, as for any colouring
    assert colouring_from_text("\n3\n\n\n") == c
    assert colouring_from_text("\n4\n\n1 2\n\n") == Colouring(4, (1, 2))
    for text in ("", "\n\n", "3\n", "3"):
        with pytest.raises(ColouringParseError):
            colouring_from_text(text)


def test_sequence_text_round_trip():
    seq = RecolouringSequence(((0, 3), (2, 1)))
    assert sequence_to_text(seq) == "steps: 2\n0 3\n2 1\n"
    assert sequence_from_text(sequence_to_text(seq)) == seq
    with pytest.raises(SequenceParseError):
        sequence_from_text("steps: 2\n0 3\n")
    with pytest.raises(SequenceParseError):
        sequence_from_text("0 3\n")
