"""Constructive recolouring: scratch swaps, top-colour elimination, and
quadratic-length walks between colourings.

The pipeline has three layers, each built on the one before.  The scratch
swap stands apart: it is a public primitive that no layer calls.

* *Top-colour elimination* removes the largest palette colour from a proper
  colouring of a graph whose degeneracy is at most k-2 (palette k, maximum
  degree at most k-1).  One round walks from the earliest top-coloured vertex
  of a degeneracy ordering to ever-later vertices, each hop moving to the
  neighbour latest in the ordering, until a vertex with a spare colour is
  found; each hop reads the spare colours off the current colouring.
  Replaying the walk backwards recolours each visited vertex once and frees
  the starting vertex from the top colour.  The earliest top-coloured
  position strictly increases between rounds, so at most n rounds and n^2
  steps are ever needed and no vertex is recoloured more than n times.

* One *eliminate-connect-undo step* joins two colourings at palette k:
  eliminate colour k from both, connect the two results, and replay the
  second elimination backwards.  The public pipeline for a connected
  non-regular graph with maximum degree D >= 3 is this step at palette D+1.

* The *connecting part* joins two colourings that avoid the top colour:
  split the graph into a maximal independent set and a remainder of smaller
  degeneracy, park the independent set on the scratch colour from both ends,
  and join the remainders with the same step at the next palette down.  The
  remainder has smaller maximum degree because every one of its vertices has
  a parked neighbour.  At palette 3 the graph is a disjoint union of paths
  and the two 2-colourings of each component are exchanged directly by
  walking a travelling scratch down the path.

* A *scratch swap* exchanges two colours i, j on a maximal connected
  component of the {i, j}-coloured subgraph in three phases (j to scratch,
  i to j, scratch to i), which keeps every intermediate colouring proper as
  long as the scratch colour is absent from the component's closed
  neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import (
    Colouring,
    RecolouringSequence,
    replay,
    require_proper,
)
from .degeneracy import (
    DegeneracyOrdering,
    degeneracy_ordering,
    degenerate_partition,
)
from .errors import (
    ComponentNotMaximalError,
    DegeneracyTooHighError,
    GraphDisconnectedError,
    GraphIsRegularError,
    MaxDegreeTooSmallError,
    NoOpStepError,
    ScratchColourInUseError,
)
from .graph import Graph, connected_components

Step = tuple[int, int]


# ---------------------------------------------------------------------------
# Scratch swap on a two-coloured component


@dataclass(frozen=True)
class KempeComponent:
    """Maximal connected component of the subgraph on colours i and j."""

    colour_i: int
    colour_j: int
    vertices: tuple[int, ...]


def kempe_component(g: Graph, c: Colouring, anchor: int, i: int, j: int) -> KempeComponent:
    """The two-coloured component containing ``anchor``."""
    require_proper(g, c)
    if i == j or not (1 <= i <= c.k and 1 <= j <= c.k):
        raise ValueError(f"need two distinct palette colours, got {i}, {j}")
    if c.colours[anchor] not in (i, j):
        raise ValueError(f"anchor {anchor} is coloured {c.colours[anchor]}, not {i} or {j}")
    comp = {anchor}
    stack = [anchor]
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if u not in comp and c.colours[u] in (i, j):
                comp.add(u)
                stack.append(u)
    return KempeComponent(i, j, tuple(sorted(comp)))


def kempe_swap_via_scratch(g: Graph, c: Colouring, comp: KempeComponent) -> RecolouringSequence:
    """Exchange colours i and j on ``comp`` using the top palette colour.

    The scratch is colour ``c.k``; it must not appear on the component or on
    any neighbour of the component, and the component must be a maximal
    connected piece of the {i, j}-coloured subgraph.  The result has exactly
    2*|j-coloured| + |i-coloured| steps and fixes every other vertex.
    ``c`` is checked proper by :func:`kempe_component`, or here if ``comp`` is empty.
    """
    i, j = comp.colour_i, comp.colour_j
    scratch = c.k
    if i == j or scratch in (i, j):
        raise ValueError("swap colours must be distinct and differ from the scratch colour")
    if not comp.vertices:
        require_proper(g, c)
        return RecolouringSequence()

    if set(kempe_component(g, c, comp.vertices[0], i, j).vertices) != set(comp.vertices):
        raise ComponentNotMaximalError(
            "component is not a maximal connected piece of the two-colour subgraph"
        )
    for v in comp.vertices:
        for u in g.adjacency[v]:
            if c.colours[u] == scratch:
                raise ScratchColourInUseError(
                    f"neighbour {u} of the component uses the scratch colour {scratch}"
                )

    j_side = [v for v in comp.vertices if c.colours[v] == j]
    i_side = [v for v in comp.vertices if c.colours[v] == i]
    steps = [(v, scratch) for v in j_side]
    steps += [(v, j) for v in i_side]
    steps += [(v, i) for v in j_side]
    return RecolouringSequence(tuple(steps))


# ---------------------------------------------------------------------------
# Top-colour elimination


@dataclass(frozen=True)
class EliminationPlan:
    """One round of elimination: ``h`` is the position in the degeneracy
    ordering of the earliest top-coloured vertex, ``pairs`` the walk of
    (vertex, replacement colour) entries, applied from the last pair back."""

    h: int
    pairs: tuple[Step, ...]


def _walk(g: Graph, ordering: DegeneracyOrdering, cols: list[int], k: int, h: int) -> list[Step]:
    """The elimination walk from position ``h``: (vertex, replacement colour)
    pairs, to be applied from the last pair back.  The walk ends at the first
    vertex with a spare colour: the smallest in 1..k absent from its closed
    neighbourhood."""
    position = ordering.positions
    w = ordering.order[h]
    pairs: list[Step] = []
    last_pos = -1
    while True:
        pos_w = position[w]
        if pos_w <= last_pos:
            raise AssertionError("elimination walk failed to advance in the ordering")
        last_pos = pos_w
        used = {cols[u] for u in g.adjacency[w]}
        used.add(cols[w])
        for spare in range(1, k + 1):
            if spare not in used:
                pairs.append((w, spare))
                return pairs
        # all k colours on the closed neighbourhood forces degree k-1 with
        # all-distinct neighbour colours, so a later neighbour exists
        nxt = ordering.latest_neighbour[w]
        pairs.append((w, cols[nxt]))
        w = nxt


def _elimination_setup(g: Graph, k: int) -> DegeneracyOrdering:
    ordering = degeneracy_ordering(g)
    if ordering.degeneracy > k - 2:
        raise DegeneracyTooHighError(
            f"degeneracy {ordering.degeneracy} exceeds {k - 2}; cannot eliminate colour {k}"
        )
    if g.max_degree > k - 1:
        raise ValueError(f"palette {k} is too small for maximum degree {g.max_degree}")
    return ordering


def elimination_plan(g: Graph, c: Colouring) -> EliminationPlan | None:
    """The next elimination round for ``c``, or None if the top colour is unused."""
    require_proper(g, c)
    ordering = _elimination_setup(g, c.k)
    cols = list(c.colours)
    for h, v in enumerate(ordering.order):
        if cols[v] == c.k:
            return EliminationPlan(h, tuple(_walk(g, ordering, cols, c.k, h)))
    return None


def _eliminate(
    g: Graph, ordering: DegeneracyOrdering, cols: list[int], k: int
) -> tuple[list[Step], list[int]]:
    """Remove colour ``k`` from a proper colouring; returns (steps, final).
    The steps follow ``ordering`` and are not checked: callers replay them.

    One forward scan of the ordering finds every round's start.  A round
    recolours only positions >= h, because the walk's positions strictly
    increase.  Position h itself gets either a spare colour, which is not k
    because its closed neighbourhood holds k, or a neighbour's colour, which
    is not k in a proper colouring.  So no position before the cursor ever
    holds k again.
    """
    cols = list(cols)
    steps: list[Step] = []
    for h, start in enumerate(ordering.order):
        if cols[start] != k:
            continue
        for v, colour in reversed(_walk(g, ordering, cols, k, h)):
            cols[v] = colour
            steps.append((v, colour))
    if k in cols:
        raise AssertionError("elimination did not remove the top colour")
    return steps, cols


def eliminate_top_colour(g: Graph, c: Colouring) -> tuple[RecolouringSequence, Colouring]:
    """Walk from ``c`` to a colouring that avoids the top palette colour.

    Requires degeneracy at most k-2 and maximum degree at most k-1 (with
    palette k = D+1 this is exactly degeneracy D-1).  The sequence has at
    most n^2 steps and recolours no vertex more than n times.  Each step is
    checked once, by the replay from ``c`` that gives the returned colouring.
    """
    require_proper(g, c)
    steps, _ = _eliminate(g, _elimination_setup(g, c.k), list(c.colours), c.k)
    seq = RecolouringSequence(tuple(steps))
    return seq, replay(g, c, seq)


# ---------------------------------------------------------------------------
# Paths between colourings that avoid the top colour


def _flip_path_components(g: Graph, a: list[int], b: list[int]) -> list[Step]:
    """Palette-3 base case: disjoint paths, both inputs 2-coloured.

    Components where the colourings differ are alternating flips of each
    other; a travelling scratch walks down the path from the lower-numbered
    end, freeing two vertices at a time.
    """
    steps: list[Step] = []
    for comp in connected_components(g):
        if all(a[v] == b[v] for v in comp):
            continue
        if len(comp) == 1:
            steps.append((comp[0], b[comp[0]]))
            continue
        ends = [v for v in comp if len(g.adjacency[v]) == 1]
        if len(ends) != 2:
            raise AssertionError("palette-3 components must be paths")
        path = [min(ends)]
        prev = None
        while True:
            nxt = [u for u in g.adjacency[path[-1]] if u != prev]
            if not nxt:
                break
            prev = path[-1]
            path.append(nxt[0])
        if len(path) != len(comp):
            raise AssertionError("palette-3 components must be paths")
        if any(a[v] == b[v] for v in path):
            raise AssertionError("distinct 2-colourings of a path differ everywhere")
        m = len(path)
        steps.append((path[0], 3))
        t = 0
        while t <= m - 3:
            steps.append((path[t + 2], 3))
            steps.append((path[t + 1], b[path[t + 1]]))
            steps.append((path[t], b[path[t]]))
            t += 2
        if t == m - 2:
            steps.append((path[m - 1], b[path[m - 1]]))
            steps.append((path[t], b[path[t]]))
        else:
            steps.append((path[t], b[path[t]]))
    return steps


def _connect(g: Graph, a: list[int], b: list[int], k: int) -> list[Step]:
    """Unchecked steps from ``a`` to ``b`` inside palette ``k`` (callers replay
    them): eliminate colour k from both ends, connect the results, and undo
    the second elimination."""
    ordering = _elimination_setup(g, k)
    elim_a, a_low = _eliminate(g, ordering, a, k)
    elim_b, b_low = _eliminate(g, ordering, b, k)
    mid = _path_with_scratch(g, a_low, b_low, k)
    back = reverse_sequence(Colouring(k, tuple(b)), RecolouringSequence(tuple(elim_b)))
    return elim_a + mid + list(back.steps)


def _path_with_scratch(g: Graph, a: list[int], b: list[int], k: int) -> list[Step]:
    """Steps from ``a`` to ``b`` inside palette ``k``, both avoiding colour k.

    Requires maximum degree <= k-1 and degeneracy <= k-2.  Parks a maximal
    independent set on colour k from both ends, so the remainder has maximum
    degree at most k-2, and joins the two remainders with one
    eliminate-connect-undo step at palette k-1.
    """
    if a == b:
        return []
    if g.max_degree > k - 1:
        raise AssertionError(f"maximum degree {g.max_degree} does not fit palette {k}")
    if max(a, default=1) >= k or max(b, default=1) >= k:
        raise AssertionError(f"inputs must avoid colour {k}")
    if k <= 2:
        raise AssertionError("distinct inputs are impossible below palette 3")
    if k == 3:
        return _flip_path_components(g, a, b)

    # Part 1 has budget 0, so a vertex lands in part 2 only when it already
    # has a neighbour in part 1: part 1 is a maximal independent set.
    s1, s2 = degenerate_partition(g, k - 2, (0, k - 3)).parts
    sub, labels = g.induced_subgraph(s2)
    mid = _connect(sub, [a[v] for v in labels], [b[v] for v in labels], k - 1)
    out = [(v, k) for v in s1]
    out += [(labels[v], colour) for v, colour in mid]
    out += [(v, b[v]) for v in reversed(s1)]
    return out


def find_path_non_regular(g: Graph, a: Colouring, b: Colouring) -> RecolouringSequence:
    """Walk between any two palette-(D+1) colourings of a connected
    non-regular graph with maximum degree D >= 3.

    Pipeline: eliminate the top colour from both sides, connect the two
    top-colour-free colourings, replay the second elimination backwards.
    Total length is O(n^2).  Both inputs are checked proper on entry; no
    step is checked as it is built, and one replay of the whole sequence from
    the checked start then checks every step and the final colouring.  The
    graph conditions come first, so a caller may try this route and fall back
    on GraphDisconnectedError, GraphIsRegularError or MaxDegreeTooSmallError.
    """
    if not g.is_connected():
        raise GraphDisconnectedError("path construction requires a connected graph")
    if g.is_regular():
        raise GraphIsRegularError("graph is regular; constructive route unavailable")
    delta = g.max_degree
    if delta < 3:
        raise MaxDegreeTooSmallError(f"max degree {delta} < 3")
    if a.k != delta + 1 or b.k != delta + 1:
        raise ValueError(f"colourings must use palette {delta + 1}")
    require_proper(g, a, "first colouring")
    require_proper(g, b, "second colouring")
    if a.colours == b.colours:
        return RecolouringSequence()

    # _connect checks degeneracy <= D-1, which the middle segment needs too
    seq = RecolouringSequence(tuple(_connect(g, list(a.colours), list(b.colours), delta + 1)))
    final = replay(g, a, seq)
    if final.colours != b.colours:
        raise AssertionError("pipeline did not end at the target colouring")
    return seq


def reverse_sequence(start: Colouring, seq: RecolouringSequence) -> RecolouringSequence:
    """The step-by-step reversal of ``seq`` as applied from ``start``.

    Applying the result to the final colouring of ``seq`` restores ``start``.
    """
    cols = list(start.colours)
    rev: list[Step] = []
    for idx, (v, colour) in enumerate(seq):
        if not 0 <= v < len(cols):
            raise ValueError(f"step {idx}: vertex {v} out of range")
        if not 1 <= colour <= start.k:
            raise ValueError(f"step {idx}: colour {colour} outside 1..{start.k}")
        if cols[v] == colour:
            raise NoOpStepError(idx)
        rev.append((v, cols[v]))
        cols[v] = colour
    rev.reverse()
    return RecolouringSequence(tuple(rev))
