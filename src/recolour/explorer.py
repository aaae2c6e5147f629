"""Exhaustive oracle over the reconfiguration graph of k-colourings.

The reconfiguration graph has one vertex per proper k-colouring of G; two
colourings are adjacent when they disagree on exactly one vertex.  This
module enumerates all proper colourings by backtracking over vertices in
index order (states therefore come out in lexicographic order of their
colour vectors), materialises the single-vertex moves, and answers
structural questions by breadth-first search: components, diameters,
distances, frozen counts.

Everything here is computed from first principles (properness, frozenness
and lockedness straight from their definitions) so that the module remains
an independent check on the constructive algorithms.  numpy carries the
state arrays.  The moves are held once, as one symmetric int32 CSR
(:attr:`ReconfigSpace.moves`).  scipy's sparse-graph routines read it as a
directed graph without converting it, which spares them a transpose per
call, and find only the components and the breadth-first tree from which
:func:`oracle_path` reads its walks.  Distances and diameters come from one
bit-parallel level search over numpy words (:meth:`ReconfigSpace._levels`).
The only guard is a cap on the raw state count k**n.

The walk that :func:`oracle_path` prints from a to b is the path to b in
the FIFO breadth-first tree from a.  Each state's moves are scanned in CSR
order, which is (vertex, new colour), and a state's parent is the first
state that reaches it.  A tree path is a shortest walk.

States are interned as base-k integers of their colour vectors, which makes
the lexicographic enumeration order coincide with ascending codes.

A space is a pure function of (graph, palette), so oracle consumers share
one through :meth:`ReconfigSpace.of`; it is held weakly, so nothing keeps a
space alive beyond its holders.

Exact diameters use the symmetry of the reconfiguration graph.  Renaming the
colours by a permutation of the palette keeps a colouring proper and keeps a
one-vertex move a one-vertex move, so it is an automorphism of R_k(G) and
preserves every distance, hence every eccentricity.  Each orbit holds one
colour-canonical state, whose colours appear as 1, 2, ... in order of first
occurrence along the vertex order.  So one BFS from each canonical state
gives the eccentricity of every state, and a component's diameter is the
largest eccentricity in it: about S / k! searches instead of S.  Those
searches run 64 at a time, one bit of a ``uint64`` word per search, as in
MS-BFS (Then et al., "The More the Merrier: Efficient Multi-Source Graph
Traversal", PVLDB 2014).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import connected_components as _sparse_components

from .colouring import Colouring, RecolouringSequence, require_proper
from .errors import StateSpaceInvariantError, StateSpaceLimitError
from .graph import Graph

DEFAULT_STATE_LIMIT = 2_000_000

# one search per bit of a frontier word
_WORD_BITS = 64

# states per block when building moves and per gather of a BFS level: it
# bounds the temporaries, a few words per move of the block
_BLOCK_STATES = 1024

# (graph, palette) -> the latest space built for it, while some caller holds it
_live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class ReconfigSpace:
    """All proper k-colourings of a graph plus their single-vertex moves."""

    def __init__(self, g: Graph, k: int, limit: int = DEFAULT_STATE_LIMIT):
        if k < 1:
            raise ValueError("palette size must be at least 1")
        raw = k ** g.n
        if raw > limit:
            raise StateSpaceLimitError(raw, limit)
        self.graph = g
        self.k = k
        self.radix = np.array(
            [k ** (g.n - 1 - v) for v in range(g.n)], dtype=np.int64
        )
        self.matrix, self.codes = self._enumerate()
        _live[g, k] = self  # last, so a failed build registers nothing

    @classmethod
    def of(cls, g: Graph, k: int, limit: int = DEFAULT_STATE_LIMIT) -> "ReconfigSpace":
        """The space of ``(g, k)`` that some caller still holds, else a new
        one; ``limit`` caps the raw ``k**n`` either way."""
        space = _live.get((g, k))
        if space is None or k ** g.n > limit:  # __init__ raises before building
            space = cls(g, k, limit)
        return space

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """The proper colourings as a (states, n) matrix, and their codes.

        Vertex v extends each partial colouring by every colour that no
        earlier neighbour carries, in colour order; a child's code is its
        parent's code times k plus its colour - 1.
        """
        g, k = self.graph, self.k
        dtype = np.min_scalar_type(k)  # the narrowest unsigned type holding 1..k
        columns: list[np.ndarray] = []
        codes = np.zeros(1, dtype=np.int64)
        for v in range(g.n):
            free = np.ones((codes.size, k + 1), dtype=bool)  # colour slots 0..k
            free[:, 0] = False
            starts = np.arange(0, free.size, k + 1)
            for u in g.adjacency[v]:
                if u < v:
                    free.reshape(-1)[starts + columns[u]] = False
            flat = np.flatnonzero(free)
            parent = flat // (k + 1)
            colour = (flat - parent * (k + 1)).astype(dtype)
            columns = [column[parent] for column in columns]
            columns.append(colour)
            codes = codes[parent] * k + (colour - 1)
        if not columns:
            return np.zeros((1, 0), dtype=dtype), codes
        return np.stack(columns, axis=1), codes

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def moves(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR ``(indptr, indices)`` in int32: every recolouring
        move in both directions, grouped by source state and ordered within
        a state by (vertex, new colour).

        States are taken a block at a time.  A block's free-colour table has
        one slot per (state, vertex, colour 0..k); one scatter clears the
        slots of colour 0 and of the colours that the vertex or a neighbour
        carries, and each slot left is one move.  Targets are looked up by
        raw code in a table over all k**n codes that only the enumerated
        codes fill, so every target is checked to be an enumerated state.
        """
        g, k, size, n = self.graph, self.k, self.size, self.graph.n
        width, slots = k + 1, n * (k + 1)
        closed = np.array([u for v, a in enumerate(g.adjacency) for u in (v, *a)], dtype=np.intp)
        firsts = np.repeat(np.arange(n) * width, [1 + len(a) for a in g.adjacency])
        # per (block state, entry u of v's closed neighbourhood): the flat index
        # of v's colour-0 slot, to which u's colour is added
        offsets = np.arange(min(size, _BLOCK_STATES))[:, None] * slots + firsts
        vertex_of = np.repeat(np.arange(n), width)
        step = (self.radix[:, None] * np.arange(-1, k)).ravel()  # (colour - 1) * radix[v]
        table = np.empty(k**n, dtype=np.int32)  # pages that no code touches cost nothing
        table[self.codes] = np.arange(size, dtype=np.int32)
        indptr = np.zeros(size + 1, dtype=np.int32)
        indices = np.empty(size * n * (k - 1), dtype=np.int32)  # the most moves there can be
        for start in range(0, size, _BLOCK_STATES):
            block = self.matrix[start : start + _BLOCK_STATES]
            rows = block.shape[0]
            free = np.ones((rows, slots), dtype=bool)
            free[:, ::width] = False
            free.reshape(-1)[offsets[:rows] + block[:, closed]] = False
            flat = np.flatnonzero(free)
            state = flat // slots
            slot = flat - state * slots
            # per (state, vertex): the state's code without the vertex's colour
            rest = self.codes[start : start + rows, None] - (block - 1) * self.radix
            target = np.take(rest, state * n + vertex_of[slot]) + step[slot]
            dst = table[target]
            _require_enumerated(self.codes, dst, target, "a single-vertex move")
            lo = indptr[start]
            indices[lo : lo + dst.size] = dst
            row_moves = np.bincount(state, minlength=rows)
            indptr[start + 1 : start + rows + 1] = lo + np.cumsum(row_moves)
        return indptr, indices[: indptr[-1]]

    @cached_property
    def _csgraph(self) -> csr_matrix:
        """``moves`` as a scipy matrix of unit weights, in the float64 and
        int32 that scipy's graph routines read without copying."""
        indptr, indices = self.moves
        data = np.broadcast_to(1.0, indices.shape)
        return csr_matrix((data, indices, indptr), shape=(self.size, self.size))

    @cached_property
    def component_labels(self) -> tuple[int, np.ndarray]:
        # every move runs both ways, so the strong components are the components
        count, labels = _sparse_components(self._csgraph, directed=True, connection="strong")
        return count, labels

    @cached_property
    def _distinct_neighbour_colours(self) -> np.ndarray:
        """(states, n) matrix: how many distinct colours each vertex's
        neighbours carry.  A neighbour adds one when its colour differs from
        that of every neighbour listed before it."""
        g = self.graph
        counts = np.zeros((self.size, g.n), dtype=np.int16)
        for v in range(g.n):
            nbrs = g.adjacency[v]
            for j, u in enumerate(nbrs):
                new = np.ones(self.size, dtype=bool)
                for w in nbrs[:j]:
                    new &= self.matrix[:, u] != self.matrix[:, w]
                counts[:, v] += new
        return counts

    @cached_property
    def frozen_mask(self) -> np.ndarray:
        """Per state: does every vertex see all k-1 other colours?"""
        return (self._distinct_neighbour_colours == self.k - 1).all(axis=1)

    @cached_property
    def locked_mask(self) -> np.ndarray:
        """(states, n) matrix: vertex sees max_degree distinct neighbour colours."""
        return self._distinct_neighbour_colours == self.graph.max_degree

    @cached_property
    def reduced_mask(self) -> np.ndarray:
        """Per state: is it in *reduced form*, every top-coloured vertex
        locked along with its neighbours?  Two top-coloured vertices of a
        reduced state are then at distance at least 3.

        Only meaningful for palette k = max_degree + 1.
        """
        g = self.graph
        if self.k != g.max_degree + 1:
            raise ValueError("reduced form is defined for palette max_degree + 1")
        locked = self.locked_mask
        reduced = np.ones(self.size, dtype=bool)
        for v in range(g.n):
            closed = locked[:, v].copy()
            for u in g.adjacency[v]:
                closed &= locked[:, u]
            reduced &= ~(self.matrix[:, v] == self.k) | closed
        return reduced

    @cached_property
    def top_counts(self) -> np.ndarray:
        """Per state: number of vertices carrying the top palette colour."""
        return (self.matrix == self.k).sum(axis=1).astype(np.int16)

    def distances_from(self, indices) -> np.ndarray:
        """Multi-source BFS distances to every state (inf when unreachable)."""
        seen = np.zeros(self.size, dtype=np.uint8)  # one search, so one bit
        seen[np.asarray(indices, dtype=np.intp)] = 1
        dist = np.where(seen, 0.0, np.inf)
        for level, (reached, _) in enumerate(self._levels(seen), 1):
            dist[reached != 0] = level
        return dist

    def index_of(self, c: Colouring) -> int:
        """State index of a proper colouring (values may use fewer colours)."""
        if c.n != self.graph.n:
            raise ValueError("colouring does not match the graph")
        if max(c.colours, default=1) > self.k:
            raise ValueError(f"colouring uses a colour above {self.k}")
        code = sum(
            (colour - 1) * int(self.radix[v]) for v, colour in enumerate(c.colours)
        )
        pos = int(np.searchsorted(self.codes, code))
        if pos >= self.size or self.codes[pos] != code:
            raise ValueError("colouring is not a proper colouring of the graph")
        return pos

    def colouring_at(self, index: int) -> Colouring:
        return Colouring(self.k, tuple(int(c) for c in self.matrix[index]))

    def component_sizes(self) -> np.ndarray:
        count, labels = self.component_labels
        return np.bincount(labels, minlength=count)

    @cached_property
    def canonical_index(self) -> np.ndarray:
        """Per state: the index of its colour-canonical form, the state with
        its colours renamed 1, 2, ... in order of first occurrence along the
        vertex order."""
        size, n = self.matrix.shape
        canon = np.zeros_like(self.matrix)
        used = np.zeros(size, dtype=np.int64)
        code = np.zeros(size, dtype=np.int64)
        for v in range(n):
            col = self.matrix[:, v]
            label = np.zeros(size, dtype=np.int64)
            for w in range(v):  # same-coloured earlier vertices share a label
                label = np.where(self.matrix[:, w] == col, canon[:, w], label)
            fresh = label == 0
            used += fresh
            label[fresh] = used[fresh]
            canon[:, v] = label
            code += (label - 1) * self.radix[v]
        pos = np.searchsorted(self.codes, code)
        _require_enumerated(self.codes, pos, code, "a colour-canonical form")
        return pos

    @cached_property
    def _row_blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``moves`` as :meth:`_levels` gathers it, per block of non-empty rows
        (reduceat over an empty row would give the next row's first word):
        the rows, a view of their targets and where each row starts in it."""
        indptr, indices = self.moves
        rows = np.nonzero(np.diff(indptr))[0]
        blocks = []
        for first in range(0, rows.size, _BLOCK_STATES):
            part = rows[first : first + _BLOCK_STATES]
            lo, hi = indptr[part[0]], indptr[part[-1] + 1]
            blocks.append((part, indices[lo:hi], indptr[part] - lo))
        return blocks

    def _levels(self, seen: np.ndarray):
        """The searches from the bits set in ``seen`` (a word per state, a bit
        per search), a level at a time.  A level ORs each state's neighbours'
        words; the bits new at a state join ``seen`` and are yielded, with their
        OR over all states.  The searches end at a level that reaches nothing."""
        frontier = seen
        while True:
            reached = np.zeros_like(seen)
            for part, nbrs, starts in self._row_blocks:
                # np.take, unlike frontier[nbrs], gathers without an intp index copy
                reached[part] = np.bitwise_or.reduceat(np.take(frontier, nbrs), starts)
            reached &= ~seen
            found = np.bitwise_or.reduce(reached)
            if not found:
                return
            seen |= reached
            yield reached, found
            frontier = reached

    @cached_property
    def eccentricities(self) -> np.ndarray:
        """Per state: its largest distance to a state of its own component.

        Colour renamings preserve eccentricity (see the module docstring), so
        only the distinct canonical states of components with two or more
        states are searched from, 64 to a ``uint64`` word of :meth:`_levels`.
        A source's eccentricity is the last level that reaches a new state
        from it.
        """
        _, labels = self.component_labels
        canon = self.canonical_index
        sources = np.unique(canon)
        sources = sources[self.component_sizes()[labels[sources]] >= 2]
        ecc = np.zeros(self.size, dtype=np.int64)
        for first in range(0, sources.size, _WORD_BITS):
            chunk = sources[first : first + _WORD_BITS]
            bits = np.left_shift(np.uint64(1), np.arange(chunk.size, dtype=np.uint64))
            seen = np.zeros(self.size, dtype=np.uint64)
            seen[chunk] = bits
            for level, (_, found) in enumerate(self._levels(seen), 1):
                ecc[chunk[(found & bits) != 0]] = level
        return ecc[canon]

    @cached_property
    def component_diameters(self) -> np.ndarray:
        """Per component label: the largest eccentricity of its states."""
        count, labels = self.component_labels
        diameters = np.zeros(count, dtype=np.int64)
        np.maximum.at(diameters, labels, self.eccentricities)
        return diameters

    def summary(self) -> "ReconfigGraphSummary":
        """Component structure with exact diameters.

        Components are listed in order of their least state.  Diameters cost
        one BFS per colour-canonical state of a non-trivial component (see
        :attr:`eccentricities`), not one per state.
        """
        _, labels = self.component_labels
        sizes = self.component_sizes()
        diameters = self.component_diameters
        _, first_state = np.unique(labels, return_index=True)
        components = tuple(
            (int(sizes[lab]), int(diameters[lab])) for lab in np.argsort(first_state)
        )
        frozen = self.frozen_mask
        return ReconfigGraphSummary(
            total_colourings=self.size,
            components=components,
            frozen_count=int(frozen.sum()),
            isolated_non_frozen=int(((sizes[labels] == 1) & ~frozen).sum()),
        )


def _require_enumerated(
    codes: np.ndarray, pos: np.ndarray, target: np.ndarray, what: str
) -> None:
    """Raise unless ``codes[pos] == target`` everywhere: every state that
    ``what`` produces must be an enumerated state.  A ``pos`` out of range
    is clipped into it, where its code cannot equal a target that is not
    enumerated, so it fails the check instead of raising IndexError."""
    if pos.size and not np.array_equal(np.take(codes, pos, mode="clip"), target):
        raise StateSpaceInvariantError(f"{what} left the enumerated states")


@dataclass(frozen=True)
class ReconfigGraphSummary:
    """Shape of one reconfiguration graph: component sizes and diameters,
    how many states are frozen, and how many isolated states are not."""

    total_colourings: int
    components: tuple[tuple[int, int], ...]
    frozen_count: int
    isolated_non_frozen: int

    def to_json_dict(self) -> dict:
        return {
            "totalColourings": self.total_colourings,
            "components": [
                {"size": size, "diameter": diameter}
                for size, diameter in self.components
            ],
            "frozenCount": self.frozen_count,
            "isolatedNonFrozen": self.isolated_non_frozen,
        }


def oracle_path(
    g: Graph, k: int, a: Colouring, b: Colouring, limit: int = DEFAULT_STATE_LIMIT
) -> RecolouringSequence | None:
    """A shortest recolouring sequence from ``a`` to ``b``, None if unreachable.

    The sequence is the path to ``b`` in the breadth-first tree from ``a``
    (see the module docstring).  Identical colourings, once checked proper,
    get the empty walk with no space built, so ``limit`` does not apply.
    """
    if a.k != k or b.k != k:
        raise ValueError(f"colourings must use palette {k}")
    require_proper(g, a)
    require_proper(g, b)
    if a.colours == b.colours:
        return RecolouringSequence()
    space = ReconfigSpace.of(g, k, limit)
    ia, ib = space.index_of(a), space.index_of(b)
    _, pred = breadth_first_order(
        space._csgraph, ia, directed=True, return_predecessors=True
    )
    if ib != ia and pred[ib] < 0:
        return None
    chain = [ib]
    while chain[-1] != ia:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    states = space.matrix[chain]
    changed = states[1:] != states[:-1]
    step, vertex = np.nonzero(changed)
    if step.tolist() != list(range(len(chain) - 1)):  # not one vertex per step
        recoloured = changed.sum(axis=1)
        i = int(np.flatnonzero(recoloured != 1)[0])
        raise StateSpaceInvariantError(
            f"BFS step {chain[i]} -> {chain[i + 1]} recolours {recoloured[i]} vertices"
        )
    return RecolouringSequence(tuple(zip(vertex.tolist(), states[1:][changed].tolist())))


# ---------------------------------------------------------------------------
# Machine checks of the structural statements on one instance


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one oracle-backed check on one instance."""

    check: str
    status: str  # "pass" | "fail" | "skip"
    reason: str | None = None
    stats: dict = field(default_factory=dict, compare=False)
    counterexamples: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "reason": self.reason,
            "stats": self.stats,
            "counterexamples": [list(c) for c in self.counterexamples],
        }


def _fail(
    check: str, reason: str, stats: dict, space: ReconfigSpace, mask: np.ndarray
) -> CheckReport:
    """A failure citing the first five states of ``mask`` as counterexamples."""
    rows = np.nonzero(mask)[0][:5]
    return CheckReport(
        check, "fail", reason, stats,
        tuple(tuple(int(x) for x in space.matrix[r]) for r in rows),
    )


_DISCONNECTED = (lambda g: not g.is_connected(), "graph is disconnected")
_BELOW_CUBIC = (lambda g: g.max_degree < 3, "max degree below 3")


def _top_space(check: str, g: Graph, limit: int, guards=()) -> ReconfigSpace | CheckReport:
    """The palette-(D+1) space of ``g``, or a skip naming the first guard
    that holds or the state-space cap."""
    reason = next((reason for holds, reason in guards if holds(g)), None)
    if reason is None:
        try:
            return ReconfigSpace.of(g, g.max_degree + 1, limit)
        except StateSpaceLimitError as exc:
            reason = str(exc)
    return CheckReport(check, "skip", reason)


def _is_odd_cycle(g: Graph) -> bool:
    return (
        g.n >= 3
        and g.n % 2 == 1
        and g.is_regular()
        and g.max_degree == 2
        and g.is_connected()
    )


def verify_theorem_delta_plus_one(
    g: Graph, limit: int = DEFAULT_STATE_LIMIT
) -> CheckReport:
    """Every non-frozen palette-(D+1) colouring reaches a colouring that
    avoids the top colour, except on complete graphs and odd cycles."""
    check = "delta-colouring-reachability"
    space = _top_space(check, g, limit, (
        _DISCONNECTED, (Graph.is_complete, "complete graph"), (_is_odd_cycle, "odd cycle"),
    ))
    if isinstance(space, CheckReport):
        return space
    low = np.nonzero(space.top_counts == 0)[0]
    if low.size == 0:
        return CheckReport(
            check, "fail", "no colouring avoids the top colour", {"states": space.size}
        )
    dist = space.distances_from(low)
    candidates = ~space.frozen_mask
    bad = candidates & np.isinf(dist)
    stats = {
        "states": space.size,
        "top_free_states": int(low.size),
        "non_frozen_states": int(candidates.sum()),
    }
    if bad.any():
        return _fail(
            check, "non-frozen colouring cannot reach a top-colour-free colouring",
            stats, space, bad,
        )
    if candidates.any():
        reachable = dist[candidates]
        stats["max_distance"] = int(reachable.max())
        stats["max_distance_over_n2"] = float(reachable.max() / (g.n * g.n))
    return CheckReport(check, "pass", None, stats)


def verify_theorem_main(
    g: Graph, limit: int = DEFAULT_STATE_LIMIT, diameter_state_cap: int = 20_000
) -> CheckReport:
    """For connected graphs with max degree >= 3 and palette D+1: isolated
    states are exactly the frozen colourings and at most one component has
    two or more states."""
    check = "single-big-component"
    space = _top_space(check, g, limit, (_DISCONNECTED, _BELOW_CUBIC))
    if isinstance(space, CheckReport):
        return space
    count, labels = space.component_labels
    sizes = space.component_sizes()
    frozen = space.frozen_mask
    isolated = sizes[labels] == 1 if count else np.zeros(0, dtype=bool)
    stats = {
        "states": space.size,
        "components": int(count),
        "frozen": int(frozen.sum()),
        "big_components": int((sizes >= 2).sum()),
    }
    if (isolated & ~frozen).any():
        return _fail(check, "isolated state is not frozen", stats, space, isolated & ~frozen)
    if (frozen & ~isolated).any():
        return _fail(check, "frozen state is not isolated", stats, space, frozen & ~isolated)
    if int((sizes >= 2).sum()) > 1:
        return CheckReport(check, "fail", "more than one non-trivial component", stats)
    big = np.nonzero(sizes >= 2)[0]
    if big.size == 1 and sizes[big[0]] <= diameter_state_cap:
        diameter = int(space.component_diameters[big[0]])
        stats["component_diameter"] = diameter
        stats["diameter_over_n2"] = float(diameter / (g.n * g.n))
    return CheckReport(check, "pass", None, stats)


def verify_lemma_cubic2(g: Graph, limit: int = DEFAULT_STATE_LIMIT) -> CheckReport:
    """Every non-frozen reduced-form colouring with at least two top-coloured
    vertices can reach, within O(n) moves, a colouring with fewer of them."""
    check = "reduce-top-colour-count"
    space = _top_space(check, g, limit, (_DISCONNECTED, _BELOW_CUBIC))
    if isinstance(space, CheckReport):
        return space
    qualifying = space.reduced_mask & (space.top_counts >= 2) & ~space.frozen_mask
    stats = {"states": space.size, "qualifying": int(qualifying.sum())}
    if not qualifying.any():
        return CheckReport(check, "pass", "no qualifying colourings", stats)
    max_dist = 0
    for t in np.unique(space.top_counts[qualifying]):
        sources = np.nonzero(space.top_counts < t)[0]
        here = qualifying & (space.top_counts == t)
        if sources.size == 0:
            return _fail(
                check, "no colouring with fewer top-coloured vertices exists",
                stats, space, here,
            )
        dist = space.distances_from(sources)
        if np.isinf(dist[here]).any():
            return _fail(
                check, "cannot reduce the number of top-coloured vertices",
                stats, space, here & np.isinf(dist),
            )
        max_dist = max(max_dist, int(dist[here].max()))
    stats["max_distance"] = max_dist
    stats["max_distance_over_n"] = float(max_dist / g.n)
    return CheckReport(check, "pass", None, stats)


def verify_lemma_first(g: Graph, limit: int = DEFAULT_STATE_LIMIT) -> CheckReport:
    """In reduced form, the end of any all-locked path between top-coloured
    vertices also ends such a path of length exactly 3."""
    check = "locked-path-length-3"
    space = _top_space(check, g, limit)
    if isinstance(space, CheckReport):
        return space
    k = space.k
    # states with fewer than two top-coloured vertices hold no such path
    candidates = np.nonzero(space.reduced_mask & (space.top_counts >= 2))[0]
    adj = g.adjacency
    endvertex_instances = 0
    for state in candidates:
        row = space.matrix[state]
        locked = space.locked_mask[state]
        tops = [v for v in range(g.n) if row[v] == k]
        # endvertices of all-locked paths: top vertices with another top
        # vertex reachable through locked vertices only
        for u in tops:
            if not locked[u]:
                raise StateSpaceInvariantError(
                    f"reduced-form state {int(state)} has unlocked top vertex {u}"
                )
            stack, seen = [u], {u}
            partner = False
            while stack and not partner:
                x = stack.pop()
                for y in adj[x]:
                    if y in seen or not locked[y]:
                        continue
                    if row[y] == k:
                        partner = True
                        break
                    seen.add(y)
                    stack.append(y)
            if not partner:
                continue
            endvertex_instances += 1
            witness = any(
                locked[a] and locked[b] and locked[w] and row[w] == k
                for a in adj[u]
                if locked[a]
                for b in adj[a]
                if b != u and locked[b]
                for w in adj[b]
                if w != u and w != a and row[w] == k
            )
            if not witness:
                return CheckReport(
                    check,
                    "fail",
                    f"endvertex {u} has no length-3 all-locked path",
                    {"states": space.size},
                    (tuple(int(x) for x in row),),
                )
    return CheckReport(
        check,
        "pass",
        None,
        {
            "states": space.size,
            "reduced_states": int(space.reduced_mask.sum()),
            "states_with_locked_paths": int(candidates.size),
            "endvertex_instances": endvertex_instances,
        },
    )
