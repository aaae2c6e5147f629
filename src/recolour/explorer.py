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
state arrays; scipy's sparse-graph routines find components, distances and
shortest walks, and diameters come from a bit-parallel BFS over numpy words
(see :attr:`ReconfigSpace.eccentricities`).  The only guard is a cap on the
raw state count k**n.

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
from scipy.sparse.csgraph import connected_components as _sparse_components
from scipy.sparse.csgraph import dijkstra

from .colouring import Colouring, RecolouringSequence, require_proper
from .errors import StateSpaceInvariantError, StateSpaceLimitError
from .graph import Graph

DEFAULT_STATE_LIMIT = 2_000_000

# one search per bit of a frontier word
_WORD_BITS = 64

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
        self.matrix = self._enumerate()
        if g.n:
            self.codes = (self.matrix.astype(np.int64) - 1) @ self.radix
        else:
            self.codes = np.zeros(self.matrix.shape[0], dtype=np.int64)
        _live[g, k] = self  # last, so a failed build registers nothing

    @classmethod
    def of(cls, g: Graph, k: int, limit: int = DEFAULT_STATE_LIMIT) -> "ReconfigSpace":
        """The space of ``(g, k)`` that some caller still holds, else a new
        one; ``limit`` caps the raw ``k**n`` either way."""
        space = _live.get((g, k))
        if space is None or k ** g.n > limit:  # __init__ raises before building
            space = cls(g, k, limit)
        return space

    def _enumerate(self) -> np.ndarray:
        g, k = self.graph, self.k
        dtype = np.min_scalar_type(k)  # the narrowest unsigned type holding 1..k
        m = np.zeros((1, 0), dtype=dtype)
        for v in range(g.n):
            earlier = [u for u in g.adjacency[v] if u < v]
            reps = np.repeat(m, k, axis=0)
            col = np.tile(np.arange(1, k + 1, dtype=dtype), m.shape[0])
            keep = np.ones(len(col), dtype=bool)
            for u in earlier:
                keep &= reps[:, u] != col
            m = np.concatenate([reps[keep], col[keep, None]], axis=1)
            if m.shape[0] == 0:
                return np.zeros((0, g.n), dtype=dtype)
        return m

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def moves(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected recolouring moves, each reported once (towards the
        larger replacement colour)."""
        g, k = self.graph, self.k
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        for v in range(g.n):
            current = self.matrix[:, v]
            for colour in range(2, k + 1):
                ok = current < colour
                for u in g.adjacency[v]:
                    ok &= self.matrix[:, u] != colour
                idx = np.nonzero(ok)[0]
                if idx.size == 0:
                    continue
                delta = (np.int64(colour) - current[idx].astype(np.int64)) * self.radix[v]
                target = self.codes[idx] + delta
                pos = np.searchsorted(self.codes, target)
                _require_enumerated(self.codes, pos, target, "a single-vertex move")
                srcs.append(idx)
                dsts.append(pos)
        if srcs:
            return np.concatenate(srcs), np.concatenate(dsts)
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    @cached_property
    def _csgraph(self) -> csr_matrix:
        src, dst = self.moves
        data = np.ones(len(src), dtype=np.int8)
        return csr_matrix((data, (src, dst)), shape=(self.size, self.size))

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR ``(indptr, indices)``: every move in both directions."""
        c = self._csgraph
        both = (c + c.T).tocsr()
        return both.indptr, both.indices

    @cached_property
    def component_labels(self) -> tuple[int, np.ndarray]:
        if self.size == 0:
            return 0, np.zeros(0, dtype=np.int32)
        count, labels = _sparse_components(self._csgraph, directed=False)
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
        if self.graph.n == 0:
            return np.zeros(self.size, dtype=np.int16)
        return (self.matrix == self.k).sum(axis=1).astype(np.int16)

    def distances_from(self, indices) -> np.ndarray:
        """Multi-source BFS distances to every state (inf when unreachable)."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.size == 0:
            return np.zeros(0)
        if indices.size == 0:
            return np.full(self.size, np.inf)
        return dijkstra(
            self._csgraph, directed=False, indices=indices, unweighted=True, min_only=True
        )

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
        if count == 0:
            return np.zeros(0, dtype=np.int64)
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
    def eccentricities(self) -> np.ndarray:
        """Per state: its largest distance to a state of its own component.

        Colour renamings preserve eccentricity (see the module docstring), so
        only the distinct canonical states of components with two or more
        states are searched from.  The searches advance together, level by
        level, 64 to a pass: each state holds one ``uint64`` word with one
        bit per search, a level ORs the words of every state's neighbours,
        and a bit that appears at a state for the first time marks that
        state as reached by that search.  A source's eccentricity is the last
        level that reaches a new state from it; a pass ends at the first
        level that reaches none.
        """
        _, labels = self.component_labels
        canon = self.canonical_index
        sources = np.unique(canon)
        sources = sources[self.component_sizes()[labels[sources]] >= 2]
        ecc = np.zeros(self.size, dtype=np.int64)
        indptr, indices = self._adjacency
        # reduceat over an empty row would return the next row's first word
        rows = np.nonzero(np.diff(indptr))[0]
        starts = indptr[rows]
        for first in range(0, sources.size, _WORD_BITS):
            chunk = sources[first : first + _WORD_BITS]
            bits = np.left_shift(np.uint64(1), np.arange(chunk.size, dtype=np.uint64))
            seen = np.zeros(self.size, dtype=np.uint64)
            seen[chunk] = bits
            frontier, level = seen.copy(), 0
            while True:
                reached = np.zeros(self.size, dtype=np.uint64)
                # np.take, unlike frontier[indices], gathers without an intp index copy
                reached[rows] = np.bitwise_or.reduceat(np.take(frontier, indices), starts)
                reached &= ~seen
                found = np.bitwise_or.reduce(reached)
                if not found:
                    break
                level += 1
                ecc[chunk[(found & bits) != 0]] = level
                seen |= reached
                frontier = reached
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
    ``what`` produces must be an enumerated state."""
    if pos.size and not np.array_equal(codes[np.minimum(pos, codes.size - 1)], target):
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
    """A shortest recolouring sequence from ``a`` to ``b``, None if unreachable."""
    require_proper(g, a)
    require_proper(g, b)
    space = ReconfigSpace.of(g, k, limit)
    ia, ib = space.index_of(a), space.index_of(b)
    dist, pred = dijkstra(
        space._csgraph,
        directed=False,
        indices=ia,
        unweighted=True,
        return_predecessors=True,
    )
    if np.isinf(dist[ib]):
        return None
    chain = [ib]
    while chain[-1] != ia:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    steps = []
    for here, there in zip(chain, chain[1:]):
        diff = np.nonzero(space.matrix[here] != space.matrix[there])[0]
        if diff.size != 1:
            raise StateSpaceInvariantError(
                f"BFS step {here} -> {there} recolours {diff.size} vertices"
            )
        v = int(diff[0])
        steps.append((v, int(space.matrix[there][v])))
    return RecolouringSequence(tuple(steps))


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

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "reason": self.reason,
            "stats": self.stats,
            "counterexamples": [list(c) for c in self.counterexamples],
        }


def _skip(check: str, reason: str) -> CheckReport:
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
    if not g.is_connected():
        return _skip(check, "graph is disconnected")
    if g.is_complete():
        return _skip(check, "complete graph")
    if _is_odd_cycle(g):
        return _skip(check, "odd cycle")
    k = g.max_degree + 1
    try:
        space = ReconfigSpace.of(g, k, limit)
    except StateSpaceLimitError as exc:
        return _skip(check, str(exc))
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
        rows = np.nonzero(bad)[0][:5]
        return CheckReport(
            check,
            "fail",
            "non-frozen colouring cannot reach a top-colour-free colouring",
            stats,
            tuple(tuple(int(x) for x in space.matrix[r]) for r in rows),
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
    if not g.is_connected():
        return _skip(check, "graph is disconnected")
    if g.max_degree < 3:
        return _skip(check, "max degree below 3")
    k = g.max_degree + 1
    try:
        space = ReconfigSpace.of(g, k, limit)
    except StateSpaceLimitError as exc:
        return _skip(check, str(exc))
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
        rows = np.nonzero(isolated & ~frozen)[0][:5]
        return CheckReport(
            check, "fail", "isolated state is not frozen", stats,
            tuple(tuple(int(x) for x in space.matrix[r]) for r in rows),
        )
    if (frozen & ~isolated).any():
        rows = np.nonzero(frozen & ~isolated)[0][:5]
        return CheckReport(
            check, "fail", "frozen state is not isolated", stats,
            tuple(tuple(int(x) for x in space.matrix[r]) for r in rows),
        )
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
    if not g.is_connected():
        return _skip(check, "graph is disconnected")
    if g.max_degree < 3:
        return _skip(check, "max degree below 3")
    k = g.max_degree + 1
    try:
        space = ReconfigSpace.of(g, k, limit)
    except StateSpaceLimitError as exc:
        return _skip(check, str(exc))
    qualifying = space.reduced_mask & (space.top_counts >= 2) & ~space.frozen_mask
    stats = {"states": space.size, "qualifying": int(qualifying.sum())}
    if not qualifying.any():
        return CheckReport(check, "pass", "no qualifying colourings", stats)
    max_dist = 0
    for t in np.unique(space.top_counts[qualifying]):
        sources = np.nonzero(space.top_counts < t)[0]
        here = qualifying & (space.top_counts == t)
        if sources.size == 0:
            rows = np.nonzero(here)[0][:5]
            return CheckReport(
                check, "fail", "no colouring with fewer top-coloured vertices exists",
                stats,
                tuple(tuple(int(x) for x in space.matrix[r]) for r in rows),
            )
        dist = space.distances_from(sources)
        if np.isinf(dist[here]).any():
            rows = np.nonzero(here & np.isinf(dist))[0][:5]
            return CheckReport(
                check, "fail", "cannot reduce the number of top-coloured vertices",
                stats,
                tuple(tuple(int(x) for x in space.matrix[r]) for r in rows),
            )
        max_dist = max(max_dist, int(dist[here].max()))
    stats["max_distance"] = max_dist
    stats["max_distance_over_n"] = float(max_dist / g.n)
    return CheckReport(check, "pass", None, stats)


def verify_lemma_first(g: Graph, limit: int = DEFAULT_STATE_LIMIT) -> CheckReport:
    """In reduced form, the end of any all-locked path between top-coloured
    vertices also ends such a path of length exactly 3."""
    check = "locked-path-length-3"
    k = g.max_degree + 1
    try:
        space = ReconfigSpace.of(g, k, limit)
    except StateSpaceLimitError as exc:
        return _skip(check, str(exc))
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
