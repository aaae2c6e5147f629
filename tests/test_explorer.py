import gc
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import recolour
from recolour import colouring
from recolour.colouring import Colouring, RecolouringSequence, apply_sequence, is_frozen
from recolour.corpus import corpus, random_proper_colouring
from recolour.engine import find_path_non_regular
from recolour.errors import (
    ImproperInputError,
    StateSpaceInvariantError,
    StateSpaceLimitError,
)
from recolour.explorer import (
    ReconfigGraphSummary,
    ReconfigSpace,
    oracle_path,
    verify_lemma_cubic2,
    verify_lemma_first,
    verify_theorem_delta_plus_one,
    verify_theorem_main,
)
from recolour.graph import Graph

from conftest import (
    complete_graph,
    cube_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
    star_graph,
)
from reference import (
    canonical_eccentricities,
    multi_source_distances,
    one_vertex_components,
    vertex_state,
)


def test_enumeration_counts(p3, k4):
    assert ReconfigSpace(p3, 3).size == 12  # 3 * 2 * 2
    assert ReconfigSpace(k4, 4).size == 24  # 4!
    assert ReconfigSpace(k4, 3).size == 0
    # the two empty shapes: one state of no vertices, and no states at all
    empty_graph = ReconfigSpace(Graph(0, ()), 1)
    assert empty_graph.top_counts.tolist() == [0]
    assert empty_graph.summary() == ReconfigGraphSummary(1, ((1, 0),), 1, 0)
    no_states = ReconfigSpace(k4, 3)
    assert no_states.top_counts.tolist() == []
    assert no_states.summary() == ReconfigGraphSummary(0, (), 0, 0)


def test_enumeration_is_lexicographic(p3):
    space = ReconfigSpace(p3, 3)
    cols = [space.colouring_at(i).colours for i in range(space.size)]
    assert cols == sorted(cols)
    assert cols[0] == (1, 2, 1)
    # colours above 255 must not wrap around in the state matrix
    space = ReconfigSpace(Graph(1, ()), 300)
    assert [space.colouring_at(i).colours for i in range(space.size)] == [
        (c,) for c in range(1, 301)
    ]
    assert (np.diff(space.codes) > 0).all()


def test_enumeration_limit(k4):
    with pytest.raises(StateSpaceLimitError):
        ReconfigSpace(k4, 4, limit=100)


def test_r4_k4_all_isolated(k4):
    summary = ReconfigSpace(k4, 4).summary()
    assert summary.total_colourings == 24
    assert summary.frozen_count == 24
    assert summary.isolated_non_frozen == 0
    assert all(size == 1 and diam == 0 for size, diam in summary.components)


def test_r3_c5_components(c5):
    summary = ReconfigSpace(c5, 3).summary()
    big = [size for size, _ in summary.components if size >= 2]
    assert len(big) >= 2
    assert summary.frozen_count == 0


def test_r3_k1():
    summary = ReconfigSpace(Graph(1, ()), 3).summary()
    assert summary.total_colourings == 3
    assert summary.components == ((3, 1),)


def test_moves_are_symmetric(p4, c6, k4_minus_edge):
    """``moves`` holds every one-vertex move in both directions, each once,
    against a brute-force scan of all pairs of states."""
    for g, k in ((p4, 3), (c6, 3), (c6, 4), (k4_minus_edge, 4), (k4_minus_edge, 5)):
        space = ReconfigSpace(g, k)
        indptr, indices = space.moves
        assert indptr.dtype == indices.dtype == np.int32
        assert indptr[0] == 0 and indptr[-1] == indices.size
        src = np.repeat(np.arange(space.size), np.diff(indptr))
        pairs = list(zip(src.tolist(), indices.tolist()))
        assert all(a != b for a, b in pairs)  # no loops
        assert len(set(pairs)) == len(pairs)  # no neighbour twice in a row
        csgraph = space._csgraph
        assert (csgraph != csgraph.T).nnz == 0
        differ = (space.matrix[:, None, :] != space.matrix[None, :, :]).sum(axis=2)
        assert set(pairs) == set(zip(*(a.tolist() for a in np.nonzero(differ == 1))))


def test_component_labels_match_label_propagation():
    """The same partition as an independent propagation over one-vertex
    moves, on every corpus space with n <= 6 at palette D+1.  Labels are
    compared as partitions: their numbering is scipy's."""
    for g in corpus(1, 6):
        space = ReconfigSpace(g, g.max_degree + 1)
        count, labels = space.component_labels
        expected = one_vertex_components(space)
        assert count == np.unique(expected).size
        assert len(set(zip(labels.tolist(), expected.tolist()))) == count


def test_distance_examples(p3, c6):
    a = Colouring(3, (1, 2, 1))
    assert len(oracle_path(p3, 3, a, a)) == 0
    assert len(oracle_path(p3, 3, a, Colouring(3, (1, 2, 3)))) == 1
    frozen = Colouring(3, (1, 2, 3, 1, 2, 3))
    other = Colouring(3, (1, 2, 1, 2, 1, 2))
    assert oracle_path(c6, 3, frozen, other) is None
    empty = Colouring(1, ())
    assert len(oracle_path(Graph(0, ()), 1, empty, empty)) == 0


def test_oracle_path_joins_identical_colourings_without_a_space(p4, builds):
    """Identical colourings are joined by the empty walk, even past the
    limit, and no space is built; they are still checked first."""
    a = Colouring(3, (1, 2, 1, 2))
    assert oracle_path(p4, 3, a, a, limit=10) == RecolouringSequence()  # 3**4 raw states
    assert builds == []
    improper = Colouring(3, (1, 1, 2, 1))
    with pytest.raises(ImproperInputError):
        oracle_path(p4, 3, improper, improper, limit=10)
    with pytest.raises(StateSpaceLimitError):
        oracle_path(p4, 3, a, Colouring(3, (2, 1, 2, 1)), limit=10)


def test_oracle_path_leaves_distinct_colourings_to_the_space(p4, monkeypatch):
    """Distinct colourings are checked once, as states of the space, and not
    scanned for properness: an improper one is no state, so it raises
    ImproperInputError within the limit and comes after the limit past it."""
    scanned = []
    monkeypatch.setattr(colouring, "is_proper", lambda g, c: scanned.append(c) or True)
    a, improper = Colouring(3, (1, 2, 1, 2)), Colouring(3, (1, 1, 2, 1))
    space = ReconfigSpace.of(p4, 3)
    with pytest.raises(ImproperInputError):
        space.index_of(improper)
    for first, second in ((a, improper), (improper, a)):
        with pytest.raises(ImproperInputError):
            oracle_path(p4, 3, first, second)
        with pytest.raises(StateSpaceLimitError):
            oracle_path(p4, 3, first, second, limit=10)
    assert len(oracle_path(p4, 3, a, Colouring(3, (2, 1, 2, 1)))) == 6
    assert scanned == []


def test_oracle_path_rejects_colourings_from_another_palette(p3):
    """A walk in palette k joins two k-colourings; any other palette is an
    error, not a walk that fails to replay."""
    with pytest.raises(ValueError, match="palette 4"):
        oracle_path(p3, 4, Colouring(2, (1, 2, 1)), Colouring(3, (3, 1, 3)))
    with pytest.raises(ValueError, match="palette 3"):
        oracle_path(p3, 3, Colouring(3, (1, 2, 1)), Colouring(4, (3, 1, 3)))


def test_oracle_path_matches_distance(k4_minus_edge, builds):
    g = k4_minus_edge
    a = Colouring(4, (1, 2, 3, 3))
    b = Colouring(4, (4, 1, 2, 2))
    held = ReconfigSpace(g, 4)
    d = int(held.distances_from([held.index_of(a)])[held.index_of(b)])
    path = oracle_path(g, 4, a, b)
    assert len(builds) == 1  # the held space answered
    assert path is not None and len(path) == d
    assert apply_sequence(g, a, path).colours == b.colours
    del held


def test_oracle_path_rejects_a_step_of_two_vertices(p3, monkeypatch):
    """A predecessor chain whose step recolours two vertices is an error,
    not a walk."""
    space = ReconfigSpace.of(p3, 3)  # held, so oracle_path reads this space
    a, b = Colouring(3, (1, 2, 1)), Colouring(3, (3, 2, 3))
    ia, ib = space.index_of(a), space.index_of(b)
    bad = csr_matrix(([1.0, 1.0], ([ia, ib], [ib, ia])), shape=(space.size, space.size))
    monkeypatch.setitem(space.__dict__, "_csgraph", bad)
    with pytest.raises(StateSpaceInvariantError, match="recolours 2 vertices"):
        oracle_path(p3, 3, a, b)


def test_of_shares_only_held_spaces(p3, builds, monkeypatch):
    held = ReconfigSpace.of(p3, 3)
    assert ReconfigSpace.of(path_graph(3), 3) is held  # an equal graph finds it
    with pytest.raises(StateSpaceLimitError):
        ReconfigSpace.of(p3, 3, limit=26)  # 3**3 raw states, live space or not
    assert len(builds) == 1
    del held
    gc.collect()
    assert ReconfigSpace.of(p3, 3).size == 12
    assert len(builds) == 2  # the registry did not keep the dropped space

    def broken(self):
        raise RuntimeError("enumeration failed")

    g = path_graph(4)
    enumerate_states = ReconfigSpace._enumerate
    monkeypatch.setattr(ReconfigSpace, "_enumerate", broken)
    with pytest.raises(RuntimeError) as failed:
        ReconfigSpace.of(g, 3)
    monkeypatch.setattr(ReconfigSpace, "_enumerate", enumerate_states)
    # ``failed`` keeps the half-built space alive through its traceback
    assert ReconfigSpace.of(g, 3).size == 24
    assert len(builds) == 3 and "enumeration failed" in str(failed.value)


def test_of_is_safe_across_threads():
    graphs = [path_graph(n) for n in range(2, 7)]
    errors = []

    def worker(seed):
        rng, held = random.Random(seed), []
        try:
            for _ in range(200):
                g = rng.choice(graphs)
                space = ReconfigSpace.of(g, 3)
                if (space.graph, space.k, space.size) != (g, 3, 3 * 2 ** (g.n - 1)):
                    errors.append((g, space.graph, space.size))
                held = [space, *held[:2]]  # some spaces stay live, so lookups hit
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_frozen_mask_matches_predicate(c6):
    space = ReconfigSpace(c6, 3)
    for i in range(space.size):
        c = space.colouring_at(i)
        assert bool(space.frozen_mask[i]) == is_frozen(c6, c)


def test_frozen_states_are_isolated(c6):
    space = ReconfigSpace(c6, 3)
    _, labels = space.component_labels
    sizes = np.bincount(labels)
    assert ((sizes[labels] == 1) == space.frozen_mask).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_distance_symmetry_and_triangle(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randrange(2, 5))
    k = g.max_degree + 1
    space = ReconfigSpace(g, k)
    if space.size < 3:
        return
    ia, ib, ic = (rng.randrange(space.size) for _ in range(3))
    da = space.distances_from([ia])
    db = space.distances_from([ib])
    assert da[ib] == db[ia]
    if np.isfinite(da[ib]) and np.isfinite(db[ic]):
        assert da[ic] <= da[ib] + db[ic]


def _source_sets(space, rng):
    """The sets the checks search from and a few others: the top-colour-free
    states, a random subset, one state and none."""
    yield np.nonzero(space.top_counts == 0)[0]
    yield np.array(sorted(rng.sample(range(space.size), space.size // 3)))
    yield [rng.randrange(space.size)]
    yield []


def test_distances_from_matches_scipy():
    """Multi-source distances equal scipy's on every corpus space with
    n <= 6 at palettes D+1 and D+2, and on spaces of more than one block of
    rows that hold isolated states and several components."""
    rng = random.Random(8)
    spaces = [
        ReconfigSpace(g, k)
        for g in corpus(1, 6)
        for k in (g.max_degree + 1, g.max_degree + 2)
    ]
    for g, k in ((cycle_graph(10), 3), (cycle_graph(12), 3), (cube_graph(), 4)):
        spaces.append(ReconfigSpace(g, k))
    for space in spaces:
        for sources in _source_sets(space, rng):
            assert np.array_equal(
                space.distances_from(sources), multi_source_distances(space, sources)
            ), (space.graph, space.k, len(sources))
    big = [space.component_sizes() for space in spaces[-3:] if space.size > 1024]
    assert len(big) == 3
    assert any((sizes == 1).any() and (sizes >= 2).any() for sizes in big)
    assert any((sizes >= 2).sum() >= 2 for sizes in big)


def test_distances_from_holds_no_copy_of_the_moves():
    """One multi-source search on K_{1,5} at k = 6 (18,750 states, 405,720
    directed moves) allocates less than 4 bytes per directed move beyond the
    moves themselves: no per-call weight or index copy of the move graph."""
    space = ReconfigSpace(star_graph(5), 6)
    _, indices = space.moves
    assert (space.size, indices.size) == (18_750, 405_720)
    sources = np.nonzero(space.top_counts == 0)[0]
    tracemalloc.start()
    try:
        space.distances_from(sources)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * indices.size


def test_sequence_replay_lands_at_oracle_distance_zero(k4_minus_edge):
    g = k4_minus_edge
    rng = random.Random(11)
    a = random_proper_colouring(g, 4, rng)
    b = random_proper_colouring(g, 4, rng)
    seq = find_path_non_regular(g, a, b)
    end = apply_sequence(g, a, seq)
    assert len(oracle_path(g, 4, end, b)) == 0


def test_verify_delta_plus_one(p4, k4_minus_edge, c6, k4, c5):
    assert verify_theorem_delta_plus_one(p4).status == "pass"
    assert verify_theorem_delta_plus_one(k4_minus_edge).status == "pass"
    assert verify_theorem_delta_plus_one(c6).status == "pass"  # even cycle counts
    assert verify_theorem_delta_plus_one(k4).status == "skip"  # complete
    assert verify_theorem_delta_plus_one(c5).status == "skip"  # odd cycle


def test_verify_theorem_main(k4, cube, k4_minus_edge, p4):
    r = verify_theorem_main(k4)
    assert r.status == "pass" and r.stats["big_components"] == 0
    r = verify_theorem_main(cube)
    assert r.status == "pass"
    assert r.stats["frozen"] == 24 and r.stats["big_components"] == 1
    sizes = [size for size, _ in ReconfigSpace(cube, 4).summary().components]
    assert sum(size >= 2 for size in sizes) == 1 and sizes.count(1) == 24
    r = verify_theorem_main(k4_minus_edge)
    assert r.status == "pass" and r.stats["frozen"] == 0
    assert r.stats["big_components"] == 1
    assert verify_theorem_main(p4).status == "skip"  # max degree 2


def test_verify_theorem_main_reports_unfrozen_isolated_states(monkeypatch):
    """On K4 at k = 4 every state is isolated and frozen; a space whose
    frozen mask is cleared must fail with its first five states cited."""
    space = ReconfigSpace.of(complete_graph(4), 4)  # held, so the check reads this space
    monkeypatch.setitem(space.__dict__, "frozen_mask", np.zeros(space.size, dtype=bool))
    r = verify_theorem_main(complete_graph(4))
    rows = [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2), (1, 4, 2, 3)]
    assert (r.status, r.reason) == ("fail", "isolated state is not frozen")
    assert r.counterexamples == tuple(rows)
    assert r.to_json_dict()["counterexamples"] == [list(row) for row in rows]


def test_verify_theorem_main_reports_frozen_states_in_big_component(monkeypatch):
    """K_{1,3} at k = 4 has 108 states and no isolated one; a space whose
    frozen mask is all True must fail with its first five states cited."""
    space = ReconfigSpace.of(star_graph(3), 4)
    assert space.size == 108
    monkeypatch.setitem(space.__dict__, "frozen_mask", np.ones(space.size, dtype=bool))
    r = verify_theorem_main(star_graph(3))
    rows = [(1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 2, 4), (1, 2, 3, 2), (1, 2, 3, 3)]
    assert (r.status, r.reason) == ("fail", "frozen state is not isolated")
    assert r.counterexamples == tuple(rows)
    assert r.to_json_dict()["counterexamples"] == [list(row) for row in rows]


def test_verify_lemma_cubic2_small():
    # connected desk-scale graphs admit no reduced-form colouring with two
    # top-coloured vertices that is not frozen (two such vertices at
    # distance >= 3 with locked closed neighbourhoods need more room), so
    # the check passes vacuously; frozen here as an exhaustive fact
    for g in corpus(5, 6):
        if g.max_degree < 3:
            continue
        report = verify_lemma_cubic2(g, limit=100_000)
        assert report.status in ("pass", "skip")
        if report.status == "pass":
            assert report.stats.get("qualifying", 0) == 0


def test_lemma_cubic2_machinery_detects_irreducibility():
    """Two disjoint complete blocks plus a spare vertex: reduced form, two
    top-coloured vertices, not frozen, and the top-colour count provably
    cannot drop (every proper colouring of a block uses all four colours).
    The lemma excludes this shape via connectivity; the detection machinery
    must still see it."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges[:6]]
    g = Graph.from_edges(9, edges)
    space = ReconfigSpace(g, 4, limit=300_000)
    qualifying = space.reduced_mask & (space.top_counts >= 2) & ~space.frozen_mask
    assert qualifying.any()
    assert int(space.top_counts[qualifying].min()) == 2
    assert not (space.top_counts < 2).any()  # nothing to walk towards
    report = verify_lemma_cubic2(g)
    assert report.status == "skip"  # connectivity precondition


def test_lemma_cubic2_on_a_graph_with_qualifying_colourings():
    """No corpus graph up to n = 7 has a qualifying colouring, so the lemma's
    distance loop needs a larger graph: this connected 10-vertex graph with
    D = 3 has 12 qualifying 4-colourings, each 3 moves or fewer from a
    colouring with fewer top-coloured vertices."""
    g = Graph.from_edges(10, [
        (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (1, 8), (2, 5),
        (2, 8), (3, 4), (3, 6), (4, 7), (6, 9), (7, 8), (7, 9),
    ])
    report = verify_lemma_cubic2(g)  # 4**10 raw states, within the default limit
    assert report.status == "pass"
    assert report.stats == {
        "states": 14_640, "qualifying": 12, "max_distance": 3, "max_distance_over_n": 0.3,
    }
    space = ReconfigSpace.of(g, 4)
    qualifying = space.reduced_mask & (space.top_counts >= 2) & ~space.frozen_mask
    farthest = max(
        multi_source_distances(space, np.nonzero(space.top_counts < t)[0])[
            qualifying & (space.top_counts == t)
        ].max()
        for t in np.unique(space.top_counts[qualifying])
    )
    assert farthest == report.stats["max_distance"]
    first = verify_lemma_first(g)
    assert (first.stats["states_with_locked_paths"], first.stats["endvertex_instances"]) == (12, 24)
    assert verify_theorem_main(g).stats["component_diameter"] == 15


def test_verify_lemma_first_small(c6, cube):
    assert verify_lemma_first(c6).status == "pass"
    r = verify_lemma_first(cube)
    assert r.status == "pass"
    assert r.stats["endvertex_instances"] > 0


def test_connectivity_above_top_palette():
    """With palette >= max degree + 2, the reconfiguration graph of every
    small connected graph is one component."""
    for g in corpus(2, 5):
        k = g.max_degree + 2
        space = ReconfigSpace(g, k, limit=300_000)
        count, _ = space.component_labels
        assert count == 1


def test_diameter_ratio_above_top_palette():
    worst = 0.0
    for g in corpus(2, 4):
        k = g.max_degree + 2
        summary = ReconfigSpace(g, k, limit=50_000).summary()
        assert len(summary.components) == 1
        size, diameter = summary.components[0]
        worst = max(worst, diameter / (g.n * g.n))
    assert worst <= 2.0  # loose desk-scale envelope, recorded not assumed


def test_summary_json_field_names(k4):
    payload = ReconfigSpace(k4, 4).summary().to_json_dict()
    assert set(payload) == {
        "totalColourings",
        "components",
        "frozenCount",
        "isolatedNonFrozen",
    }
    assert payload["components"][0] == {"size": 1, "diameter": 0}


def test_reduced_states_keep_top_colours_apart():
    """Two top-coloured vertices of a reduced state are at distance >= 3: a
    common neighbour would be locked yet see the top colour twice."""
    shared = 0
    for n in range(1, 7):
        for g in corpus(n, n):
            space = ReconfigSpace(g, g.max_degree + 1)
            top = space.matrix == space.k
            reduced = space.reduced_mask
            for u in range(n):
                near = set(g.adjacency[u]).union(*(g.adjacency[x] for x in g.adjacency[u]))
                for w in near - {u}:
                    assert not (reduced & top[:, u] & top[:, w]).any()
            shared += int((reduced & (space.top_counts >= 2)).sum())
    assert shared


def test_pairwise_distances(p3):
    space = ReconfigSpace(p3, 3)
    _, labels = space.component_labels
    rows = [space.distances_from([i]) for i in range(space.size)]
    pairs = 0
    for i in range(space.size):
        for j in range(i + 1, space.size):
            if labels[i] == labels[j]:
                assert rows[i][j] == rows[j][i] >= 1
                pairs += 1
    assert pairs


def test_locked_mask_matches_definition(cube, k4_minus_edge, petersen):
    rng = random.Random(5)
    for g in (cube, k4_minus_edge, petersen):
        space = ReconfigSpace(g, g.max_degree + 1)
        for i in rng.sample(range(space.size), 40):
            c = space.colouring_at(i)
            expected = [vertex_state(g, c, v).locked for v in range(g.n)]
            assert space.locked_mask[i].tolist() == expected


# -- exact diameters from colour-canonical states ---------------------------


def _component_diameter(space, members, chunk=64):
    """Reference: a BFS from every member of the component (all pairs)."""
    if members.size <= 1:
        return 0
    best = 0.0
    for start in range(0, members.size, chunk):
        rows = dijkstra(
            space._csgraph, directed=False, indices=members[start : start + chunk],
            unweighted=True,
        )
        best = max(best, float(rows[:, members].max()))
    return int(best)


def _diameter_spaces(state_cap=1_000):
    """R_{D+1} and R_{D+2} of every corpus graph on up to 7 vertices with at
    most ``state_cap`` proper colourings; at n = 7 only k**n <= 100,000 is
    enumerated, which keeps the scan for small spaces cheap."""
    for n in range(1, 8):
        for g in corpus(n, n):
            for k in (g.max_degree + 1, g.max_degree + 2):
                try:
                    space = ReconfigSpace(g, k, limit=100_000 if n == 7 else 2_000_000)
                except StateSpaceLimitError:
                    continue
                if space.size <= state_cap:
                    yield space


def test_diameters_match_all_pairs_bfs():
    components = 0
    for space in _diameter_spaces():
        count, labels = space.component_labels
        for lab in range(count):
            members = np.nonzero(labels == lab)[0]
            assert space.component_diameters[lab] == _component_diameter(space, members)
            components += 1
    assert components > 900


def test_canonical_index(cube, c6, k4_minus_edge):
    rng = random.Random(3)
    for g, k in ((cube, 4), (c6, 3), (c6, 4), (k4_minus_edge, 5)):
        space = ReconfigSpace(g, k)
        canon = space.canonical_index
        assert np.array_equal(canon[canon], canon)
        for i in rng.sample(range(space.size), 30):
            rename: dict[int, int] = {}
            for colour in space.matrix[i]:
                rename.setdefault(int(colour), len(rename) + 1)
            expected = [rename[int(colour)] for colour in space.matrix[i]]
            assert space.matrix[canon[i]].tolist() == expected


def test_eccentricity_is_constant_on_colour_orbits(cube, c6, k4_minus_edge):
    rng = random.Random(4)
    for g, k in ((cube, 4), (c6, 3), (k4_minus_edge, 5)):
        space = ReconfigSpace(g, k)
        ecc = space.eccentricities
        for i in rng.sample(range(space.size), 20):
            dist = space.distances_from([i])
            assert ecc[i] == dist[np.isfinite(dist)].max()
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            image = Colouring(k, tuple(perm[c - 1] for c in space.colouring_at(i).colours))
            assert ecc[space.index_of(image)] == ecc[i]


def test_eccentricities_across_search_words():
    """The searches run 64 to a word: check every state against one scipy
    BFS per canonical state on spaces whose sources fill more than two
    words and end in a partial one, that hold isolated states, and that
    hold several non-trivial components."""
    seen = set()
    for g, k in ((cycle_graph(10), 3), (cycle_graph(12), 3), (cube_graph(), 4)):
        space = ReconfigSpace(g, k)
        _, labels = space.component_labels
        sizes = space.component_sizes()
        sources = np.unique(space.canonical_index)
        sources = sources[sizes[labels[sources]] >= 2]
        if sources.size > 128 and sources.size % 64:
            seen.add("partial last word")
        if (sizes == 1).any() and (sizes >= 2).any():
            seen.add("isolated states")
        if (sizes >= 2).sum() >= 2:
            seen.add("several components")
        expected = canonical_eccentricities(space)
        assert space.eccentricities.tolist() == [
            expected[int(c)] for c in space.canonical_index
        ]
    assert seen == {"partial last word", "isolated states", "several components"}


def test_named_diameters():
    assert ReconfigSpace(petersen_graph(), 4).summary().components == ((12960, 14),)
    assert ReconfigSpace(cube_graph(), 5).summary().components == ((29660, 12),)


def test_invariant_guards_hold_under_optimize():
    """Deleting one state from a built space must trip the guards of both
    ``canonical_index`` (the least state is canonical) and ``moves`` (the
    largest state is reached by a move), with asserts compiled out.  The
    engine's and the classifier's internal guards must fire there too."""
    src = Path(recolour.__file__).resolve().parents[1]
    script = (
        "import numpy as np\n"
        "from recolour.classifier import cycle_orientation, winding_sum\n"
        "from recolour.colouring import Colouring\n"
        "from recolour.engine import _flip_path_components, _path_with_scratch\n"
        "from recolour.errors import StateSpaceInvariantError\n"
        "from recolour.explorer import ReconfigSpace\n"
        "from recolour.graph import Graph\n"
        "p3 = Graph.from_edges(3, [(0, 1), (1, 2)])\n"
        "c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])\n"
        "star3 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])\n"
        "for drop, member in ((0, 'canonical_index'), (11, 'moves')):\n"
        "    space = ReconfigSpace(p3, 3)\n"
        "    keep = np.arange(space.size) != drop\n"
        "    space.matrix, space.codes = space.matrix[keep], space.codes[keep]\n"
        "    try:\n"
        "        getattr(space, member)\n"
        "    except StateSpaceInvariantError:\n"
        "        print('rejected', member)\n"
        "lollipop = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)])\n"
        "cases = {\n"
        "    'flip-cycle': lambda: _flip_path_components(\n"
        "        c4, [1, 2, 1, 2], [2, 1, 2, 1]),\n"
        "    'flip-not-a-path': lambda: _flip_path_components(\n"
        "        lollipop, [1, 2, 1, 2, 1], [2, 1, 2, 1, 2]),\n"
        "    'flip-agreeing-vertex': lambda: _flip_path_components(\n"
        "        p3, [1, 2, 1], [2, 1, 1]),\n"
        "    'scratch-degree': lambda: _path_with_scratch(\n"
        "        star3, [1, 2, 2, 2], [2, 1, 1, 1], 3),\n"
        "    'scratch-top-colour': lambda: _path_with_scratch(\n"
        "        p3, [1, 2, 3], [1, 2, 1], 3),\n"
        "    'cycle-orientation': lambda: cycle_orientation(p3, (0, 1, 2)),\n"
        "    'winding-sum': lambda: winding_sum([0, 1, 2], Colouring(3, (1, 1, 2))),\n"
        "}\n"
        "for label, call in cases.items():\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError:\n"
        "        print('rejected', label)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, cwd=src, check=True,
    )
    assert out.stdout.splitlines() == [
        "rejected canonical_index",
        "rejected moves",
        "rejected flip-cycle",
        "rejected flip-not-a-path",
        "rejected flip-agreeing-vertex",
        "rejected scratch-degree",
        "rejected scratch-top-colour",
        "rejected cycle-orientation",
        "rejected winding-sum",
    ]
