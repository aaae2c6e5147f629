"""Seeded inputs for the three workloads, made without the program.

Graphs come from networkx's graph atlas or from the bounded-degree
generator below; colourings from the samplers below.  Nothing here imports
``recolour``, so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

from checks import adjacency, colouring_count, is_connected, proper_colourings

# path-large: every (n, D) cell of this grid, GRAPHS_PER_CELL graphs each
LARGE_SIZES = (200, 300, 400)
LARGE_DEGREES = (3, 4, 5, 6)
GRAPHS_PER_CELL = 4
LARGE_AVERAGE_DEGREE = 0.8  # times D

# path-corpus: (graph, palette) pairs drawn from every connected atlas graph on
# 5..7 vertices at palettes 3..D+2 with at most CORPUS_STATE_CAP proper
# colourings.  The draw is stratified by band of that count and by route
# (constructive or not), in proportion to the whole population, so every seed
# gets the same mix of cheap and costly calls.
CORPUS_SIZES = (5, 6, 7)
CORPUS_CALLS = 600
CORPUS_BANDS = (10, 50, 200, 800, 2000)  # upper ends; the last band ends at the cap
CORPUS_STATE_CAP = 5000
CORPUS_LIMIT = 8 ** 7  # raw k**n of the largest palette on 7 vertices

# explore-mid: for each target, the connected atlas graph (4..7 vertices) and
# palette D+1 or D+2 whose proper-colouring count is nearest to it
EXPLORE_TARGETS = tuple(round(100 * 30 ** (i / 8)) for i in range(9))
EXPLORE_LIMIT = 8 ** 7


@dataclass
class Instance:
    """One CLI call's inputs; ``expect`` is filled in by the checks."""

    name: str
    kind: str  # "path" or "explore"
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    a: tuple[int, ...] | None = None
    b: tuple[int, ...] | None = None
    limit: int | None = None
    argv: list[str] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    expect: dict | None = None

    @property
    def adj(self):
        return adjacency(self.n, self.edges)

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @property
    def constructive(self) -> bool:
        """The README's rule for the constructive route of ``path``."""
        adj = self.adj
        degrees = {len(a) for a in adj}
        d = self.max_degree
        return self.k == d + 1 and d >= 3 and is_connected(self.n, adj) and len(degrees) > 1


def _relabel(rng: random.Random, n: int, edges) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def bounded_degree_graph(rng: random.Random, n: int, d: int) -> tuple[tuple[int, int], ...]:
    """Connected, non-regular, maximum degree exactly d, average about 0.8 d.

    A random spanning tree with degrees capped at d, then random edges
    between vertices with spare degree, then edges at one hub until it has
    degree d.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    spare: list[int] = []

    def link(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        for w in (u, v):
            if len(adj[w]) == d:
                spare.remove(w)

    order = list(range(n))
    rng.shuffle(order)
    spare.append(order[0])
    for v in order[1:]:
        u = rng.choice(spare)
        spare.append(v)
        link(u, v)
    m = n - 1
    while m < round(LARGE_AVERAGE_DEGREE * d * n / 2):
        u, v = rng.sample(spare, 2)
        if v not in adj[u]:
            link(u, v)
            m += 1
    hub = max(range(n), key=lambda w: len(adj[w]))
    for v in order:
        if len(adj[hub]) == d:
            break
        if v != hub and v not in adj[hub] and len(adj[v]) < d:
            link(hub, v)
    degrees = [len(a) for a in adj]
    if max(degrees) != d or min(degrees) == d:
        raise RuntimeError(f"generator missed its degree targets for n={n}, d={d}")
    return tuple(sorted((u, v) for u in range(n) for v in adj[u] if u < v))


def greedy_colouring(rng: random.Random, adj, k: int) -> tuple[int, ...]:
    """Visit vertices in random order; give each a uniform free colour."""
    cols = [0] * len(adj)
    order = list(range(len(adj)))
    rng.shuffle(order)
    for v in order:
        taken = {cols[u] for u in adj[v]}
        cols[v] = rng.choice([c for c in range(1, k + 1) if c not in taken])
    return tuple(cols)


def _atlas(sizes) -> list[tuple[int, nx.Graph]]:
    return [
        (idx, g)
        for idx, g in enumerate(nx.graph_atlas_g())
        if g.number_of_nodes() in sizes and nx.is_connected(g)
    ]


def path_large(seed: int) -> list[Instance]:
    rng = random.Random(f"path-large/{seed}")
    out = []
    for n in LARGE_SIZES:
        for d in LARGE_DEGREES:
            for rep in range(GRAPHS_PER_CELL):
                edges = bounded_degree_graph(rng, n, d)
                adj = adjacency(n, edges)
                a = greedy_colouring(rng, adj, d + 1)
                b = greedy_colouring(rng, adj, d + 1)
                out.append(Instance(f"n{n}-d{d}-{rep}", "path", n, edges, d + 1, a, b))
    return out


def path_corpus(seed: int) -> list[Instance]:
    rng = random.Random(f"path-corpus/{seed}")
    strata: dict[tuple[int, bool], list[Instance]] = defaultdict(list)
    for idx, g in _atlas(CORPUS_SIZES):
        n = g.number_of_nodes()
        edges = tuple(g.edges())
        d = max(deg for _, deg in g.degree())
        for k in range(3, d + 3):
            count = colouring_count(n, edges, k)
            if 0 < count <= CORPUS_STATE_CAP:
                inst = Instance(f"atlas{idx}-k{k}", "path", n, edges, k, limit=CORPUS_LIMIT)
                strata[bisect.bisect(CORPUS_BANDS, count), inst.constructive].append(inst)
    population = sum(len(s) for s in strata.values())
    out = []
    for key in sorted(strata):
        for inst in rng.sample(strata[key], round(CORPUS_CALLS * len(strata[key]) / population)):
            inst.edges = _relabel(rng, inst.n, inst.edges)
            states = proper_colourings(inst.n, inst.adj, inst.k)
            inst.a, inst.b = rng.choice(states), rng.choice(states)
            out.append(inst)
    return out


def explore_choices() -> list[tuple[int, int, int]]:
    """(atlas index, k, P(G, k)) nearest to each target; seed-independent."""
    candidates = []
    for idx, g in _atlas((4, 5, 6, 7)):
        edges = tuple(g.edges())
        n = g.number_of_nodes()
        d = max(deg for _, deg in g.degree())
        for k in (d + 1, d + 2):
            candidates.append((idx, k, colouring_count(n, edges, k)))
    return [
        min(candidates, key=lambda c: (abs(math.log(c[2] / t)), c[0], c[1]))
        for t in EXPLORE_TARGETS
    ]


def explore_mid(seed: int) -> list[Instance]:
    """The fixed explore instances, each under a seeded vertex relabelling."""
    rng = random.Random(f"explore-mid/{seed}")
    atlas = nx.graph_atlas_g()
    out = []
    for idx, k, _ in explore_choices():
        g = atlas[idx]
        n = g.number_of_nodes()
        edges = _relabel(rng, n, g.edges())
        out.append(Instance(f"atlas{idx}-k{k}", "explore", n, edges, k, limit=EXPLORE_LIMIT))
    return out


def _colouring_text(k: int, cols) -> str:
    return f"{k}\n{' '.join(str(c) for c in cols)}\n"


def write_inputs(instances: list[Instance], workdir: Path) -> None:
    """Write each instance's files and set the argv of its CLI call."""
    for i, inst in enumerate(instances):
        graph = workdir / f"{i:03d}-graph.txt"
        graph.write_text(
            f"{inst.n} {len(inst.edges)}\n" + "".join(f"{u} {v}\n" for u, v in inst.edges)
        )
        inst.files = [graph]
        if inst.kind == "explore":
            inst.argv = ["explore", "--graph", str(graph), "--k", str(inst.k), "--format", "json"]
        else:
            ca, cb = workdir / f"{i:03d}-a.txt", workdir / f"{i:03d}-b.txt"
            ca.write_text(_colouring_text(inst.k, inst.a))
            cb.write_text(_colouring_text(inst.k, inst.b))
            inst.files += [ca, cb]
            inst.argv = [
                "path", "--graph", str(graph), "--colouring-a", str(ca),
                "--colouring-b", str(cb), "--format", "json",
            ]
        if inst.limit is not None:
            inst.argv += ["--limit", str(inst.limit)]


WORKLOADS = {
    "path-large": path_large,
    "path-corpus": path_corpus,
    "explore-mid": explore_mid,
}
