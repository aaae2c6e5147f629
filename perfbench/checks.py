"""Checks of the CLI's outputs, computed apart from the program.

Nothing here imports ``recolour``.  Graphs are ``(n, adj)`` with ``adj`` a
tuple of neighbour tuples; colourings are tuples of colours ``1..k``.  Every
check raises :class:`CheckFailed` with a reason when an output is wrong.
"""

from __future__ import annotations

import json
from collections import Counter, deque

import networkx as nx


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


def is_connected(n: int, adj) -> bool:
    if n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def colouring_count(n: int, edges, k: int) -> int:
    """P(G, k) from the partitions of V into independent sets.

    P(G, k) = sum_j a_j * k (k-1) ... (k-j+1), where a_j counts the
    partitions into j non-empty independent sets.  Exponential in n; meant
    for the atlas graphs (n <= 7).
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    indep = [True] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        indep[mask] = indep[rest] and not nbr[low.bit_length() - 1] & rest
    memo: dict[int, Counter] = {0: Counter({0: 1})}

    def parts(mask: int) -> Counter:
        if mask not in memo:
            low = mask & -mask
            rest = mask ^ low
            out: Counter = Counter()
            sub = rest
            while True:
                if indep[sub | low]:
                    for j, count in parts(mask ^ sub ^ low).items():
                        out[j + 1] += count
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            memo[mask] = out
        return memo[mask]

    total = 0
    for j, count in parts((1 << n) - 1).items():
        falling = 1
        for i in range(j):
            falling *= k - i
        total += count * falling
    return total


def proper_colourings(n: int, adj, k: int) -> list[tuple[int, ...]]:
    """Every proper k-colouring, in lexicographic order, by backtracking."""
    out: list[tuple[int, ...]] = []
    cols = [0] * n
    earlier = [tuple(u for u in adj[v] if u < v) for v in range(n)]

    def place(v: int) -> None:
        if v == n:
            out.append(tuple(cols))
            return
        for c in range(1, k + 1):
            if all(cols[u] != c for u in earlier[v]):
                cols[v] = c
                place(v + 1)
        cols[v] = 0

    place(0)
    return out


def recolourings(adj, k: int, state: tuple[int, ...]):
    """States one proper single-vertex recolouring away from ``state``."""
    for v, own in enumerate(state):
        taken = {state[u] for u in adj[v]}
        for c in range(1, k + 1):
            if c != own and c not in taken:
                yield state[:v] + (c,) + state[v + 1:]


def is_frozen(adj, k: int, state: tuple[int, ...]) -> bool:
    """Every vertex sees all k-1 other colours on its neighbours."""
    return all(len({state[u] for u in adj[v]}) == k - 1 for v in range(len(state)))


def distance(adj, k: int, a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """Shortest number of recolourings from a to b, None when unreachable."""
    dist = {a: 0}
    queue = deque([a])
    while queue:
        here = queue.popleft()
        if here == b:
            return dist[here]
        for there in recolourings(adj, k, here):
            if there not in dist:
                dist[there] = dist[here] + 1
                queue.append(there)
    return None


def canonical(state: tuple[int, ...]) -> tuple[int, ...]:
    """The colouring with its colours renamed 1, 2, ... in order of first use."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(c, len(names) + 1) for c in state)


def reconfiguration_graph(n: int, adj, k: int) -> nx.Graph:
    states = proper_colourings(n, adj, k)
    graph = nx.Graph()
    graph.add_nodes_from(states)
    for s in states:
        graph.add_edges_from((s, t) for t in recolourings(adj, k, s) if s < t)
    return graph


def eccentricities(graph: nx.Graph) -> dict:
    """Eccentricity (within its component) of every colour-canonical state.

    Renaming colours is an automorphism of the reconfiguration graph, so a
    state has the eccentricity of its canonical form: one networkx BFS per
    canonical form stands for all k! renamings, where all-pairs search or
    ``nx.diameter(usebounds=True)`` would take minutes on 2,000 states.
    """
    return {
        s: max(nx.single_source_shortest_path_length(graph, s).values())
        for s in graph
        if s == canonical(s)
    }


def reconfiguration_summary(n: int, adj, k: int) -> dict:
    """The ``explore`` JSON summary, from first principles and networkx.

    Components are listed by their lexicographically least colouring, as the
    program documents; a diameter is the largest eccentricity of a member.
    """
    graph = reconfiguration_graph(n, adj, k)
    ecc = eccentricities(graph)
    comps = sorted((sorted(c) for c in nx.connected_components(graph)), key=lambda c: c[0])
    frozen = {s for s in graph if is_frozen(adj, k, s)}
    components = [
        {"size": len(comp), "diameter": max(ecc[canonical(s)] for s in comp)}
        for comp in comps
    ]
    isolated = {c[0] for c in comps if len(c) == 1}
    return {
        "totalColourings": graph.number_of_nodes(),
        "components": components,
        "frozenCount": len(frozen),
        "isolatedNonFrozen": len(isolated - frozen),
    }


def expectation(inst) -> dict:
    """What a correct output for ``inst`` must show, computed here.

    explore: ``chromatic`` and ``summary``.  path: ``distance`` (None when b
    is unreachable) and ``shortest`` (the oracle route promises a shortest
    walk); or, when the graph is too large to search, ``reachable``, as no
    colouring of a connected non-regular graph is frozen at k = D+1.
    """
    if inst.kind == "explore":
        return {
            "chromatic": colouring_count(inst.n, inst.edges, inst.k),
            "summary": reconfiguration_summary(inst.n, inst.adj, inst.k),
        }
    if inst.n > 8:
        return {"reachable": True}
    return {
        "distance": distance(inst.adj, inst.k, inst.a, inst.b),
        "shortest": not inst.constructive,
    }


# ---------------------------------------------------------------------------
# Output checks


def check_walk(adj, k: int, a, b, steps) -> None:
    """Replay ``steps`` from ``a``: one changed colour per step, inside 1..k,
    proper throughout, ending at ``b``, at most 10 n^2 steps."""
    n = len(adj)
    if len(steps) > 10 * n * n:
        raise CheckFailed(f"walk has {len(steps)} steps, above 10 n^2 = {10 * n * n}")
    cols = list(a)
    for i, step in enumerate(steps):
        if len(step) != 2:
            raise CheckFailed(f"step {i} is not a (vertex, colour) pair: {step!r}")
        v, c = step
        if not (isinstance(v, int) and 0 <= v < n):
            raise CheckFailed(f"step {i}: vertex {v!r} out of range")
        if not (isinstance(c, int) and 1 <= c <= k):
            raise CheckFailed(f"step {i}: colour {c!r} outside 1..{k}")
        if cols[v] == c:
            raise CheckFailed(f"step {i}: vertex {v} already has colour {c}")
        if any(cols[u] == c for u in adj[v]):
            raise CheckFailed(f"step {i}: vertex {v} to {c} makes an edge monochromatic")
        cols[v] = c
    if tuple(cols) != tuple(b):
        raise CheckFailed("walk does not end at the target colouring")


def check_path_output(inst, rc: int, stdout: str) -> None:
    """An output of ``recolour path --format json`` against ``inst.expect``."""
    expect = inst.expect
    reachable = expect["distance"] is not None if "distance" in expect else expect["reachable"]
    if not reachable:
        if rc != 2 or not stdout.startswith("no path"):
            raise CheckFailed(f"expected exit 2 and 'no path', got exit {rc}: {stdout[:80]!r}")
        return
    if rc != 0:
        raise CheckFailed(f"expected exit 0 (a walk exists), got exit {rc}")
    try:
        payload = json.loads(stdout)
        steps = [tuple(s) for s in payload["sequence"]]
        claimed = payload["steps"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable path output: {exc}") from None
    if claimed != len(steps):
        raise CheckFailed(f"output claims {claimed} steps but lists {len(steps)}")
    check_walk(inst.adj, inst.k, inst.a, inst.b, steps)
    if expect.get("shortest") and len(steps) != expect["distance"]:
        raise CheckFailed(
            f"oracle walk has {len(steps)} steps, shortest is {expect['distance']}"
        )


def check_colouring_count(payload: dict, chromatic: int) -> None:
    """``totalColourings`` is P(G, k) and the component sizes add up to it."""
    total = payload.get("totalColourings")
    if total != chromatic:
        raise CheckFailed(f"totalColourings {total} != P(G, k) = {chromatic}")
    if sum(c.get("size", 0) for c in payload.get("components", [])) != total:
        raise CheckFailed("component sizes do not sum to totalColourings")


def check_summary(payload: dict, summary: dict) -> None:
    """Every field equals the independent reconfiguration graph's."""
    if set(payload) != set(summary):
        raise CheckFailed(f"fields {sorted(payload)} != {sorted(summary)}")
    for key, value in summary.items():
        if payload[key] != value:
            raise CheckFailed(f"{key}: {payload[key]} != independent {value}")


def check_delta_plus_one_structure(payload: dict) -> None:
    """The paper's structure at k = D+1, D >= 3: the isolated states are
    exactly the frozen ones and at most one component is non-trivial."""
    comps = payload["components"]
    singletons = sum(1 for c in comps if c["size"] == 1)
    if singletons != payload["frozenCount"] or payload["isolatedNonFrozen"] != 0:
        raise CheckFailed("isolated states are not exactly the frozen ones")
    if sum(1 for c in comps if c["size"] >= 2) > 1:
        raise CheckFailed("more than one non-trivial component at k = D+1")


def check_explore_output(inst, rc: int, stdout: str) -> None:
    """An output of ``recolour explore --format json`` against ``inst.expect``,
    plus the paper's structure where it applies."""
    if rc != 0:
        raise CheckFailed(f"expected exit 0, got exit {rc}")
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"unreadable explore output: {exc}") from None
    check_colouring_count(payload, inst.expect["chromatic"])
    check_summary(payload, inst.expect["summary"])
    if inst.k == inst.max_degree + 1 and inst.max_degree >= 3:
        check_delta_plus_one_structure(payload)
