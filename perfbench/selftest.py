#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs the CLI on a few seeded inputs of each workload, confirms that the real
outputs pass every check, then feeds each check corrupted copies and
confirms that it rejects every one.  It also cross-checks the checks' own
shortcuts: the colouring count against enumeration and networkx's chromatic
polynomial, and the eccentricity-based diameters against
``nx.diameter(usebounds=True)``.  Exits 0 when all of that holds.
"""

import contextlib
import copy
import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  pins the thread pools and stops bytecode writes

import checks  # noqa: E402
import inputs  # noqa: E402
import networkx as nx  # noqa: E402
import sympy  # noqa: E402

sys.path.insert(0, str(run.SRC))
FAILURES: list[str] = []
TALLY = {"accepted": 0, "rejected": 0}


def expect_pass(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        FAILURES.append(f"{label}: a correct output was rejected ({exc})")
    else:
        TALLY["accepted"] += 1


def expect_reject(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed:
        TALLY["rejected"] += 1
        return
    FAILURES.append(f"{label}: a corrupted output was accepted")


def free_move(inst, cols):
    """Some (vertex, colour) that is a proper recolouring of ``cols``."""
    for v in range(inst.n):
        for c in range(1, inst.k + 1):
            if c != cols[v] and all(cols[u] != c for u in inst.adj[v]):
                return v, c
    raise RuntimeError(f"{inst.name}: no free move")


def with_steps(steps) -> str:
    return json.dumps({"steps": len(steps), "sequence": [list(s) for s in steps], "valid": True})


def path_corruptions(inst, out):
    """(label, rc, stdout) copies of a correct exit-0 walk, each wrong."""
    steps = [tuple(s) for s in json.loads(out)["sequence"]]
    v, c = free_move(inst, inst.a)
    u = next(iter(inst.adj[v]))
    neighbour_colour = inst.a[u]
    yield "exit 2 for a reachable target", 2, "no path: corrupted"
    yield "exit 2 alongside the walk", 2, out
    yield "step count disagrees", 0, json.dumps(
        {"steps": len(steps) + 1, "sequence": [list(s) for s in steps], "valid": True}
    )
    back = (v, inst.a[v])
    yield "colour outside the palette", 0, with_steps([(v, inst.k + 1), back] + steps)
    yield "vertex out of range", 0, with_steps([(inst.n, 1)] + steps)
    yield "step that changes nothing", 0, with_steps([back] + steps)
    yield "improper intermediate", 0, with_steps([(v, neighbour_colour), back] + steps)
    if steps:
        yield "walk stops short of b", 0, with_steps(steps[:-1])
    detour = [(v, c), back]
    yield "walk above 10 n^2", 0, with_steps(detour * (5 * inst.n * inst.n + 1) + steps)
    if inst.expect.get("shortest"):
        yield "oracle walk not shortest", 0, with_steps(detour + steps)


def test_paths(cli, workdir: Path) -> None:
    large = inputs.path_large(1)[:1]
    corpus = inputs.path_corpus(1)
    inputs.write_inputs(large + corpus, workdir)
    seen = {}
    for inst in large + corpus:
        rc, out = run._call(cli, inst.argv)
        inst.expect = checks.expectation(inst)
        if rc == 2:
            seen.setdefault("no path", (inst, rc, out))
        elif rc == 0 and json.loads(out)["steps"] and not checks.is_frozen(inst.adj, inst.k, inst.a):
            route = "large" if inst.n > 8 else "constructive" if inst.constructive else "oracle"
            seen.setdefault(route, (inst, rc, out))
    missing = {"large", "constructive", "oracle", "no path"} - set(seen)
    if missing:
        FAILURES.append(f"seed 1 lacks path outputs of kind {sorted(missing)}")
    for route, (inst, rc, out) in seen.items():
        expect_pass(f"path {route} {inst.name}", checks.check_path_output, inst, rc, out)
        if route == "no path":
            expect_reject(f"path {route}: exit 0 for an unreachable target",
                          checks.check_path_output, inst, 0, with_steps([]))
            continue
        for label, bad_rc, bad_out in path_corruptions(inst, out):
            expect_reject(f"path {route} {inst.name}: {label}",
                          checks.check_path_output, inst, bad_rc, bad_out)


def test_explore(cli, workdir: Path) -> None:
    instances = inputs.explore_mid(1)[:4]
    inputs.write_inputs(instances, workdir)
    structural = 0
    for inst in instances:
        inst.expect = checks.expectation(inst)
        rc, out = run._call(cli, inst.argv)
        expect_pass(f"explore {inst.name}", checks.check_explore_output, inst, rc, out)
        payload = json.loads(out)
        corrupt = []
        for key, change in (
            ("totalColourings", lambda p: p.update(totalColourings=p["totalColourings"] + 1)),
            ("diameter", lambda p: p["components"][0].update(diameter=p["components"][0]["diameter"] + 1)),
            ("size", lambda p: p["components"][0].update(size=p["components"][0]["size"] - 1)),
            ("frozenCount", lambda p: p.update(frozenCount=p["frozenCount"] + 1)),
            ("isolatedNonFrozen", lambda p: p.update(isolatedNonFrozen=1)),
            ("split component", lambda p: p["components"].append({"size": 1, "diameter": 0})),
        ):
            bad = copy.deepcopy(payload)
            change(bad)
            corrupt.append((key, bad))
        for key, bad in corrupt:
            expect_reject(f"explore {inst.name}: {key}", checks.check_explore_output,
                          inst, 0, json.dumps(bad))
        expect_reject(f"explore {inst.name}: exit 3", checks.check_explore_output, inst, 3, out)
        if inst.k == inst.max_degree + 1 and inst.max_degree >= 3:
            structural += 1
            two = copy.deepcopy(payload)
            two["components"] = [{"size": 2, "diameter": 1}] * 2
            expect_reject(f"structure {inst.name}: two non-trivial components",
                          checks.check_delta_plus_one_structure, two)
            lone = copy.deepcopy(payload)
            lone["components"].append({"size": 1, "diameter": 0})
            expect_reject(f"structure {inst.name}: isolated but not frozen",
                          checks.check_delta_plus_one_structure, lone)
            expect_reject(f"count {inst.name}: P(G, k) off by one",
                          checks.check_colouring_count, payload, inst.expect["chromatic"] - 1)
        # the checks' own shortcuts against the long way round
        graph = checks.reconfiguration_graph(inst.n, inst.adj, inst.k)
        for comp, listed in zip(
            sorted((sorted(c) for c in nx.connected_components(graph)), key=lambda c: c[0]),
            inst.expect["summary"]["components"],
        ):
            full = 0 if len(comp) == 1 else nx.diameter(graph.subgraph(comp), usebounds=True)
            if full != listed["diameter"]:
                FAILURES.append(f"{inst.name}: eccentricity diameter {listed['diameter']} != {full}")
        g = nx.Graph(list(inst.edges))
        g.add_nodes_from(range(inst.n))
        if nx.chromatic_polynomial(g).subs(sympy.Symbol("x"), inst.k) != inst.expect["chromatic"]:
            FAILURES.append(f"{inst.name}: colouring count disagrees with nx.chromatic_polynomial")
        if len(checks.proper_colourings(inst.n, inst.adj, inst.k)) != inst.expect["chromatic"]:
            FAILURES.append(f"{inst.name}: colouring count disagrees with enumeration")
    if not structural:
        FAILURES.append("no explore instance at k = D+1 with D >= 3")


def main() -> int:
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        cli = run._import_program(workdir / "bytecode")
        test_paths(cli, workdir)
        test_explore(cli, workdir)
    with contextlib.suppress(OSError):
        scratch.rmdir()
    for line in FAILURES:
        print(f"FAIL {line}")
    print(f"self-test {'failed' if FAILURES else 'passed'}: {TALLY['accepted']} correct outputs "
          f"accepted, {TALLY['rejected']} corrupted outputs rejected")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
