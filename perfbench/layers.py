"""Per-layer counts and self times, recorded from outside the program.

The tracer wraps the layers' functions after ``recolour`` is imported and
patches each wrapper into every module that holds the original, because
``engine``, ``cli`` and ``classifier`` import names directly.  Modules are
reached through ``importlib.import_module``: the package attribute
``recolour.degeneracy`` is the function, not the submodule.

A span's self time is its duration minus the time of the traced spans it
called, so the ``*_s`` metrics add up to the traced time of a round.  Spans
are aggregated as they close (count and self time per name) rather than
kept one by one: a round makes hundreds of thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (home module, attribute) -> span name
FUNCTIONS = {
    ("degeneracy", "degeneracy_ordering"): "degeneracy.ordering",
    ("degeneracy", "degenerate_partition"): "degeneracy.partition",
    ("degeneracy", "augment_to_maximal_independent"): "degeneracy.partition",
    ("engine", "find_path_non_regular"): "engine.pipeline",
    ("engine", "eliminate_top_colour"): "engine.eliminate",
    ("engine", "_eliminate"): "engine.eliminate",
    ("engine", "path_between_delta_colourings"): "engine.middle",
    ("colouring", "apply_sequence"): "colouring.replay",
    ("colouring", "is_proper"): "colouring.proper_check",
    ("classifier", "decide_k_colour_path"): "classifier.decide",
    ("explorer", "oracle_path"): "explorer.oracle_path",
    ("explorer", "dijkstra"): "explorer.bfs",
    ("graph", "parse_graph"): "graph.parse",
    ("graph", "connected_components"): "graph.components",
    ("cli", "main"): "cli",
}

# ReconfigSpace members (cached properties are re-wrapped in place)
SPACE_MEMBERS = {
    "__init__": "explorer.enumerate",
    "moves": "explorer.moves",
    "_csgraph": "explorer.components",
    "component_labels": "explorer.components",
    "frozen_mask": "explorer.frozen",
    "summary": "explorer.summary",
}

MODULES = ("graph", "colouring", "degeneracy", "engine", "explorer", "classifier", "corpus", "cli")

# per-layer metric -> (unit, better); the order of BENCHMARK.json
METRICS = {
    "degeneracy.ordering_calls": ("count/round", "lower"),
    "degeneracy.ordering_s": ("s/round", "lower"),
    "degeneracy.partition_calls": ("count/round", "lower"),
    "degeneracy.partition_s": ("s/round", "lower"),
    "engine.pipeline_calls": ("count/round", "lower"),
    "engine.pipeline_self_s": ("s/round", "lower"),
    "engine.eliminate_s": ("s/round", "lower"),
    "engine.middle_s": ("s/round", "lower"),
    "colouring.replay_calls": ("count/round", "lower"),
    "colouring.replayed_steps": ("count/round", "lower"),
    "colouring.replay_s": ("s/round", "lower"),
    "colouring.replayed_per_emitted_step": ("ratio", "lower"),
    "colouring.proper_checks": ("count/round", "lower"),
    "colouring.proper_check_s": ("s/round", "lower"),
    "classifier.decide_calls": ("count/round", "lower"),
    "classifier.decide_s": ("s/round", "lower"),
    "explorer.spaces_built": ("count/round", "lower"),
    "explorer.spaces_per_distinct": ("ratio", "lower"),
    "explorer.enumerate_s": ("s/round", "lower"),
    "explorer.moves_s": ("s/round", "lower"),
    "explorer.oracle_path_s": ("s/round", "lower"),
    "explorer.components_s": ("s/round", "lower"),
    "explorer.frozen_s": ("s/round", "lower"),
    "explorer.bfs_calls": ("count/round", "lower"),
    "explorer.bfs_sources": ("count/round", "lower"),
    "explorer.bfs_s": ("s/round", "lower"),
    "explorer.summary_self_s": ("s/round", "lower"),
    "explorer.proper_states": ("count/round", "lower"),
    "explorer.raw_states": ("count/round", "lower"),
    "explorer.state_bytes": ("B", "lower"),
    "graph.parse_s": ("s/round", "lower"),
    "graph.components_calls": ("count/round", "lower"),
    "cli.calls": ("count/round", "higher"),
    "cli.self_s": ("s/round", "lower"),
    "cli.steps_emitted": ("count/round", "lower"),
}


class Tracer:
    """Counts and self times per span name, plus the layers' work counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.state_bytes = 0
        self._child_time: list[float] = []
        self._call_keys: set = set()

    def span(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if before:
                before(*args, **kwargs)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after:
                    after(result, *args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed

        return traced

    # -- work counted at the boundaries --------------------------------

    def _replayed(self, _result, _g, _start, seq):
        self.work["replayed_steps"] += len(seq)

    def _bfs(self, _result, csgraph, *args, indices=None, **kwargs):
        self.work["bfs_sources"] += csgraph.shape[0] if indices is None else _count(indices)

    def _built(self, _result, space, g, k, *args, **kwargs):
        self.work["proper_states"] += space.size
        self.work["raw_states"] += k ** g.n
        self._call_keys.add((g.n, g.edges, k))

    def _moves(self, result, space):
        size = space.matrix.nbytes + space.codes.nbytes + sum(a.nbytes for a in result)
        self.state_bytes = max(self.state_bytes, size)

    def _call_start(self, *args, **kwargs):
        self._call_keys = set()

    def _call_end(self, *args, **kwargs):
        self.work["distinct_spaces"] += len(self._call_keys)

    def install(self) -> list[str]:
        """Patch the imported program; returns the hooks it could not find."""
        mods = {m: importlib.import_module(f"recolour.{m}") for m in MODULES}
        holders = [*mods.values(), importlib.import_module("recolour")]
        hooks = {
            "apply_sequence": (None, self._replayed),
            "dijkstra": (None, self._bfs),
            "main": (self._call_start, self._call_end),
        }
        missing = []
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(mods[home], attr, None)
            if original is None:
                missing.append(f"{home}.{attr}")
                continue
            before, after = hooks.get(attr, (None, None))
            wrapped = self.span(name, original, before, after)
            for mod in holders:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        space = getattr(mods["explorer"], "ReconfigSpace", None)
        member_hooks = {"__init__": self._built, "moves": self._moves}
        for attr, name in SPACE_MEMBERS.items():
            member = space.__dict__.get(attr) if space is not None else None
            if member is None:
                missing.append(f"explorer.ReconfigSpace.{attr}")
            elif isinstance(member, functools.cached_property):
                prop = functools.cached_property(
                    self.span(name, member.func, None, member_hooks.get(attr))
                )
                prop.__set_name__(space, attr)
                setattr(space, attr, prop)
            else:
                setattr(space, attr, self.span(name, member, None, member_hooks.get(attr)))
        return missing

    def report(self, rounds: int, steps_emitted: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload's calls."""

        def per_round(total):
            return total // rounds if total % rounds == 0 else total / rounds

        c, s, w = self.calls, self.self_s, self.work
        values = {
            "degeneracy.ordering_calls": per_round(c["degeneracy.ordering"]),
            "degeneracy.ordering_s": s["degeneracy.ordering"] / rounds,
            "degeneracy.partition_calls": per_round(c["degeneracy.partition"]),
            "degeneracy.partition_s": s["degeneracy.partition"] / rounds,
            "engine.pipeline_calls": per_round(c["engine.pipeline"]),
            "engine.pipeline_self_s": s["engine.pipeline"] / rounds,
            "engine.eliminate_s": s["engine.eliminate"] / rounds,
            "engine.middle_s": s["engine.middle"] / rounds,
            "colouring.replay_calls": per_round(c["colouring.replay"]),
            "colouring.replayed_steps": per_round(w["replayed_steps"]),
            "colouring.replay_s": s["colouring.replay"] / rounds,
            "colouring.replayed_per_emitted_step": (
                w["replayed_steps"] / (steps_emitted * rounds) if steps_emitted else 0.0
            ),
            "colouring.proper_checks": per_round(c["colouring.proper_check"]),
            "colouring.proper_check_s": s["colouring.proper_check"] / rounds,
            "classifier.decide_calls": per_round(c["classifier.decide"]),
            "classifier.decide_s": s["classifier.decide"] / rounds,
            "explorer.spaces_built": per_round(c["explorer.enumerate"]),
            "explorer.spaces_per_distinct": (
                c["explorer.enumerate"] / w["distinct_spaces"] if w["distinct_spaces"] else 0.0
            ),
            "explorer.enumerate_s": s["explorer.enumerate"] / rounds,
            "explorer.moves_s": s["explorer.moves"] / rounds,
            "explorer.oracle_path_s": s["explorer.oracle_path"] / rounds,
            "explorer.components_s": s["explorer.components"] / rounds,
            "explorer.frozen_s": s["explorer.frozen"] / rounds,
            "explorer.bfs_calls": per_round(c["explorer.bfs"]),
            "explorer.bfs_sources": per_round(w["bfs_sources"]),
            "explorer.bfs_s": s["explorer.bfs"] / rounds,
            "explorer.summary_self_s": s["explorer.summary"] / rounds,
            "explorer.proper_states": per_round(w["proper_states"]),
            "explorer.raw_states": per_round(w["raw_states"]),
            "explorer.state_bytes": self.state_bytes,
            "graph.parse_s": s["graph.parse"] / rounds,
            "graph.components_calls": per_round(c["graph.components"]),
            "cli.calls": per_round(c["cli"]),
            "cli.self_s": s["cli"] / rounds,
            "cli.steps_emitted": steps_emitted,
        }
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}


def _count(indices) -> int:
    try:
        return len(indices)
    except TypeError:  # a single source index
        return 1
