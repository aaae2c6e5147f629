"""Decision procedures for the path-between-colourings problem.

The dispatch mirrors the known complexity landscape for graphs of bounded
maximum degree D and fixed palette k:

* k <= 2 or D <= k-2: answered analytically (the reconfiguration graph of
  each component is rigid or connected, respectively);
* k >= 4 and D = k-1: a linear-time frozen check on each component decides
  everything, because the non-frozen colourings of such a component form a
  single component of its reconfiguration graph;
* k = 3 and D = 2: paths always reconfigure; on cycles the sum of cyclic
  colour increments around the cycle (+1 or -1 per edge, mod 3) is invariant
  under single-vertex recolouring and two colourings are connected exactly
  when their sums agree;
* anything else is delegated to the exhaustive oracle when the state space
  fits the limit, and reported as inconclusive otherwise.

Also here: frozen-colouring censuses with analytic shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .colouring import Colouring, frozen_on, require_proper
from .errors import StateSpaceLimitError
from .explorer import DEFAULT_STATE_LIMIT, ReconfigSpace
from .graph import Graph, connected_components

REASON_TRIVIAL_YES = "TrivialYes"
REASON_BOTH_NON_FROZEN = "BothNonFrozen"
REASON_FROZEN_EQUAL = "FrozenEqual"
REASON_FROZEN_DISTINCT = "FrozenDistinct"
REASON_CYCLE_INVARIANT = "CycleInvariant"
REASON_ORACLE = "OracleResult"
REASON_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PathDecision:
    """Yes/no/unknown answer with the rule that produced it.

    ``space`` is the oracle's state space for the answer (None when a rule
    answered): holding the decision keeps it alive, so a walk extracted next
    through :meth:`ReconfigSpace.of` reuses it instead of enumerating again.
    """

    answer: bool | None
    reason: str
    witnesses: tuple = ()
    space: ReconfigSpace | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        text = "inconclusive" if self.answer is None else ("yes" if self.answer else "no")
        return {
            "answer": text,
            "reason": self.reason,
            "witnesses": [list(w) if isinstance(w, tuple) else w for w in self.witnesses],
        }


def cycle_orientation(g: Graph, comp: tuple[int, ...]) -> list[int]:
    """A deterministic traversal order of a cycle component."""
    start = min(comp)
    order = [start, min(g.adjacency[start])]
    while True:
        nxt = [u for u in g.adjacency[order[-1]] if u != order[-2]]
        if len(nxt) != 1:
            raise AssertionError(f"component {comp} is not a cycle")
        if nxt[0] == start:
            return order
        order.append(nxt[0])


def winding_sum(order: list[int], c: Colouring) -> int:
    """Sum of cyclic colour increments (+1 or -1) around a 3-coloured cycle."""
    total = 0
    for here, there in zip(order, order[1:] + order[:1]):
        diff = (c.colours[there] - c.colours[here]) % 3
        if diff == 0:
            raise AssertionError("cycle colouring must be proper")
        total += 1 if diff == 1 else -1
    return total


def decide_k_colour_path(
    g: Graph, k: int, a: Colouring, b: Colouring, limit: int = DEFAULT_STATE_LIMIT
) -> PathDecision:
    """Is there a walk of proper colourings from ``a`` to ``b`` in palette k?"""
    if a.k != k or b.k != k:
        raise ValueError(f"colourings must use palette {k}")
    require_proper(g, a, "first colouring")
    require_proper(g, b, "second colouring")
    if a.colours == b.colours:
        if frozen_on(g, a, range(g.n)):
            return PathDecision(True, REASON_FROZEN_EQUAL)
        return PathDecision(True, REASON_TRIVIAL_YES)

    delta = g.max_degree
    if k <= 2:
        # a proper 1-colouring is unique, so k = 2 here: components with an
        # edge admit no recolouring at all, single vertices flip freely
        stuck = [
            comp
            for comp in connected_components(g)
            if len(comp) > 1 and any(a.colours[v] != b.colours[v] for v in comp)
        ]
        if stuck:
            return PathDecision(False, REASON_FROZEN_DISTINCT, (stuck[0],))
        return PathDecision(True, REASON_TRIVIAL_YES)

    if delta <= k - 2:
        return PathDecision(True, REASON_TRIVIAL_YES)

    if k >= 4 and delta == k - 1:
        frozen_witnesses = []
        for comp in connected_components(g):
            # neighbours of a component's vertices stay inside the component
            if all(a.colours[v] == b.colours[v] for v in comp):
                if frozen_on(g, a, comp):
                    frozen_witnesses.append(comp)
                continue
            if frozen_on(g, a, comp) or frozen_on(g, b, comp):
                return PathDecision(False, REASON_FROZEN_DISTINCT, (comp,))
        if frozen_witnesses:
            return PathDecision(True, REASON_FROZEN_EQUAL, tuple(frozen_witnesses))
        return PathDecision(True, REASON_BOTH_NON_FROZEN)

    if k == 3 and delta == 2:
        any_cycle = False
        for comp in connected_components(g):
            # neighbours of a component's vertices stay inside the component
            if any(g.degree[v] != 2 for v in comp):
                continue  # isolated vertex or path component: always reconfigurable
            if all(a.colours[v] == b.colours[v] for v in comp):
                continue
            any_cycle = True
            order = cycle_orientation(g, comp)
            wa = winding_sum(order, a)
            wb = winding_sum(order, b)
            # |sum| = n means every edge increments the same way: frozen, so
            # only equality of the restrictions (handled above) is a yes
            if len(comp) in (abs(wa), abs(wb)):
                return PathDecision(False, REASON_FROZEN_DISTINCT, (comp, wa, wb))
            if wa != wb:
                return PathDecision(False, REASON_CYCLE_INVARIANT, (comp, wa, wb))
        return PathDecision(
            True, REASON_CYCLE_INVARIANT if any_cycle else REASON_TRIVIAL_YES
        )

    # (k = 3, D >= 3) or (k >= 4, D >= k): exhaustive search or give up
    try:
        space = ReconfigSpace.of(g, k, limit)
    except StateSpaceLimitError:
        return PathDecision(None, REASON_INCONCLUSIVE)
    _, labels = space.component_labels
    same = labels[space.index_of(a)] == labels[space.index_of(b)]
    return PathDecision(bool(same), REASON_ORACLE, space=space)


@dataclass(frozen=True)
class FrozenCensus:
    """How many k-colourings are frozen, with up to 10 witnesses."""

    count: int
    witnesses: tuple[Colouring, ...]
    method: str


def frozen_census(g: Graph, k: int, limit: int = DEFAULT_STATE_LIMIT) -> FrozenCensus:
    """Exact count of frozen k-colourings.

    Analytic shortcuts: a vertex of degree below k-1 cannot see k-1 other
    colours, so any such vertex kills all frozen colourings (this covers
    every palette above max_degree + 1 and every non-regular graph at
    k = max_degree + 1).  A regular graph at k = max_degree + 1 has all
    colour classes of equal size in a frozen colouring, so n must be
    divisible by k.  Everything else is counted by enumeration.
    """
    if k < 1:
        raise ValueError("palette size must be at least 1")
    if g.n and g.min_degree < k - 1:
        return FrozenCensus(0, (), "analytic-degree")
    if g.n and k == g.max_degree + 1 and g.is_regular() and g.n % k != 0:
        return FrozenCensus(0, (), "analytic-divisibility")
    space = ReconfigSpace.of(g, k, limit)
    frozen = space.frozen_mask
    count = int(frozen.sum())
    witnesses = tuple(
        space.colouring_at(int(i)) for i in np.nonzero(frozen)[0][:10]
    )
    return FrozenCensus(count, witnesses, "enumeration")
