"""Colourings, properness and frozenness, and recolouring sequences.

Colours are the integers ``1..k``; a colouring is total.  Properness is always
checked, never assumed.  With respect to a colouring of a graph with maximum
degree D:

* a vertex is *locked* when D distinct colours appear on its neighbours;
* a non-locked vertex is *free*.

A colouring is *frozen* when every vertex already sees all k-1 other colours
on its neighbourhood, i.e. no single vertex can be recoloured at all.
Lockedness and reduced form, which builds on it, are computed for every
state of a reconfiguration graph at once by
:attr:`recolour.explorer.ReconfigSpace.locked_mask` and
:attr:`recolour.explorer.ReconfigSpace.reduced_mask`.

A recolouring sequence is an ordered list of single-vertex colour changes;
applied to a start colouring every intermediate colouring must be proper and
every step must actually change a colour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import (
    ColouringParseError,
    ImproperInputError,
    ImproperIntermediateError,
    NoOpStepError,
    SequenceParseError,
)
from .graph import Graph


@dataclass(frozen=True)
class Colouring:
    """Total assignment of colours ``1..k`` to vertices ``0..n-1``."""

    k: int
    colours: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("palette size must be at least 1")
        for v, c in enumerate(self.colours):
            if not 1 <= c <= self.k:
                raise ValueError(f"vertex {v} has colour {c} outside 1..{self.k}")

    @property
    def n(self) -> int:
        return len(self.colours)

    def uses(self, colour: int) -> bool:
        return colour in self.colours


def is_proper(g: Graph, c: Colouring) -> bool:
    """True iff no edge is monochromatic."""
    if c.n != g.n:
        raise ValueError(f"colouring covers {c.n} vertices, graph has {g.n}")
    return all(c.colours[u] != c.colours[v] for u, v in g.edges)


def require_proper(g: Graph, c: Colouring, role: str = "colouring") -> None:
    if not is_proper(g, c):
        raise ImproperInputError(f"{role} is not proper")


def _neighbour_colours(g: Graph, c: Colouring, v: int) -> set[int]:
    return {c.colours[u] for u in g.adjacency[v]}


def is_frozen(g: Graph, c: Colouring) -> bool:
    """True iff every vertex sees all k-1 other colours on its neighbours."""
    require_proper(g, c)
    return all(len(_neighbour_colours(g, c, v)) == c.k - 1 for v in range(g.n))


@dataclass(frozen=True)
class RecolouringSequence:
    """Ordered ``(vertex, new_colour)`` steps; a walk in the space of colourings."""

    steps: tuple[tuple[int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.steps)

    @cached_property
    def recolour_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for v, _ in self.steps:
            counts[v] = counts.get(v, 0) + 1
        return counts


def apply_sequence(g: Graph, start: Colouring, seq: RecolouringSequence) -> Colouring:
    """Apply ``seq`` to ``start``, validating every intermediate colouring.

    Raises NoOpStepError when a step does not change a colour and
    ImproperIntermediateError when a step creates a monochromatic edge; both
    carry the 0-based step index.
    """
    require_proper(g, start, "start colouring")
    return replay(g, start, seq)


def replay(g: Graph, start: Colouring, seq: RecolouringSequence) -> Colouring:
    """:func:`apply_sequence` for a caller that has already checked ``start``
    proper: every step is validated, the start is not scanned again."""
    cols = list(start.colours)
    for i, (v, colour) in enumerate(seq):
        if not 0 <= v < g.n:
            raise ValueError(f"step {i}: vertex {v} out of range")
        if not 1 <= colour <= start.k:
            raise ValueError(f"step {i}: colour {colour} outside 1..{start.k}")
        if cols[v] == colour:
            raise NoOpStepError(i)
        for u in g.adjacency[v]:
            if cols[u] == colour:
                raise ImproperIntermediateError(i, f"edge ({u}, {v}) becomes monochromatic")
        cols[v] = colour
    return Colouring(start.k, tuple(cols))


def colouring_to_text(c: Colouring) -> str:
    """Colouring file format: line ``k``, then one line of space-separated colours."""
    return f"{c.k}\n{' '.join(str(col) for col in c.colours)}\n"


def colouring_from_text(text: str) -> Colouring:
    lines = text.splitlines()
    filled = [i for i, line in enumerate(lines) if line.strip()]
    if len(filled) == 1 and filled[0] + 1 < len(lines):
        filled.append(filled[0] + 1)  # no vertices: the colour line is blank
    if len(filled) != 2:
        raise ColouringParseError("expected two lines: palette size, then colours")
    palette, colours = (lines[i] for i in filled)
    try:
        k = int(palette)
    except ValueError:
        raise ColouringParseError(f"palette line is not an integer: {palette!r}") from None
    try:
        cols = tuple(int(tok) for tok in colours.split())
    except ValueError:
        raise ColouringParseError("colour line must be space-separated integers") from None
    try:
        return Colouring(k, cols)
    except ValueError as exc:
        raise ColouringParseError(str(exc)) from None


def sequence_to_text(seq: RecolouringSequence) -> str:
    """Sequence file format: header ``steps: N``, then ``N`` lines ``v c``."""
    lines = [f"steps: {len(seq)}"]
    lines.extend(f"{v} {c}" for v, c in seq)
    return "\n".join(lines) + "\n"


def sequence_from_text(text: str) -> RecolouringSequence:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("steps:"):
        raise SequenceParseError("expected header 'steps: N'")
    try:
        count = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise SequenceParseError(f"bad step count in header: {lines[0]!r}") from None
    body = lines[1:]
    if len(body) != count:
        raise SequenceParseError(f"header promised {count} steps, found {len(body)}")
    steps = []
    for i, raw in enumerate(body):
        parts = raw.split()
        if len(parts) != 2:
            raise SequenceParseError(f"step {i}: expected 'v c', got {raw!r}")
        try:
            steps.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise SequenceParseError(f"step {i}: expected integers, got {raw!r}") from None
    return RecolouringSequence(tuple(steps))


