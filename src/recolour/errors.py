"""Exception types shared across the library.

Every error that a caller is expected to handle has its own class; generic
misuse (wrong types, impossible arguments) raises ValueError as usual.
"""

from __future__ import annotations


class RecolourError(Exception):
    """Base class for all library-specific errors."""


class GraphParseError(RecolourError):
    """Malformed edge-list input; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ColouringParseError(RecolourError):
    """Malformed colouring file."""


class SequenceParseError(RecolourError):
    """Malformed recolouring-sequence file."""


class ImproperInputError(RecolourError):
    """A colouring that was required to be proper is not."""


class ImproperIntermediateError(RecolourError):
    """Applying a step produced a monochromatic edge; ``step`` is 0-based."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(f"step {step}: {message or 'improper intermediate colouring'}")
        self.step = step


class NoOpStepError(RecolourError):
    """A step recoloured a vertex to the colour it already has."""

    def __init__(self, step: int):
        super().__init__(f"step {step}: recolours a vertex to its current colour")
        self.step = step


class GraphIsRegularError(RecolourError):
    """Operation requires a non-regular graph."""


class GraphDisconnectedError(RecolourError):
    """Operation requires a connected graph."""


class MaxDegreeTooSmallError(RecolourError):
    """Operation requires maximum degree at least 3."""


class BudgetSumMismatchError(RecolourError):
    """Part budgets do not sum to the required value."""


class NotKDegenerateError(RecolourError):
    """Graph degeneracy exceeds the bound the caller promised."""


class InvalidPartitionError(RecolourError):
    """Parts do not partition the vertices, or a part exceeds its degeneracy
    budget."""


class DegeneracyTooHighError(RecolourError):
    """Graph degeneracy too high for the requested palette."""


class ScratchColourInUseError(RecolourError):
    """The scratch colour already appears on or next to the swap component."""


class ComponentNotMaximalError(RecolourError):
    """Claimed two-colour component is not a maximal connected component."""


class StateSpaceInvariantError(RecolourError):
    """The exhaustive oracle broke one of its own invariants: a move or a
    colour renaming left the enumerated states, a shortest-walk step changed
    other than one vertex, or a reduced-form top vertex was not locked."""


class StateSpaceLimitError(RecolourError):
    """Raw state count k**n exceeds the configured enumeration limit."""

    def __init__(self, states: int, limit: int):
        super().__init__(f"state space {states} exceeds limit {limit}")
        self.states = states
        self.limit = limit
