"""Walks between graph colourings by single-vertex recolouring steps.

Library layout:

* :mod:`recolour.graph`, :mod:`recolour.colouring` -- graphs, colourings,
  properness and frozenness, recolouring sequences and the file formats;
* :mod:`recolour.degeneracy` -- degeneracy orderings and prescribed-budget
  partitions (the package attribute is this module; a graph's degeneracy is
  ``degeneracy_ordering(g).degeneracy``);
* :mod:`recolour.engine` -- the constructive algorithms (scratch swaps,
  top-colour elimination, quadratic walks between colourings);
* :mod:`recolour.explorer` -- the exhaustive reconfiguration-graph oracle
  and the machine checks of the structural statements;
* :mod:`recolour.classifier` -- the decision procedures and frozen censuses;
* :mod:`recolour.corpus` -- non-isomorphic connected graph corpus and
  seeded samplers;
* :mod:`recolour.cli` -- the command-line interface.
"""

import inspect as _inspect

from .colouring import (
    Colouring,
    RecolouringSequence,
    apply_sequence,
    colouring_from_text,
    colouring_to_text,
    is_frozen,
    is_proper,
    sequence_from_text,
    sequence_to_text,
)
from .classifier import (
    FrozenCensus,
    PathDecision,
    decide_k_colour_path,
    frozen_census,
)
from .degeneracy import (
    DegeneracyOrdering,
    DegeneratePartition,
    degeneracy_ordering,
    degenerate_partition,
)
from .engine import (
    EliminationPlan,
    KempeComponent,
    eliminate_top_colour,
    elimination_plan,
    find_path_non_regular,
    kempe_component,
    kempe_swap_via_scratch,
    reverse_sequence,
)
from .explorer import (
    DEFAULT_STATE_LIMIT,
    CheckReport,
    ReconfigGraphSummary,
    ReconfigSpace,
    oracle_path,
    verify_lemma_cubic2,
    verify_lemma_first,
    verify_theorem_delta_plus_one,
    verify_theorem_main,
)
from .graph import Graph, connected_components, format_graph, parse_graph

# the re-exported names only: the submodules that the imports bind stay out
__all__ = [n for n, v in globals().items() if n[0] != "_" and not _inspect.ismodule(v)]
