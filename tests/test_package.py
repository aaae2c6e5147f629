import recolour

# The package's public names.  A name added here should have a reader in
# the program, the scripts or the benchmark, not only in its own tests.
PUBLIC = [
    "CheckReport",
    "Colouring",
    "DEFAULT_STATE_LIMIT",
    "DegeneracyOrdering",
    "DegeneratePartition",
    "EliminationPlan",
    "FrozenCensus",
    "Graph",
    "KempeComponent",
    "PathDecision",
    "RecolouringSequence",
    "ReconfigGraphSummary",
    "ReconfigSpace",
    "apply_sequence",
    "augment_to_maximal_independent",
    "colouring_from_text",
    "colouring_to_text",
    "connected_components",
    "decide_k_colour_path",
    "degeneracy_ordering",
    "degenerate_partition",
    "eliminate_top_colour",
    "elimination_plan",
    "find_path_non_regular",
    "format_graph",
    "frozen_census",
    "is_frozen",
    "is_proper",
    "kempe_component",
    "kempe_swap_via_scratch",
    "oracle_distance",
    "oracle_path",
    "parse_graph",
    "path_between_delta_colourings",
    "reverse_sequence",
    "sequence_from_text",
    "sequence_to_text",
    "verify_lemma_cubic2",
    "verify_lemma_first",
    "verify_theorem_delta_plus_one",
    "verify_theorem_main",
]


def test_public_surface_is_pinned():
    assert sorted(recolour.__all__) == PUBLIC
