import ast
import contextlib
import io
import re
from pathlib import Path

import recolour

ROOT = Path(__file__).resolve().parents[1]

# The package's public names.  A name added here should have a reader in
# the program, the scripts or the benchmark, not only in its own tests
# (test_every_public_name_has_a_reader checks it).
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
    "oracle_path",
    "parse_graph",
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


# Public names with no reader in the program, the scripts or the benchmark,
# each kept for its reason.
UNREAD = {
    "colouring_to_text": "the writer half of the colouring file format",
    "kempe_swap_via_scratch": "acceptance criterion 9 round-trips a scratch swap",
}


def read_names(path: Path) -> set[str]:
    """Names that ``path`` reads: loaded names, attributes, and strings (the
    benchmark's tracer names the functions it wraps)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_reader():
    init = Path(recolour.__file__).resolve()
    read = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.resolve() != init:
                read |= read_names(path)
    assert sorted(set(recolour.__all__) - read) == sorted(UNREAD)


def test_scipy_is_read_only_by_the_oracle_searches():
    """The package reads scipy for the move matrix, the components and the
    walks' breadth-first tree, all in ``explorer``; any other scipy name,
    such as ``dijkstra``, would be one more reader to remove before scipy
    can leave the package."""
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {
                    (path.name, alias.name)
                    for alias in node.names
                    if alias.name.split(".")[0] == "scipy"
                }
    assert imported == {
        ("explorer.py", "csr_matrix"),
        ("explorer.py", "connected_components"),
        ("explorer.py", "breadth_first_order"),
    }


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert tour is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour.group(1), "README.md", "exec"), {})
    assert out.getvalue()
