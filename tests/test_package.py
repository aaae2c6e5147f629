import argparse
import ast
import contextlib
import io
import re
from pathlib import Path

import recolour
from recolour import cli

ROOT = Path(__file__).resolve().parents[1]

# The package's public names.  Like every public module-level name in src/,
# a name added here should have a reader in the program, the scripts or the
# benchmark, not only in its own tests (test_every_public_name_has_a_reader
# checks it).
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


# Module-level names with no reader in the program, the scripts or the
# benchmark, each kept for its reason.
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


def bound_names(path: Path) -> set[str]:
    """Non-private names that ``path`` binds at module level by ``def``,
    ``class`` or assignment, also inside a top-level ``if`` or ``try``.
    Imports are left out: they rebind a name that another module binds."""
    names = set()

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(
                    n.id
                    for target in targets
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                )
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body)
                visit(node.orelse)

    visit(ast.parse(path.read_text(), str(path)).body)
    return {name for name in names if name[0] != "_"}


def test_every_public_name_has_a_reader():
    """Each public name that a module of the package binds is read by the
    program, the scripts or the benchmark; a name that only tests read
    belongs in ``tests/``.  The re-exports in ``__init__`` are not reads."""
    package = Path(recolour.__file__).resolve().parent
    read = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.resolve() != package / "__init__.py":
                read |= read_names(path)
    unread = [
        f"recolour.{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name in sorted(bound_names(path) - read)
    ]
    assert unread == sorted(f"{getattr(recolour, name).__module__}.{name}" for name in UNREAD)


def test_every_cli_option_has_a_reader():
    """Each option of a subcommand is read by its handler, or by a function
    of ``cli`` to which the handler passes its arguments.  ``main`` fills in
    the default limit, which is not a read."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name: str, param: str, seen: set) -> set[str]:
        """Attributes of ``param`` read in ``name`` and in what it passes ``param`` to."""
        if (name, param) in seen:
            return set()
        seen.add((name, param))
        found = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == param:
                    found.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                callee = functions[node.func.id].args.args
                for arg, target in zip(node.args, callee):
                    if isinstance(arg, ast.Name) and arg.id == param:
                        found |= reads(node.func.id, target.arg, seen)
        return found

    handlers = next(
        node for node in ast.walk(functions["main"])
        if isinstance(node, ast.Dict) and node.keys and all(
            isinstance(key, ast.Constant) and isinstance(key.value, str) for key in node.keys
        )
    )
    handler_of = {key.value: value.id for key, value in zip(handlers.keys, handlers.values)}
    commands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    assert sorted(handler_of) == sorted(commands)
    unread = []
    for command, parser in commands.items():
        handler = handler_of[command]
        read = reads(handler, functions[handler].args.args[0].arg, set())
        unread += [
            f"{command} {action.dest}"
            for action in parser._actions
            if action.option_strings and action.dest != "help" and action.dest not in read
        ]
    assert unread == []


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
