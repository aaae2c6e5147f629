"""Command-line surface.

Subcommands
    path           construct (or decide) a walk between two colourings
    validate       replay a recolouring sequence against a start colouring
    explore        enumerate a reconfiguration graph and emit its summary
    verify-corpus  machine-check the structural statements over the corpus

Exit codes are a stable contract: 0 success, 1 input error, 2 provable
negative, 3 inconclusive or state-space limit exceeded.  The default
state-space limit is 2e6 raw states and can be overridden per call with
--limit or globally with the RECOLOR_LIMIT environment variable.

The argument parser is built once per process, on the first ``main`` call,
and holds no per-call state: when --limit is absent, ``main`` reads
RECOLOR_LIMIT afresh on every call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from pathlib import Path

from .classifier import decide_k_colour_path, frozen_census
from .colouring import (
    Colouring,
    apply_sequence,
    colouring_from_text,
    sequence_from_text,
    sequence_to_text,
)
from .corpus import corpus
from .engine import find_path_non_regular
from .errors import (
    GraphDisconnectedError,
    GraphIsRegularError,
    ImproperIntermediateError,
    MaxDegreeTooSmallError,
    NoOpStepError,
    RecolourError,
    StateSpaceLimitError,
)
from .explorer import (
    DEFAULT_STATE_LIMIT,
    ReconfigSpace,
    oracle_path,
    verify_lemma_cubic2,
    verify_lemma_first,
    verify_theorem_delta_plus_one,
    verify_theorem_main,
)
from .graph import Graph, format_graph, parse_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3

EXHAUSTIVE_WARN_N = 10


def _default_limit() -> int:
    env = os.environ.get("RECOLOR_LIMIT")
    if env:
        try:
            return int(env)
        except ValueError:
            print(f"ignoring bad RECOLOR_LIMIT={env!r}", file=sys.stderr)
    return DEFAULT_STATE_LIMIT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="recolour",
        description="Walks between graph colourings by single-vertex recolouring steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, graph: bool = True):
        if graph:
            p.add_argument("--graph", type=Path, required=True, help="edge-list file")
        p.add_argument("--limit", type=int, default=None,
                       help="raw state-space cap for exhaustive operations")
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        p.add_argument("--out", type=Path, default=None, help="output file")

    p_path = sub.add_parser("path", help="construct a recolouring walk between two colourings")
    common(p_path)
    p_path.add_argument("--colouring-a", type=Path, required=True)
    p_path.add_argument("--colouring-b", type=Path, required=True)

    p_val = sub.add_parser("validate", help="replay a sequence from a start colouring")
    common(p_val)
    p_val.add_argument("--colouring-a", type=Path, required=True, help="start colouring")
    p_val.add_argument("--sequence", type=Path, required=True)

    p_exp = sub.add_parser("explore", help="summarise the reconfiguration graph")
    common(p_exp)
    p_exp.add_argument("--k", type=int, required=True)

    p_ver = sub.add_parser("verify-corpus", help="machine-check the structure theorems")
    common(p_ver, graph=False)
    p_ver.add_argument("--max-n", type=int, default=6, help="largest corpus size (4..8)")
    p_ver.add_argument("--k-min", type=int, default=3)
    p_ver.add_argument("--k-max", type=int, default=5)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--pairs", type=int, default=10,
                       help="sampled colouring pairs per graph and palette")
    return parser


def _read_graph(path: Path) -> Graph:
    return parse_graph(path.read_text())


def _read_colouring(path: Path, g: Graph) -> Colouring:
    c = colouring_from_text(path.read_text())
    if c.n != g.n:
        raise RecolourError(
            f"{path}: colouring covers {c.n} vertices, graph has {g.n}"
        )
    return c


def _emit_sequence(args: argparse.Namespace, seq) -> None:
    if args.out:
        args.out.write_text(sequence_to_text(seq))
    if args.fmt == "json":
        print(json.dumps({"steps": len(seq), "sequence": seq.steps, "valid": True}))
    else:
        print(f"steps: {len(seq)}")
        print("valid: true")
        if not args.out:
            sys.stdout.write(sequence_to_text(seq))


def cmd_path(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    a = _read_colouring(args.colouring_a, g)
    b = _read_colouring(args.colouring_b, g)
    if a.k != b.k:
        print(f"palette mismatch: {a.k} vs {b.k}", file=sys.stderr)
        return EXIT_INPUT
    k = a.k

    if k == g.max_degree + 1:  # the engine decides whether the graph fits its route
        with contextlib.suppress(
            GraphDisconnectedError, GraphIsRegularError, MaxDegreeTooSmallError
        ):
            _emit_sequence(args, find_path_non_regular(g, a, b))  # replayed inside
            return EXIT_OK

    decision = decide_k_colour_path(g, k, a, b, args.limit)
    if decision.answer is False:
        print(f"no path: {decision.reason}")
        return EXIT_NEGATIVE
    if decision.answer is None:
        print(f"inconclusive: {decision.reason}")
        return EXIT_INCONCLUSIVE
    try:
        seq = oracle_path(g, k, a, b, args.limit)  # reuses decision.space
    except StateSpaceLimitError as exc:
        print(f"path exists ({decision.reason}) but extraction exceeds the limit: {exc}")
        return EXIT_INCONCLUSIVE
    if seq is None:  # decision said yes; exhaustive search must agree
        print("internal disagreement between decision and oracle", file=sys.stderr)
        return EXIT_INPUT
    _emit_sequence(args, seq)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    start = _read_colouring(args.colouring_a, g)
    seq = sequence_from_text(args.sequence.read_text())
    try:
        final = apply_sequence(g, start, seq)
    except (ImproperIntermediateError, NoOpStepError) as exc:
        print(f"invalid at step {exc.step}: {exc}")
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"invalid: {exc}")
        return EXIT_NEGATIVE
    if args.fmt == "json":
        print(json.dumps({"steps": len(seq), "valid": True,
                          "final": list(final.colours)}))
    else:
        print(f"steps: {len(seq)}")
        print("valid: true")
        print("final: " + " ".join(str(c) for c in final.colours))
    return EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    if g.n > EXHAUSTIVE_WARN_N:
        print(f"warning: exhaustive enumeration on n={g.n} > {EXHAUSTIVE_WARN_N}",
              file=sys.stderr)
    try:
        summary = ReconfigSpace(g, args.k, args.limit).summary()
    except StateSpaceLimitError as exc:
        print(f"state space too large: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    payload = summary.to_json_dict()
    if args.fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        lines = [
            f"colourings: {payload['totalColourings']}",
            f"frozen: {payload['frozenCount']}",
            f"isolated non-frozen: {payload['isolatedNonFrozen']}",
            "components (size, diameter): "
            + ", ".join(f"({s}, {d})" for s, d in summary.components),
        ]
        text = "\n".join(lines)
    print(text)
    if args.out:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _write_reproducer(args: argparse.Namespace, g: Graph, details: dict, tag: str) -> Path:
    out = args.out or Path.cwd() / "reproducer.txt"
    target = out.with_name(f"{out.stem}-{tag}{out.suffix}")  # one file per failure
    body = format_graph(g) + json.dumps(details, indent=2) + "\n"
    target.write_text(body)
    return target


def cmd_verify_corpus(args: argparse.Namespace) -> int:
    if not 4 <= args.max_n <= 8:
        print("--max-n must be between 4 and 8", file=sys.stderr)
        return EXIT_INPUT
    if args.pairs < 0:
        print("--pairs must not be negative", file=sys.stderr)
        return EXIT_INPUT
    graphs = corpus(4, args.max_n)
    rng = random.Random(args.seed)
    failures: list[tuple[str, Graph, dict]] = []
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for idx, g in enumerate(graphs):
        name = f"g{idx:04d}-n{g.n}-m{g.m}"
        top = None  # never read: held so the four checks and the k = D+1 cross-check share it
        with contextlib.suppress(StateSpaceLimitError):
            top = ReconfigSpace.of(g, g.max_degree + 1, args.limit)
        reports = [
            verify_theorem_delta_plus_one(g, args.limit),
            verify_theorem_main(g, args.limit),
            verify_lemma_cubic2(g, args.limit),
            verify_lemma_first(g, args.limit),
        ]
        for report in reports:
            counts[report.status] += 1
            if report.status == "fail":
                failures.append((f"{name}-{report.check}", g, report.to_json_dict()))
        for k in range(args.k_min, args.k_max + 1):
            ok, detail = _decision_cross_check(g, k, args, rng)
            if ok is None:
                counts["skip"] += 1
            elif ok:
                counts["pass"] += 1
            else:
                counts["fail"] += 1
                failures.append((f"{name}-{detail['check']}-k{k}", g, detail))
    for tag, g, detail in failures:
        path = _write_reproducer(args, g, detail, tag)
        print(f"FAIL {tag}: reproducer written to {path}")
    if args.fmt == "json":
        print(json.dumps({"graphs": len(graphs), **counts}))
    else:
        print(
            f"graphs: {len(graphs)}  checks passed: {counts['pass']}  "
            f"failed: {counts['fail']}  skipped: {counts['skip']}"
        )
    return EXIT_INPUT if failures else EXIT_OK


def _decision_cross_check(g: Graph, k: int, args: argparse.Namespace, rng: random.Random):
    """Sampled agreement between the analytic decision and the oracle."""
    try:
        space = ReconfigSpace.of(g, k, args.limit)
    except StateSpaceLimitError:
        return None, {}
    if space.size == 0:
        return True, {}
    _, labels = space.component_labels
    for _ in range(args.pairs):
        ia = rng.randrange(space.size)
        ib = rng.randrange(space.size)
        a = space.colouring_at(ia)
        b = space.colouring_at(ib)
        decision = decide_k_colour_path(g, k, a, b, args.limit)
        truth = bool(labels[ia] == labels[ib])
        if decision.answer is None or decision.answer != truth:
            return False, {
                "check": "decision-vs-oracle",
                "k": k,
                "colouring_a": list(a.colours),
                "colouring_b": list(b.colours),
                "decision": decision.to_json_dict(),
                "oracle": truth,
            }
    census = frozen_census(g, k, args.limit)
    truth_count = int(space.frozen_mask.sum())
    if census.count != truth_count:
        return False, {
            "check": "frozen-census-vs-enumeration",
            "k": k,
            "census": census.count,
            "enumeration": truth_count,
        }
    return True, {}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.limit is None:
        args.limit = _default_limit()
    handlers = {
        "path": cmd_path,
        "validate": cmd_validate,
        "explore": cmd_explore,
        "verify-corpus": cmd_verify_corpus,
    }
    try:
        return handlers[args.command](args)
    except (RecolourError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
