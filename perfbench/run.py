#!/usr/bin/env python3
"""Benchmark of the ``recolour path`` and ``explore`` CLI.

    python3 perfbench/run.py --workload path-large --seed 1 --seconds 20 --trace 0

Runs one workload in this process as a closed loop with one caller: each
``recolour.cli.main`` call starts when the previous one returns, over whole
rounds of the workload's calls.  Inputs are made from the seed by the
benchmark's own code and handed to the CLI as files; every output is checked
against computations made apart from the program.  Readable figures go to
standard error; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys

# Pin the BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# workload -> (tail percentile, least number of rounds); the least number of
# rounds leaves at least ten calls beyond the tail percentile
SETTINGS = {
    "path-large": (90, 3),
    "path-corpus": (99, 4),
    "explore-mid": (80, 6),
}
ALLOWED_EXIT = {"path": {0, 2}, "explore": {0}}
SETUP_REPEATS = 15


def _import_program(bytecode_dir: Path):
    """Import ``recolour.cli`` afresh, compiling the package from source."""
    for name in [m for m in sys.modules if m == "recolour" or m.startswith("recolour.")]:
        del sys.modules[name]
    sys.pycache_prefix = str(bytecode_dir)  # an empty directory: no bytecode is read
    try:
        return importlib.import_module("recolour.cli")
    finally:
        sys.pycache_prefix = None


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def setup_once(instances, bytecode_dir: Path):
    """The program's own set-up: import, read every input, one warm-up call."""
    start = time.perf_counter()
    cli = _import_program(bytecode_dir)
    graph = importlib.import_module("recolour.graph")
    colouring = importlib.import_module("recolour.colouring")
    for inst in instances:
        graph.parse_graph(inst.files[0].read_text())
        for path in inst.files[1:]:
            colouring.colouring_from_text(path.read_text())
    _call(cli, instances[0].argv)
    return time.perf_counter() - start, cli


def timed_loop(cli, instances, seconds: float, min_rounds: int):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    samples: list[float] = []
    outputs: dict[tuple[int, int, str], int] = {}
    rounds = 0
    begin = time.perf_counter()
    while True:
        for i, inst in enumerate(instances):
            start = time.perf_counter()
            try:
                rc, out = _call(cli, inst.argv)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                rc, out = -1, f"{type(exc).__name__}: {exc}"
            samples.append(time.perf_counter() - start)
            outputs[(i, rc, out)] = outputs.get((i, rc, out), 0) + 1
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - begin >= seconds:
            break
    return samples, outputs, rounds, time.perf_counter() - begin


def check_outputs(instances, outputs) -> tuple[int, bool]:
    """(failed operations, all remaining outputs correct)."""
    import checks

    failed, correct = 0, True
    for (i, rc, out), count in outputs.items():
        inst = instances[i]
        if rc not in ALLOWED_EXIT[inst.kind]:
            failed += count
            print(f"FAILED {inst.name}: exit {rc}: {out[:200]}", file=sys.stderr)
            continue
        if inst.expect is None:
            inst.expect = checks.expectation(inst)
        check = checks.check_explore_output if inst.kind == "explore" else checks.check_path_output
        try:
            check(inst, rc, out)
        except checks.CheckFailed as exc:
            correct = False
            print(f"WRONG {inst.name}: {exc}", file=sys.stderr)
    return failed, correct


def steps_emitted(instances, outputs) -> int:
    total = 0
    for (i, rc, out), count in outputs.items():
        if instances[i].kind == "path" and rc == 0:
            total += json.loads(out)["steps"] * count
    return total


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETTINGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "recolour" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'recolour'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import inputs  # imports networkx for the atlas
    import numpy  # noqa: F401  the program's dependencies load before set-up
    import scipy.sparse.csgraph  # noqa: F401

    tail_pct, min_rounds = SETTINGS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        instances = inputs.WORKLOADS[args.workload](args.seed)
        inputs.write_inputs(instances, workdir)
        _import_program(workdir / "bytecode")  # load the standard library parts it uses
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            elapsed, cli = setup_once(instances, workdir / "bytecode")
            setups.append(elapsed)

        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer()
            for hook in tracer.install():
                print(f"warning: no {hook} to trace", file=sys.stderr)
        samples, outputs, rounds, wall = timed_loop(
            cli, instances, args.seconds, min_rounds
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct = check_outputs(instances, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    e2e = {
        "calls_per_s": {"value": len(samples) / wall, "unit": "1/s"},
        "call_p50_ms": {"value": statistics.median(samples) * 1000, "unit": "ms"},
        "call_tail_ms": {"value": percentile(samples, tail_pct) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    beyond = sum(1 for s in samples if s * 1000 > e2e["call_tail_ms"]["value"])
    print(
        f"{args.workload} seed {args.seed}: {len(instances)} calls per round, "
        f"{rounds} rounds, {len(samples)} calls, tail = p{tail_pct} "
        f"({beyond} calls beyond it), trace {args.trace}",
        file=sys.stderr,
    )
    for name, m in e2e.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    metrics = e2e
    if tracer is not None:
        emitted = steps_emitted(instances, outputs)
        metrics = tracer.report(rounds, emitted // rounds)
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
