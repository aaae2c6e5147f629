#!/usr/bin/env python3
"""Measure the observed constants behind the quadratic guarantees.

Sweeps the connected corpus and reports, per (n, max degree) bucket:

* elimination: worst sequence length / n^2, worst rounds / n, and the worst
  per-vertex recolour count / n;
* full pipeline: worst walk length / n^2 against the 3n^2 + 2nD envelope;
* oracle (where the state space fits): worst exact distance / n^2 from a
  non-frozen colouring to a top-colour-free one.

The bounds themselves are asserted in the test suite; this script exists to
see how much slack they leave.
"""

from __future__ import annotations

import argparse
import random
from collections import defaultdict

from recolour.colouring import RecolouringSequence, apply_sequence
from recolour.corpus import corpus, random_proper_colouring
from recolour.engine import eliminate_top_colour, elimination_plan, find_path_non_regular
from recolour.explorer import verify_theorem_delta_plus_one


def elimination_rounds(g, c) -> int:
    rounds = 0
    while True:
        plan = elimination_plan(g, c)
        if plan is None:
            return rounds
        rounds += 1
        c = apply_sequence(g, c, RecolouringSequence(tuple(reversed(plan.pairs))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--limit", type=int, default=200_000)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    rows = defaultdict(lambda: {"elim": 0.0, "rounds": 0.0, "per_vertex": 0.0,
                                "walk": 0.0, "walk_envelope": 0.0, "oracle": 0.0})
    for g in corpus(4, args.max_n):
        if g.is_regular():
            continue
        key = (g.n, g.max_degree)
        k = g.max_degree + 1
        row = rows[key]
        for _ in range(args.pairs):
            a = random_proper_colouring(g, k, rng)
            b = random_proper_colouring(g, k, rng)
            seq, _ = eliminate_top_colour(g, a)
            row["elim"] = max(row["elim"], len(seq) / g.n ** 2)
            if seq.recolour_counts:
                row["per_vertex"] = max(
                    row["per_vertex"], max(seq.recolour_counts.values()) / g.n
                )
            row["rounds"] = max(row["rounds"], elimination_rounds(g, a) / g.n)
            if g.max_degree >= 3:
                walk = find_path_non_regular(g, a, b)
                row["walk"] = max(row["walk"], len(walk) / g.n ** 2)
                row["walk_envelope"] = max(
                    row["walk_envelope"],
                    len(walk) / (3 * g.n ** 2 + 2 * g.n * g.max_degree),
                )
        report = verify_theorem_delta_plus_one(g, args.limit)
        if report.status == "fail":
            raise SystemExit(f"{report.check} failed on {g}: {report.reason}")
        # a skip (state space over --limit) leaves the column as it is
        row["oracle"] = max(row["oracle"], report.stats.get("max_distance_over_n2", 0.0))

    print(f"{'n':>2} {'D':>2} | {'elim/n^2':>9} {'rounds/n':>9} {'perv/n':>7} "
          f"{'walk/n^2':>9} {'walk/env':>9} {'dist/n^2':>9}")
    for (n, delta), row in sorted(rows.items()):
        print(f"{n:>2} {delta:>2} | {row['elim']:>9.3f} {row['rounds']:>9.3f} "
              f"{row['per_vertex']:>7.3f} {row['walk']:>9.3f} "
              f"{row['walk_envelope']:>9.3f} {row['oracle']:>9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
