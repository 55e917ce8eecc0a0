"""Soak the solver over its convergence envelope, one JSON line per draw.

Draw i of meta-seed m is built from np.random.default_rng([m, i]) alone, so
any slice of a soak can be rerun on its own and two source trees can be
compared line by line. The envelope:

- a random connected graph (a random tree plus up to 2n chords) with
  n in [3, 60] vertices;
- weights log-uniform in 10^[-0.5, 0.5] and measures in 10^[-3, 3] on even
  draws, the other way round on odd draws;
- wells that share a vertex, each vertex in each well with a probability
  drawn from [0.2, 0.7], and potentials in [0.1, 3] off the wells;
- alpha - 1 and beta - 1 log-uniform in [1e-2, 3];
- lambda log-uniform in [1e-2, 1e9], except on every fifth draw, which solves
  the Dirichlet problem on the wells instead.

Each draw is solved with the default SolverConfig. Its line holds index,
kind ("lambda" or "dirichlet"), n, alpha, beta, lam (null for a Dirichlet
draw), energy, converged, iterations and exit: "converged", "unconverged", or
the name of the error the solve raised. The gate passes a draw that converged
or exits by EnergyOverflowError or DegeneratePairError; the script prints a
count per exit, and every draw that fails the gate, to stderr, and exits 1 if
any draw fails it.

Usage: python3 scripts/soak.py [--meta-seed M] [--draws N] > soak.jsonl
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from graphwell import (
    DegeneratePairError,
    DirichletProblem,
    EnergyOverflowError,
    LambdaProblem,
    PotentialField,
    WeightedGraph,
    solve_dirichlet,
    solve_ground_state,
)

# Exits that name their cause; any other unconverged draw fails the gate.
STATED_EXITS = ("converged", EnergyOverflowError.__name__, DegeneratePairError.__name__)


def draw(meta_seed: int, index: int) -> LambdaProblem | DirichletProblem:
    """The problem of draw index of meta-seed meta_seed."""
    rng = np.random.default_rng([meta_seed, index])
    n = int(rng.integers(3, 61))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        i, j = (int(x) for x in rng.integers(0, n, 2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    weight_span, measure_span = (0.5, 3.0) if index % 2 == 0 else (3.0, 0.5)
    weights = 10.0 ** rng.uniform(-weight_span, weight_span, len(edges))
    mu = 10.0 ** rng.uniform(-measure_span, measure_span, n)
    g = WeightedGraph(n, [(i, j, float(w)) for (i, j), w in zip(sorted(edges), weights)],
                      measure=mu)
    core = int(rng.integers(0, n))
    in_a = rng.random(n) < rng.uniform(0.2, 0.7)
    in_b = rng.random(n) < rng.uniform(0.2, 0.7)
    in_a[core] = in_b[core] = True
    pots = PotentialField(np.where(in_a, 0.0, rng.uniform(0.1, 3.0, n)),
                          np.where(in_b, 0.0, rng.uniform(0.1, 3.0, n)))
    alpha, beta = (float(x) for x in 1.0 + 10.0 ** rng.uniform(-2.0, math.log10(3.0), 2))
    lam = float(10.0 ** rng.uniform(-2.0, 9.0))
    if index % 5 == 4:
        return DirichletProblem(g, pots.omega_a, pots.omega_b, alpha, beta)
    return LambdaProblem(g, pots, lam, alpha, beta)


def run_draw(meta_seed: int, index: int) -> dict:
    """Solve one draw and return its line as a dict."""
    p = draw(meta_seed, index)
    dirichlet = isinstance(p, DirichletProblem)
    row = dict(index=index, kind="dirichlet" if dirichlet else "lambda",
               n=p.graph.vertex_count, alpha=p.alpha, beta=p.beta,
               lam=None if dirichlet else p.lam,
               energy=None, converged=False, iterations=None)
    try:
        out = solve_dirichlet(p) if dirichlet else solve_ground_state(p)
    except (EnergyOverflowError, DegeneratePairError) as exc:
        return {**row, "exit": type(exc).__name__}
    return {**row, "energy": out.energy if math.isfinite(out.energy) else None,
            "converged": out.converged, "iterations": out.iterations,
            "exit": "converged" if out.converged else "unconverged"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--meta-seed", type=int, default=1)
    parser.add_argument("--draws", type=int, default=1500)
    args = parser.parse_args(argv)
    exits = Counter()
    failed = []
    for index in range(args.draws):
        row = run_draw(args.meta_seed, index)
        print(json.dumps(row), flush=True)
        exits[row["exit"]] += 1
        if row["exit"] not in STATED_EXITS:
            failed.append(row)
    print(f"meta-seed {args.meta_seed}, {args.draws} draws: "
          + ", ".join(f"{cause} {count}" for cause, count in sorted(exits.items())),
          file=sys.stderr)
    for row in failed:
        print(f"FAILED {json.dumps(row)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
