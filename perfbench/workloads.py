"""The benchmark's workloads: their inputs, the op each one times, and its checks.

Each workload holds ``keys``, the op list of one pass in run order, and
``run(key)``, which performs one op and returns the list of its failed output
checks (empty when the op passed). ``entry`` is the graphwell function an op
calls; the traced run wraps it in the span named ``entry_span``.
"""

from __future__ import annotations

import csv
import io
import math
from importlib import resources
from pathlib import Path

import numpy as np

from graphwell import (
    LambdaProblem,
    PotentialField,
    SolverConfig,
    WeightedGraph,
    cli,
    solve_ground_state,
)

# Ground-state level of the G22 Dirichlet problem (alpha = beta = 2); c_lambda
# must stay at or below it for every lambda.
G22_DIRICHLET_LEVEL = 36.637879090969
G22_TOP_LAMBDA = 1e7


class G22Sweep:
    """The packaged G22 instance swept over the decades 1..1e7 through the CLI.

    One op is ``graphwell sweep data/g22.graph --seed <seed> --out <file>`` run
    in process: a Dirichlet solve plus 8 warm-started lambda solves, 8
    restarts each. The workload seed is the sweep's restart seed.
    """

    name = "g22-sweep"
    entry_span = "cli.main"

    def __init__(self, seed: int, out_dir: Path):
        self.entry = cli.main
        self.out = out_dir / "g22-sweep.csv"
        path = str(resources.files("graphwell").joinpath("data/g22.graph"))
        self.argv = ["sweep", path, "--seed", str(seed), "--out", str(self.out)]
        self.keys = [0]
        self._first_csv: bytes | None = None

    def run(self, key) -> list[str]:
        self.out.unlink(missing_ok=True)
        code = self.entry(self.argv)
        data = self.out.read_bytes()
        failed = []
        if code != 0:
            failed.append(f"sweep exited {code}")
        if self._first_csv is None:
            self._first_csv = data
        elif data != self._first_csv:
            failed.append("sweep CSV differs from the first op of the run")
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if not rows:
            return failed + ["sweep CSV has no rows"]
        if any(r["converged"] != "true" for r in rows):
            failed.append("a lambda row is not converged")
        energies = [float(r["energy"]) for r in rows]
        if any(b < a for a, b in zip(energies, energies[1:])):
            failed.append("c_lambda decreases with lambda")
        if max(energies) > G22_DIRICHLET_LEVEL:
            failed.append(f"c_lambda {max(energies)!r} exceeds the Dirichlet level")
        top = [r for r in rows if float(r["lambda"]) == G22_TOP_LAMBDA]
        if len(top) != 1:
            failed.append("no row for lambda = 1e7")
        else:
            r = top[0]
            if max(float(r["sup_u_outside"]), float(r["sup_v_outside"])) >= 1e-3:
                failed.append("sup-norm outside the wells >= 1e-3 at lambda = 1e7")
            if float(r["h_distance"]) >= 1e-2:
                failed.append("h_distance >= 1e-2 at lambda = 1e7")
        return failed


class _SolveWorkload:
    """One ``solve_ground_state`` per op on a prebuilt lambda-problem."""

    entry_span = "solver.solve"

    def __init__(self, problems: list[LambdaProblem], cfg: SolverConfig, keys: list[int]):
        self.entry = solve_ground_state
        self.problems = problems
        self.cfg = cfg
        self.keys = keys
        self._energy: dict[int, float] = {}

    def run(self, key) -> list[str]:
        result = self.entry(self.problems[key], self.cfg)
        failed = []
        if not result.converged:
            failed.append(f"instance {key} not converged")
        nd = result.nehari
        if not abs(nd.defect) <= math.sqrt(self.cfg.grad_tol) * nd.norm_sq:
            failed.append(f"instance {key} Nehari defect {nd.defect!r} too large")
        first = self._energy.setdefault(key, result.energy)
        if result.energy != first:
            failed.append(f"instance {key} energy {result.energy!r} differs from {first!r}")
        return failed


class GridPolish(_SolveWorkload):
    """One single-restart solve on a fixed 50x50 grid at lambda = 100.

    Descent takes about 60 iterations here; the finite-difference Jacobian of
    the Newton polish (2m = 10^4 residual evaluations) and the dense 5000^2
    solve take nearly all the time and memory. The grid is drawn from a fixed
    design seed: the number of Newton steps, and with it the op time (3.5 s
    or 7.5 s), flips with the instance, so a seeded grid would make every
    timing metric bimodal across runs.
    """

    name = "grid-polish"
    SIDE = 50
    LAM = 100.0
    DESIGN_SEED = 2

    def __init__(self, seed: int, out_dir: Path):
        super().__init__([grid_problem(self.SIDE, self.LAM, self.DESIGN_SEED)],
                         SolverConfig(restarts=1), [0])


class TailCorpus(_SolveWorkload):
    """Default-config solves over a fixed corpus of small random instances.

    Small-lambda instances with alpha, beta < 2 run thousands of Armijo
    descent iterations and need little polish, so the descent loop and its
    line search dominate. The corpus is drawn once from a fixed design seed;
    the workload seed only shuffles the op order. A seeded corpus cannot be
    made steady: op cost spans 0.03 s to several seconds and moved by 17x
    when an instance's weights changed by up to 20 %, so the ops that fit in
    one run give run-to-run spreads far beyond any usable bound.
    """

    name = "tail-corpus"
    SIZE = 20
    DESIGN_SEED = 0

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(self.DESIGN_SEED)
        problems = [random_instance(rng) for _ in range(self.SIZE)]
        order = np.random.default_rng(seed).permutation(self.SIZE)
        super().__init__(problems, SolverConfig(), [int(k) for k in order])


WORKLOADS = {w.name: w for w in (G22Sweep, GridPolish, TailCorpus)}


def grid_problem(side: int, lam: float, seed: int) -> LambdaProblem:
    """4-neighbour grid, weights and measure in [0.5, 2], overlapping wells.

    The a-well is the left 60 % of the columns and the b-well the right 60 %,
    so the wells share a band of columns in the middle.
    """
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(side):
        for c in range(side):
            x = r * side + c
            if c + 1 < side:
                edges.append((x, x + 1))
            if r + 1 < side:
                edges.append((x, x + side))
    weights = rng.uniform(0.5, 2.0, len(edges))
    mu = rng.uniform(0.5, 2.0, side * side)
    g = WeightedGraph(side * side, [(i, j, float(w)) for (i, j), w in zip(edges, weights)],
                      measure=mu)
    cols = np.tile(np.arange(side), side)
    width = int(0.6 * side)
    a = np.where(cols < width, 0.0, 1.0)
    b = np.where(cols >= side - width, 0.0, 1.0)
    return LambdaProblem(g, PotentialField(a, b), lam, 2.0, 2.0)


def random_instance(rng: np.random.Generator) -> LambdaProblem:
    """Random connected graph (n in [10, 30]) with wells sharing a vertex.

    Weights, measure and the potentials off the wells lie in [0.1, 3];
    alpha, beta in (1.2, 2); lambda log-uniform over [1e-2, 1e9].
    """
    n = int(rng.integers(10, 31))
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(0, i)), i))
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    triples = [(i, j, float(rng.uniform(0.1, 3.0))) for (i, j) in sorted(edges)]
    g = WeightedGraph(n, triples, measure=rng.uniform(0.1, 3.0, size=n))
    core = int(rng.integers(0, n))
    in_a = rng.random(n) < rng.uniform(0.2, 0.7)
    in_b = rng.random(n) < rng.uniform(0.2, 0.7)
    in_a[core] = in_b[core] = True
    a = np.where(in_a, 0.0, rng.uniform(0.1, 3.0, n))
    b = np.where(in_b, 0.0, rng.uniform(0.1, 3.0, n))
    alpha, beta = rng.uniform(1.2, 2.0, 2)
    lam = 10.0 ** rng.uniform(-2.0, 9.0)
    return LambdaProblem(g, PotentialField(a, b), lam, float(alpha), float(beta))
