import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from graphwell import (
    DirichletProblem,
    LambdaProblem,
    PotentialField,
    SolverConfig,
    SweepConfig,
    WeightedGraph,
    build_g22,
    lambda_sweep,
    solve_dirichlet,
)

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """perfbench/workloads.py, loaded by path: its instance builders."""
    return _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def load_soak():
    """scripts/soak.py, loaded by path: the envelope soak and its draws."""
    return _load("soak", ROOT / "scripts" / "soak.py")


def random_connected_graph(rng, n_min=3, n_max=30):
    """Random tree plus extra chords; weights and measures in [0.1, 3]."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(0, i)), i))
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    triples = [(i, j, float(rng.uniform(0.1, 3.0))) for (i, j) in sorted(edges)]
    mu = rng.uniform(0.1, 3.0, size=n)
    return WeightedGraph(n, triples, measure=mu)


def make_problem(n, edges, mu, a, b, lam, alpha, beta):
    g = WeightedGraph(n, edges, measure=np.asarray(mu, dtype=float))
    pots = PotentialField(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return LambdaProblem(g, pots, lam=lam, alpha=alpha, beta=beta)


# Small problems with at most three vertices.  Each entry carries the raw
# ingredients so oracle code can rebuild the system without graphwell.
CORPUS = [
    ("K1_unit", dict(n=1, edges=[], mu=[1.0], a=[0.0], b=[0.0],
                     lam=1.0, alpha=2.0, beta=2.0)),
    ("K1_weighted", dict(n=1, edges=[], mu=[2.5], a=[0.0], b=[0.0],
                         lam=3.7, alpha=2.5, beta=2.2)),
    ("K2_symmetric", dict(n=2, edges=[(0, 1, 1.0)], mu=[1.0, 1.0],
                          a=[0.0, 0.0], b=[0.0, 0.0],
                          lam=1.0, alpha=2.0, beta=2.0)),
    ("K2_lopsided", dict(n=2, edges=[(0, 1, 1.7)], mu=[1.0, 2.0],
                         a=[0.0, 0.8], b=[0.0, 0.0],
                         lam=2.0, alpha=2.2, beta=2.8)),
    ("P3_path", dict(n=3, edges=[(0, 1, 1.0), (1, 2, 2.0)], mu=[1.0, 0.5, 2.0],
                     a=[0.0, 0.0, 1.2], b=[0.5, 0.0, 0.0],
                     lam=1.5, alpha=2.0, beta=2.0)),
    ("K3_triangle", dict(n=3, edges=[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)],
                         mu=[1.0, 1.0, 1.0], a=[0.0, 0.0, 0.0], b=[0.0, 0.0, 0.0],
                         lam=5.0, alpha=3.0, beta=2.0)),
]


@pytest.fixture(scope="session")
def corpus_problems():
    return [(name, make_problem(**spec), spec) for name, spec in CORPUS]


@pytest.fixture(scope="session")
def g22():
    return build_g22()


@pytest.fixture(scope="session")
def g22_dirichlet(g22):
    _graph, _pots, dirichlet = g22
    return solve_dirichlet(dirichlet, SolverConfig(rng_seed=0))


@pytest.fixture(scope="session")
def g22_sweep(g22):
    _graph, pots, dirichlet = g22
    t0 = time.perf_counter()
    records = lambda_sweep(pots, dirichlet, SweepConfig())
    elapsed = time.perf_counter() - t0
    return records, elapsed
