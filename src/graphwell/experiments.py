"""The 22-vertex concentration experiment: graph, sweep, reference comparison.

The committed edge list below realizes every structural constraint the
experiment states: unit weights and measure, the two wells and their exact
vertex boundaries, connectivity, and a relabeling symmetry sigma that swaps
the wells while permuting the graph, which forces the mirror structure
u(x) = v(sigma(x)) of the ground state. The published drawing of the graph
is not recoverable from those constraints alone, so published point values
are compared diagnostically rather than gated on; see compare_reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .calculus import PairFunction, norm_H_sq
from .errors import (
    BoundaryMismatchError,
    DegeneratePairError,
    GraphValidationError,
    UnknownLabelError,
)
from .functional import DirichletProblem, LambdaFamily
from .graph import PotentialField, WeightedGraph, boundary, validate_graph
from .solver import SolveResult, SolverConfig, solve_dirichlet, solve_ground_state

G22_LABELS = tuple(f"x{i}" for i in range(1, 23))

G22_EDGES = (
    ("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x1", "x5"), ("x1", "x6"), ("x1", "x13"),
    ("x2", "x3"), ("x2", "x4"), ("x2", "x5"), ("x2", "x6"), ("x2", "x7"), ("x2", "x8"),
    ("x2", "x9"), ("x2", "x17"),
    ("x3", "x4"), ("x3", "x5"), ("x3", "x6"), ("x3", "x7"), ("x3", "x8"), ("x3", "x9"),
    ("x3", "x18"),
    ("x4", "x5"), ("x4", "x6"), ("x4", "x7"), ("x4", "x9"), ("x4", "x10"), ("x4", "x12"),
    ("x4", "x13"), ("x4", "x22"),
    ("x5", "x6"), ("x5", "x10"), ("x5", "x11"), ("x5", "x12"), ("x5", "x17"),
    ("x6", "x10"), ("x6", "x11"), ("x6", "x12"), ("x6", "x18"),
    ("x7", "x8"), ("x7", "x14"),
    ("x8", "x9"), ("x8", "x13"),
    ("x9", "x16"),
    ("x10", "x11"), ("x10", "x19"),
    ("x11", "x12"), ("x11", "x13"),
    ("x12", "x21"),
    ("x13", "x20"),
    ("x14", "x15"),
    ("x15", "x16"), ("x15", "x19"), ("x15", "x21"),
    ("x17", "x20"), ("x18", "x20"),
    ("x20", "x22"),
)

G22_WELL_A = frozenset(f"x{i}" for i in range(1, 10))
G22_WELL_B = frozenset(f"x{i}" for i in (1, 2, 3, 4, 5, 6, 10, 11, 12))
G22_BOUNDARY_A = frozenset(f"x{i}" for i in (10, 11, 12, 13, 14, 16, 17, 18, 22))
G22_BOUNDARY_B = frozenset(f"x{i}" for i in (7, 8, 9, 13, 17, 18, 19, 21, 22))

# Well-swapping graph symmetry; the ground state satisfies u(x) = v(mirror(x)).
G22_MIRROR = {
    "x1": "x1", "x2": "x5", "x3": "x6", "x4": "x4", "x5": "x2", "x6": "x3",
    "x7": "x10", "x8": "x11", "x9": "x12", "x10": "x7", "x11": "x8", "x12": "x9",
    "x13": "x13", "x14": "x19", "x15": "x15", "x16": "x21", "x17": "x17",
    "x18": "x18", "x19": "x14", "x20": "x20", "x21": "x16", "x22": "x22",
}

# Published point values for the Dirichlet ground state, keyed by (label,
# component); every vertex absent from this table is zero there.
TABLE1_REFERENCE: dict[tuple[str, str], float] = {
    ("x1", "u"): 3.5308, ("x2", "u"): 2.0210, ("x3", "u"): 2.0210,
    ("x4", "u"): 3.5308, ("x5", "u"): 2.1900, ("x6", "u"): 2.1900,
    ("x7", "u"): 1.2943, ("x8", "u"): 0.7708, ("x9", "u"): 1.2943,
    ("x1", "v"): 3.5308, ("x2", "v"): 2.1900, ("x3", "v"): 2.1900,
    ("x4", "v"): 3.5308, ("x5", "v"): 2.0210, ("x6", "v"): 2.0210,
    ("x10", "v"): 1.2943, ("x11", "v"): 0.7708, ("x12", "v"): 1.2943,
}


def build_g22(edges: Sequence[tuple[str, str]] = G22_EDGES,
              alpha: float = 2.0, beta: float = 2.0,
              ) -> tuple[WeightedGraph, PotentialField, DirichletProblem]:
    """Assemble the experiment instance and validate its boundary listings.

    The supplied edge list must reproduce the required vertex boundaries of
    both wells exactly; any disagreement raises BoundaryMismatchError naming
    an offending vertex.
    """
    ids = {lab: i for i, lab in enumerate(G22_LABELS)}
    triples = []
    for la, lb in edges:
        if la not in ids or lb not in ids:
            raise UnknownLabelError(f"edge ({la}, {lb}) uses a label outside x1..x22")
        triples.append((ids[la], ids[lb], 1.0))
    g = WeightedGraph(22, triples, measure=np.ones(22), labels=G22_LABELS)
    validate_graph(g)

    a = np.ones(22)
    b = np.ones(22)
    a[[ids[s] for s in G22_WELL_A]] = 0.0
    b[[ids[s] for s in G22_WELL_B]] = 0.0
    pots = PotentialField(a, b)

    for omega, required, name in ((pots.omega_a, G22_BOUNDARY_A, "a"),
                                  (pots.omega_b, G22_BOUNDARY_B, "b")):
        got = {g.label_of(x) for x in boundary(g, omega)}
        if got != required:
            off = sorted(got ^ required, key=lambda s: int(s[1:]))[0]
            raise BoundaryMismatchError(
                f"boundary of the {name}-well disagrees with the required listing at {off}",
                vertex=off)

    problem = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha, beta)
    return g, pots, problem


def decade_grid(start_exp: float = 0.0, stop_exp: float = 7.0, per_decade: int = 1) -> tuple[float, ...]:
    """Logarithmic lambda grid, per_decade points in each factor-of-ten span."""
    count = int(round((stop_exp - start_exp) * per_decade)) + 1
    return tuple(float(10.0 ** e) for e in np.linspace(start_exp, stop_exp, count))


@dataclass(frozen=True)
class SweepConfig:
    lambdas: tuple[float, ...] = decade_grid()
    solver: SolverConfig = SolverConfig()
    warm_start: bool = True

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        if not lams:
            raise ValueError("lambdas must be nonempty")
        if not all(math.isfinite(x) and x > 0 for x in lams):
            raise ValueError("lambdas must be positive and finite")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambdas must be strictly increasing")
        object.__setattr__(self, "lambdas", lams)


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    energy: float
    sup_u_outside: float
    sup_v_outside: float
    h_distance: float
    residual_norm: float
    converged: bool


def aligned_h_distance(g: WeightedGraph, w: PairFunction, ref: PairFunction) -> float:
    """H-distance minimized over per-component global sign flips."""
    best = math.inf
    for su in (1.0, -1.0):
        for sv in (1.0, -1.0):
            diff = (su * w.u - ref.u, sv * w.v - ref.v)
            best = min(best, norm_H_sq(g, diff))
    return math.sqrt(best)


def lambda_sweep(family: LambdaFamily, d: DirichletProblem,
                 cfg: SweepConfig | None = None) -> list[SweepRecord]:
    """Solve the Dirichlet limit once, then every lambda, recording metrics.

    With warm_start enabled, each lambda is additionally seeded with the
    previous solution and with the Dirichlet minimizer (an admissible
    competitor at every lambda, which keeps the energy below the limit level);
    the seeded runs compete against the usual cold restarts and the best
    energy wins. A lambda whose solve degenerates is recorded unconverged.
    """
    cfg = cfg or SweepConfig()
    if family.graph is not d.graph:
        raise GraphValidationError("sweep family and Dirichlet problem must share one graph")
    g = family.graph
    outside_a = np.asarray(family.potentials.a > 0)
    outside_b = np.asarray(family.potentials.b > 0)

    dres = solve_dirichlet(d, cfg.solver)
    ref = dres.pair

    records: list[SweepRecord] = []
    prev: PairFunction | None = None
    for lam in cfg.lambdas:
        seeds: list[PairFunction] = []
        if cfg.warm_start:
            if prev is not None:
                seeds.append(prev)
            seeds.append(ref)
        try:
            res = solve_ground_state(family.problem(lam), cfg.solver, warm_starts=seeds)
        except DegeneratePairError:
            records.append(SweepRecord(lam, math.nan, math.nan, math.nan,
                                       math.nan, math.nan, False))
            prev = None
            continue
        u, v = res.pair
        sup_u = float(np.max(np.abs(u[outside_a]))) if outside_a.any() else 0.0
        sup_v = float(np.max(np.abs(v[outside_b]))) if outside_b.any() else 0.0
        records.append(SweepRecord(
            lam=float(lam),
            energy=res.energy,
            sup_u_outside=sup_u,
            sup_v_outside=sup_v,
            h_distance=aligned_h_distance(g, res.pair, ref),
            residual_norm=res.residual_norm,
            converged=res.converged,
        ))
        prev = res.pair
    return records


@dataclass(frozen=True)
class ReferenceDiff:
    label: str
    component: str
    computed: float
    reference: float

    @property
    def deviation(self) -> float:
        return abs(self.computed - self.reference)


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ReferenceDiff, ...]
    max_deviation: float
    atol: float

    @property
    def verdict(self) -> str:
        return "MATCH" if self.max_deviation <= self.atol else "ADJACENCY-DIVERGENCE"


def compare_reference(g: WeightedGraph, result: SolveResult,
                      reference: Mapping[tuple[str, str], float],
                      atol: float = 5e-3) -> ComparisonReport:
    """Per-vertex diffs against a labeled value table; absent entries mean 0."""
    for label, comp in reference:
        g.id_of(label)
        if comp not in ("u", "v"):
            raise UnknownLabelError(f"unknown component {comp!r} for vertex {label} (use 'u' or 'v')")
    entries = []
    for x in range(g.vertex_count):
        label = g.label_of(x)
        for comp, values in (("u", result.pair.u), ("v", result.pair.v)):
            want = float(reference.get((label, comp), 0.0))
            entries.append(ReferenceDiff(label, comp, float(values[x]), want))
    max_dev = max(e.deviation for e in entries)
    return ComparisonReport(tuple(entries), max_dev, float(atol))


def g22_reference_values() -> dict[tuple[str, str], float]:
    """Committed regression values for the Dirichlet ground state on G22_EDGES.

    Produced once by an independent dense multi-start Newton solve of the
    optimality system (scripts/generate_g22_reference.py) and frozen as
    package data.
    """
    text = resources.files("graphwell").joinpath("data/g22_dirichlet_reference.csv").read_text()
    out: dict[tuple[str, str], float] = {}
    for row in csv.DictReader(text.splitlines()):
        out[(row["vertex"], "u")] = float(row["u"])
        out[(row["vertex"], "v")] = float(row["v"])
    return out
