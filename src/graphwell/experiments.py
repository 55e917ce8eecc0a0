"""The 22-vertex concentration experiment: graph, sweep, reference comparison.

The instance is the packaged problem file data/g22.graph, read by the same
parser and validation as every user file. Its edge list realizes every
structural constraint the experiment states: unit weights and measure, the
two wells and their exact vertex boundaries, connectivity, and a relabeling
symmetry sigma that swaps the wells while permuting the graph, which forces
the mirror structure u(x) = v(sigma(x)) of the ground state; the test suite
states sigma and checks both. The published drawing of the graph is not
recoverable from those constraints alone, so published point values are
compared diagnostically rather than gated on; see compare_reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

import numpy as np

from .calculus import PairFunction, as_pair
from .errors import BoundaryMismatchError, GraphValidationError, UnknownLabelError
from .functional import DirichletProblem, LambdaProblem, norm_sq_of
from .graph import PotentialField, WeightedGraph, boundary
from .problem_io import ProblemFile, parse_problem_file, read_solution
from .solver import (SolveResult, SolverConfig, _seeded_restarts, solve_dirichlet,
                     solve_ground_state)

# The paper's listings: both wells and their vertex boundaries.
G22_WELL_A = frozenset(f"x{i}" for i in range(1, 10))
G22_WELL_B = frozenset(f"x{i}" for i in (1, 2, 3, 4, 5, 6, 10, 11, 12))
G22_BOUNDARY_A = frozenset(f"x{i}" for i in (10, 11, 12, 13, 14, 16, 17, 18, 22))
G22_BOUNDARY_B = frozenset(f"x{i}" for i in (7, 8, 9, 13, 17, 18, 19, 21, 22))

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


def _g22_instance(pf: ProblemFile) -> tuple[WeightedGraph, PotentialField, DirichletProblem]:
    """The experiment instance of a parsed G22 file, once both wells and their
    vertex boundaries match the listings above; the first disagreement
    raises BoundaryMismatchError naming an offending vertex."""
    g, pots = pf.graph, pf.potentials
    for what, ids, required in (
            ("the a-well", pots.omega_a, G22_WELL_A),
            ("boundary of the a-well", boundary(g, pots.omega_a), G22_BOUNDARY_A),
            ("the b-well", pots.omega_b, G22_WELL_B),
            ("boundary of the b-well", boundary(g, pots.omega_b), G22_BOUNDARY_B)):
        got = {g.label_of(x) for x in ids}
        if got != required:
            off = min(got ^ required, key=lambda s: (len(s), s))
            raise BoundaryMismatchError(
                f"{what} disagrees with the required listing at {off}", vertex=off)
    return g, pots, DirichletProblem(g, pots.omega_a, pots.omega_b, pf.alpha, pf.beta)


def build_g22() -> tuple[WeightedGraph, PotentialField, DirichletProblem]:
    """The experiment instance, alpha = beta = 2, read from the packaged
    data/g22.graph and checked against the paper's well and boundary listings."""
    return _g22_instance(parse_problem_file(resources.files(__package__).joinpath("data/g22.graph")))


def decade_grid(start_exp: float = 0.0, stop_exp: float = 7.0) -> tuple[float, ...]:
    """Logarithmic lambda grid, one point per factor of ten from 10^start_exp
    to 10^stop_exp, a span that must be a nonnegative whole number of decades
    (to rounding).
    """
    steps = stop_exp - start_exp
    if not (0 <= steps < math.inf and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)):
        raise ValueError(f"exponents {start_exp} to {stop_exp} are not a nonnegative whole "
                         "number of decades")
    return tuple(float(10.0 ** e) for e in np.linspace(start_exp, stop_exp, round(steps) + 1))


@dataclass(frozen=True)
class SweepConfig:
    lambdas: tuple[float, ...] = decade_grid()
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if isinstance(self.lambdas, (str, bytes)):
            raise ValueError(f"lambdas must be a sequence of numbers, got {self.lambdas!r}")
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


# Global signs of (u, v) in the four flips, shaped (4, 2, 1) to scale a pair.
_SIGN_FLIPS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])[:, :, None]


def aligned_h_distance(d: DirichletProblem, w: PairFunction, ref: PairFunction) -> float:
    """H-distance on d's graph, minimized over per-component global sign flips.

    The norm is norm_sq_of(d, .), which neither masks nor needs admissible
    pairs; d's mass coefficients are ones, so it is the H norm in which
    w_lambda -> w_Omega: unit mass on every vertex plus the sum over every
    edge. Both pairs are validated once; the four flips are measured as one
    batch."""
    diff = _SIGN_FLIPS * as_pair(d.graph, w) - as_pair(d.graph, ref)
    return math.sqrt(float(norm_sq_of(d, diff).min()))


def lambda_sweep(potentials: PotentialField, d: DirichletProblem,
                 cfg: SweepConfig | None = None) -> list[SweepRecord]:
    """Solve the Dirichlet limit once, then every lambda, recording metrics.

    d's wells must be the zero sets of the potentials, else
    GraphValidationError: the sup-norms are taken off those zero sets, and the
    lambda-problems converge to the Dirichlet problem on them. Every
    lambda-problem takes d's graph and exponents with the given potentials, so
    d is always its limit. All of them are built, and so validated, before the
    first solve. Each lambda is seeded with the previous solution and with the
    Dirichlet minimizer (an admissible competitor at every lambda, which keeps
    the energy below the limit level); the seeded runs compete against the
    usual cold restarts and the best energy wins.

    On graphs of at most solver._EXACT_METRIC_MAX_N vertices the cold
    restarts and the Dirichlet warm start, which take nothing from the
    previous lambda, descend first, those of every lambda as the rows of one
    lockstep batch. solve_ground_state is then called once per lambda with
    that lambda's finished rows and descends only the previous solution. A
    row's arithmetic does not depend on the rows beside it, so every record
    has the bits of the lambda-solve that descends all its starts itself,
    which is how each lambda is solved on larger graphs.
    """
    cfg = cfg or SweepConfig()
    problems = [LambdaProblem(d.graph, potentials, lam, d.alpha, d.beta) for lam in cfg.lambdas]
    if (d.omega_a, d.omega_b) != (potentials.omega_a, potentials.omega_b):
        raise GraphValidationError("the Dirichlet wells are not the zero sets of the potentials")
    outside_a = np.asarray(potentials.a > 0)
    outside_b = np.asarray(potentials.b > 0)

    dres = solve_dirichlet(d, cfg.solver)
    ref = dres.pair
    restarts = _seeded_restarts(problems, cfg.solver, ref)

    records: list[SweepRecord] = []
    seeds = [ref]
    for problem, own in zip(problems, restarts):
        res = solve_ground_state(problem, cfg.solver, warm_starts=seeds, _restarts=own)
        u, v = res.pair
        sup_u = float(np.max(np.abs(u[outside_a]))) if outside_a.any() else 0.0
        sup_v = float(np.max(np.abs(v[outside_b]))) if outside_b.any() else 0.0
        records.append(SweepRecord(
            lam=problem.lam,
            energy=res.energy,
            sup_u_outside=sup_u,
            sup_v_outside=sup_v,
            h_distance=aligned_h_distance(d, res.pair, ref),
            residual_norm=res.residual_norm,
            converged=res.converged,
        ))
        seeds = [res.pair, ref]
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
                      reference: Mapping[tuple[str, str], float]) -> ComparisonReport:
    """Per-vertex diffs against a labeled value table; absent entries mean 0.

    The verdict is MATCH when every diff is within atol = 5e-3.
    """
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
    return ComparisonReport(tuple(entries), max_dev, 5e-3)


def g22_reference_values() -> dict[tuple[str, str], float]:
    """Committed regression values for the Dirichlet ground state of build_g22.

    Produced once by an independent dense multi-start Newton solve of the
    optimality system (scripts/generate_g22_reference.py) and frozen as
    package data.
    """
    values = read_solution(resources.files(__package__).joinpath("data/g22_dirichlet_reference.csv"))
    out: dict[tuple[str, str], float] = {}
    for label, (u, v) in values.items():
        out[(label, "u")] = u
        out[(label, "v")] = v
    return out
