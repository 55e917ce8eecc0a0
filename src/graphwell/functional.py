"""Energy functionals, strong-form residuals, and Nehari-manifold algebra.

Both problem flavors carry the same kernel data: graph and measure, mass
coefficients coef_u, coef_v (lam a + 1, lam b + 1, or ones), masks mask_a,
mask_b of the unknowns (all true, or the wells), the exponents and the seed
support `overlap`. From that data alone the kernel functions
(coupling_integral, norm_sq_of, energy_of, residual_of, hessian_matvec,
nehari_scale) compute J(w) = (1/2) ||w||^2 - coupling(w)/(alpha+beta), its
residual and the Hessian's action, zero off the masks. They trust their
input; energy_J_*, grad_J_*, norm_H_*_sq and nehari_diagnostics validate the
pair once and then call them.

The masked-kernel identity: on admissible pairs (u = 0 off Omega_a, v = 0 off
Omega_b, with the wells the zero sets of a and b) the lam a, lam b terms drop
out, so J_lambda = J_Omega for every lambda and the residuals agree on the wells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import PairFunction, as_pair, check_admissible, dirichlet_energy_sq, laplacian_all
from .errors import DegeneratePairError, GraphValidationError
from .graph import PotentialField, WeightedGraph, as_domain


def _freeze(obj, **arrays: np.ndarray) -> None:
    """Set read-only array fields on a frozen dataclass."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _check_exponents(alpha: float, beta: float) -> None:
    if not (1 < alpha < math.inf and 1 < beta < math.inf):
        raise ValueError(f"alpha and beta must be finite and exceed 1, got {alpha}, {beta}")


@dataclass(frozen=True, eq=False)
class LambdaProblem:
    """Coupled system on the whole graph with potentials scaled by lam."""

    graph: WeightedGraph
    potentials: PotentialField
    lam: float
    alpha: float
    beta: float
    coef_u: np.ndarray = field(init=False, repr=False)
    coef_v: np.ndarray = field(init=False, repr=False)
    mask_a: np.ndarray = field(init=False, repr=False)
    mask_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.potentials.a.shape != (self.graph.vertex_count,):
            raise GraphValidationError("potentials and graph disagree on vertex count")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        _check_exponents(self.alpha, self.beta)
        free = np.ones(self.graph.vertex_count, dtype=bool)
        _freeze(self, coef_u=self.lam * self.potentials.a + 1.0,
                coef_v=self.lam * self.potentials.b + 1.0, mask_a=free, mask_b=free)

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta

    @property
    def overlap(self) -> frozenset:
        return self.potentials.overlap

    def check_pair(self, w) -> PairFunction:
        return as_pair(self.graph, w)


@dataclass(frozen=True, eq=False)
class DirichletProblem:
    """Limit system posed inside the wells with zero boundary values."""

    graph: WeightedGraph
    omega_a: frozenset
    omega_b: frozenset
    alpha: float
    beta: float
    mask_a: np.ndarray = field(init=False, repr=False)
    mask_b: np.ndarray = field(init=False, repr=False)
    coef_u: np.ndarray = field(init=False, repr=False)
    coef_v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = self.graph
        omega_a = as_domain(g, self.omega_a)
        omega_b = as_domain(g, self.omega_b)
        object.__setattr__(self, "omega_a", omega_a)
        object.__setattr__(self, "omega_b", omega_b)
        if not omega_a or not omega_b:
            raise GraphValidationError("both wells must be nonempty")
        if not (omega_a & omega_b):
            raise GraphValidationError("the wells do not overlap")
        _check_exponents(self.alpha, self.beta)
        n = g.vertex_count
        mask_a = np.zeros(n, dtype=bool)
        mask_a[list(omega_a)] = True
        mask_b = np.zeros(n, dtype=bool)
        mask_b[list(omega_b)] = True
        ones = np.ones(n)
        _freeze(self, mask_a=mask_a, mask_b=mask_b, coef_u=ones, coef_v=ones)

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta

    @property
    def overlap(self) -> frozenset:
        return self.omega_a & self.omega_b

    def check_pair(self, w) -> PairFunction:
        return check_admissible(self, w)


@dataclass(frozen=True)
class LambdaFamily:
    """A lambda-indexed family of problems sharing graph and potentials."""

    graph: WeightedGraph
    potentials: PotentialField
    alpha: float
    beta: float

    def problem(self, lam: float) -> LambdaProblem:
        return LambdaProblem(self.graph, self.potentials, lam, self.alpha, self.beta)


class NehariDiagnostics(NamedTuple):
    norm_sq: float
    coupling: float
    defect: float
    energy: float
    nontrivial: bool


Problem = LambdaProblem | DirichletProblem


def signed_power(u: np.ndarray, p: float) -> np.ndarray:
    """sign(u)|u|^p with the continuous extension 0 at u = 0 (needs p > 0)."""
    return np.sign(u) * np.abs(u) ** p


def coupling_integral(p: Problem, w) -> float:
    """Integral of |u|^alpha |v|^beta over V."""
    u, v = w
    return float(np.dot(p.graph.mu, np.abs(u) ** p.alpha * np.abs(v) ** p.beta))


def norm_sq_of(p: Problem, w) -> float:
    """Squared norm: all-edge gradient terms plus coef_u, coef_v weighted mass."""
    u, v = w
    g = p.graph
    grad = dirichlet_energy_sq(g, u) + dirichlet_energy_sq(g, v)
    mass = float(np.dot(g.mu, p.coef_u * u * u + p.coef_v * v * v))
    return grad + mass


def energy_of(p: Problem, w) -> float:
    return 0.5 * norm_sq_of(p, w) - coupling_integral(p, w) / p.gamma


def residual_of(p: Problem, w) -> PairFunction:
    """Strong-form residual, zero off the masks; its L2(dmu) pairing is the weak form."""
    u, v = w
    g = p.gamma
    ru = (-laplacian_all(p.graph, u) + p.coef_u * u
          - (p.alpha / g) * signed_power(u, p.alpha - 1.0) * np.abs(v) ** p.beta)
    rv = (-laplacian_all(p.graph, v) + p.coef_v * v
          - (p.beta / g) * np.abs(u) ** p.alpha * signed_power(v, p.beta - 1.0))
    return PairFunction(np.where(p.mask_a, ru, 0.0), np.where(p.mask_b, rv, 0.0))


def _abs_power(u: np.ndarray, q: float) -> np.ndarray:
    """|u|^q, taken as 0 at u = 0 when q < 0 (the signed_power convention)."""
    a = np.abs(u)
    if q >= 0.0:
        return a ** q
    return np.power(a, q, out=np.zeros_like(a), where=a > 0.0)


def hessian_matvec(p: Problem, w, du: np.ndarray, dv: np.ndarray) -> PairFunction:
    """H (du, dv), with H the Jacobian of the stacked mu*residual_of at w.

    (mu*r.u, mu*r.v) is the Euclidean gradient of J in the vertex values, so H
    is the symmetric Hessian: the edge-weighted Laplacian, the diagonal
    mu*(coef - alpha(alpha-1)/gamma |u|^(alpha-2) |v|^beta) and its v twin, and
    one u-v coupling entry per vertex. Rows off the masks are zero, like the
    residual's. Where alpha or beta < 2 the diagonal term is singular at a
    zero of u or v; it is taken as 0 there. Costs O(|E| + n).
    """
    u, v = w
    g = p.graph
    a, b, gam = p.alpha, p.beta, p.gamma
    su, sv = signed_power(u, a - 1.0), signed_power(v, b - 1.0)
    cross = (a * b / gam) * su * sv
    hu = (-laplacian_all(g, du)
          + (p.coef_u - (a * (a - 1.0) / gam) * _abs_power(u, a - 2.0) * np.abs(v) ** b) * du
          - cross * dv)
    hv = (-laplacian_all(g, dv)
          + (p.coef_v - (b * (b - 1.0) / gam) * np.abs(u) ** a * _abs_power(v, b - 2.0)) * dv
          - cross * du)
    return PairFunction(np.where(p.mask_a, g.mu * hu, 0.0), np.where(p.mask_b, g.mu * hv, 0.0))


def nehari_scale(p: Problem, w) -> float:
    """The unique t > 0 placing t*w on the Nehari manifold.

    Solves t^2 norm_sq = t^gamma coupling, so t = (norm_sq/coupling)^(1/(gamma-2)).
    """
    norm_sq = norm_sq_of(p, w)
    coupling = coupling_integral(p, w)
    if coupling <= 0.0 or norm_sq <= 0.0:
        raise DegeneratePairError(
            f"no Nehari projection: norm_sq={norm_sq}, coupling={coupling}")
    return float((norm_sq / coupling) ** (1.0 / (p.gamma - 2.0)))


def norm_H_lambda_sq(p: LambdaProblem, w) -> float:
    """Squared H_lambda norm: gradient terms plus (lambda a + 1), (lambda b + 1) mass."""
    return norm_sq_of(p, as_pair(p.graph, w))


def norm_H_Omega_sq(d: DirichletProblem, w) -> float:
    """Squared H_Omega norm of an admissible pair, else DomainViolationError.

    It is the all-edge gradient sum plus unit mass. An admissible pair vanishes
    off the wells, so this equals the gradient form summed over the closed
    wells plus the mass over the open wells.
    """
    return norm_sq_of(d, check_admissible(d, w))


def energy_J_lambda(p: LambdaProblem, w) -> float:
    return energy_of(p, as_pair(p.graph, w))


def grad_J_lambda(p: LambdaProblem, w) -> PairFunction:
    """Strong-form residual of system (1); its L2(dmu) pairing is the weak form."""
    return residual_of(p, as_pair(p.graph, w))


def energy_J_Omega(d: DirichletProblem, w) -> float:
    return energy_of(d, check_admissible(d, w))


def grad_J_Omega(d: DirichletProblem, w) -> PairFunction:
    """Residual of system (2) on interior vertices, pinned to 0 elsewhere."""
    return residual_of(d, check_admissible(d, w))


def nehari_diagnostics(p: Problem, w) -> NehariDiagnostics:
    w = p.check_pair(w)
    norm_sq = norm_sq_of(p, w)
    coupling = coupling_integral(p, w)
    return NehariDiagnostics(
        norm_sq=norm_sq,
        coupling=coupling,
        defect=norm_sq - coupling,
        energy=0.5 * norm_sq - coupling / p.gamma,
        nontrivial=bool(norm_sq > 0.0 and coupling > 0.0),
    )
