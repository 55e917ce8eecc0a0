"""Energy functionals, strong-form residuals, and Nehari-manifold algebra.

Inside the package a pair (u, v) is one float array whose last two axes are
(component, vertex): a single pair is (2, n), a batch of k pairs is (k, 2, n).
PairFunction is built only where a pair leaves through the public API.

Both problem flavors carry the same kernel data in that layout: graph and
measure, mass coefficients coef (rows lam a + 1 and lam b + 1, or ones), masks
mask of the unknowns (all true, or the wells; mask_a and mask_b are its rows),
the exponents and the seed support `overlap`. From that data alone the kernel
functions (coupling_integral, norm_sq_of, energy_of, residual_of,
hessian_operator, hessian_matrix, nehari_scale) compute J(w) = (1/2) ||w||^2 -
coupling(w)/(alpha+beta), its residual and the Hessian's action, zero off the
masks, and the Hessian's matrix, the identity off the masks. Mass, Laplacian,
masking and reductions act on both components at once; only the coupling
terms index a component. The kernels broadcast coef against the pairs: a
problem's is (2, n), and the solver gives every batch (k, 2, n), one row per
pair. The kernels trust their input; energy_J_lambda, grad_J_lambda,
norm_H_lambda_sq (bound also as the _Omega names) and nehari_diagnostics
validate the pair once, by the problem's check_pair, and then call them.
Given a batch, the kernels return one value or residual per pair;
_nehari_rows is nehari_diagnostics for the norms and couplings of a trusted
batch, the form in which the solver certifies its results.

The masked-kernel identity: on admissible pairs (u = 0 off Omega_a, v = 0 off
Omega_b, with the wells the zero sets of a and b) the lam a, lam b terms drop
out, so J_lambda = J_Omega for every lambda and the residuals agree on the wells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .calculus import (PairFunction, as_pair, check_admissible, edge_laplacian, laplacian_all,
                       pair_sum, weighted_sum)
from .errors import GraphValidationError
from .graph import PotentialField, WeightedGraph, as_domain


def _freeze(obj, **arrays: np.ndarray) -> None:
    """Set read-only array fields on a frozen dataclass."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _check_exponents(alpha: float, beta: float) -> None:
    if not (1 < alpha < math.inf and 1 < beta < math.inf):
        raise ValueError(f"alpha and beta must be finite and exceed 1, got {alpha}, {beta}")


def _store_floats(obj, *names: str) -> None:
    """Store checked scalar fields of a frozen dataclass as Python floats, so
    that numpy scalars given for them never leak into the results."""
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The kernel data of both flavours: coef and mask, rows u and v."""

    coef: np.ndarray = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta

    @property
    def mask_a(self) -> np.ndarray:
        return self.mask[0]

    @property
    def mask_b(self) -> np.ndarray:
        return self.mask[1]


@dataclass(frozen=True, eq=False)
class LambdaProblem(_Kernel):
    """Coupled system on the whole graph with potentials scaled by lam."""

    graph: WeightedGraph
    potentials: PotentialField
    lam: float
    alpha: float
    beta: float

    def __post_init__(self):
        pots = self.potentials
        if pots.a.shape != (self.graph.vertex_count,):
            raise GraphValidationError("potentials and graph disagree on vertex count")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        _check_exponents(self.alpha, self.beta)
        _store_floats(self, "lam", "alpha", "beta")
        with np.errstate(over="ignore"):
            coef = self.lam * np.array((pots.a, pots.b)) + 1.0
        if not np.isfinite(coef).all():
            raise ValueError(f"lambda {self.lam:g} overflows the mass coefficient lambda a + 1")
        _freeze(self, coef=coef, mask=np.ones((2, self.graph.vertex_count), dtype=bool))

    @property
    def overlap(self) -> frozenset:
        return self.potentials.overlap

    def check_pair(self, w) -> np.ndarray:
        return as_pair(self.graph, w)


@dataclass(frozen=True, eq=False)
class DirichletProblem(_Kernel):
    """Limit system posed inside the wells with zero boundary values."""

    graph: WeightedGraph
    omega_a: frozenset
    omega_b: frozenset
    alpha: float
    beta: float

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
        _store_floats(self, "alpha", "beta")
        mask = np.zeros((2, g.vertex_count), dtype=bool)
        mask[0, list(omega_a)] = True
        mask[1, list(omega_b)] = True
        _freeze(self, coef=np.ones((2, g.vertex_count)), mask=mask)

    @property
    def overlap(self) -> frozenset:
        return self.omega_a & self.omega_b

    def check_pair(self, w) -> np.ndarray:
        return check_admissible(self, w)


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


def coupling_integral(p: Problem, w: np.ndarray) -> float | np.ndarray:
    """Integral of |u|^alpha |v|^beta over V."""
    return weighted_sum(np.abs(w[..., 0, :]) ** p.alpha * np.abs(w[..., 1, :]) ** p.beta,
                        p.graph.mu)


def norm_sq_of(p: Problem, w: np.ndarray) -> float | np.ndarray:
    """Squared norm: all-edge gradient terms plus coef-weighted mass."""
    g = p.graph
    dw = w.take(g.edge_j, axis=-1) - w.take(g.edge_i, axis=-1)
    return pair_sum(dw * dw, g.edge_w) + pair_sum(p.coef * w * w, g.mu)


def _energy(p: Problem, norm_sq, coupling):
    """J from the squared norm and the coupling: (1/2) norm_sq - coupling/gamma."""
    return 0.5 * norm_sq - coupling / p.gamma


def energy_of(p: Problem, w: np.ndarray) -> float | np.ndarray:
    return _energy(p, norm_sq_of(p, w), coupling_integral(p, w))


def _coupling_gradient(p: Problem, w: np.ndarray) -> np.ndarray:
    """The coupling's derivatives over gamma, alpha |u|^(alpha-2) u |v|^beta / gamma
    and its v twin: the only term of the residual that mixes the components."""
    # Each component's exponent, as a column; one float when they agree,
    # which numpy's power takes by its faster path (alpha = beta = 2 squares).
    e = p.alpha if p.alpha == p.beta else np.array(((p.alpha,), (p.beta,)))
    aw = np.abs(w)
    return (e / p.gamma) * np.sign(w) * aw ** (e - 1.0) * (aw ** e)[..., ::-1, :]


def residual_of(p: Problem, w: np.ndarray) -> np.ndarray:
    """Strong-form residual, zero off the masks; its L2(dmu) pairing is the weak form."""
    return np.where(p.mask, p.coef * w - laplacian_all(p.graph, w) - _coupling_gradient(p, w),
                    0.0)


def _residual_magnitude(p: Problem, w: np.ndarray) -> np.ndarray:
    """The termwise magnitude m of residual_of at w, zero off the masks:
    |coef w| + (wdeg |w| + W |w|)/mu + |dC/gamma|, where W |w| sums
    w_xy |w(y)| over the neighbours y of x. The rounding error of the residual
    at a vertex is a small multiple of eps m there (Oettli & Prager's
    componentwise backward error)."""
    g = p.graph
    aw = np.abs(w)
    # edge_laplacian(|w|) = W|w| - wdeg|w|, so adding 2 wdeg|w| gives both terms.
    neighbours = (edge_laplacian(g, aw) + 2.0 * g.wdeg * aw) / g.mu
    return np.where(p.mask, np.abs(p.coef * w) + neighbours + np.abs(_coupling_gradient(p, w)),
                    0.0)


def _abs_power(u: np.ndarray, q: float) -> np.ndarray:
    """|u|^q, taken as 0 at u = 0 when q < 0 (the signed_power convention)."""
    a = np.abs(u)
    if q >= 0.0:
        return a ** q
    return np.power(a, q, out=np.zeros_like(a), where=a > 0.0)


def _hessian_terms(p: Problem, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms of the Hessian at w that depend on w, from the coupling.

    second, shaped like w, is alpha(alpha-1)/gamma |u|^(alpha-2) |v|^beta and
    its v twin; the Hessian's diagonal subtracts mu times it. cross, with one
    component axis of length 1, is mu alpha beta/gamma sign(u)|u|^(alpha-1)
    sign(v)|v|^(beta-1), the u-v entry at each vertex, which both off-diagonal
    blocks subtract. Where alpha or beta < 2, second is singular at a zero of
    u or v; it is taken as 0 there. It is also 0 wherever the other factor,
    |v|^beta or |u|^alpha, is 0, even where the singular factor of a
    subnormal u or v overflows, which would make the product inf * 0 = nan.
    """
    u, v = w[..., 0, :], w[..., 1, :]
    a, b, gam = p.alpha, p.beta, p.gamma
    ua, vb = np.abs(u) ** a, np.abs(v) ** b
    second = np.stack((np.where(vb > 0.0, (a * (a - 1.0) / gam) * _abs_power(u, a - 2.0) * vb, 0.0),
                       np.where(ua > 0.0, (b * (b - 1.0) / gam) * ua * _abs_power(v, b - 2.0), 0.0)),
                      axis=-2)
    cross = (p.graph.mu * (a * b / gam) * signed_power(u, a - 1.0)
             * signed_power(v, b - 1.0))[..., None, :]
    return second, cross


def hessian_operator(p: Problem, w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The Hessian H at w, the Jacobian of mu*residual_of, as a function d -> H d.

    mu*r is the Euclidean gradient of J in the vertex values, so H is the
    symmetric Hessian: the edge-weighted Laplacian, the diagonal
    mu*(coef - alpha(alpha-1)/gamma |u|^(alpha-2) |v|^beta) and its v twin, and
    one u-v coupling entry per vertex. The diagonal and the coupling entries
    depend on w alone and are formed here, once, by _hessian_terms; each
    application then costs one edge scatter (edge_laplacian, mu times
    laplacian_all) and a few elementwise operations, O(|E| + n). Rows off the
    masks are zero, like the residual's. For a batch w of k pairs, the
    function takes directions d of the same shape.
    """
    g = p.graph
    second, cross = _hessian_terms(p, w)
    diag = g.mu * (p.coef - second)

    def apply(d: np.ndarray) -> np.ndarray:
        h = diag * d - edge_laplacian(g, d) - cross * d[..., ::-1, :]
        return np.where(p.mask, h, 0.0)

    return apply


def hessian_matrix(p: Problem, w: np.ndarray) -> np.ndarray:
    """The matrix of hessian_operator(p, w) over the unknowns (u, v) laid end
    to end: (2n, 2n) for a pair, (m, 2n, 2n) for a batch of m pairs, each from
    its own pair alone. Each component's block is -W on its mask with the
    diagonal wdeg + mu coef - mu second, summed in that order, and -cross
    couples the blocks where both masks hold (_hessian_terms). Every unknown
    off the masks gets the identity's row and column, so a solve is zero
    there, as the residual is. At w = 0 the diagonal blocks are
    A = diag(wdeg) - W + diag(mu coef) on the masks, the operator of the H-norm.
    """
    g = p.graph
    n = g.vertex_count
    batch = w.shape[:-2]
    second, cross = _hessian_terms(p, w)
    adjacency = np.zeros((n, n))
    adjacency[g.edge_i, g.edge_j] = adjacency[g.edge_j, g.edge_i] = g.edge_w
    linear = np.zeros((2 * n, 2 * n))
    linear[:n, :n] = linear[n:, n:] = 0.0 - adjacency
    on = p.mask.ravel()
    h = np.empty((*batch, 2 * n, 2 * n))
    h[...] = np.where(on[:, None] & on, linear, 0.0)
    # Flattened, entry (k, k) of a matrix sits at k (2n + 1), (k, n + k) at
    # n + k (2n + 1) and (n + k, k) at 2n^2 + k (2n + 1), for k < n in the last two.
    flat = h.reshape(*batch, -1)
    flat[..., ::2 * n + 1] = np.where(p.mask, g.wdeg + g.mu * p.coef - g.mu * second,
                                      1.0).reshape(*batch, 2 * n)
    coupled = np.where(p.mask.all(axis=0), cross[..., 0, :], 0.0)
    flat[..., n:2 * n * n:2 * n + 1] -= coupled
    flat[..., 2 * n * n::2 * n + 1] -= coupled
    return h


def nehari_scale(p: Problem, w) -> float | np.ndarray:
    """The unique t > 0 placing t*w on the Nehari manifold.

    Solves t^2 norm_sq = t^gamma coupling, so t = (norm_sq/coupling)^(1/(gamma-2)).
    A pair without a projection (zero norm or coupling) gets t = nan. One value
    per pair of a batch, a float for a single pair.
    """
    norm_sq = norm_sq_of(p, w)
    coupling = coupling_integral(p, w)
    exponent = 1.0 / (p.gamma - 2.0)
    bad = (coupling <= 0.0) | (norm_sq <= 0.0)
    t = np.where(bad, np.nan, (norm_sq / np.where(bad, 1.0, coupling)) ** exponent)
    return t if t.ndim else float(t)


def norm_H_lambda_sq(p: Problem, w) -> float:
    """Squared H norm of a pair: the all-edge gradient sum plus coef-weighted
    mass. As norm_H_Omega_sq, on a DirichletProblem, the mass is unit and the
    pair must vanish off the wells, so this equals the gradient form summed
    over the closed wells plus the mass over the open wells."""
    return norm_sq_of(p, p.check_pair(w))


def energy_J_lambda(p: Problem, w) -> float:
    return energy_of(p, p.check_pair(w))


def grad_J_lambda(p: Problem, w) -> PairFunction:
    """Strong-form residual of system (1), or as grad_J_Omega of system (2), zero
    off the wells; its L2(dmu) pairing is the weak form."""
    return PairFunction(*residual_of(p, p.check_pair(w)))


# J_Omega is J_lambda on the Dirichlet kernel, whose check_pair requires admissible pairs.
norm_H_Omega_sq, energy_J_Omega, grad_J_Omega = norm_H_lambda_sq, energy_J_lambda, grad_J_lambda


def _nehari_rows(p: Problem, norm_sq: np.ndarray, coupling: np.ndarray) -> list[NehariDiagnostics]:
    """The NehariDiagnostics of each pair of a batch, from its norm and coupling arrays."""
    return [NehariDiagnostics(norm_sq=n, coupling=c, defect=n - c, energy=_energy(p, n, c),
                              nontrivial=n > 0.0 and c > 0.0)
            for n, c in zip(norm_sq.tolist(), coupling.tolist())]


def nehari_diagnostics(p: Problem, w) -> NehariDiagnostics:
    w = p.check_pair(w)[None]
    return _nehari_rows(p, norm_sq_of(p, w), coupling_integral(p, w))[0]
