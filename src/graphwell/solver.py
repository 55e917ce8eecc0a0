"""Ground-state computation by projected descent on the Nehari manifold.

Each restart starts from a random positive pair supported on the overlap of
the wells, projects it onto the manifold, and then alternates descent steps
with re-projection. The line search tests the Armijo condition on the energy
AFTER re-projection: along the ray the manifold point is the energy maximum,
so plain descent on J followed by projection could move uphill, while the
projected energy is the quantity the iteration actually drives down. At a
manifold point both energies share the same directional derivative, so the
usual Armijo decrement applies unchanged.

Descent directions are the strong residual scaled by the diagonal of the
linearized operator, (lam a + 1) + wdeg/mu. Without that scaling the mass
coefficients spread over seven orders of magnitude across the sweep and
first-order descent cannot reach the residual tolerance in any sane budget.

Descent alone still crawls on symmetric instances, where the Hessian at the
ground state can have an exactly flat direction (the energy grows only
quartically along it). Each restart therefore hands over to a damped Newton
polish of the optimality system once the residual is small; Newton moves
along such valleys at a fixed linear rate instead of stalling. The polished
point is kept only when it actually lowers the residual norm.

The polish is matrix-free. Its Jacobian is the analytic Hessian, applied by
functional.hessian_matvec in O(|E| + n); each Newton step solves with it by
MINRES, preconditioned with the descent diagonal above. No matrix is formed,
so memory stays O(|E| + n).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import PairFunction, as_pair
from .errors import AllRestartsDegenerateError, DegeneratePairError
from .functional import (
    DirichletProblem,
    LambdaProblem,
    NehariDiagnostics,
    Problem,
    coupling_integral,
    energy_of,
    hessian_matvec,
    nehari_diagnostics,
    nehari_scale,
    norm_sq_of,
    residual_of,
)

logger = logging.getLogger(__name__)

_MAX_ITERS = 50000          # descent iterations per restart
_ARMIJO_C = 1e-4            # sufficient-decrease constant; trial steps start at 1
_BACKTRACK = 0.5            # step shrink factor per rejected trial
_STALL_LIMIT = 200          # consecutive non-improving iterations before giving up
_STEP_UNDERFLOW = 1e-18     # smallest trial step before the line search gives up
_POLISH_SWITCH = 1e-4       # hand off to Newton at rnorm <= this * max(1, ||w||)
_POLISH_MAX_ITERS = 60
_POLISH_BACKTRACKS = 40
_MINRES_RTOL = 1e-10        # relative preconditioned residual of each Newton solve
_MINRES_ITERS_PER_UNKNOWN = 2  # MINRES iteration cap, per unknown


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-9
    restarts: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a nonnegative integer")


@dataclass(frozen=True)
class SolveResult:
    pair: PairFunction
    energy: float
    residual_norm: float
    nehari: NehariDiagnostics
    iterations: int
    restart_index: int
    converged: bool


def _level_energy(norm_sq: float, coupling: float, gamma: float) -> float:
    """Energy after exact Nehari projection, from the ray maximum formula."""
    logval = (gamma * math.log(norm_sq) - 2.0 * math.log(coupling)) / (gamma - 2.0)
    return (0.5 - 1.0 / gamma) * math.exp(logval)


def _diag_of(p: Problem) -> tuple[np.ndarray, np.ndarray]:
    ratio = p.graph.wdeg / p.graph.mu
    return p.coef_u + ratio, p.coef_v + ratio


def _initial_pair(p: Problem, rng: np.random.Generator) -> PairFunction:
    n = p.graph.vertex_count
    idx = sorted(p.overlap)
    u = np.zeros(n)
    v = np.zeros(n)
    u[idx] = rng.uniform(0.5, 1.5, len(idx))
    v[idx] = rng.uniform(0.5, 1.5, len(idx))
    return PairFunction(u, v)


def _residual_norm(p: Problem, r: PairFunction) -> float:
    mu = p.graph.mu
    return math.sqrt(float(np.dot(mu, r.u * r.u) + np.dot(mu, r.v * r.v)))


def _minres(matvec, b: np.ndarray, minv: np.ndarray) -> np.ndarray:
    """Preconditioned MINRES for the symmetric, possibly indefinite A x = b.

    Paige & Saunders (SIAM J. Numer. Anal. 12, 1975), started from x = 0, with
    the SPD diagonal preconditioner M given by its inverse ``minv``. Stops when
    the M^-1-norm of the residual drops below _MINRES_RTOL times that of b, or
    after _MINRES_ITERS_PER_UNKNOWN * len(b) iterations; the caller judges the
    returned x by its own decrease test either way.
    """
    x = np.zeros_like(b)
    r1 = b
    r2 = b
    y = minv * b
    beta1 = math.sqrt(float(np.dot(b, y)))
    if beta1 == 0.0:
        return x
    beta, oldb = beta1, 0.0
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    eps = np.finfo(np.float64).eps
    for k in range(_MINRES_ITERS_PER_UNKNOWN * b.size):
        v = y / beta
        y = matvec(v)
        if k > 0:
            y = y - (beta / oldb) * r1
        alfa = float(np.dot(v, y))
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = minv * r2
        oldb, beta = beta, math.sqrt(max(float(np.dot(r2, y)), 0.0))
        # Apply the previous rotation, then form the next one.
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= _MINRES_RTOL * beta1:
            break
    return x


def _newton_polish(p: Problem, w: PairFunction, grad_tol: float) -> PairFunction:
    """Damped Newton-Krylov on the stacked optimality system f = mu*r = 0.

    f is the Euclidean gradient of J in the unknowns, so its Jacobian is the
    analytic Hessian, symmetric and indefinite (the radial direction at a
    Nehari point has negative curvature). Each step solves H step = -f by
    MINRES preconditioned with the SPD diagonal mu*(coef + wdeg/mu), using
    only hessian_matvec products: O(|E| + n) time per product and memory
    overall. Every step must strictly shrink the residual, so an inexact
    solve can only waste a few evaluations, never corrupt the iterate.
    """
    g = p.graph
    iu, iv = np.flatnonzero(p.mask_a), np.flatnonzero(p.mask_b)
    diag_u, diag_v = _diag_of(p)

    def unpack(z: np.ndarray) -> PairFunction:
        u = np.zeros(g.vertex_count)
        v = np.zeros(g.vertex_count)
        u[iu] = z[:iu.size]
        v[iv] = z[iu.size:]
        return PairFunction(u, v)

    def restrict(fu: np.ndarray, fv: np.ndarray) -> np.ndarray:
        return np.concatenate([fu[iu], fv[iv]])

    def stacked(z: np.ndarray) -> tuple[np.ndarray, float]:
        r = residual_of(p, unpack(z))
        return restrict(g.mu * r.u, g.mu * r.v), _residual_norm(p, r)

    minv = 1.0 / restrict(g.mu * diag_u, g.mu * diag_v)
    z = restrict(w.u, w.v)
    f, rnorm = stacked(z)
    for _ in range(_POLISH_MAX_ITERS):
        fnorm = float(np.linalg.norm(f))
        if not math.isfinite(fnorm) or fnorm == 0.0 or rnorm <= 0.5 * grad_tol:
            break
        at = unpack(z)
        step = _minres(lambda d: restrict(*hessian_matvec(p, at, *unpack(d))), -f, minv)
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        improved = False
        for _ in range(_POLISH_BACKTRACKS):
            ft, rt = stacked(z + t * step)
            if np.all(np.isfinite(ft)) and float(np.linalg.norm(ft)) < fnorm:
                z = z + t * step
                f, rnorm = ft, rt
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return unpack(z)


def _run_descent(p: Problem, cfg: SolverConfig, w0: PairFunction, index: int) -> SolveResult | None:
    """One restart. Returns None when the start has no Nehari projection."""
    w0 = PairFunction(np.where(p.mask_a, w0.u, 0.0), np.where(p.mask_b, w0.v, 0.0))
    try:
        t = nehari_scale(p, w0)
    except DegeneratePairError:
        return None
    w = PairFunction(t * w0.u, t * w0.v)

    gamma = p.gamma
    mu = p.graph.mu
    diag_u, diag_v = _diag_of(p)
    defect_tol = math.sqrt(cfg.grad_tol)
    eps = np.finfo(np.float64).eps

    energy = energy_of(p, w)
    best_rnorm = math.inf
    no_improve = 0
    iters = 0

    for k in range(_MAX_ITERS):
        iters = k + 1
        res = residual_of(p, w)
        rnorm = _residual_norm(p, res)
        norm_sq = norm_sq_of(p, w)
        coupling = coupling_integral(p, w)
        if rnorm <= cfg.grad_tol and abs(norm_sq - coupling) <= defect_tol * norm_sq:
            break
        if rnorm <= _POLISH_SWITCH * max(1.0, math.sqrt(norm_sq)):
            break
        if no_improve >= _STALL_LIMIT:
            logger.debug("restart %d stalled after %d iterations (rnorm %.3e)", index, iters, rnorm)
            break

        du = res.u / diag_u
        dv = res.v / diag_v
        slope = float(np.dot(mu, res.u * du) + np.dot(mu, res.v * dv))
        if slope <= 0.0:
            break

        step = 1.0
        accepted = False
        slack = 4.0 * eps * max(1.0, abs(energy))
        while step > _STEP_UNDERFLOW:
            tu = w.u - step * du
            tv = w.v - step * dv
            trial = PairFunction(tu, tv)
            norm_t = norm_sq_of(p, trial)
            coup_t = coupling_integral(p, trial)
            if coup_t > 0.0 and norm_t > 0.0:
                energy_t = _level_energy(norm_t, coup_t, gamma)
                if energy_t <= energy - _ARMIJO_C * step * slope + slack:
                    accepted = True
                    break
            step *= _BACKTRACK
        if not accepted:
            logger.debug("restart %d: line search underflow at iteration %d", index, iters)
            break

        t = (norm_t / coup_t) ** (1.0 / (gamma - 2.0))
        w = PairFunction(t * tu, t * tv)
        if energy_t > energy + 1e-9 * max(1.0, abs(energy)):
            logger.warning("energy increased from %.17g to %.17g at iteration %d",
                           energy, energy_t, iters)
        improved = energy_t < energy - slack
        if rnorm < 0.999 * best_rnorm:
            improved = True
        best_rnorm = min(best_rnorm, rnorm)
        no_improve = 0 if improved else no_improve + 1
        energy = energy_t

    res = residual_of(p, w)
    rnorm = _residual_norm(p, res)
    if rnorm > cfg.grad_tol:
        # Re-project so the certificate below sees an exact manifold point;
        # at a polished critical point the scale is 1 up to rounding.
        try:
            polished = _newton_polish(p, w, cfg.grad_tol)
            t = nehari_scale(p, polished)
            cand = PairFunction(t * polished.u, t * polished.v)
            cnorm = _residual_norm(p, residual_of(p, cand))
            if math.isfinite(cnorm) and cnorm < rnorm:
                w, rnorm = cand, cnorm
        except DegeneratePairError:
            pass
    nd = nehari_diagnostics(p, w)
    converged = bool(rnorm <= cfg.grad_tol
                     and abs(nd.defect) <= defect_tol * nd.norm_sq
                     and nd.nontrivial)
    logger.debug("restart %d: energy %.12g rnorm %.3e iters %d converged %s",
                 index, nd.energy, rnorm, iters, converged)
    return SolveResult(pair=w, energy=nd.energy, residual_norm=rnorm, nehari=nd,
                       iterations=iters, restart_index=index, converged=converged)


def _solve(p: Problem, cfg: SolverConfig, warm_starts: Sequence[PairFunction]) -> SolveResult:
    candidates: list[SolveResult] = []
    for offset, w0 in enumerate(warm_starts):
        out = _run_descent(p, cfg, as_pair(p.graph, w0), offset - len(warm_starts))
        if out is not None:
            candidates.append(out)
    for i in range(cfg.restarts):
        rng = np.random.default_rng([cfg.rng_seed, i])
        out = _run_descent(p, cfg, _initial_pair(p, rng), i)
        if out is not None:
            candidates.append(out)
    if not candidates:
        raise AllRestartsDegenerateError(
            "coupling degenerated to zero in every restart; no Nehari projection exists")
    pool = [c for c in candidates if c.converged] or candidates
    best = min(c.energy for c in pool)
    tol = 1e-12 * max(1.0, abs(best))
    return min((c for c in pool if c.energy <= best + tol), key=lambda c: c.restart_index)


def solve_ground_state(p: LambdaProblem, cfg: SolverConfig | None = None,
                       warm_starts: Sequence[PairFunction] = ()) -> SolveResult:
    """Lowest-energy Nehari minimizer of the lambda-problem over all restarts.

    Unconverged runs are reported through the converged flag, never raised.
    Extra deterministic starting pairs (warm starts) may be supplied; they are
    run before the seeded random restarts and win energy ties.
    """
    if not isinstance(p, LambdaProblem):
        raise TypeError(f"expected LambdaProblem, got {type(p).__name__}")
    return _solve(p, cfg or SolverConfig(), warm_starts)


def solve_dirichlet(d: DirichletProblem, cfg: SolverConfig | None = None,
                    warm_starts: Sequence[PairFunction] = ()) -> SolveResult:
    """Ground state of the Dirichlet system, restricted to admissible pairs."""
    if not isinstance(d, DirichletProblem):
        raise TypeError(f"expected DirichletProblem, got {type(d).__name__}")
    return _solve(d, cfg or SolverConfig(), warm_starts)

