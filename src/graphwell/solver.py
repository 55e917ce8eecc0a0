"""Ground-state computation by projected descent on the Nehari manifold.

Each restart starts from a random positive pair supported on the overlap of
the wells, projects it onto the manifold, and then alternates descent steps
with re-projection. The line search tests the Armijo condition on the energy
AFTER re-projection: along the ray the manifold point is the energy maximum,
so plain descent on J followed by projection could move uphill, while the
projected energy is the quantity the iteration actually drives down. At a
manifold point both energies share the same directional derivative, so the
usual Armijo decrement applies unchanged. On the manifold J = (1/2 - 1/gamma)
||w||^2, so the test prices the current point and each projected trial by
their norms alone.

Descent directions are the strong residual scaled by the diagonal of the
linearized operator, (lam a + 1) + wdeg/mu. Without that scaling the mass
coefficients spread over seven orders of magnitude across the sweep and
first-order descent cannot reach the residual tolerance in any sane budget.
That diagonal is diag(A)/mu, a Jacobi stand-in for the H-gradient
A^-1 (mu r), where A = diag(wdeg) - W + diag(mu coef) is the operator of the
H-norm: the Sobolev gradient of Neuberger (Sobolev Gradients and
Differential Equations, LNM 1670, 1997). On graphs of at most
_EXACT_METRIC_MAX_N vertices the descent takes the exact H-gradient from loop
head _EXACT_METRIC_HEAD on, through one n x n inverse of A per component and
problem, built by _linear_inverse when some row is still descending there; a
solve whose rows all stop earlier builds none. The switch has its own head,
before the first progress check at _PROGRESS_WINDOW, because the cold
restarts of the G22 sweep stop a few loop heads after it. The Jacobi steps
before the switch choose each restart's basin, so the switch head moves a few
winners of chaotic draws, up or down. The bound sits below the measured
crossover, above which the O(n^2) product per row and step costs more than
the loop heads it saves; README.md gives the measurements.

Descent alone still crawls on symmetric instances, where the Hessian at the
ground state can have an exactly flat direction (the energy grows only
quartically along it), and in badly conditioned basins, where it shrinks the
residual by a factor close to 1 per step for thousands of steps. Each
restart therefore hands over to a damped Newton polish of the optimality
system; Newton moves along such valleys at a fixed linear rate instead of
stalling.

Pairs are the package's (2, n) arrays. The starts of one solve (warm starts,
then the seeded restarts) with a Nehari projection descend in lockstep as the
rows of one (k, 2, n) batch, so each loop head and line-search round pays
numpy's per-call cost once for all of them. The batch's problem has coef
(k, 2, n) too, one row per row, which _run_descent broadcasts from a shared
coef at its entry and which is subset with the rows (_take). A row leaves the
batch when it stops, and the rows that stop above their residual target are
polished together, as one batch of the same arrays, after the loop. Every
vertex sum, in the kernels, in the exact H-gradient below and in MINRES, is
np.vecdot, which sums each row as the BLAS dot of that row alone, the
Laplacian scatters each row's edges in the order of a row alone, and the
batched inversion of A and dense Newton solve below treat each row's matrix
alone; so a row's arithmetic is exactly that of a batch of one, and each
restart's result has the same bits as its start solved alone. One exception: a
dense Newton step whose batch holds an exactly singular Hessian is taken by
MINRES for every row of it.

A lambda sweep batches across problems too. Its seeded restarts and its warm
start at the Dirichlet minimizer take nothing from the previous lambda, so
lambda_sweep descends those of all its lambda-problems, which differ in coef
alone, as the rows of one batch (_seeded_restarts), each row with its own
problem's coef; A is inverted once per problem, in one batched inversion, and
gathered per row. Each lambda's solve then descends only its other warm start,
the previous solution, and picks its winner from both sets in the order of a
solve of all its starts at once. By the row independence above, every record
is the one each lambda-solve gives alone, bit for bit. Only graphs of at most
_EXACT_METRIC_MAX_N vertices batch their lambdas: on a 50 x 50 grid one batch
of 64 rows took 2.5 times as long as eight batches of 8 (README.md).

A restart stops at a loop head once its residual reaches
max(grad_tol, _POLISH_SWITCH * max(1, ||w||)). Every iterate is an exact
Nehari projection, so its defect is rounding-level and is checked once, by the
certificate after the loop. Three more rules end a restart early: the
iteration budget, tested at the same loop head; a line search that
underflows; and a stall, tested every _PROGRESS_WINDOW loop heads, where the
residual has shrunk since one window earlier, but by less than the factor
_PROGRESS_RATIO, so that a descent crawling through a basin stops long before
it reaches the switch; a residual that grew is crossing a saddle plateau, and
descent goes on. A restart leaves with the point of its last loop head,
whichever rule stopped it. The stall rule pays on large graphs (without it,
12 random 300-vertex solves took 1.6 times the CPU), but it can stop a
restart in a basin where the polish then stagnates at a near-singular
Hessian. So the starts of the restarts that end unconverged descend once
more, as one batch, with the stall rule off; only they pay for it.

The residual target of a restart, of its polish and of its certificate is
grad_tol, raised to a rounding floor for solutions so large (exponents near
1) that grad_tol is below rounding: the larger of _ROUNDING * ||w||_H and
8 eps ||m||_mu, where m = |coef w| + (wdeg |w| + W |w|)/mu + |dC/gamma| is
the termwise magnitude of the residual. The second term is the componentwise
backward error of Oettli & Prager (Numer. Math. 6, 1964; Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 7). It matters where the terms
of the residual cancel, at exponents near 1 or with weights skewed by 10^3:
there the residual of a solution stagnates at up to 60 times 64 eps ||w||_H,
yet at 0.01 to 0.4 times 8 eps ||m||_mu, and a u off by one part in 10^6
still fails it by a factor of 10^5 or more.

A restart that left above its target is polished once, in _finish, and keeps
the re-projected polished point only when its residual is lower and its energy
is not higher, up to the rounding of its terms ||w||^2/2 and C/gamma: Newton
converges to the nearest critical point, which may lie above the level that
descent has reached. The stopped rows and the candidates are evaluated once
each, and the guard and the certificate read those norms and couplings. One
residual norm, the mu-weighted ||r|| of the certificate, decides the descent
stop, the stall test, the polish's damping and the keep-if-lower test.

The polish's Jacobian is the analytic Hessian, whose terms that depend on the
point each Newton step forms once. On graphs of at most _DIRECT_NEWTON_MAX_N
vertices the step assembles the Hessians of all rows still iterating as one
(m, 2n, 2n) array, by functional.hessian_matrix, with the identity on every
unknown off the masks, and solves them in one batched np.linalg.solve; a step
whose batch holds an exactly singular Hessian falls back to MINRES. Larger
graphs apply the Hessian matrix-free, by functional.hessian_operator, in
O(|E| + n) per row and product, and solve with it by MINRES, preconditioned
with the descent diagonal above, for all rows of the batch in lockstep, a
finished row frozen in place; no matrix is formed there, so memory stays
O(k(|E| + n)) for k starts, where the dense step takes O(k n^2). The bound
sits below the measured crossover (README.md), above which the O(n^3)
factorization per row and step costs more than the MINRES iterations it
replaces.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import PairFunction, as_pair, pair_sum
from .errors import DegeneratePairError, EnergyOverflowError
from .functional import (
    DirichletProblem,
    LambdaProblem,
    NehariDiagnostics,
    Problem,
    _energy,
    _nehari_rows,
    _residual_magnitude,
    coupling_integral,
    hessian_matrix,
    hessian_operator,
    nehari_scale,
    norm_sq_of,
    residual_of,
)

logger = logging.getLogger(__name__)

_MAX_ITERS = 1000           # descent iterations per restart
_ARMIJO_C = 1e-4            # sufficient-decrease constant; trial steps start at 1
_BACKTRACK = 0.5            # step shrink factor per rejected trial
_STEP_UNDERFLOW = 1e-18     # smallest trial step before the line search gives up
_POLISH_SWITCH = 1e-4       # hand off to Newton at rnorm <= this * max(1, ||w||)
_PROGRESS_WINDOW = 50       # loop heads between two progress checks
_PROGRESS_RATIO = 0.5       # stop when a window shrinks rnorm by less than this
_EXACT_METRIC_MAX_N = 128   # largest graph whose descent switches to A's inverse
_EXACT_METRIC_HEAD = 20     # the loop head at which it switches
_DIRECT_NEWTON_MAX_N = 64   # largest graph whose Newton steps are dense solves
# Residual norms below _ROUNDING * ||w||_H are rounding level: about 10 times
# the floor measured on ground states with ||w||_H up to 6e21. The floor
# exceeds the default grad_tol only where ||w||_H > 7e4.
_ROUNDING = 64 * np.finfo(np.float64).eps
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
        for name in ("restarts", "rng_seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
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


def _tolerance(p: Problem, grad_tol: float, w: np.ndarray, norm_sq: np.ndarray) -> np.ndarray:
    """The residual target of each row of the batch w: grad_tol, raised to the
    rounding floor where the residual is huge. The floor is the larger of
    _ROUNDING * ||w||_H and 8 eps ||m||_mu, m the termwise magnitude of the
    residual (functional._residual_magnitude): where exponents near 1 or
    weights skewed by 10^3 make the terms of the residual cancel, its rounding
    is of order eps ||m||_mu, far above eps ||w||_H."""
    termwise = 8 * np.finfo(np.float64).eps * _residual_norm(p, _residual_magnitude(p, w))
    return np.maximum(np.maximum(grad_tol, _ROUNDING * np.sqrt(norm_sq)), termwise)


def _diag_of(p: Problem) -> np.ndarray:
    return p.coef + p.graph.wdeg / p.graph.mu


def _with_coef(p: Problem, coef: np.ndarray) -> Problem:
    """p with the mass coefficients coef, (k, 2, n), of the k rows of a batch
    whose problems differ from p in coef alone. The kernels broadcast coef
    against the rows, so row i is priced with coef[i]."""
    q = object.__new__(type(p))     # the shallow copy of copy.copy, at a quarter of its cost
    q.__dict__.update(vars(p), coef=coef)
    return q


def _take(p: Problem, rows) -> Problem:
    """The problem of the given rows of a batch: p with those rows of its coef."""
    return _with_coef(p, p.coef[rows])


def _linear_inverse(p: Problem) -> np.ndarray:
    """The inverse of A, the diagonal blocks of hessian_matrix at w = 0, for
    each row of p's coef and each component on its mask, zero elsewhere:
    (k, 2, n, n). A is symmetric positive definite on each mask, since
    mu coef > 0. The rows of one problem are adjacent in a batch, so each run
    of equal coef is inverted once, in one batched np.linalg.inv per
    component, which inverts each matrix as it inverts it alone."""
    coef = p.coef
    head = np.ones(len(coef), dtype=bool)
    head[1:] = (coef[1:] != coef[:-1]).any(axis=(1, 2))
    k, n = int(head.sum()), p.graph.vertex_count
    a = hessian_matrix(_take(p, head), np.zeros((k, 2, n))).reshape(k, 2, n, 2, n)
    inverse = np.zeros((k, 2, n, n))
    for c, on in enumerate(p.mask):
        block = (slice(None), *np.ix_(on, on))
        inverse[:, c][block] = np.linalg.inv(a[:, c, :, c][block])
    return inverse[np.cumsum(head) - 1]


def _initial_pair(p: Problem, rng: np.random.Generator) -> np.ndarray:
    idx = sorted(p.overlap)
    w = np.zeros((2, p.graph.vertex_count))
    w[:, idx] = rng.uniform(0.5, 1.5, (2, len(idx)))
    return w


def _residual_norm(p: Problem, r: np.ndarray) -> np.floating | np.ndarray:
    """The certificate's mu-weighted ||r||, one value per row of a batch."""
    return np.sqrt(pair_sum(r * r, p.graph.mu))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, 2, n) batches, shaped (k, 1, 1): the
    np.vecdot of the flattened rows, as in calculus.weighted_sum, so each row
    is the BLAS dot of that row alone, whatever else shares its batch."""
    k = len(a)
    return np.vecdot(a.reshape(k, -1), b.reshape(k, -1))[:, None, None]


def _minres(matvec, b: np.ndarray, minv: np.ndarray) -> np.ndarray:
    """Preconditioned MINRES for the symmetric, possibly indefinite A x = b.

    Paige & Saunders (SIAM J. Numer. Anal. 12, 1975), started from x = 0, with
    the SPD diagonal preconditioner M given by its inverse ``minv``. Each row
    of the (k, 2, n) batch b is its own system, and the k systems run in
    lockstep, each with its own scalars, shaped (k, 1, 1) to broadcast over its
    row; the arithmetic of a row is that of a batch of one. matvec(d) applies
    the operators of all k systems to the directions d. A row's x is frozen in
    place once the M^-1-norm of its residual drops below _MINRES_RTOL times
    that of its b; a zero b gives x = 0 at once. The row iterates on until
    every row is done, and its scalars may turn nan, which no other row sees.
    Every system stops after _MINRES_ITERS_PER_UNKNOWN iterations per entry of
    one row; the caller judges x by its own decrease test either way.
    """
    xs = np.zeros_like(b)       # updated in place, so shared with no other name
    y = minv * b
    r1 = r2 = b
    beta1 = np.sqrt(_dots(b, y))
    beta, oldb = beta1, 0.0
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = w2 = np.zeros_like(b)
    done = beta1 == 0.0
    eps = np.finfo(np.float64).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(_MINRES_ITERS_PER_UNKNOWN * b[0].size):
            if done.all():
                break
            v = y / beta
            y = matvec(v)
            if k > 0:
                y = y - (beta / oldb) * r1
            alfa = _dots(v, y)
            y = y - (alfa / beta) * r2
            r1, r2 = r2, y
            y = minv * r2
            oldb, beta = beta, np.sqrt(np.maximum(_dots(r2, y), 0.0))
            # Apply the previous rotation, then form the next one.
            oldeps = epsln
            delta = cs * dbar + sn * alfa
            gbar = sn * dbar - cs * alfa
            epsln = sn * beta
            dbar = -cs * beta
            gamma = np.maximum(np.hypot(gbar, beta), eps)
            cs, sn = gbar / gamma, beta / gamma
            phi, phibar = cs * phibar, sn * phibar
            w1, w2 = w2, w
            w = (v - oldeps * w1 - delta * w2) / gamma
            np.add(xs, phi * w, out=xs, where=~done)     # a done row stays frozen
            done |= phibar <= _MINRES_RTOL * beta1
    return xs


def _newton_polish(p: Problem, w: np.ndarray, grad_tol: np.ndarray) -> np.ndarray:
    """Damped Newton on the optimality system f = mu*r = 0, for every row of
    the (k, 2, n) batch w at once.

    f is the Euclidean gradient of J in the unknowns, so its Jacobian is the
    analytic Hessian, symmetric and indefinite (the radial direction at a
    Nehari point has negative curvature). Each step forms the Hessians of the
    rows still iterating once and solves H step = -f for all of them. On a
    graph of at most _DIRECT_NEWTON_MAX_N vertices that is one batched dense
    solve of functional.hessian_matrix, whose rows off the masks are the
    identity's, so the step is zero there, as f is; if some row's H is exactly
    singular (LinAlgError), that step is taken by MINRES instead. Otherwise it
    is one lockstep MINRES on hessian_operator, preconditioned with the SPD
    diagonal mu*(coef + wdeg/mu): O(|E| + n) time per row and product, and
    memory overall. MINRES runs on full (2, n) pairs; the preconditioner
    inverse is zero off the masks, so every Krylov vector, and with it the
    iterate, stays exactly zero there.

    Steps are damped by halving until the certificate's residual norm, the
    mu-weighted ||r||, strictly shrinks; the rows backtrack in lockstep, so
    every row still backtracking in round r tries the step 2^-r. A Newton step
    is a descent direction for every weighted norm of f, so an inexact solve
    can only waste a few evaluations, never corrupt the iterate; a nonfinite
    trial fails the test. A row stops at rnorm <= grad_tol / 2 (grad_tol has
    one entry per row), at a nonfinite step, or when its backtracks run out.

    Unlike MINRES, this loop and the descent drop the rows that stop. Kept,
    they would add 28 % and 60 % to this loop's row-iterations on 20 small
    random instances and on a 100x100 grid with 8 restarts, and 30 % and 26 %
    to the descent's, where they add 5 % and 2 % to MINRES's.
    """
    mu = p.graph.mu

    def stacked(rows: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = residual_of(_take(p, rows), z)
        return mu * r, _residual_norm(p, r)

    dense = p.graph.vertex_count <= _DIRECT_NEWTON_MAX_N
    minv = np.where(p.mask, 1.0 / (mu * _diag_of(p)), 0.0)    # one row per row of w
    w = w.copy()        # rows move in place; the caller's w is left as it was
    f, rnorm = stacked(np.arange(len(w)), w)
    live = np.ones(len(w), dtype=bool)
    for _ in range(_POLISH_MAX_ITERS):
        live &= np.isfinite(rnorm) & (rnorm > 0.5 * grad_tol)
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        q = _take(p, rows)
        step = None
        if dense:
            h = hessian_matrix(q, w[rows])
            rhs = -f[rows].reshape(rows.size, -1)
            try:
                step = np.linalg.solve(h, rhs[..., None]).reshape(-1, *w.shape[1:])
            except np.linalg.LinAlgError:
                pass        # some row's H is exactly singular: MINRES takes this step
        if step is None:
            step = _minres(hessian_operator(q, w[rows]), -f[rows], minv[rows])
        finite = np.isfinite(step).all(axis=(-2, -1))
        live[rows[~finite]] = False
        rows, step = rows[finite], step[finite]
        for r in range(_POLISH_BACKTRACKS):
            if not rows.size:
                break
            trial = w[rows] + 0.5**r * step
            ft, rt = stacked(rows, trial)
            better = rt < rnorm[rows]
            took = rows[better]
            w[took], f[took], rnorm[took] = trial[better], ft[better], rt[better]
            rows, step = rows[~better], step[~better]
        live[rows] = False      # their backtracks ran out
    return w


def _finish(p: Problem, cfg: SolverConfig, w: np.ndarray, iters: np.ndarray,
            index: np.ndarray) -> list[SolveResult]:
    """Polish the restarts that left the descent above their tolerance, in one
    batch, then certify every restart.

    Row i of the batch w is restart index[i] as it left the descent after
    iters[i] loop heads. A polished row is re-projected and kept only if its
    residual is finite and lower and its energy is not higher (see the module
    docstring). The rows, then the candidates, are evaluated once each,
    without validation, and the guard and the certificate are computed from
    those values.
    """
    rnorm = _residual_norm(p, residual_of(p, w))
    norm_sq, coupling = norm_sq_of(p, w), coupling_integral(p, w)
    tol = _tolerance(p, cfg.grad_tol, w, norm_sq)
    need = np.flatnonzero(rnorm > tol)
    if need.size:
        q = _take(p, need)
        polished = _newton_polish(q, w[need], tol[need])
        # Re-project to exact manifold points; at a polished critical point
        # the scale is 1 up to rounding. A row without a projection gets the
        # scale nan, so it fails the test below.
        cand = nehari_scale(q, polished)[:, None, None] * polished
        cnorm = _residual_norm(p, residual_of(q, cand))
        cnorm_sq, ccoupling = norm_sq_of(q, cand), coupling_integral(q, cand)
        n_sq, c = norm_sq[need], coupling[need]
        energy = _energy(p, n_sq, c)
        # E = N/2 - C/gamma cancels: rounding moves it by eps (N/2 + C/gamma).
        slack = 4.0 * np.finfo(np.float64).eps * np.maximum(1.0, 0.5 * n_sq + c / p.gamma)
        keep = (np.isfinite(cnorm) & (cnorm < rnorm[need])
                & (_energy(p, cnorm_sq, ccoupling) <= energy + slack))
        ctol = _tolerance(q, cfg.grad_tol, cand, cnorm_sq)
        for old, new in ((w, cand), (rnorm, cnorm), (norm_sq, cnorm_sq), (coupling, ccoupling),
                         (tol, ctol)):
            old[need[keep]] = new[keep]
    converged = ((rnorm <= tol)
                 & (np.abs(norm_sq - coupling) <= math.sqrt(cfg.grad_tol) * norm_sq)
                 & (norm_sq > 0.0) & (coupling > 0.0))
    out = []
    for wi, r, nd, ok, it, i in zip(w, rnorm.tolist(), _nehari_rows(p, norm_sq, coupling),
                                    converged.tolist(), iters.tolist(), index.tolist()):
        logger.debug("restart %d: energy %.12g rnorm %.3e iters %d converged %s",
                     i, nd.energy, r, it, ok)
        out.append(SolveResult(pair=PairFunction(*wi), energy=nd.energy, residual_norm=r,
                               nehari=nd, iterations=it, restart_index=i, converged=ok))
    return out


def _no_projection(p: Problem, cfg: SolverConfig, warm: list[np.ndarray]) -> Exception:
    """The error of a solve none of whose starts, the warm starts warm and the
    seeded restarts, has a Nehari projection: EnergyOverflowError when the
    projection of some start overflowed, else DegeneratePairError."""
    with np.errstate(all="ignore"):
        overflowed = np.isinf(nehari_scale(p, np.array(warm + _cold_starts(p, cfg)))).any()
    if overflowed:
        return EnergyOverflowError(
            f"the Nehari projection of every start overflowed (alpha {p.alpha}, beta {p.beta})")
    return DegeneratePairError(
        "coupling degenerated to zero in every restart; no Nehari projection exists")


def _run_descent(p: Problem, cfg: SolverConfig, starts: np.ndarray,
                 indices: Sequence[int], stall: bool = True) -> list[SolveResult | None]:
    """Descend from every start of one solve in lockstep.

    Row i of the (k, 2, n) batch starts is restart indices[i]; the starts must
    vanish off the masks. p's coef is (2, n), shared by every start, or
    (k, 2, n), one per start. The result has one entry per start, in start
    order: None for a start without a finite Nehari projection, which does
    not enter. The starts that entered descend as the rows of one batch,
    whose state is arrays indexed by batch row; each takes its row of coef
    here, broadcast from a shared coef, and rows and coef are subset
    together (_take) from there on. The kernels, the stop rules and
    each Armijo round act on all rows at once, and a row's arithmetic is
    exactly that of a batch of one, so its result has the same bits as its
    start solved alone. A row that stops, by any rule, writes its point and
    iteration count once, at that loop head, into arrays indexed by start,
    and leaves. _finish then polishes and certifies them all. With stall
    false the stall rule is off, and a row stops only by the others.
    """
    t = nehari_scale(p, starts)
    entered = np.flatnonzero(np.isfinite(t))
    out: list[SolveResult | None] = [None] * len(starts)
    if not entered.size:
        return out
    # From here on a start is one of those that entered, numbered in order.
    w = t[entered, None, None] * starts[entered]
    index = np.asarray(indices)[entered]
    p = _with_coef(p, np.broadcast_to(p.coef, starts.shape)[entered])
    rows = np.arange(entered.size)      # batch row -> start

    exponent = 1.0 / (p.gamma - 2.0)
    level = 0.5 - 1.0 / p.gamma      # J = level * ||w||^2 on the manifold
    mu = p.graph.mu
    q, diag = p, _diag_of(p)    # the problem and the descent diagonal of the batch rows
    inverse = None      # A's inverse, once the exact metric takes over
    eps = np.finfo(np.float64).eps

    window = np.full(rows.size, math.inf)
    # What each start leaves the batch with.
    w_end = np.empty_like(w)
    iters = np.empty(rows.size, dtype=int)

    for k in range(_MAX_ITERS + 1):
        res = residual_of(q, w)
        rnorm = _residual_norm(p, res)
        norm_sq = norm_sq_of(q, w)
        stop = (k == _MAX_ITERS) | (rnorm <= np.maximum(
            cfg.grad_tol, _POLISH_SWITCH * np.maximum(1.0, np.sqrt(norm_sq))))
        if stall and k % _PROGRESS_WINDOW == 0:
            # Linear descent that has stalled in a basin stops, for the polish,
            # long before the residual reaches the switch above. A residual
            # that grew is crossing a plateau, not stalled.
            stop |= (rnorm > _PROGRESS_RATIO * window) & (rnorm <= window)
            window = rnorm
        if (k == _EXACT_METRIC_HEAD and p.graph.vertex_count <= _EXACT_METRIC_MAX_N
                and not stop.all()):
            inverse = _linear_inverse(q)
        # The H-gradient, A^-1 (mu res), or its Jacobi stand-in res / diag,
        # where diag = diag(A) / mu; each row of vecdot is a dot of its own.
        if inverse is None:
            direction = res / diag
        else:
            direction = np.vecdot(inverse, (mu * res)[..., None, :])

        # Armijo line search on the re-projected energy, in lockstep: each
        # round tries every row at its own step, and the rows that fail halve
        # their steps and search again, so every row still searching in round
        # r has the step 2^-r. A row that has accepted keeps its step, so its
        # row of the last round's trial and scale are those of its accepted
        # trial. Both sides of the test price a Nehari point by its norm,
        # J(s x) = level * s^2 ||x||^2; a nan or inf trial energy fails it.
        slope = pair_sum(res * direction, mu)
        baseline = level * norm_sq
        slack = 4.0 * eps * np.maximum(1.0, baseline)
        steps = np.ones(rows.size)
        step = 1.0
        searching = ~stop
        while searching.any():
            trial = w - steps[:, None, None] * direction
            norm_t = norm_sq_of(q, trial)
            scale = (norm_t / coupling_integral(q, trial)) ** exponent
            searching &= ~(level * scale**2 * norm_t
                           <= baseline - _ARMIJO_C * steps * slope + slack)
            step *= _BACKTRACK
            steps[searching] = step
            if step <= _STEP_UNDERFLOW:
                for i in np.flatnonzero(searching):
                    logger.debug("restart %d: line search underflow at iteration %d",
                                 index[rows[i]], k + 1)
                stop |= searching
                break

        # Rows that stopped leave with their loop head's point.
        gone = rows[stop]
        if gone.size:
            w_end[gone], iters[gone] = w[stop], k + 1
            if gone.size == rows.size:
                break
            keep = ~stop
            rows, window, scale, trial = rows[keep], window[keep], scale[keep], trial[keep]
            q, diag = _take(q, keep), diag[keep]
            inverse = None if inverse is None else inverse[keep]
        w = scale[:, None, None] * trial

    for i, r in zip(entered.tolist(), _finish(p, cfg, w_end, iters, index)):
        out[i] = r
    return out


def _cold_starts(p: Problem, cfg: SolverConfig) -> list[np.ndarray]:
    return [_initial_pair(p, np.random.default_rng([cfg.rng_seed, i])) for i in range(cfg.restarts)]


def _descend(problems: Sequence[Problem], cfg: SolverConfig, starts: Sequence[np.ndarray],
             indices: Sequence[Sequence[int]]) -> list[list[SolveResult]]:
    """Descend the starts of every problem as the rows of one lockstep batch.

    starts[j], (k_j, 2, n), are the starts of problems[j] and indices[j] their
    restart indices. The problems may differ in coef alone, and each row
    carries its own problem's coef. Each problem gets one list: the results
    of its starts with a finite Nehari projection, in start order, then those
    of their re-descents. The starts of the restarts that end unconverged
    descend once more, again as one batch, without the stall rule; only they
    pay for it. Since a row's arithmetic is that of a batch of one, every
    result has the bits it gets in a batch of its problem's starts alone.
    """
    owner = np.repeat(np.arange(len(problems)), [len(x) for x in starts])
    p = _with_coef(problems[0], np.array([q.coef for q in problems])[owner])
    starts = np.concatenate(starts)
    index = np.concatenate([np.asarray(i, dtype=int) for i in indices])
    # Overflow near gamma = 2 is caught by _solve's finite-energy test, and
    # the line search screens out the nonpositive norms and couplings.
    with np.errstate(all="ignore"):
        first = _run_descent(p, cfg, starts, index)
        again = np.flatnonzero([r is not None and not r.converged for r in first])
        # These starts projected in the first pass, so each has a result here.
        redo = (_run_descent(_take(p, again), cfg, starts[again], index[again], stall=False)
                if again.size else [])
    out = [[] for _ in problems]
    for j, r in zip([*owner.tolist(), *owner[again].tolist()], first + redo):
        if r is not None:
            out[j].append(r)
    return out


def _seeded_restarts(problems: Sequence[LambdaProblem], cfg: SolverConfig,
                     ref: PairFunction) -> list[list[SolveResult]]:
    """The warm start ref, as restart -1, and the seeded restarts of each of a
    sweep's lambda-problems, descended for solve_ground_state's _restarts.
    The problems must differ in coef alone. On graphs of at most
    _EXACT_METRIC_MAX_N vertices the starts of all of them are the rows of
    one batch, which pays numpy's per-call cost once for all lambdas; on
    larger graphs each batch holds one problem, since from some n between 400
    and 900 one batch takes longer than several (README.md)."""
    p = problems[0]
    size = len(problems) if p.graph.vertex_count <= _EXACT_METRIC_MAX_N else 1
    # The starts take nothing from lambda, so every problem has the same.
    starts = np.array([np.where(p.mask, as_pair(p.graph, ref), 0.0), *_cold_starts(p, cfg)])
    indices = range(-1, cfg.restarts)
    out = []
    for i in range(0, len(problems), size):
        group = problems[i:i + size]
        out += _descend(group, cfg, [starts] * len(group), [indices] * len(group))
    return out


def _solve(p: Problem, cfg: SolverConfig, warm_starts: Sequence[PairFunction],
           restarts: list[SolveResult] | None = None) -> SolveResult:
    """The best result over the warm starts and the seeded restarts; restarts,
    when given, are the last warm start and the seeded restarts already
    descended (_seeded_restarts), and only the other warm starts descend
    here."""
    warm = [np.where(p.mask, as_pair(p.graph, w0), 0.0) for w0 in warm_starts]
    if restarts is None:
        starts, indices = warm + _cold_starts(p, cfg), range(-len(warm), cfg.restarts)
    else:
        starts, indices = warm[:-1], range(-len(warm), -1)
    [results] = _descend([p], cfg, [np.array(starts)], [indices]) if starts else [[]]
    # Each list holds its first passes ahead of their re-descents, so that an
    # energy tie goes to the first pass of the lowest index.
    results += restarts or []
    if not results:
        raise _no_projection(p, cfg, warm)
    candidates = [c for c in results if math.isfinite(c.energy)]
    if not candidates:
        raise EnergyOverflowError(
            f"the energy overflowed in every restart (alpha {p.alpha}, beta {p.beta})")
    pool = [c for c in candidates if c.converged] or candidates
    best = min(c.energy for c in pool)
    tol = 1e-12 * max(1.0, abs(best))
    return min((c for c in pool if c.energy <= best + tol), key=lambda c: c.restart_index)


def solve_ground_state(p: LambdaProblem, cfg: SolverConfig | None = None,
                       warm_starts: Sequence[PairFunction] = (), *,
                       _restarts: list[SolveResult] | None = None) -> SolveResult:
    """Lowest-energy Nehari minimizer of the lambda-problem over all restarts.

    Unconverged runs are reported through the converged flag, never raised.
    Extra deterministic starting pairs (warm starts) may be supplied; they are
    run before the seeded random restarts and win energy ties. _restarts is
    private to lambda_sweep: the results of p's last warm start and its
    seeded restarts, already descended with cfg by _seeded_restarts; only the
    other warm starts descend here.
    """
    if not isinstance(p, LambdaProblem):
        raise TypeError(f"expected LambdaProblem, got {type(p).__name__}")
    return _solve(p, cfg or SolverConfig(), warm_starts, _restarts)


def solve_dirichlet(d: DirichletProblem, cfg: SolverConfig | None = None,
                    warm_starts: Sequence[PairFunction] = ()) -> SolveResult:
    """Ground state of the Dirichlet system, restricted to admissible pairs."""
    if not isinstance(d, DirichletProblem):
        raise TypeError(f"expected DirichletProblem, got {type(d).__name__}")
    return _solve(d, cfg or SolverConfig(), warm_starts)

