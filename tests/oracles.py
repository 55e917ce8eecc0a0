"""Independent reference computations used by the test suite.

Everything in this module is assembled by hand from the problem data
(edge lists, measures, potentials).  It deliberately does not call into
graphwell's calculus or solver, so agreement between the two is evidence
rather than tautology.
"""

from __future__ import annotations

import numpy as np


def dense_residual(n, edges, mu, a, b, lam, alpha, beta, u, v):
    """Euler-Lagrange residual of the coupled system, assembled vertex by vertex."""
    gamma = alpha + beta
    ru = np.zeros(n)
    rv = np.zeros(n)
    for x in range(n):
        acc_u = 0.0
        acc_v = 0.0
        for (i, j, w) in edges:
            if i == x:
                acc_u += w * (u[j] - u[x])
                acc_v += w * (v[j] - v[x])
            elif j == x:
                acc_u += w * (u[i] - u[x])
                acc_v += w * (v[i] - v[x])
        ru[x] = -acc_u / mu[x] + (lam * a[x] + 1.0) * u[x] \
            - (alpha / gamma) * np.sign(u[x]) * abs(u[x]) ** (alpha - 1.0) * abs(v[x]) ** beta
        rv[x] = -acc_v / mu[x] + (lam * b[x] + 1.0) * v[x] \
            - (beta / gamma) * abs(u[x]) ** alpha * np.sign(v[x]) * abs(v[x]) ** (beta - 1.0)
    return ru, rv


def dense_norm_coupling(n, edges, mu, a, b, lam, alpha, beta, u, v):
    norm = 0.0
    for (i, j, w) in edges:
        norm += w * ((u[j] - u[i]) ** 2 + (v[j] - v[i]) ** 2)
    coup = 0.0
    for x in range(n):
        norm += mu[x] * ((lam * a[x] + 1.0) * u[x] ** 2 + (lam * b[x] + 1.0) * v[x] ** 2)
        coup += mu[x] * abs(u[x]) ** alpha * abs(v[x]) ** beta
    return norm, coup


def _newton_polish(n, edges, mu, a, b, lam, alpha, beta, z0, iters=120):
    """Damped Newton with a central-difference Jacobian on the stacked system."""

    def stacked(z):
        ru, rv = dense_residual(n, edges, mu, a, b, lam, alpha, beta, z[:n], z[n:])
        return np.concatenate([mu * ru, mu * rv])

    z = z0.copy()
    fz = stacked(z)
    for _ in range(iters):
        res = np.linalg.norm(fz, np.inf)
        if res < 1e-13:
            break
        m = 2 * n
        jac = np.empty((m, m))
        h = 1e-7 * max(1.0, np.linalg.norm(z, np.inf))
        for k in range(m):
            zp = z.copy()
            zm = z.copy()
            zp[k] += h
            zm[k] -= h
            jac[:, k] = (stacked(zp) - stacked(zm)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -fz)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        while t > 1e-12:
            zt = z + t * step
            ft = stacked(zt)
            if np.linalg.norm(ft) < np.linalg.norm(fz):
                z, fz = zt, ft
                break
            t *= 0.5
        else:
            break
    return z if np.linalg.norm(fz, np.inf) < 1e-10 else None


def newton_ground_state(n, edges, mu, a, b, lam, alpha, beta,
                        n_starts=250, seed=1234):
    """Global Nehari minimum by exhaustive damped-Newton multistart.

    Returns (energy, u, v) of the lowest-energy nontrivial critical point
    found.  With a couple of hundred starts on systems of at most three
    vertices this reliably enumerates every critical point.
    """
    mu = np.asarray(mu, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gamma = alpha + beta
    rng = np.random.default_rng(seed)
    best = None
    for k in range(n_starts):
        z0 = rng.uniform(0.2, 2.0, size=2 * n)
        if k % 4 == 3:
            z0 *= rng.choice([-1.0, 1.0], size=2 * n)
        z = _newton_polish(n, edges, mu, a, b, lam, alpha, beta, z0)
        if z is None:
            continue
        u, v = z[:n], z[n:]
        norm, coup = dense_norm_coupling(n, edges, mu, a, b, lam, alpha, beta, u, v)
        if coup < 1e-10 or norm < 1e-10:
            continue
        energy = 0.5 * norm - coup / gamma
        if best is None or energy < best[0] - 1e-12:
            best = (energy, u.copy(), v.copy())
    if best is None:
        raise RuntimeError("newton multistart found no nontrivial critical point")
    return best
