"""Regenerate the committed regression values for the 22-vertex experiment.

Independent oracle for the Dirichlet ground state. The script reads the
packaged instance data/g22.graph through the package's parser (build_g22)
and takes only its edges, wells and labels from it; the optimality system is
assembled here directly (no package calculus or solver code), solved by dense
multi-start Newton via scipy from hundreds of seeded starts, and the
lowest-energy critical point is frozen as package data. Rerunning must
reproduce data/g22_dirichlet_reference.csv: bit for bit on the BLAS that
wrote it, to 1e-12 relative on others, which may round the last bits apart.

Usage: python3 scripts/generate_g22_reference.py [--write]
"""

import argparse
import pathlib

import numpy as np
from scipy.optimize import root

from graphwell import build_g22

GRAPH, _, DIRICHLET = build_g22()
LABELS = GRAPH.labels
N = GRAPH.vertex_count
EDGES = [(int(a), int(b)) for a, b in zip(GRAPH.edge_i, GRAPH.edge_j)]
OA = np.flatnonzero(DIRICHLET.mask_a).tolist()   # u unknowns live here
OB = np.flatnonzero(DIRICHLET.mask_b).tolist()   # v unknowns live here
CORE = sorted(set(OA) & set(OB))
DEG = np.zeros(N)
NBRS = [[] for _ in range(N)]
for a, b in EDGES:
    DEG[a] += 1
    DEG[b] += 1
    NBRS[a].append(b)
    NBRS[b].append(a)

ALPHA = BETA = 2.0
GAMMA = ALPHA + BETA


def unpack(z):
    u = np.zeros(N)
    v = np.zeros(N)
    u[OA] = z[: len(OA)]
    v[OB] = z[len(OA):]
    return u, v


def residual(z):
    """Stationarity of J_Omega in the interior unknowns, alpha = beta = 2."""
    u, v = unpack(z)
    ru = np.empty(len(OA))
    for k, x in enumerate(OA):
        ru[k] = (DEG[x] + 1.0) * u[x] - sum(u[y] for y in NBRS[x]) \
            - (ALPHA / GAMMA) * u[x] * v[x] ** 2
    rv = np.empty(len(OB))
    for k, x in enumerate(OB):
        rv[k] = (DEG[x] + 1.0) * v[x] - sum(v[y] for y in NBRS[x]) \
            - (BETA / GAMMA) * u[x] ** 2 * v[x]
    return np.concatenate([ru, rv])


def norm_and_coupling(z):
    u, v = unpack(z)
    grad = sum((u[a] - u[b]) ** 2 + (v[a] - v[b]) ** 2 for a, b in EDGES)
    norm_sq = grad + float(np.sum(u[OA] ** 2) + np.sum(v[OB] ** 2))
    coupling = float(np.sum(u[CORE] ** 2 * v[CORE] ** 2))
    return norm_sq, coupling


def energy(z):
    norm_sq, coupling = norm_and_coupling(z)
    return 0.5 * norm_sq - coupling / GAMMA


def newton_polish(z, iters=60):
    """Damped Newton with a finite-difference Jacobian, to machine residual."""
    n = z.size
    for _ in range(iters):
        f = residual(z)
        if np.max(np.abs(f)) < 1e-13:
            break
        jac = np.empty((n, n))
        h = 1e-7
        for j in range(n):
            zp = z.copy()
            zm = z.copy()
            zp[j] += h
            zm[j] -= h
            jac[:, j] = (residual(zp) - residual(zm)) / (2 * h)
        try:
            dz = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        base = float(np.dot(f, f))
        while scale > 1e-12:
            trial = z - scale * dz
            ft = residual(trial)
            if float(np.dot(ft, ft)) < base:
                z = trial
                break
            scale *= 0.5
        else:
            break
    return z


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true", help="overwrite the package data file")
    args = ap.parse_args()

    rng = np.random.default_rng(20240901)
    nvar = len(OA) + len(OB)
    found = []
    for trial in range(400):
        z0 = rng.uniform(0.3, 2.0, nvar)
        if trial % 4 == 3:                       # some mixed-sign starts
            z0 *= rng.choice([1.0, -1.0], nvar)
        sol = root(residual, z0, method="hybr", tol=1e-12)
        if not sol.success:
            continue
        z = sol.x
        _, coupling = norm_and_coupling(z)
        if coupling < 1e-10 or np.max(np.abs(residual(z))) > 1e-9:
            continue
        found.append((energy(z), z))
    if not found:
        raise SystemExit("no nontrivial critical points found")

    found.sort(key=lambda t: t[0])
    levels = []
    for e, _ in found:
        if not any(abs(e - l) < 1e-6 for l in levels):
            levels.append(e)
    print("distinct critical levels (lowest 6):", [f"{l:.6f}" for l in levels[:6]])

    z = newton_polish(found[0][1])
    u, v = unpack(z)
    if u[LABELS.index("x1")] < 0:
        u = -u
    if v[LABELS.index("x1")] < 0:
        v = -v
    norm_sq, coupling = norm_and_coupling(np.concatenate([u[OA], v[OB]]))
    print(f"ground level {energy(np.concatenate([u[OA], v[OB]])):.12f}  "
          f"defect {norm_sq - coupling:.2e}  "
          f"residual {np.max(np.abs(residual(np.concatenate([u[OA], v[OB]])))):.2e}")

    lines = ["vertex,u,v"]
    for x in range(N):
        lines.append(f"{LABELS[x]},{u[x]:.17g},{v[x]:.17g}")
    text = "\n".join(lines) + "\n"
    out = pathlib.Path(__file__).resolve().parents[1] / "src/graphwell/data/g22_dirichlet_reference.csv"
    if args.write:
        out.write_text(text)
        print("wrote", out)
    else:
        print(text)


if __name__ == "__main__":
    main()
