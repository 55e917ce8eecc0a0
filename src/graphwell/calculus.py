"""Discrete calculus on weighted graphs: Laplacian, gradient form, L^q norms.

Convention used throughout: integrating the gradient form over V turns into a
sum over unordered edges, sum_x mu(x) Gamma(u,v)(x) = sum_{xy in E} w_xy du dv,
because each edge is seen from both endpoints and the 1/2 cancels the double
count. The operators are assembled by edge scatter. The H norms use the
edge-sum form; their one kernel is functional.norm_sq_of.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainViolationError
from .graph import WeightedGraph

if TYPE_CHECKING:  # circular at runtime only
    from .functional import DirichletProblem


class PairFunction(NamedTuple):
    """A pair (u, v) of vertex functions on a shared graph."""

    u: np.ndarray
    v: np.ndarray


def as_vertex_function(g: WeightedGraph, values) -> np.ndarray:
    f = np.asarray(values, dtype=np.float64)
    if f.shape != (g.vertex_count,):
        raise ValueError(f"vertex function must have shape ({g.vertex_count},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("vertex function values must be finite")
    return f


def as_pair(g: WeightedGraph, w) -> np.ndarray:
    """Validate a pair (u, v) and stack it into a new (2, n) array."""
    u, v = w
    return np.array((as_vertex_function(g, u), as_vertex_function(g, v)))


def weighted_sum(f: np.ndarray, weight: np.ndarray) -> float | np.ndarray:
    """sum_x weight(x) f(x) over the last axis; a float for a 1-D f.

    The package's one vertex sum. np.vecdot sums each row of a batch as the
    BLAS dot of that row alone, so a row's sum has the same bits whatever
    else shares its batch; a matrix-vector product would sum the batch in
    blocks of rows, and a row's bits would depend on its neighbours."""
    s = np.vecdot(f, weight)
    return s if s.ndim else float(s)


def pair_sum(f: np.ndarray, weight: np.ndarray) -> float | np.ndarray:
    """weighted_sum of both components of f, an array (..., 2, m): one value
    per pair, a float for a single pair."""
    return weighted_sum(f.sum(axis=-2), weight)


def edge_laplacian(g: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """sum_y w_xy (u(y) - u(x)) at every vertex x, assembled by edge scatter:
    mu times the mu-Laplacian. Leading axes of u index separate functions,
    scattered in one bincount over row-offset vertex ids, so each row sums its
    edges in the order of a single function."""
    ei, ej = g.batch_edges(u.size // g.vertex_count)
    flow = (g.edge_w * (u.take(g.edge_j, axis=-1) - u.take(g.edge_i, axis=-1))).ravel()
    acc = np.bincount(ei, weights=flow, minlength=u.size)
    acc -= np.bincount(ej, weights=flow, minlength=u.size)
    return acc.reshape(u.shape)


def laplacian_all(g: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """mu-Laplacian at every vertex: edge_laplacian divided by mu."""
    return edge_laplacian(g, u) / g.mu


def gradient_form_all(g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = g.vertex_count
    prod = g.edge_w * (u[g.edge_j] - u[g.edge_i]) * (v[g.edge_j] - v[g.edge_i])
    acc = np.bincount(g.edge_i, weights=prod, minlength=n)
    acc += np.bincount(g.edge_j, weights=prod, minlength=n)
    return acc / (2.0 * g.mu)


def integrate(g: WeightedGraph, f) -> float:
    """Integral of f over V against the vertex measure."""
    return weighted_sum(as_vertex_function(g, f), g.mu)


def check_admissible(d: DirichletProblem, w) -> np.ndarray:
    """as_pair, requiring u = 0 off Omega_a and v = 0 off Omega_b, else raise."""
    w = as_pair(d.graph, w)
    bad = np.argwhere((w != 0.0) & ~d.mask)
    if bad.size:
        k, x = bad[0]
        raise DomainViolationError(f"{'uv'[k]} is nonzero at {d.graph.label_of(int(x))}, "
                                   f"outside the {'ab'[k]}-well interior")
    return w


def norm_Lq(g: WeightedGraph, w, q: float) -> float:
    """L^q norm of a pair for q in [2, inf]; q = inf is sup|u| + sup|v|."""
    w = np.abs(as_pair(g, w))
    if q == math.inf:
        return float(w.max(axis=1).sum())
    q = float(q)
    if not q >= 2.0:
        raise ValueError(f"q must be >= 2 or inf, got {q}")
    return pair_sum(w ** q, g.mu) ** (1.0 / q)
