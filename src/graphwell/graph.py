"""Finite weighted graphs: vertex measure, adjacency, domains and boundaries."""

from __future__ import annotations

import operator
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphValidationError, UnknownLabelError


def _integer(x, what: str, error: type[Exception]) -> int:
    """x as an int, if it is one (numpy integers included), else raise error."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{what} {x!r} is not an integer") from None


class WeightedGraph:
    """Immutable graph with one canonical weight per unordered edge.

    Symmetry w(x,y) = w(y,x) holds by construction: each pair {x,y} is stored
    once. Construction checks the shape (index range, no self loops, no
    duplicate pairs) and that every weight and measure value is positive and
    finite, naming the offending edge or vertex; connectivity is certified
    separately by validate_graph.
    """

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int, float]],
        measure: Sequence[float] | np.ndarray | None = None,
        labels: Sequence[str] | None = None,
    ):
        n = _integer(vertex_count, "vertex_count", GraphValidationError)
        if n <= 0:
            raise GraphValidationError("vertex_count must be positive")
        self.vertex_count = n

        ei, ej, ew = [], [], []
        seen: set[tuple[int, int]] = set()
        for edge in edges:
            x, y, w = edge
            x = _integer(x, "vertex id", GraphValidationError)
            y = _integer(y, "vertex id", GraphValidationError)
            if not (0 <= x < n and 0 <= y < n):
                raise GraphValidationError(f"edge ({x}, {y}) references a vertex outside [0, {n})")
            if x == y:
                raise GraphValidationError(f"self loop at vertex {x}")
            if x > y:
                x, y = y, x
            if (x, y) in seen:
                raise GraphValidationError(f"duplicate edge ({x}, {y})")
            seen.add((x, y))
            ei.append(x)
            ej.append(y)
            ew.append(float(w))
        self.edge_i = np.asarray(ei, dtype=np.int64)
        self.edge_j = np.asarray(ej, dtype=np.int64)
        self.edge_w = np.asarray(ew, dtype=np.float64)

        if measure is None:
            mu = np.ones(n, dtype=np.float64)
        else:
            mu = np.asarray(measure, dtype=np.float64).copy()
        if mu.shape != (n,):
            raise GraphValidationError(f"measure must have one value per vertex, got shape {mu.shape}")
        self.mu = mu
        self.mu_min = float(mu.min())

        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise GraphValidationError("labels must have one entry per vertex")
        self.labels = labels
        self._label_ids = {s: i for i, s in enumerate(labels)}
        if len(self._label_ids) != n:
            raise GraphValidationError("vertex labels must be unique")

        bad = ~(np.isfinite(self.edge_w) & (self.edge_w > 0))
        if bad.any():
            k = int(np.argmax(bad))
            raise GraphValidationError(
                f"weight {self.edge_w[k]} on edge ({labels[self.edge_i[k]]}, "
                f"{labels[self.edge_j[k]]}) is not positive and finite")
        bad = ~(np.isfinite(mu) & (mu > 0))
        if bad.any():
            k = int(np.argmax(bad))
            raise GraphValidationError(
                f"measure {mu[k]} at vertex {labels[k]} is not positive and finite")

        # CSR-style adjacency: neighbors of x are _nbr[_indptr[x]:_indptr[x+1]]
        heads = np.concatenate([self.edge_i, self.edge_j])
        tails = np.concatenate([self.edge_j, self.edge_i])
        ws = np.concatenate([self.edge_w, self.edge_w])
        order = np.argsort(heads, kind="stable")
        self._nbr = tails[order]
        self._nbr_w = ws[order]
        counts = np.bincount(heads, minlength=n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # weighted degree: sum of incident weights (diagonal of -Laplacian times mu)
        self.wdeg = np.bincount(heads, weights=ws, minlength=n)

        for arr in (self.edge_i, self.edge_j, self.edge_w, self.mu, self._nbr,
                    self._nbr_w, self._indptr, self.wdeg):
            arr.setflags(write=False)
        self._batch = (self.edge_i, self.edge_j)

    @property
    def edge_count(self) -> int:
        return int(self.edge_w.size)

    def batch_edges(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """edge_i and edge_j of `rows` vertex functions laid end to end
        (vertex x of row r is r * vertex_count + x). The largest batch built
        so far is kept, since the solver asks at every descent step."""
        m = rows * self.edge_count
        ei, ej = self._batch
        if ei.size < m:
            shift = self.vertex_count * np.arange(rows)[:, None]
            ei, ej = (self.edge_i + shift).ravel(), (self.edge_j + shift).ravel()
            ei.setflags(write=False)
            ej.setflags(write=False)
            self._batch = (ei, ej)
        return ei[:m], ej[:m]

    def check_vertex(self, x: int) -> int:
        x = _integer(x, "vertex id", UnknownLabelError)
        if not 0 <= x < self.vertex_count:
            raise UnknownLabelError(f"vertex {x} not in graph of size {self.vertex_count}")
        return x

    def neighbors(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids and the matching edge weights of vertex x."""
        x = self.check_vertex(x)
        lo, hi = self._indptr[x], self._indptr[x + 1]
        return self._nbr[lo:hi], self._nbr_w[lo:hi]

    def id_of(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise UnknownLabelError(f"unknown vertex label {label!r}") from None

    def label_of(self, x: int) -> str:
        return self.labels[self.check_vertex(x)]

    def __repr__(self) -> str:
        return f"WeightedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


class PotentialField:
    """Nonnegative potentials (a, b) and their zero-set wells.

    The wells Omega_a = {a = 0}, Omega_b = {b = 0} and their overlap must all
    be nonempty; solutions concentrate there as the coupling strength grows.
    """

    def __init__(self, a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray):
        a = np.asarray(a, dtype=np.float64).copy()
        b = np.asarray(b, dtype=np.float64).copy()
        if a.ndim != 1 or a.shape != b.shape:
            raise GraphValidationError("potentials a and b must be 1-d arrays of equal length")
        for name, arr in (("a", a), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise GraphValidationError(f"potential {name} must be finite")
            if np.any(arr < 0):
                offender = int(np.argmax(arr < 0))
                raise GraphValidationError(
                    f"potential {name} is negative at vertex {offender}: {arr[offender]}")
        a.setflags(write=False)
        b.setflags(write=False)
        self.a = a
        self.b = b
        self.omega_a = frozenset(int(i) for i in np.flatnonzero(a == 0.0))
        self.omega_b = frozenset(int(i) for i in np.flatnonzero(b == 0.0))
        self.overlap = self.omega_a & self.omega_b
        if not self.omega_a:
            raise GraphValidationError("potential a has an empty zero set")
        if not self.omega_b:
            raise GraphValidationError("potential b has an empty zero set")
        if not self.overlap:
            raise GraphValidationError("the zero sets of a and b do not overlap")

    def __repr__(self) -> str:
        return (f"PotentialField(|Omega_a|={len(self.omega_a)}, "
                f"|Omega_b|={len(self.omega_b)}, |overlap|={len(self.overlap)})")


def validate_graph(g: WeightedGraph) -> None:
    """Certify connectivity from vertex 0.

    Raises GraphValidationError naming an unreachable vertex on failure.
    """
    reached = _bfs_reach(g, 0)
    if not reached.all():
        k = int(np.argmax(~reached))
        raise GraphValidationError(f"graph is disconnected: vertex {g.label_of(k)} is unreachable from {g.label_of(0)}")


def _bfs_reach(g: WeightedGraph, source: int) -> np.ndarray:
    """Mask of the vertices reachable from source. It walks the adjacency
    arrays as Python lists, not through neighbors(): every vertex it pops is
    in range by construction, so none needs validating."""
    reached = [False] * g.vertex_count
    reached[source] = True
    queue = deque([source])
    nbr, indptr = g._nbr.tolist(), g._indptr.tolist()
    while queue:
        x = queue.popleft()
        for y in nbr[indptr[x]:indptr[x + 1]]:
            if not reached[y]:
                reached[y] = True
                queue.append(y)
    return np.array(reached)


def as_domain(g: WeightedGraph, members: Iterable[int]) -> frozenset:
    """Normalize an iterable of vertex ids into a validated frozenset."""
    return frozenset(g.check_vertex(v) for v in members)


def boundary(g: WeightedGraph, omega: Iterable[int]) -> frozenset:
    """Vertex boundary: vertices outside omega adjacent to some vertex of omega."""
    dom = as_domain(g, omega)
    if not dom:
        return frozenset()
    inside = np.zeros(g.vertex_count, dtype=bool)
    inside[list(dom)] = True
    ai, aj = inside[g.edge_i], inside[g.edge_j]
    out = set(g.edge_i[aj & ~ai].tolist()) | set(g.edge_j[ai & ~aj].tolist())
    return frozenset(int(v) for v in out)

