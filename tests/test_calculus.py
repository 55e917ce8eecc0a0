import math

import numpy as np
import pytest

from graphwell import (
    DirichletProblem,
    DomainViolationError,
    LambdaProblem,
    PotentialField,
    WeightedGraph,
    dirichlet_energy_sq,
    gradient_form_all,
    integrate,
    laplacian_all,
    norm_H_Omega_sq,
    norm_H_lambda_sq,
    norm_H_sq,
    norm_Lq,
)
from tests.conftest import random_connected_graph


def laplacian(g, u, x):
    """Reference mu-Laplacian at x: (1/mu(x)) sum_{y~x} w_xy (u(y) - u(x))."""
    nbr, w = g.neighbors(x)
    return float(np.dot(w, u[nbr] - u[x]) / g.mu[x])


def gradient_form(g, u, v, x):
    """Reference Gamma(u,v)(x) = (1/(2 mu(x))) sum_{y~x} w_xy (u(y)-u(x))(v(y)-v(x))."""
    nbr, w = g.neighbors(x)
    return float(np.dot(w, (u[nbr] - u[x]) * (v[nbr] - v[x])) / (2.0 * g.mu[x]))


def two_vertex():
    return WeightedGraph(2, [(0, 1, 1.0)])


def star(k):
    """Center 0 joined to k leaves by unit edges."""
    return WeightedGraph(k + 1, [(0, i, 1.0) for i in range(1, k + 1)])


class TestPointwiseOperators:
    def test_laplacian_two_vertex(self):
        g = two_vertex()
        u = np.array([0.0, 1.0])
        assert laplacian(g, u, 0) == pytest.approx(1.0, abs=1e-15)
        assert laplacian(g, u, 1) == pytest.approx(-1.0, abs=1e-15)

    def test_laplacian_star_center(self):
        k = 5
        g = star(k)
        u = np.zeros(k + 1)
        u[0] = 1.0
        assert laplacian(g, u, 0) == pytest.approx(-k, abs=1e-14)

    def test_laplacian_constant_is_zero(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng)
        c = 2.5 * np.ones(g.vertex_count)
        assert np.allclose(laplacian_all(g, c), 0.0, atol=1e-14)

    def test_laplacian_all_matches_pointwise(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng)
        u = rng.normal(size=g.vertex_count)
        full = laplacian_all(g, u)
        for x in range(g.vertex_count):
            assert full[x] == pytest.approx(laplacian(g, u, x), rel=1e-13, abs=1e-13)

    def test_gradient_form_two_vertex(self):
        g = two_vertex()
        u = np.array([0.0, 1.0])
        assert gradient_form(g, u, u, 0) == pytest.approx(0.5, abs=1e-15)

    def test_gradient_form_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng)
        n = g.vertex_count
        u, v, w = rng.normal(size=(3, n))
        a, b = 1.7, -0.3
        for x in range(n):
            assert gradient_form(g, u, v, x) == pytest.approx(
                gradient_form(g, v, u, x), rel=1e-12, abs=1e-14)
            lhs = gradient_form(g, a * u + b * w, v, x)
            rhs = a * gradient_form(g, u, v, x) + b * gradient_form(g, w, v, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    def test_gradient_form_all_matches_pointwise(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng)
        u, v = rng.normal(size=(2, g.vertex_count))
        full = gradient_form_all(g, u, v)
        for x in range(g.vertex_count):
            assert full[x] == pytest.approx(gradient_form(g, u, v, x), rel=1e-13, abs=1e-13)


class TestIntegration:
    def test_integrate_ones(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], measure=[1.0, 2.0, 4.0])
        assert integrate(g, np.ones(3)) == pytest.approx(7.0)
        assert integrate(g, np.ones(3), over={1, 2}) == pytest.approx(6.0)
        assert integrate(g, np.ones(3), over=set()) == 0.0

    def test_integrate_matches_python_sum(self):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng)
        f = rng.normal(size=g.vertex_count)
        expected = sum(float(g.mu[x]) * float(f[x]) for x in range(g.vertex_count))
        assert integrate(g, f) == pytest.approx(expected, rel=1e-13)

    def test_divergence_theorem(self):
        # the Laplacian integrates to zero against the measure
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_connected_graph(rng)
            u = rng.normal(size=g.vertex_count)
            total = integrate(g, laplacian_all(g, u))
            assert abs(total) < 1e-11 * max(1.0, float(np.abs(u).max()))

    def test_gamma_integral_is_edge_sum(self):
        rng = np.random.default_rng(10)
        g = random_connected_graph(rng)
        u = rng.normal(size=g.vertex_count)
        via_gamma = integrate(g, gradient_form_all(g, u, u))
        assert via_gamma == pytest.approx(dirichlet_energy_sq(g, u), rel=1e-12)

    def test_integration_by_parts(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng)
            u = rng.normal(size=g.vertex_count)
            xi = rng.normal(size=g.vertex_count)
            lhs = integrate(g, gradient_form_all(g, u, xi))
            rhs = -integrate(g, laplacian_all(g, u) * xi)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_integration_by_parts_on_closed_domain(self):
        # u, xi supported inside the domain; identity holds summed over closure
        g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5),
                              (3, 4, 1.5), (4, 5, 1.0), (1, 4, 0.7)],
                          measure=[1.0, 0.5, 2.0, 1.0, 0.8, 1.3])
        omega = {1, 2, 3}
        closed = {0, 1, 2, 3, 4}
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = np.zeros(6)
            xi = np.zeros(6)
            u[list(omega)] = rng.normal(size=3)
            xi[list(omega)] = rng.normal(size=3)
            lhs = integrate(g, gradient_form_all(g, u, xi), over=closed)
            rhs = -integrate(g, laplacian_all(g, u) * xi, over=closed)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestNorms:
    def problem(self, g, a, b, lam):
        return LambdaProblem(g, PotentialField(a, b), lam=lam, alpha=2.0, beta=2.0)

    def test_norm_H_lambda_single_edge(self):
        # u = (1, 0), v = 0, unit weight/measure, a = b = 0: gradient 1 + mass 1.
        g = two_vertex()
        p = self.problem(g, [0.0, 0.0], [0.0, 0.0], lam=1.0)
        w = (np.array([1.0, 0.0]), np.zeros(2))
        assert norm_H_lambda_sq(p, w) == pytest.approx(2.0, abs=1e-15)
        # a potential on the supported vertex feeds through as lam*a + 1
        p2 = self.problem(g, [3.0, 0.0], [0.0, 0.0], lam=2.0)
        assert norm_H_lambda_sq(p2, w) == pytest.approx(1.0 + 7.0, abs=1e-14)

    def test_norm_H_matches_unit_coefficients(self):
        g = two_vertex()
        w = (np.array([1.0, 0.0]), np.zeros(2))
        assert norm_H_sq(g, w) == pytest.approx(2.0, abs=1e-15)
        # with a = b = 0 the lambda norm collapses to the H norm for every lambda
        rng = np.random.default_rng(13)
        gr = random_connected_graph(rng)
        zero = np.zeros(gr.vertex_count)
        wr = (rng.normal(size=gr.vertex_count), rng.normal(size=gr.vertex_count))
        for lam in (1e-3, 1.0, 1e5):
            p = self.problem(gr, zero, zero, lam)
            assert norm_H_lambda_sq(p, wr) == pytest.approx(norm_H_sq(gr, wr), rel=1e-13)

    def test_lambda_monotonicity(self):
        rng = np.random.default_rng(15)
        g = random_connected_graph(rng)
        n = g.vertex_count
        a = rng.uniform(0, 2, size=n)
        a[1] = 0.0
        b = rng.uniform(0, 2, size=n)
        b[1] = 0.0
        w = (rng.normal(size=n), rng.normal(size=n))
        values = [norm_H_lambda_sq(self.problem(g, a, b, lam), w)
                  for lam in (0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_norm_H_Omega_star_example(self):
        # unit mass at the center of a k-star well: k gradient + 1 mass
        k = 4
        g = star(k)
        d = DirichletProblem(g, frozenset({0}), frozenset({0}), alpha=2.0, beta=2.0)
        u = np.zeros(k + 1)
        u[0] = 1.0
        assert norm_H_Omega_sq(d, (u, np.zeros(k + 1))) == pytest.approx(k + 1.0, abs=1e-14)

    def test_norm_H_Omega_matches_edge_sum(self):
        g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5),
                              (3, 4, 1.5), (4, 5, 1.0), (0, 3, 0.9)],
                          measure=[1.0, 0.5, 2.0, 1.0, 0.8, 1.3])
        d = DirichletProblem(g, frozenset({1, 2}), frozenset({2, 3}),
                             alpha=2.0, beta=2.0)
        rng = np.random.default_rng(16)
        u = np.zeros(6)
        u[[1, 2]] = rng.normal(size=2)
        v = np.zeros(6)
        v[[2, 3]] = rng.normal(size=2)
        expected = dirichlet_energy_sq(g, u) + dirichlet_energy_sq(g, v)
        expected += float(np.dot(g.mu[[1, 2]], u[[1, 2]] ** 2))
        expected += float(np.dot(g.mu[[2, 3]], v[[2, 3]] ** 2))
        assert norm_H_Omega_sq(d, (u, v)) == pytest.approx(expected, rel=1e-13)

    def test_norm_H_Omega_rejects_escape(self):
        g = star(3)
        d = DirichletProblem(g, frozenset({0}), frozenset({0}), alpha=2.0, beta=2.0)
        u = np.zeros(4)
        u[2] = 1e-9
        with pytest.raises(DomainViolationError, match="2"):
            norm_H_Omega_sq(d, (u, np.zeros(4)))


class TestLqNorms:
    def test_l2_pythagorean(self):
        g = WeightedGraph(1, [])
        w = (np.array([3.0]), np.array([4.0]))
        assert norm_Lq(g, w, 2) == pytest.approx(5.0, abs=1e-15)

    def test_sup_norm(self):
        g = two_vertex()
        w = (np.array([2.0, -1.0]), np.array([0.5, -3.0]))
        assert norm_Lq(g, w, math.inf) == pytest.approx(5.0, abs=1e-15)

    def test_small_q_rejected(self):
        g = two_vertex()
        w = (np.ones(2), np.ones(2))
        for q in (1.5, math.nan):
            with pytest.raises(ValueError):
                norm_Lq(g, w, q)

    def test_zero_pair(self):
        g = two_vertex()
        w = (np.zeros(2), np.zeros(2))
        for q in (2, 3.5, math.inf):
            assert norm_Lq(g, w, q) == 0.0

    def test_measure_weighting(self):
        g = WeightedGraph(2, [(0, 1, 1.0)], measure=[2.0, 3.0])
        w = (np.array([1.0, 1.0]), np.zeros(2))
        assert norm_Lq(g, w, 4) == pytest.approx(5.0 ** 0.25, rel=1e-14)

    def test_l1_well_volume_bound(self):
        # |u|_{L^1(Omega_a)} + |v|_{L^1(Omega_b)} against sqrt-volume times norm
        g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
                          measure=[1.0, 2.0, 0.5, 1.0, 1.5])
        d = DirichletProblem(g, frozenset({1, 2}), frozenset({2, 3}),
                             alpha=2.0, beta=2.0)
        rng = np.random.default_rng(17)
        vol_a = float(np.sum(g.mu[[1, 2]]))
        vol_b = float(np.sum(g.mu[[2, 3]]))
        for _ in range(50):
            u = np.zeros(5)
            u[[1, 2]] = rng.normal(size=2)
            v = np.zeros(5)
            v[[2, 3]] = rng.normal(size=2)
            l1 = integrate(g, np.abs(u), over={1, 2}) + integrate(g, np.abs(v), over={2, 3})
            bound = (math.sqrt(vol_a) + math.sqrt(vol_b)) * math.sqrt(norm_H_Omega_sq(d, (u, v)))
            assert l1 <= bound + 1e-12


class TestEmbedding:
    def test_sup_bound_random(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            g = random_connected_graph(rng)
            n = g.vertex_count
            a = rng.uniform(0, 3, size=n)
            a[int(rng.integers(0, n))] = 0.0
            b = rng.uniform(0, 3, size=n)
            b[int(np.flatnonzero(a == 0)[0])] = 0.0
            const = 2.0 * math.sqrt(1.0 / g.mu_min)
            for lam in (1e-2, 1.0, 1e2, 1e4):
                p = LambdaProblem(g, PotentialField(a, b), lam=lam, alpha=2.0, beta=2.0)
                for _ in range(5):
                    w = (rng.normal(size=n), rng.normal(size=n))
                    assert norm_Lq(g, w, math.inf) <= const * math.sqrt(norm_H_lambda_sq(p, w))
