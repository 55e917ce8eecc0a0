import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from graphwell import (
    DegeneratePairError,
    DirichletProblem,
    DomainViolationError,
    GraphValidationError,
    LambdaFamily,
    LambdaProblem,
    PairFunction,
    PotentialField,
    WeightedGraph,
    boundary,
    energy_J_Omega,
    energy_J_lambda,
    grad_J_Omega,
    grad_J_lambda,
    gradient_form_all,
    integrate,
    nehari_diagnostics,
    norm_H_lambda_sq,
    norm_H_Omega_sq,
)
from graphwell.functional import (
    coupling_integral,
    energy_of,
    hessian_matvec,
    nehari_scale,
    norm_sq_of,
    residual_of,
)
from tests.conftest import random_connected_graph


def single_vertex_problem(lam=1.0, alpha=2.0, beta=2.0, mu=1.0):
    g = WeightedGraph(1, [], measure=[mu])
    return LambdaProblem(g, PotentialField([0.0], [0.0]), lam=lam, alpha=alpha, beta=beta)


def random_problem(rng, lam=3.0, alpha=2.0, beta=2.0):
    g = random_connected_graph(rng)
    n = g.vertex_count
    a = rng.uniform(0, 2, size=n)
    b = rng.uniform(0, 2, size=n)
    a[0] = b[0] = 0.0
    return LambdaProblem(g, PotentialField(a, b), lam=lam, alpha=alpha, beta=beta)


def projected(p, w):
    """w scaled onto the Nehari manifold."""
    t = nehari_scale(p, w)
    return PairFunction(t * w[0], t * w[1])


class TestProblemValidation:
    def test_lambda_must_be_positive(self):
        g = WeightedGraph(1, [])
        pots = PotentialField([0.0], [0.0])
        for lam in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                LambdaProblem(g, pots, lam=lam, alpha=2.0, beta=2.0)

    def test_exponents_must_exceed_one(self):
        g = WeightedGraph(1, [])
        pots = PotentialField([0.0], [0.0])
        with pytest.raises(ValueError):
            LambdaProblem(g, pots, lam=1.0, alpha=1.0, beta=2.0)
        with pytest.raises(ValueError):
            DirichletProblem(g, frozenset({0}), frozenset({0}), alpha=2.0, beta=0.5)
        with pytest.raises(ValueError):
            LambdaProblem(g, pots, lam=1.0, alpha=math.inf, beta=2.0)
        with pytest.raises(ValueError):
            DirichletProblem(g, frozenset({0}), frozenset({0}), alpha=2.0, beta=math.inf)

    def test_size_mismatch(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        pots = PotentialField([0.0], [0.0])
        with pytest.raises(GraphValidationError):
            LambdaProblem(g, pots, lam=1.0, alpha=2.0, beta=2.0)

    def test_wells_must_overlap(self):
        with pytest.raises(GraphValidationError):
            PotentialField([0.0, 1.0], [1.0, 0.0])
        g = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(GraphValidationError):
            DirichletProblem(g, frozenset({0}), frozenset({1}), alpha=2.0, beta=2.0)

    def test_negative_potential_rejected(self):
        with pytest.raises(GraphValidationError):
            PotentialField([0.0, -0.1], [0.0, 1.0])

    def test_family_builds_problems(self):
        g = WeightedGraph(1, [])
        fam = LambdaFamily(g, PotentialField([0.0], [0.0]), alpha=2.0, beta=2.0)
        p = fam.problem(10.0)
        assert p.lam == 10.0
        assert p.gamma == 4.0

    def test_kernel_data_of_each_flavor(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        pots = PotentialField([0.0, 1.0, 2.0], [0.0, 0.5, 0.0])
        p = LambdaProblem(g, pots, lam=4.0, alpha=2.0, beta=2.0)
        np.testing.assert_array_equal(p.coef_u, [1.0, 5.0, 9.0])
        np.testing.assert_array_equal(p.coef_v, [1.0, 3.0, 1.0])
        assert p.mask_a.all() and p.mask_b.all()
        d = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha=2.0, beta=2.0)
        np.testing.assert_array_equal(d.coef_u, np.ones(3))
        np.testing.assert_array_equal(d.coef_v, np.ones(3))
        np.testing.assert_array_equal(d.mask_a, [True, False, False])
        np.testing.assert_array_equal(d.mask_b, [True, False, True])
        assert p.overlap == d.overlap == frozenset({0})
        # the problems are frozen, so their kernel arrays are too
        for arr in (p.coef_u, p.mask_a, d.coef_v, d.mask_b):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestEnergyAndCoupling:
    def test_coupling_single_vertex(self):
        p = single_vertex_problem()
        w = (np.array([2.0]), np.array([3.0]))
        assert coupling_integral(p, w) == pytest.approx(36.0, abs=1e-13)

    def test_energy_single_vertex_profile(self):
        # along the diagonal ray u = v = t: J = t^2 - t^4/4
        p = single_vertex_problem()
        for t in (0.5, 1.0, 1.7, 3.0):
            w = (np.array([t]), np.array([t]))
            assert energy_J_lambda(p, w) == pytest.approx(t * t - t ** 4 / 4.0, rel=1e-14)
        assert energy_J_lambda(p, (np.array([1.0]), np.array([1.0]))) == pytest.approx(0.75)

    def test_coupling_dirichlet_rejects_exterior(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = DirichletProblem(g, frozenset({0}), frozenset({0}), alpha=2.0, beta=2.0)
        # mass parked outside the wells is refused before it can reach the
        # coupling integral; inside the wells the integral is the plain sum
        u = np.array([2.0, 5.0, 0.0])
        v = np.array([3.0, 0.0, 7.0])
        with pytest.raises(DomainViolationError):
            nehari_diagnostics(d, (u, v))
        inside = (np.array([2.0, 0.0, 0.0]), np.array([3.0, 0.0, 0.0]))
        assert nehari_diagnostics(d, inside).coupling == pytest.approx(36.0, abs=1e-12)

    @pytest.mark.parametrize("public", [
        energy_J_Omega, grad_J_Omega, norm_H_Omega_sq, nehari_diagnostics])
    def test_omega_boundary_rejects_exterior(self, public):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = DirichletProblem(g, frozenset({0, 1}), frozenset({1}), alpha=2.0, beta=2.0)
        with pytest.raises(DomainViolationError):
            public(d, (np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.5])))

    @pytest.mark.parametrize("public", [
        energy_J_lambda, grad_J_lambda, norm_H_lambda_sq, nehari_diagnostics])
    def test_lambda_boundary_rejects_nonfinite(self, public):
        p = random_problem(np.random.default_rng(29))
        u = np.ones(p.graph.vertex_count)
        v = u.copy()
        v[-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            public(p, (u, v))

    def test_zero_pair(self):
        p = single_vertex_problem()
        zero = (np.zeros(1), np.zeros(1))
        assert energy_J_lambda(p, zero) == 0.0
        ru, rv = grad_J_lambda(p, zero)
        assert not ru.any() and not rv.any()


class TestResiduals:
    def test_single_vertex_critical_point(self):
        p = single_vertex_problem()
        s = math.sqrt(2.0)
        ru, rv = grad_J_lambda(p, (np.array([s]), np.array([s])))
        assert abs(ru[0]) < 1e-14 and abs(rv[0]) < 1e-14

    def test_residual_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        p = random_problem(rng, alpha=2.3, beta=2.9)
        n = p.graph.vertex_count
        w = (rng.uniform(0.3, 1.5, size=n), rng.uniform(0.3, 1.5, size=n))
        r = grad_J_lambda(p, w)
        h = 1e-5
        for _ in range(25):
            du, dv = rng.normal(size=(2, n))
            wp = (w[0] + h * du, w[1] + h * dv)
            wm = (w[0] - h * du, w[1] - h * dv)
            fd = (energy_J_lambda(p, wp) - energy_J_lambda(p, wm)) / (2.0 * h)
            pairing = integrate(p.graph, r.u * du + r.v * dv)
            assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-9)

    def test_dirichlet_residual_matches_finite_differences(self):
        g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0)],
                          measure=[1.0, 0.5, 1.5, 1.0, 2.0])
        d = DirichletProblem(g, frozenset({1, 2}), frozenset({2, 3}),
                             alpha=2.0, beta=2.5)
        rng = np.random.default_rng(22)
        u = np.zeros(5)
        u[[1, 2]] = rng.uniform(0.5, 1.5, size=2)
        v = np.zeros(5)
        v[[2, 3]] = rng.uniform(0.5, 1.5, size=2)
        r = grad_J_Omega(d, (u, v))
        # residual is pinned to zero off the wells
        assert not r.u[[0, 3, 4]].any() and not r.v[[0, 1, 4]].any()
        h = 1e-5
        for _ in range(25):
            du = np.zeros(5)
            du[[1, 2]] = rng.normal(size=2)
            dv = np.zeros(5)
            dv[[2, 3]] = rng.normal(size=2)
            fd = (energy_J_Omega(d, (u + h * du, v + h * dv))
                  - energy_J_Omega(d, (u - h * du, v - h * dv))) / (2.0 * h)
            pairing = integrate(g, r.u * du + r.v * dv)
            assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-9)

    def test_weak_form_consistency(self):
        # the L2(dmu) pairing of the strong residual must reproduce the weak
        # form assembled independently from the gradient form
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_problem(rng, lam=2.0, alpha=2.5, beta=2.5)
            g = p.graph
            n = g.vertex_count
            u = rng.uniform(0.2, 1.8, size=n)
            v = rng.uniform(0.2, 1.8, size=n)
            xi, eta = rng.normal(size=(2, n))
            gam = p.gamma
            weak = integrate(g, gradient_form_all(g, u, xi) + gradient_form_all(g, v, eta))
            weak += integrate(g, p.coef_u * u * xi + p.coef_v * v * eta)
            weak -= integrate(
                g,
                (p.alpha / gam) * np.abs(u) ** (p.alpha - 2) * u * np.abs(v) ** p.beta * xi
                + (p.beta / gam) * np.abs(u) ** p.alpha * np.abs(v) ** (p.beta - 2) * v * eta)
            r = grad_J_lambda(p, (u, v))
            strong = integrate(g, r.u * xi + r.v * eta)
            scale = max(1.0, abs(weak))
            assert abs(weak - strong) < 1e-10 * scale

    def test_dispatchers_agree(self):
        rng = np.random.default_rng(24)
        p = random_problem(rng)
        n = p.graph.vertex_count
        w = (rng.normal(size=n), rng.normal(size=n))
        assert energy_of(p, w) == energy_J_lambda(p, w)
        assert norm_sq_of(p, w) == pytest.approx(
            2 * energy_of(p, w) + 2 * coupling_integral(p, w) / p.gamma, rel=1e-12)
        ru, rv = residual_of(p, w)
        ru2, rv2 = grad_J_lambda(p, w)
        assert np.array_equal(ru, ru2) and np.array_equal(rv, rv2)


class TestNehari:
    def test_scale_formula_example(self):
        # norm 4 against coupling 1 with gamma = 4 scales by (4/1)^(1/2) = 2
        p = single_vertex_problem()
        u = math.sqrt(2.0 + math.sqrt(3.0))
        v = math.sqrt(2.0 - math.sqrt(3.0))
        w = (np.array([u]), np.array([v]))
        assert norm_sq_of(p, w) == pytest.approx(4.0, rel=1e-14)
        assert coupling_integral(p, w) == pytest.approx(1.0, rel=1e-13)
        assert nehari_scale(p, w) == pytest.approx(2.0, rel=1e-13)

    def test_fixed_point_on_manifold(self):
        p = single_vertex_problem()
        s = math.sqrt(2.0)
        w = (np.array([s]), np.array([s]))
        assert nehari_scale(p, w) == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_pairs_rejected(self):
        p = single_vertex_problem()
        with pytest.raises(DegeneratePairError):
            nehari_scale(p, (np.zeros(1), np.zeros(1)))
        with pytest.raises(DegeneratePairError):
            # v = 0 kills the coupling even though the norm is positive
            nehari_scale(p, (np.ones(1), np.zeros(1)))

    def test_projection_idempotent(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = random_problem(rng, alpha=2.0 + rng.uniform(0, 1),
                               beta=2.0 + rng.uniform(0, 1))
            n = p.graph.vertex_count
            w = (rng.uniform(0.1, 2.0, size=n), rng.uniform(0.1, 2.0, size=n))
            proj = projected(p, w)
            assert nehari_scale(p, proj) == pytest.approx(1.0, rel=1e-12)
            diag = nehari_diagnostics(p, proj)
            assert abs(diag.defect) <= 1e-12 * diag.norm_sq

    def test_scaling_law(self):
        # defect(t w) = t^2 N - t^gamma C exactly, for both problem flavors
        rng = np.random.default_rng(26)
        p = random_problem(rng, alpha=2.4, beta=3.1)
        n = p.graph.vertex_count
        u = rng.uniform(0.2, 1.5, size=n)
        v = rng.uniform(0.2, 1.5, size=n)
        base = nehari_diagnostics(p, (u, v))
        for t in np.linspace(0.1, 2.8, 10):
            d_t = nehari_diagnostics(p, (t * u, t * v))
            predicted = t ** 2 * base.norm_sq - t ** p.gamma * base.coupling
            assert d_t.defect == pytest.approx(predicted, rel=1e-12, abs=1e-12)

    def test_level_identity_on_manifold(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            p = random_problem(rng, alpha=2.2, beta=2.6)
            n = p.graph.vertex_count
            w = projected(p, (rng.uniform(0.1, 2, size=n), rng.uniform(0.1, 2, size=n)))
            diag = nehari_diagnostics(p, w)
            level = (0.5 - 1.0 / p.gamma) * diag.coupling
            assert diag.energy == pytest.approx(level, rel=1e-12)

    def test_projection_maximizes_energy_on_ray(self):
        rng = np.random.default_rng(28)
        p = random_problem(rng)
        n = p.graph.vertex_count
        w = projected(p, (rng.uniform(0.1, 2, size=n), rng.uniform(0.1, 2, size=n)))
        e_star = energy_of(p, w)
        for t in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
            e_t = energy_of(p, (t * w.u, t * w.v))
            assert e_t < e_star

    def test_diagnostics_trivial_flag(self):
        p = single_vertex_problem()
        diag = nehari_diagnostics(p, (np.zeros(1), np.zeros(1)))
        assert not diag.nontrivial
        assert diag.norm_sq == 0.0 and diag.coupling == 0.0 and diag.energy == 0.0
        good = nehari_diagnostics(p, (np.ones(1), np.ones(1)))
        assert good.nontrivial

    def test_nehari_on_dirichlet_problem(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = DirichletProblem(g, frozenset({1}), frozenset({1}), alpha=2.0, beta=2.0)
        u = np.array([0.0, 1.0, 0.0])
        w = projected(d, (u, u))
        diag = nehari_diagnostics(d, w)
        assert abs(diag.defect) <= 1e-13 * diag.norm_sq
        assert diag.energy == pytest.approx(0.25 * diag.coupling, rel=1e-12)


@st.composite
def well_instances(draw):
    """Random connected graph, potentials, and a pair vanishing off their zero sets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, n_max=12)
    n = g.vertex_count
    a = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 3.0, size=n))
    b = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 3.0, size=n))
    a[0] = b[0] = 0.0
    u = np.where(a == 0.0, rng.normal(size=n), 0.0)
    v = np.where(b == 0.0, rng.normal(size=n), 0.0)
    return g, PotentialField(a, b), (u, v)


class TestMaskedKernel:
    # On pairs vanishing off the wells the lam a, lam b terms drop out, so the
    # lambda-problem and the Dirichlet problem share energy and residual there.
    @settings(max_examples=80, deadline=None)
    @given(inst=well_instances(), lam=st.floats(1e-2, 1e9),
           alpha=st.floats(1.05, 4.0), beta=st.floats(1.05, 4.0))
    def test_lambda_and_dirichlet_agree_on_admissible_pairs(self, inst, lam, alpha, beta):
        g, pots, w = inst
        p = LambdaProblem(g, pots, lam=lam, alpha=alpha, beta=beta)
        d = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha=alpha, beta=beta)
        assert energy_J_lambda(p, w) == pytest.approx(energy_J_Omega(d, w), rel=1e-12)
        r_lam = grad_J_lambda(p, w)
        r_dir = grad_J_Omega(d, w)
        np.testing.assert_allclose(r_lam.u[d.mask_a], r_dir.u[d.mask_a], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(r_lam.v[d.mask_b], r_dir.v[d.mask_b], rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(inst=well_instances())
    def test_norm_H_Omega_equals_closed_well_sums(self, inst):
        # the all-edge sum the kernel uses equals the gradient form summed
        # over the closed wells plus the mass over the open wells
        g, pots, w = inst
        d = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha=2.0, beta=2.0)
        expected = 0.0
        for f, well in ((w[0], d.omega_a), (w[1], d.omega_b)):
            closed = sorted(well | boundary(g, well))
            opened = sorted(well)
            expected += float(np.dot(g.mu[closed], gradient_form_all(g, f, f)[closed]))
            expected += float(np.dot(g.mu[opened], f[opened] ** 2))
        assert norm_H_Omega_sq(d, w) == pytest.approx(expected, rel=1e-12)


def stacked_residual(p, w):
    r = residual_of(p, w)
    return np.concatenate([p.graph.mu * r.u, p.graph.mu * r.v])


@st.composite
def hessian_instances(draw):
    """A problem of either flavour and a pair positive on its masks, >= 0.3 there."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, pots, _w = draw(well_instances())
    alpha = draw(st.floats(1.0, 4.0, exclude_min=True))
    beta = draw(st.floats(1.0, 4.0, exclude_min=True))
    if draw(st.booleans()):
        p = LambdaProblem(g, pots, lam=draw(st.floats(1e-2, 1e9)), alpha=alpha, beta=beta)
    else:
        p = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha=alpha, beta=beta)
    n = g.vertex_count
    u = np.where(p.mask_a, rng.uniform(0.3, 2.0, size=n), 0.0)
    v = np.where(p.mask_b, rng.uniform(0.3, 2.0, size=n), 0.0)
    return p, PairFunction(u, v), rng


def unknowns_direction(p, rng):
    """A random direction supported on the masks, the Newton polish's unknowns."""
    n = p.graph.vertex_count
    return (np.where(p.mask_a, rng.normal(size=n), 0.0),
            np.where(p.mask_b, rng.normal(size=n), 0.0))


class TestHessian:
    # hessian_matvec is the Jacobian of the stacked mu*residual_of, which the
    # Newton polish inverts by MINRES; central differences are its oracle.
    # Directions stay on the unknowns: off the masks a Dirichlet pair sits at
    # zeros where, for exponents below 2, the residual is only Holder
    # continuous, so a difference quotient across them has no h^2 accuracy.
    @settings(max_examples=100, deadline=None)
    @given(inst=hessian_instances())
    def test_matches_central_differences(self, inst):
        p, w, rng = inst
        du, dv = unknowns_direction(p, rng)
        h = 1e-5
        fd = (stacked_residual(p, (w.u + h * du, w.v + h * dv))
              - stacked_residual(p, (w.u - h * du, w.v - h * dv))) / (2.0 * h)
        hd = np.concatenate(hessian_matvec(p, w, du, dv))
        assert np.linalg.norm(hd - fd) <= 1e-6 * np.linalg.norm(fd)

    @settings(max_examples=100, deadline=None)
    @given(inst=hessian_instances())
    def test_symmetric_on_the_unknowns(self, inst):
        p, w, rng = inst
        dx, dy = unknowns_direction(p, rng), unknowns_direction(p, rng)
        x, y = np.concatenate(dx), np.concatenate(dy)
        hx = np.concatenate(hessian_matvec(p, w, *dx))
        hy = np.concatenate(hessian_matvec(p, w, *dy))
        scale = np.linalg.norm(x) * np.linalg.norm(hy) + np.linalg.norm(hx) * np.linalg.norm(y)
        assert abs(np.dot(x, hy) - np.dot(hx, y)) <= 1e-12 * scale

    @pytest.mark.parametrize("k", [0, 1])
    def test_singular_diagonal_is_zero_at_a_zero(self, k):
        # alpha = beta = 1.5: |u|^(alpha-2) is infinite at u = 0. The term is
        # taken as 0 there, and so is the coupling entry, which carries
        # signed_power(u, alpha-1) = 0; the row keeps its linear part. k
        # picks the component (u or v) that vanishes at vertex 0.
        rng = np.random.default_rng(31)
        p = random_problem(rng, lam=3.0, alpha=1.5, beta=1.5)
        g = p.graph
        w = rng.uniform(0.5, 1.5, size=(2, g.vertex_count))
        d = rng.normal(size=(2, g.vertex_count))
        w[k, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hessian_matvec(p, w, *d)[k]
        assert np.all(np.isfinite(out))
        nbr, wts = g.neighbors(0)
        coef = (p.coef_u, p.coef_v)[k][0]
        linear = float(np.dot(wts, d[k, 0] - d[k, nbr])) + g.mu[0] * coef * d[k, 0]
        assert out[0] == pytest.approx(linear, rel=1e-13, abs=1e-13)
