import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from graphwell import (
    DirichletProblem,
    DomainViolationError,
    GraphValidationError,
    LambdaProblem,
    PotentialField,
    WeightedGraph,
    boundary,
    energy_J_Omega,
    energy_J_lambda,
    grad_J_Omega,
    grad_J_lambda,
    gradient_form_all,
    integrate,
    laplacian_all,
    norm_H_lambda_sq,
)
from graphwell.functional import (
    _hessian_terms,
    _nehari_rows,
    coupling_integral,
    energy_of,
    hessian_matrix,
    hessian_operator,
    nehari_scale,
    norm_sq_of,
    residual_of,
)
from tests.conftest import load_workloads, make_problem, random_connected_graph
from tests.oracles import neighbours


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
    """w, stacked into a (2, n) array, scaled onto the Nehari manifold."""
    w = np.array(w)
    return nehari_scale(p, w) * w


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

    def test_kernel_data_of_each_flavor(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        pots = PotentialField([0.0, 1.0, 2.0], [0.0, 0.5, 0.0])
        p = LambdaProblem(g, pots, lam=4.0, alpha=2.0, beta=2.0)
        np.testing.assert_array_equal(p.coef[0], [1.0, 5.0, 9.0])
        np.testing.assert_array_equal(p.coef[1], [1.0, 3.0, 1.0])
        assert p.mask_a.all() and p.mask_b.all()
        d = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha=2.0, beta=2.0)
        np.testing.assert_array_equal(d.coef[0], np.ones(3))
        np.testing.assert_array_equal(d.coef[1], np.ones(3))
        np.testing.assert_array_equal(d.mask_a, [True, False, False])
        np.testing.assert_array_equal(d.mask_b, [True, False, True])
        assert p.overlap == d.overlap == frozenset({0})
        # the problems are frozen, so their kernel arrays are too
        for arr in (p.coef[0], p.mask_a, d.coef[1], d.mask_b):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestEnergyAndCoupling:
    def test_coupling_single_vertex(self):
        p = single_vertex_problem()
        w = np.array([[2.0], [3.0]])
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
            energy_J_Omega(d, (u, v))
        inside = d.check_pair((np.array([2.0, 0.0, 0.0]), np.array([3.0, 0.0, 0.0])))
        assert coupling_integral(d, inside) == pytest.approx(36.0, abs=1e-12)

    # The _Omega names are bound to the _lambda functions, whose __name__
    # pytest would take for the ids.
    @pytest.mark.parametrize("public", [energy_J_Omega, grad_J_Omega, norm_H_lambda_sq],
                             ids=["energy_J_Omega", "grad_J_Omega", "norm_H_lambda_sq"])
    def test_omega_boundary_rejects_exterior(self, public):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = DirichletProblem(g, frozenset({0, 1}), frozenset({1}), alpha=2.0, beta=2.0)
        with pytest.raises(DomainViolationError):
            public(d, (np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.5])))

    @pytest.mark.parametrize("public", [energy_J_lambda, grad_J_lambda, norm_H_lambda_sq])
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
            weak += integrate(g, p.coef[0] * u * xi + p.coef[1] * v * eta)
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
        w = rng.normal(size=(2, n))
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
        w = np.array([[u], [v]])
        assert norm_sq_of(p, w) == pytest.approx(4.0, rel=1e-14)
        assert coupling_integral(p, w) == pytest.approx(1.0, rel=1e-13)
        assert nehari_scale(p, w) == pytest.approx(2.0, rel=1e-13)

    def test_fixed_point_on_manifold(self):
        p = single_vertex_problem()
        s = math.sqrt(2.0)
        w = np.array([[s], [s]])
        assert nehari_scale(p, w) == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_pairs_get_nan(self):
        p = single_vertex_problem()
        assert math.isnan(nehari_scale(p, np.zeros((2, 1))))
        # v = 0 kills the coupling even though the norm is positive
        t = nehari_scale(p, np.array([[1.0], [0.0]]))
        assert type(t) is float and math.isnan(t)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = random_problem(rng, alpha=2.0 + rng.uniform(0, 1),
                               beta=2.0 + rng.uniform(0, 1))
            n = p.graph.vertex_count
            w = (rng.uniform(0.1, 2.0, size=n), rng.uniform(0.1, 2.0, size=n))
            proj = projected(p, w)
            assert nehari_scale(p, proj) == pytest.approx(1.0, rel=1e-12)
            norm_sq = norm_sq_of(p, proj)
            assert abs(norm_sq - coupling_integral(p, proj)) <= 1e-12 * norm_sq

    def test_scaling_law(self):
        # defect(t w) = t^2 N - t^gamma C exactly, for both problem flavors
        rng = np.random.default_rng(26)
        p = random_problem(rng, alpha=2.4, beta=3.1)
        n = p.graph.vertex_count
        w = rng.uniform(0.2, 1.5, size=(2, n))
        norm_sq, coupling = norm_sq_of(p, w), coupling_integral(p, w)
        for t in np.linspace(0.1, 2.8, 10):
            defect = norm_sq_of(p, t * w) - coupling_integral(p, t * w)
            predicted = t ** 2 * norm_sq - t ** p.gamma * coupling
            assert defect == pytest.approx(predicted, rel=1e-12, abs=1e-12)

    def test_level_identity_on_manifold(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            p = random_problem(rng, alpha=2.2, beta=2.6)
            n = p.graph.vertex_count
            w = projected(p, (rng.uniform(0.1, 2, size=n), rng.uniform(0.1, 2, size=n)))
            level = (0.5 - 1.0 / p.gamma) * coupling_integral(p, w)
            assert energy_of(p, w) == pytest.approx(level, rel=1e-12)

    def test_projection_maximizes_energy_on_ray(self):
        rng = np.random.default_rng(28)
        p = random_problem(rng)
        n = p.graph.vertex_count
        w = projected(p, (rng.uniform(0.1, 2, size=n), rng.uniform(0.1, 2, size=n)))
        e_star = energy_of(p, w)
        for t in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
            e_t = energy_of(p, t * w)
            assert e_t < e_star

    def test_diagnostics_trivial_flag(self):
        # The rows the solver certifies its results with, from the kernels.
        p = single_vertex_problem()
        w = np.array([np.zeros((2, 1)), np.ones((2, 1))])
        diag, good = _nehari_rows(p, norm_sq_of(p, w), coupling_integral(p, w))
        assert not diag.nontrivial
        assert diag.norm_sq == 0.0 and diag.coupling == 0.0 and diag.energy == 0.0
        assert good.nontrivial

    def test_nehari_on_dirichlet_problem(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = DirichletProblem(g, frozenset({1}), frozenset({1}), alpha=2.0, beta=2.0)
        u = np.array([0.0, 1.0, 0.0])
        w = d.check_pair(projected(d, (u, u)))
        norm_sq, coupling = norm_sq_of(d, w), coupling_integral(d, w)
        assert abs(norm_sq - coupling) <= 1e-13 * norm_sq
        assert energy_of(d, w) == pytest.approx(0.25 * coupling, rel=1e-12)


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
        assert norm_H_lambda_sq(d, w) == pytest.approx(expected, rel=1e-12)


def stacked_residual(p, w):
    return p.graph.mu * residual_of(p, w)


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
    w = np.where(p.mask, rng.uniform(0.3, 2.0, size=(2, g.vertex_count)), 0.0)
    return p, w, rng


def unknowns_direction(p, rng):
    """A random direction supported on the masks, the Newton polish's unknowns."""
    return np.where(p.mask, rng.normal(size=(2, p.graph.vertex_count)), 0.0)


class TestHessian:
    # hessian_operator applies the Jacobian of mu*residual_of, which the
    # Newton polish inverts by MINRES; central differences are its oracle.
    # Directions stay on the unknowns: off the masks a Dirichlet pair sits at
    # zeros where, for exponents below 2, the residual is only Holder
    # continuous, so a difference quotient across them has no h^2 accuracy.
    @settings(max_examples=100, deadline=None)
    @given(inst=hessian_instances())
    def test_matches_central_differences(self, inst):
        p, w, rng = inst
        d = unknowns_direction(p, rng)
        h = 1e-5
        fd = (stacked_residual(p, w + h * d) - stacked_residual(p, w - h * d)) / (2.0 * h)
        hd = hessian_operator(p, w)(d)
        assert np.linalg.norm(hd - fd) <= 1e-6 * np.linalg.norm(fd)
        # The assembled matrix applies the same H.
        md = hessian_matrix(p, w) @ d.ravel()
        assert np.linalg.norm(md - hd.ravel()) <= 1e-12 * np.linalg.norm(hd)

    @settings(max_examples=100, deadline=None)
    @given(inst=hessian_instances())
    def test_symmetric_on_the_unknowns(self, inst):
        p, w, rng = inst
        x, y = unknowns_direction(p, rng), unknowns_direction(p, rng)
        hx = hessian_operator(p, w)(x)
        hy = hessian_operator(p, w)(y)
        scale = np.linalg.norm(x) * np.linalg.norm(hy) + np.linalg.norm(hx) * np.linalg.norm(y)
        assert abs(np.vdot(x, hy) - np.vdot(hx, y)) <= 1e-12 * scale

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
            out = hessian_operator(p, w)(d)[k]
        assert np.all(np.isfinite(out))
        nbr, wts = neighbours(g, 0)
        coef = p.coef[k][0]
        linear = float(np.dot(wts, d[k, 0] - d[k, nbr])) + g.mu[0] * coef * d[k, 0]
        assert out[0] == pytest.approx(linear, rel=1e-13, abs=1e-13)

    def test_hessian_terms_finite_at_subnormal_entries(self):
        # At alpha = 1.01, |u|^(alpha - 2) of a subnormal u overflows. Where
        # v is 0 the term is 0 all the same, not inf * 0 = nan.
        p = make_problem(n=2, edges=[(0, 1, 1.0)], mu=[1.0, 1.0], a=[0.0, 0.0], b=[0.0, 0.0],
                         lam=1.0, alpha=1.01, beta=1.01)
        w = np.array([[[5e-324, 1.0], [0.0, 1.0]], [[0.0, 1.0], [5e-324, 1.0]]])
        with np.errstate(over="ignore", invalid="ignore"):
            second, cross = _hessian_terms(p, w)
        assert np.isfinite(second).all() and np.isfinite(cross).all()
        assert second[0, 0, 0] == 0.0 and second[1, 1, 0] == 0.0

    # hessian_matrix assembles the H of hessian_operator for the dense Newton
    # steps of small graphs, with the identity on the unknowns off the masks.
    @staticmethod
    def assert_matrix_matches_operator(p, w, rng):
        m, _, n = w.shape
        h = hessian_matrix(p, w)
        assert h.shape == (m, 2 * n, 2 * n)
        assert np.array_equal(h, h.swapaxes(-1, -2))
        d = np.where(p.mask, rng.uniform(-1.0, 1.0, w.shape), 0.0)
        hd = np.vecdot(h, d.reshape(m, 1, 2 * n))
        ref = hessian_operator(p, w)(d).reshape(m, 2 * n)
        assert np.abs(hd - ref).max() <= 1e-12 * np.abs(ref).max()
        # Every unknown off the masks has the identity's row and column.
        off = np.flatnonzero(~p.mask.ravel())
        eye = np.eye(2 * n)
        assert np.array_equal(h[:, off, :], np.broadcast_to(eye[off], (m, off.size, 2 * n)))
        assert np.array_equal(h[:, :, off], np.broadcast_to(eye[:, off], (m, 2 * n, off.size)))

    def test_matrix_of_the_dirichlet_problem(self, g22):
        d = g22[2]
        assert not d.mask.all()
        rng = np.random.default_rng(4)
        w = np.where(d.mask, rng.uniform(0.5, 1.5, (4, 2, d.graph.vertex_count)), 0.0)
        w = nehari_scale(d, w)[:, None, None] * w
        self.assert_matrix_matches_operator(d, w, rng)

    def test_matrix_below_quadratic_exponents_at_zeros(self):
        # With alpha, beta < 2 the coupling's second derivative is singular
        # at a zero of u or v and taken as 0 there (functional._abs_power).
        rng = np.random.default_rng(8)
        p = load_workloads().random_instance(rng)
        assert p.alpha < 2.0 and p.beta < 2.0
        w = rng.uniform(-1.0, 2.0, (3, 2, p.graph.vertex_count))
        w[rng.random(w.shape) < 0.3] = 0.0
        assert (w[:, 0] == 0.0).any() and (w[:, 1] == 0.0).any()
        self.assert_matrix_matches_operator(p, w, rng)


@st.composite
def batch_instances(draw):
    """A problem of either flavour and a batch of 1..8 pairs on its masks. The
    graph is random and connected, or the single edgeless vertex, where the
    edge scatter runs over zero edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g, pots, _w = draw(well_instances())
    else:
        g, pots = WeightedGraph(1, []), PotentialField([0.0], [0.0])
    alpha = draw(st.floats(1.0, 4.0, exclude_min=True))
    beta = draw(st.floats(1.0, 4.0, exclude_min=True))
    if draw(st.booleans()):
        p = LambdaProblem(g, pots, lam=draw(st.floats(1e-2, 1e9)), alpha=alpha, beta=beta)
    else:
        p = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha=alpha, beta=beta)
    shape = (draw(st.integers(1, 8)), 2, g.vertex_count)
    return p, np.where(p.mask, rng.normal(size=shape), 0.0)


class TestBatch:
    # The solver runs all restarts as one batch of rows through the kernels;
    # each row must get what the kernel gives that pair alone. The residual
    # and the Laplacian are computed in the same order, row by row, so they
    # agree exactly; the reductions may round differently.
    @settings(max_examples=100, deadline=None)
    @given(inst=batch_instances())
    def test_rows_match_single_pairs(self, inst):
        p, w = inst
        res = residual_of(p, w)
        norm_sq = norm_sq_of(p, w)
        coupling = coupling_integral(p, w)
        lap = laplacian_all(p.graph, w[:, 0])
        for i in range(len(w)):
            row = w[i]
            one = residual_of(p, row)
            np.testing.assert_array_equal(res[i, 0], one[0])
            np.testing.assert_array_equal(res[i, 1], one[1])
            np.testing.assert_array_equal(lap[i], laplacian_all(p.graph, row[0]))
            assert norm_sq[i] == pytest.approx(norm_sq_of(p, row), rel=1e-14, abs=0.0)
            assert coupling[i] == pytest.approx(coupling_integral(p, row), rel=1e-14, abs=0.0)

    def test_single_pair_results_are_floats(self):
        p = random_problem(np.random.default_rng(5))
        w = np.random.default_rng(6).uniform(0.5, 1.5, size=(2, p.graph.vertex_count))
        for value in (norm_sq_of(p, w), coupling_integral(p, w), energy_of(p, w),
                      nehari_scale(p, w)):
            assert type(value) is float

    def test_nehari_scale_marks_degenerate_rows(self):
        # A batch row without a projection gets nan, as a single pair does;
        # the other rows get the scale they get alone.
        p = random_problem(np.random.default_rng(7))
        n = p.graph.vertex_count
        u = np.random.default_rng(8).uniform(0.5, 1.5, size=(3, n))
        v = u.copy()
        v[1] = 0.0
        t = nehari_scale(p, np.stack((u, v), axis=1))
        assert np.isnan(t[1])
        for i in (0, 2):
            assert t[i] == pytest.approx(nehari_scale(p, np.array((u[i], v[i]))), rel=1e-14)

    def test_batch_sizes_in_any_order(self):
        # The graph keeps the row-offset edge ids of the largest batch seen;
        # a smaller batch asked for later must still get ids of its own size.
        g = random_problem(np.random.default_rng(9)).graph
        rng = np.random.default_rng(10)
        for k in (3, 1, 6, 2):
            u = rng.normal(size=(k, g.vertex_count))
            lap = laplacian_all(g, u)
            for i in range(k):
                np.testing.assert_array_equal(lap[i], laplacian_all(g, u[i]))
