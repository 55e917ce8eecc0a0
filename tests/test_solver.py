import logging
import math
import tracemalloc

import numpy as np
import pytest

from graphwell import (
    DirichletProblem,
    LambdaProblem,
    PairFunction,
    PotentialField,
    SolverConfig,
    WeightedGraph,
    solve_dirichlet,
    solve_ground_state,
    solver,
)
from tests.conftest import make_problem


def k1_problem():
    return make_problem(n=1, edges=[], mu=[1.0], a=[0.0], b=[0.0],
                        lam=1.0, alpha=2.0, beta=2.0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.grad_tol == 1e-9
        assert cfg.restarts == 8

    @pytest.mark.parametrize("kwargs", [
        dict(grad_tol=0.0),
        dict(grad_tol=-1e-9),
        dict(restarts=0),
        dict(rng_seed=-1),
        dict(grad_tol=float("nan")),
        dict(grad_tol=float("inf")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestGroundStates:
    def test_single_vertex(self):
        out = solve_ground_state(k1_problem())
        assert out.converged
        s = math.sqrt(2.0)
        assert out.pair.u[0] == pytest.approx(s, rel=1e-9)
        assert out.pair.v[0] == pytest.approx(s, rel=1e-9)
        assert out.energy == pytest.approx(1.0, rel=1e-10)
        assert out.residual_norm <= 1e-9

    def test_two_vertex_symmetric(self):
        # free system on K2: the constant pair u = v = sqrt(2) wins against
        # the concentrated competitor (energy 2 versus 6.25). Constants are
        # ground states for any edge weight; 1.5 keeps the Hessian at the
        # minimizer nondegenerate, so pointwise accuracy tracks the residual.
        p = make_problem(n=2, edges=[(0, 1, 1.5)], mu=[1.0, 1.0],
                         a=[0.0, 0.0], b=[0.0, 0.0], lam=1.0, alpha=2.0, beta=2.0)
        out = solve_ground_state(p)
        assert out.converged
        s = math.sqrt(2.0)
        assert np.allclose(out.pair.u, s, rtol=1e-8)
        assert np.allclose(out.pair.v, s, rtol=1e-8)
        assert out.energy == pytest.approx(2.0, rel=1e-10)

    def test_two_vertex_flat_valley(self):
        # unit weight puts the antisymmetric perturbation exactly in the
        # kernel of the Hessian at the minimizer (the energy is quartic along
        # it), so the residual certificate only pins the point to within
        # (grad_tol)^(1/3) of sqrt(2). The energy level is still sharp.
        p = make_problem(n=2, edges=[(0, 1, 1.0)], mu=[1.0, 1.0],
                         a=[0.0, 0.0], b=[0.0, 0.0], lam=1.0, alpha=2.0, beta=2.0)
        out = solve_ground_state(p)
        assert out.converged
        s = math.sqrt(2.0)
        assert np.allclose(out.pair.u, s, atol=1e-3)
        assert np.allclose(out.pair.v, s, atol=1e-3)
        assert np.allclose(out.pair.u, out.pair.v, atol=1e-8)
        assert out.energy == pytest.approx(2.0, rel=1e-10)

    def test_flavor_type_checked(self):
        p = k1_problem()
        d = DirichletProblem(p.graph, frozenset({0}), frozenset({0}),
                             alpha=2.0, beta=2.0)
        with pytest.raises(TypeError):
            solve_ground_state(d)
        with pytest.raises(TypeError):
            solve_dirichlet(p)

    def test_converged_certificate(self, corpus_problems):
        for name, p, _spec in corpus_problems:
            out = solve_ground_state(p)
            assert out.converged, name
            assert out.residual_norm <= 1e-9, name
            assert abs(out.nehari.defect) <= 1e-10 * out.nehari.norm_sq, name
            assert out.nehari.nontrivial, name

    def test_monotone_energy_no_warning(self, caplog):
        p = make_problem(n=2, edges=[(0, 1, 1.7)], mu=[1.0, 2.0],
                         a=[0.0, 0.8], b=[0.0, 0.0], lam=2.0, alpha=2.2, beta=2.8)
        with caplog.at_level(logging.WARNING, logger="graphwell.solver"):
            out = solve_ground_state(p)
        assert out.converged
        assert not [r for r in caplog.records if "energy increased" in r.message]


class TestScale:
    def test_ten_thousand_vertex_grid_without_dense_memory(self):
        # 100x100 4-neighbour grid, weights and measure in [0.5, 2]; the
        # a-well is the left 60 % of the columns, the b-well the right 60 %.
        # A dense Jacobian of the 2*10^4 unknowns alone would take 3.2 GB.
        side = 100
        rng = np.random.default_rng(2)
        idx = np.arange(side * side).reshape(side, side)
        pairs = np.concatenate([
            np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
            np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)])
        weights = rng.uniform(0.5, 2.0, len(pairs))
        edges = [(int(i), int(j), float(w)) for (i, j), w in zip(pairs, weights)]
        g = WeightedGraph(side * side, edges, measure=rng.uniform(0.5, 2.0, side * side))
        cols = idx.ravel() % side
        width = int(0.6 * side)
        pots = PotentialField(np.where(cols < width, 0.0, 1.0),
                              np.where(cols >= side - width, 0.0, 1.0))
        p = LambdaProblem(g, pots, lam=100.0, alpha=2.0, beta=2.0)
        tracemalloc.start()
        try:
            out = solve_ground_state(p, SolverConfig(restarts=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.converged
        assert peak < 64 * 2**20


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        p = make_problem(n=3, edges=[(0, 1, 1.0), (1, 2, 2.0)], mu=[1.0, 0.5, 2.0],
                         a=[0.0, 0.0, 1.2], b=[0.5, 0.0, 0.0],
                         lam=1.5, alpha=2.0, beta=2.0)
        cfg = SolverConfig(rng_seed=42)
        r1 = solve_ground_state(p, cfg)
        r2 = solve_ground_state(p, cfg)
        assert np.array_equal(r1.pair.u, r2.pair.u)
        assert np.array_equal(r1.pair.v, r2.pair.v)
        assert r1.energy == r2.energy
        assert r1.residual_norm == r2.residual_norm
        assert r1.iterations == r2.iterations
        assert r1.restart_index == r2.restart_index

    def test_seed_changes_schedule_not_answer(self):
        p = k1_problem()
        r1 = solve_ground_state(p, SolverConfig(rng_seed=1))
        r2 = solve_ground_state(p, SolverConfig(rng_seed=2))
        assert r1.energy == pytest.approx(r2.energy, rel=1e-10)


class TestWarmStarts:
    def test_warm_start_wins_tie(self):
        p = k1_problem()
        cold = solve_ground_state(p)
        warm = solve_ground_state(p, warm_starts=[cold.pair])
        assert warm.converged
        assert warm.restart_index == -1
        assert warm.energy == pytest.approx(cold.energy, rel=1e-12)

    def test_degenerate_warm_start_skipped(self):
        p = k1_problem()
        zero = PairFunction(np.zeros(1), np.zeros(1))
        out = solve_ground_state(p, warm_starts=[zero])
        assert out.converged
        assert out.restart_index >= 0


class TestDirichlet:
    def test_isolated_well(self):
        # single-vertex graph: no gradient part, ground state u = v = sqrt(2)
        g = WeightedGraph(1, [])
        d = DirichletProblem(g, frozenset({0}), frozenset({0}), alpha=2.0, beta=2.0)
        out = solve_dirichlet(d)
        assert out.converged
        assert out.pair.u[0] == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert out.energy == pytest.approx(1.0, rel=1e-10)

    def test_well_with_boundary(self):
        # one interior vertex against one boundary vertex: the pinned edge
        # doubles the mass coefficient, pushing the amplitude up to 2
        g = WeightedGraph(2, [(0, 1, 1.0)])
        d = DirichletProblem(g, frozenset({0}), frozenset({0}), alpha=2.0, beta=2.0)
        out = solve_dirichlet(d)
        assert out.converged
        assert out.pair.u[0] == pytest.approx(2.0, rel=1e-9)
        assert out.pair.v[0] == pytest.approx(2.0, rel=1e-9)
        assert out.pair.u[1] == 0.0 and out.pair.v[1] == 0.0
        assert out.energy == pytest.approx(4.0, rel=1e-10)

    def test_loose_tolerance_stops_descent_without_polish(self, g22, g22_dirichlet, monkeypatch):
        # grad_tol = 1e-2 lies above the Newton hand-off threshold
        # (1e-4 * ||w|| is about 1.2e-3 here), so the one stop rule ends
        # descent at the tolerance itself and the polish never runs.
        def no_polish(*_args):
            raise AssertionError("polish ran below the tolerance")

        monkeypatch.setattr(solver, "_newton_polish", no_polish)
        _graph, _pots, d = g22
        out = solve_dirichlet(d, SolverConfig(grad_tol=1e-2))
        assert out.converged
        assert out.residual_norm <= 1e-2
        ref = g22_dirichlet.energy
        assert out.energy >= ref * (1 - 1e-12)
        assert out.energy == pytest.approx(ref, rel=1e-4)

    def test_result_always_admissible(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        d = DirichletProblem(g, frozenset({1}), frozenset({1, 2}), alpha=2.0, beta=2.0)
        out = solve_dirichlet(d)
        assert out.converged
        assert not out.pair.u[[0, 2, 3]].any()
        assert not out.pair.v[[0, 3]].any()

