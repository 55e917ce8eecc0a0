import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphwell import (
    DegeneratePairError,
    DirichletProblem,
    LambdaProblem,
    PairFunction,
    PotentialField,
    SolverConfig,
    WeightedGraph,
    functional,
    lambda_sweep,
    solve_dirichlet,
    solve_ground_state,
    solver,
)
from graphwell.calculus import edge_laplacian
from graphwell.functional import hessian_operator, nehari_diagnostics, nehari_scale, residual_of
from tests.conftest import load_soak, load_workloads, make_problem, random_connected_graph


def k1_problem():
    return make_problem(n=1, edges=[], mu=[1.0], a=[0.0], b=[0.0],
                        lam=1.0, alpha=2.0, beta=2.0)


def two_wells(rng, n):
    """Each vertex in each well with probability 1/2; the wells share a vertex."""
    a = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 3.0, n))
    b = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 3.0, n))
    c = rng.integers(0, n)
    a[c] = b[c] = 0.0
    return PotentialField(a, b)


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
        dict(restarts=2.5),
        dict(rng_seed=1.5),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(restarts=np.int64(2), rng_seed=np.int64(5))
        assert solve_ground_state(k1_problem(), cfg).converged


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

    def test_descent_never_raises_the_energy(self, monkeypatch):
        # Stop one restart after k = 0, 1, 2, ... descent steps, with the
        # polish switched off: the projected energy must never go up along the
        # descent path. With alpha, beta < 2 this instance descends for 40
        # steps before the hand-off threshold, and full steps without the
        # Armijo test would raise the energy from step 12 on.
        p = make_problem(n=3, edges=[(0, 1, 1.0), (1, 2, 2.0)], mu=[1.0, 0.5, 2.0],
                         a=[0.0, 0.0, 1.2], b=[0.5, 0.0, 0.0], lam=1.5, alpha=1.2, beta=1.3)
        monkeypatch.setattr(solver, "_newton_polish", lambda p, w, tol: w)
        energies = []
        for k in range(41):
            monkeypatch.setattr(solver, "_MAX_ITERS", k)
            energies.append(solve_ground_state(p, SolverConfig(restarts=1)).energy)
        steps = np.diff(energies)
        assert np.all(steps <= 0.0)
        assert np.count_nonzero(steps < 0.0) >= 20

    def test_line_search_underflow_stops_the_restart(self, monkeypatch, caplog):
        # With an absurd sufficient-decrease constant every Armijo trial
        # fails, so the step halves down to _STEP_UNDERFLOW in the first line
        # search. Every restart stops at its first loop head, with one debug
        # line each, and all of them reach the one polish batch, which
        # certifies them.
        calls = []
        polish = solver._newton_polish

        def spy(p, w, grad_tol):
            calls.append(len(w))
            return polish(p, w, grad_tol)

        monkeypatch.setattr(solver, "_ARMIJO_C", 1e300)
        monkeypatch.setattr(solver, "_newton_polish", spy)
        with caplog.at_level("DEBUG", logger=solver.__name__):
            out = solve_ground_state(k1_problem(), SolverConfig(restarts=3))
        lines = [r.getMessage() for r in caplog.records if "underflow" in r.getMessage()]
        assert lines == [f"restart {i}: line search underflow at iteration 1" for i in range(3)]
        assert out.iterations == 1
        assert calls == [3]
        assert out.converged
        assert out.energy == pytest.approx(1.0, rel=1e-12)

    def test_slow_descent_tail_hands_over_to_newton(self, monkeypatch):
        # Restart 0 wins, but once it is in the ground state's basin its
        # descent shrinks the residual by only a factor 0.998 per step: left
        # to reach the residual switch, it runs about 6000 iterations. The
        # stall test stops it instead; the rows that stall and the rows that
        # reach the switch are all polished in one batch, after the loop.
        rng = np.random.default_rng(1024)
        g = random_connected_graph(rng, 3, 30)
        pots = two_wells(rng, g.vertex_count)
        alpha, beta = rng.uniform(1.2, 4.0, 2)
        lam = 10.0 ** rng.uniform(-2.0, 9.0)
        calls = []
        polish = solver._newton_polish

        def spy(p, w, grad_tol):
            calls.append(len(w))
            return polish(p, w, grad_tol)

        monkeypatch.setattr(solver, "_newton_polish", spy)
        out = solve_ground_state(LambdaProblem(g, pots, lam, alpha, beta))
        assert calls == [8]
        assert out.converged
        assert out.restart_index == 0
        assert out.energy == pytest.approx(4.42876079711885, rel=1e-12)
        assert out.iterations <= 200

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(1.2, 4.0),
           beta=st.floats(1.2, 4.0), log_lam=st.floats(-2.0, 9.0))
    # All 8 restarts of this draw cross a saddle plateau near iteration 150,
    # where the residual grows over a progress window; a stall rule that took
    # growth for a stall stopped them all there, unconverged.
    @example(seed=63039, alpha=3.59375, beta=2.0625, log_lam=-1.25)
    # In these two draws the stall rule stops every restart in a basin where
    # the polish then stagnates at a near-singular Hessian, unconverged; the
    # restarts descend again without the stall rule and converge, to
    # 2797.6032 and 872.7901.
    @example(seed=1757922365, alpha=1.201171875, beta=1.201171875, log_lam=0.0)
    @example(seed=1472039327, alpha=1.21935, beta=1.27486, log_lam=0.0)
    def test_converges_within_iteration_budget(self, seed, alpha, beta, log_lam):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 3, 30)
        p = LambdaProblem(g, two_wells(rng, g.vertex_count), 10.0 ** log_lam, alpha, beta)
        out = solve_ground_state(p)
        assert out.converged
        assert out.iterations <= solver._MAX_ITERS

    def test_exponents_near_one_converge_at_rounding_level(self):
        # With alpha, beta in (1.01, 1.1) the ground states grow to ||w||_H of
        # 1e6 .. 1e22, and the residual stalls at rounding level relative to
        # ||w||_H, far above grad_tol = 1e-9. Against grad_tol alone, 17 of
        # these 40 draws end unconverged; the target is floored at 64 eps ||w||_H.
        eps = np.finfo(np.float64).eps
        for seed in range(40):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, 3, 30)
            pots = two_wells(rng, g.vertex_count)
            alpha, beta = rng.uniform(1.01, 1.1, 2)
            lam = 10.0 ** rng.uniform(-2.0, 9.0)
            out = solve_ground_state(LambdaProblem(g, pots, lam, alpha, beta))
            assert out.converged, seed
            assert out.residual_norm <= max(1e-9, 64 * eps * math.sqrt(out.nehari.norm_sq)), seed

    # Draws of scripts/soak.py (meta-seed 1) whose answers only the termwise
    # rounding floor certifies: exponents near 1, energies 2e7 .. 1.4e59.
    @pytest.mark.parametrize("index", [201, 523, 605, 831, 1571, 2341])
    def test_termwise_rounding_floor_certifies_rounding_level_answers(self, index):
        eps = np.finfo(np.float64).eps
        p = load_soak().draw(1, index)
        out = solve_ground_state(p)
        w = np.array(out.pair)[None]

        def certificate(w):
            rnorm = solver._residual_norm(p, residual_of(p, w))[0]
            norm_sq = functional.norm_sq_of(p, w)
            return rnorm, solver._tolerance(p, 1e-9, w, norm_sq)[0], math.sqrt(norm_sq[0])

        rnorm, tol, norm = certificate(w)
        assert out.converged and rnorm == out.residual_norm
        # Above grad_tol and the 64 eps ||w||_H floor, within 8 eps ||m||_mu.
        assert max(1e-9, 64 * eps * norm) < rnorm <= tol
        # The floor still rejects a u off by one part in a million.
        w[:, 0] *= 1.0 + 1e-6
        rnorm, tol, _norm = certificate(w)
        assert rnorm > tol

    def test_newton_never_lands_on_a_higher_critical_point(self, monkeypatch):
        # Both wells are the ends of the path 0 - 1 - 2. At lambda = 100 each
        # end carries a critical point of its own, and the one on vertex 2
        # (the larger measure) lies above the one on vertex 0. A polish from
        # vertex 0's basin that jumps to vertex 2's critical point lowers the
        # residual but raises the energy, so the restart must not adopt it.
        p = make_problem(n=3, edges=[(0, 1, 1.0), (1, 2, 1.0)], mu=[1.0, 1.0, 2.0],
                         a=[0.0, 1.0, 0.0], b=[0.0, 1.0, 0.0], lam=100.0, alpha=2.0, beta=2.0)
        cfg = SolverConfig()

        def restart_at(vertex):
            x = np.eye(3)[vertex]
            [out] = solver._run_descent(p, cfg, np.array((x, x))[None], [0])
            return out

        low, high = restart_at(0), restart_at(2)
        assert low.converged and high.converged
        assert high.energy > low.energy + 0.1
        monkeypatch.setattr(solver, "_newton_polish", lambda p, w, tol: w)
        descent = restart_at(0)
        monkeypatch.setattr(solver, "_newton_polish",
                            lambda p, w, tol: np.array(high.pair)[None])
        out = restart_at(0)
        assert out.energy == pytest.approx(descent.energy, rel=1e-12)
        assert out.energy < high.energy

    def test_energy_guard_compares_energy_of_with_energy_of(self):
        # Exponents near 1 (gamma = 2.21, energies near 5.3e6): a manifold
        # formula for the energy of a point, such as the ray maximum, can lie
        # 3e-14 relative below energy_of of the same point, far beyond the
        # guard's 4 eps slack. Against such a baseline the guard rejected
        # restart 6's polish, which lowers
        # energy_of and meets the tolerance. Both sides of the guard take
        # energy_of's arithmetic on the kernels' norms and couplings, so every
        # restart of this solve converges.
        rng = np.random.default_rng([11, 190])
        g = random_connected_graph(rng, 3, 30)
        pots = two_wells(rng, g.vertex_count)
        alpha, beta = rng.uniform(1.01, 1.1, 2)
        d = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha, beta)
        rows = solver._run_descent(d, SolverConfig(), np.array(cold_starts(d, 8)), range(8))
        assert [r.converged for r in rows] == [True] * 8

    @pytest.mark.parametrize("draw", [180, 919])
    def test_energy_guard_allows_the_rounding_of_the_energy_terms(self, draw):
        # E = N/2 - C/gamma cancels, so re-projecting a polished point moves E
        # by about eps (N/2 + C/gamma), already 3.5 eps |E| at gamma = 3.6.
        # Draws 180 (n = 58, gamma = 2.97) and 919 (Dirichlet, n = 28,
        # gamma = 3.58) of meta-seed 1 of scripts/soak.py each have a restart
        # whose polish meets its target but raises E by more than
        # 4 eps max(1, |E|); a slack of 4 eps max(1, N/2 + C/gamma) keeps it.
        p = load_soak().draw(1, draw)
        with np.errstate(all="ignore"):
            rows = solver._run_descent(p, SolverConfig(), np.array(cold_starts(p, 8)), range(8))
        assert all(r.converged for r in rows)


def cold_starts(p, count, seed=0):
    return [solver._initial_pair(p, np.random.default_rng([seed, i])) for i in range(count)]


def assert_same_result(row, alone):
    """row and alone carry the same bits: index, flag, iterations, energy, pair."""
    assert row.restart_index == alone.restart_index
    assert row.converged == alone.converged
    assert row.iterations == alone.iterations
    assert row.energy == alone.energy
    assert np.array_equal(row.pair, alone.pair)


class TestLockstep:
    # _run_descent runs every start of a solve as one batch; every vertex sum
    # is taken per row, so a row's result has the same bits as its start
    # solved alone, whatever else is in the batch.
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(1.2, 4.0),
           beta=st.floats(1.2, 4.0), log_lam=st.floats(-2.0, 9.0), dirichlet=st.booleans())
    # Restarts 3 and 6 of this draw stall unconverged; a batch summed in
    # blocks of rows moves their energies by 1e-9 relative.
    @example(seed=150, alpha=1.25, beta=1.21875, log_lam=0.0, dirichlet=False)
    def test_rows_match_batches_of_one(self, seed, alpha, beta, log_lam, dirichlet):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 3, 30)
        pots = two_wells(rng, g.vertex_count)
        if dirichlet:
            p = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha, beta)
        else:
            p = LambdaProblem(g, pots, 10.0 ** log_lam, alpha, beta)
        cfg = SolverConfig()
        starts = cold_starts(p, 8)
        batch = solver._run_descent(p, cfg, np.array(starts), range(8))
        for i, start in enumerate(starts):
            [alone] = solver._run_descent(p, cfg, np.array([start]), [i])
            assert alone.restart_index == i
            assert_same_result(batch[i], alone)

    def test_rows_past_the_exact_metric_switch_match_batches_of_one(self, g22):
        # The cold restarts of G22 at lambda = 1e4 are still descending at the
        # switch head, so they finish in the exact H metric.
        graph, pots, _d = g22
        p = LambdaProblem(graph, pots, 1e4, 2.0, 2.0)
        cfg = SolverConfig()
        starts = cold_starts(p, 8)
        batch = solver._run_descent(p, cfg, np.array(starts), range(8))
        assert sum(r.iterations > solver._EXACT_METRIC_HEAD for r in batch) > 1
        for i, start in enumerate(starts):
            [alone] = solver._run_descent(p, cfg, np.array([start]), [i])
            assert_same_result(batch[i], alone)

    def test_rows_that_leave_early_do_not_disturb_the_rest(self, g22):
        # A zero warm start has no Nehari projection and never enters the
        # batch, so its result is None; a converged warm start leaves at the
        # first loop head.
        graph, pots, _d = g22
        p = LambdaProblem(graph, pots, 100.0, 2.0, 2.0)
        cfg = SolverConfig()
        ground = solve_ground_state(p).pair
        zero = PairFunction(np.zeros(graph.vertex_count), np.zeros(graph.vertex_count))
        cold = cold_starts(p, 8)
        alone = solver._run_descent(p, cfg, np.array(cold), range(8))
        mixed = solver._run_descent(p, cfg, np.array([zero, ground, *cold]), range(-2, 8))
        assert mixed[0] is None
        assert [m.restart_index for m in mixed[1:]] == list(range(-1, 8))
        assert mixed[1].converged and mixed[1].iterations == 1
        for a, m in zip(alone, mixed[2:], strict=True):
            assert_same_result(m, a)

    def test_every_batch_carries_one_coef_row_per_row(self, g22, monkeypatch):
        # From _run_descent's entry on, a batch's problem has coef (k, 2, n),
        # one row per row of the batch, whether its rows share one problem or
        # come from a sweep's several. A's inverse is built for the rows still
        # descending at the switch head: those that the same pass hands to
        # _finish with more than _EXACT_METRIC_HEAD iterations.
        graph, pots, d = g22
        n = graph.vertex_count
        shapes, pending, checked = [], [], []
        finish, polish, inverse = solver._finish, solver._newton_polish, solver._linear_inverse

        def finish_spy(p, cfg, w, iters, index):
            shapes.append((p.coef.shape, (len(w), 2, n)))
            if pending:
                checked.append((pending.pop(), int((iters > solver._EXACT_METRIC_HEAD).sum())))
            return finish(p, cfg, w, iters, index)

        def polish_spy(p, w, grad_tol):
            shapes.append((p.coef.shape, (len(w), 2, n)))
            return polish(p, w, grad_tol)

        def inverse_spy(p):
            assert not pending
            pending.append(len(p.coef))
            shapes.append((p.coef.shape, (len(p.coef), 2, n)))
            return inverse(p)

        monkeypatch.setattr(solver, "_finish", finish_spy)
        monkeypatch.setattr(solver, "_newton_polish", polish_spy)
        monkeypatch.setattr(solver, "_linear_inverse", inverse_spy)
        for run in (lambda: solve_ground_state(LambdaProblem(graph, pots, 1e4, 2.0, 2.0)),
                    lambda: solve_dirichlet(d), lambda: lambda_sweep(pots, d)):
            shapes.clear()
            checked.clear()
            run()
            assert shapes and all(got == want for got, want in shapes)
            assert checked and all(built == rows for built, rows in checked)

    def test_a_rejected_polish_leaves_the_other_rows_alone(self, monkeypatch):
        # The path instance of test_newton_never_lands_on_a_higher_critical_point:
        # every polish is made to return the higher critical point on vertex 2.
        # The energy guard rejects it for the row started at vertex 0 and keeps
        # that row's descent point; each row must still get what it gets alone.
        p = make_problem(n=3, edges=[(0, 1, 1.0), (1, 2, 1.0)], mu=[1.0, 1.0, 2.0],
                         a=[0.0, 1.0, 0.0], b=[0.0, 1.0, 0.0], lam=100.0, alpha=2.0, beta=2.0)
        cfg = SolverConfig()
        starts = np.array([(x, x) for x in np.eye(3)[[0, 2]]])
        [high] = solver._run_descent(p, cfg, starts[1:], [1])
        monkeypatch.setattr(solver, "_newton_polish", lambda p, w, tol:
                            np.repeat(np.array(high.pair)[None], len(w), axis=0))
        both = solver._run_descent(p, cfg, starts, [0, 1])
        assert both[0].energy < high.energy - 0.1
        for i, row in enumerate(both):
            [alone] = solver._run_descent(p, cfg, starts[i:i + 1], [i])
            assert alone.restart_index == i
            assert_same_result(row, alone)

    def test_one_polish_per_solve(self, g22, monkeypatch):
        # The restarts that leave the descent above their tolerance, by any
        # stop rule, are polished together, in one call, after the loop. No
        # row of this solve stalls; test_slow_descent_tail_hands_over_to_newton
        # covers rows that do.
        _graph, _pots, d = g22
        cfg = SolverConfig(restarts=8)
        calls = []
        polish = solver._newton_polish

        def spy(p, w, grad_tol):
            rnorm = solver._residual_norm(p, residual_of(p, w))
            calls.append((len(w), rnorm, np.array(grad_tol)))
            return polish(p, w, grad_tol)

        monkeypatch.setattr(solver, "_newton_polish", spy)
        out = solve_dirichlet(d, cfg)
        [(m, rnorm, tol)] = calls
        assert m > 1
        assert np.all(rnorm > tol)
        # Without a polish, exactly these m restarts end above the tolerance.
        monkeypatch.setattr(solver, "_newton_polish", lambda p, w, tol: w)
        bare = solver._run_descent(d, cfg, np.array(cold_starts(d, 8)), range(8))
        assert m == sum(r.residual_norm > cfg.grad_tol for r in bare)
        # The CLI formats these as Python floats.
        assert type(out.energy) is float
        assert type(out.residual_norm) is float

    @pytest.mark.parametrize("lam", [1e4, None])
    def test_polished_rows_match_batches_of_one(self, g22, monkeypatch, lam):
        # The rows that leave G22's descent above their tolerance, at
        # lambda = 1e4 and in the Dirichlet problem, are polished by dense
        # Newton steps; each row, with its own row of coef, must get what it
        # gets polished alone.
        graph, pots, d = g22
        p = d if lam is None else LambdaProblem(graph, pots, lam, 2.0, 2.0)
        handed = []
        polish = solver._newton_polish

        def spy(p, w, grad_tol):
            handed.append((w, grad_tol))
            return polish(p, w, grad_tol)

        monkeypatch.setattr(solver, "_newton_polish", spy)
        solver._run_descent(p, SolverConfig(), np.array(cold_starts(p, 8)), range(8))
        [(w, tol)] = handed
        assert len(w) > 1

        def no_minres(*_args):
            raise AssertionError("a small graph's Newton step went to MINRES")

        monkeypatch.setattr(solver, "_minres", no_minres)
        q = solver._with_coef(p, np.broadcast_to(p.coef, w.shape))
        batch = polish(q, w, tol)
        assert not np.array_equal(batch, w)
        for i in range(len(w)):
            alone = polish(solver._take(q, [i]), w[i:i + 1], tol[i:i + 1])
            np.testing.assert_array_equal(batch[i], alone[0])


class TestExactMetric:
    # From loop head _EXACT_METRIC_HEAD on, a small graph's descent takes the
    # H-gradient A^-1 (mu res), with A = diag(wdeg) - W + diag(mu coef).
    @pytest.mark.parametrize("lam", [1e-2, 1e9, None])
    def test_linear_inverse_inverts_the_h_operator(self, g22, lam):
        # A batch of three rows of one problem gets one inverse per row.
        graph, pots, d = g22
        p = d if lam is None else LambdaProblem(graph, pots, lam, 2.0, 2.0)
        shape = (3, *p.mask.shape)
        q = solver._with_coef(p, np.broadcast_to(p.coef, shape))
        x = np.where(p.mask, np.random.default_rng(5).uniform(-1.0, 1.0, shape), 0.0)
        ax = graph.mu * p.coef * x - edge_laplacian(graph, x)
        inverse = solver._linear_inverse(q)
        assert inverse.shape == (*shape, graph.vertex_count)
        back = np.vecdot(inverse, ax[..., None, :])
        assert not back[:, ~p.mask].any()
        assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()

    def test_linear_inverse_inverts_runs_of_rows_once_each(self, g22, monkeypatch):
        # Rows of G22 at three lambdas, in runs of 2, 3 and 1, then a run of
        # 2 from a second problem at the last lambda, whose equal coef joins
        # it to the run before: each row gets the inverse of its own A, with
        # the bits of its problem's inverse built alone.
        graph, pots, _d = g22
        problems = [LambdaProblem(graph, pots, lam, 2.0, 2.0) for lam in (1e-2, 1.0, 1e9, 1e9)]
        owner = np.repeat(np.arange(4), [2, 3, 1, 2])
        batch = solver._with_coef(problems[0], np.array([p.coef for p in problems])[owner])
        n = graph.vertex_count
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverted.append(len(m)) or inv(m))
        inverse = solver._linear_inverse(batch)
        monkeypatch.undo()
        assert inverted == [3, 3]       # one batched inversion per component
        assert inverse.shape == (len(owner), 2, n, n)
        for row, j in zip(inverse, owner):
            p = problems[j]
            a = functional.hessian_matrix(p, np.zeros((2, n))).reshape(2, n, 2, n)
            for c, on in enumerate(p.mask):
                block = np.ix_(on, on)
                product = row[c][block] @ a[c, :, c][block]
                assert np.abs(product - np.eye(on.sum())).max() <= 1e-12
            alone = solver._linear_inverse(solver._with_coef(p, p.coef[None]))
            assert np.array_equal(row, alone[0])

    def test_inverse_built_once_and_only_for_small_graphs_still_descending(self, g22,
                                                                           monkeypatch):
        graph, pots, _d = g22
        built, heads = [], []
        inverse, finish = solver._linear_inverse, solver._finish

        def inverse_spy(q):
            built.append((q.graph, q.lam, bool((q.coef == p.coef).all())))
            return inverse(q)

        def finish_spy(p, cfg, w, iters, index):
            heads.append(iters.max())
            return finish(p, cfg, w, iters, index)

        monkeypatch.setattr(solver, "_linear_inverse", inverse_spy)
        monkeypatch.setattr(solver, "_finish", finish_spy)
        p = LambdaProblem(graph, pots, 1e4, 2.0, 2.0)
        solve_ground_state(p)
        once = [(graph, 1e4, True)]
        assert built == once
        # No cold restart of G22 stops before the switch head, so the witnesses
        # are random instances. Restart 0 of the first stops before the
        # switch, in the diagonal metric, alone.
        workloads = load_workloads()
        q = workloads.random_instance(np.random.default_rng([7, 2]))
        solver._run_descent(q, SolverConfig(), np.array(cold_starts(q, 8)[:1]), [0])
        assert 1 < heads[-1] <= solver._EXACT_METRIC_HEAD and built == once
        # Restart 2 of the second alone stops at the switch head itself.
        q = workloads.random_instance(np.random.default_rng([7, 8]))
        solver._run_descent(q, SolverConfig(), np.array(cold_starts(q, 8)[2:3]), [2])
        assert heads[-1] == solver._EXACT_METRIC_HEAD + 1 and built == once
        # Both grids descend past the switch, but have more vertices than the bound.
        grid = workloads.grid_problem(50, 100.0, 2)
        assert grid.graph.vertex_count > solver._EXACT_METRIC_MAX_N
        for restarts in (1, 8):
            solve_ground_state(grid, SolverConfig(restarts=restarts))
            assert heads[-1] > solver._EXACT_METRIC_HEAD
        assert built == once

    def test_g22_builds_the_inverse_once_at_the_switch_head(self, g22, monkeypatch):
        # Each loop head of the descent evaluates the residual once, so the
        # residual evaluations before the build count the heads 0 .. 20.
        graph, pots, _d = g22
        evals, built = [], []
        residual, inverse = solver.residual_of, solver._linear_inverse

        def residual_spy(p, w):
            evals.append(len(w))
            return residual(p, w)

        def inverse_spy(p):
            built.append(len(evals))
            return inverse(p)

        monkeypatch.setattr(solver, "residual_of", residual_spy)
        monkeypatch.setattr(solver, "_linear_inverse", inverse_spy)
        out = solve_ground_state(LambdaProblem(graph, pots, 1e4, 2.0, 2.0))
        assert out.converged and out.iterations > solver._EXACT_METRIC_HEAD
        assert built == [solver._EXACT_METRIC_HEAD + 1]


class TestDirectNewton:
    # On graphs of at most _DIRECT_NEWTON_MAX_N vertices each Newton step
    # assembles the rows' Hessians and solves them in one np.linalg.solve.
    def test_polish_from_points_with_subnormal_entries(self):
        # Draw 674 of meta-seed 1 of scripts/soak.py (alpha, beta near 1.02):
        # every restart leaves the descent at a point with a subnormal entry
        # where the other component's power is 0, and the nan Hessian that
        # inf * 0 made there failed every polish.
        p = load_soak().draw(1, 674)
        with np.errstate(all="ignore"):
            rows = solver._run_descent(p, SolverConfig(), np.array(cold_starts(p, 8)), range(8))
        assert all(r.converged for r in rows)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts the polish's dense solves and MINRES solves."""
        calls = Counter()

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(solver, "_minres", counted("minres", solver._minres))
        return calls

    def test_small_graphs_solve_directly_and_large_graphs_use_minres(self, g22, calls):
        assert solve_dirichlet(g22[2]).converged
        assert calls["solve"] > 0 and calls["minres"] == 0
        calls.clear()
        grid = load_workloads().grid_problem(50, 100.0, 2)
        assert grid.graph.vertex_count > solver._DIRECT_NEWTON_MAX_N
        assert solve_ground_state(grid, SolverConfig(restarts=1)).converged
        assert calls["solve"] == 0 and calls["minres"] > 0

    def test_singular_dense_step_falls_back_to_minres(self, g22, calls, monkeypatch):
        d = g22[2]
        direct = solve_dirichlet(d)
        assert calls["minres"] == 0

        def singular(*_args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        out = solve_dirichlet(d)
        assert calls["minres"] > 0
        assert out.converged
        assert abs(out.energy - direct.energy) <= 1e-12 * abs(direct.energy)

    @pytest.mark.parametrize("seed", range(6))
    def test_graphs_between_the_bounds_descend_exactly_and_polish_by_minres(self, seed, calls,
                                                                            monkeypatch):
        # A graph with _DIRECT_NEWTON_MAX_N < n <= _EXACT_METRIC_MAX_N takes the
        # exact H metric in its descent and MINRES in its polish. Odd seeds pose
        # the Dirichlet problem on the wells.
        inverse = solver._linear_inverse

        def inverse_spy(p):
            calls["inverse"] += 1
            return inverse(p)

        monkeypatch.setattr(solver, "_linear_inverse", inverse_spy)
        rng = np.random.default_rng([seed, 65])
        g = random_connected_graph(rng, solver._DIRECT_NEWTON_MAX_N + 1,
                                   solver._EXACT_METRIC_MAX_N)
        pots = two_wells(rng, g.vertex_count)
        alpha, beta = (float(x) for x in rng.uniform(1.2, 4.0, 2))
        if seed % 2:
            p = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha, beta)
            out = solve_dirichlet(p)
        else:
            p = LambdaProblem(g, pots, 10.0 ** rng.uniform(-2.0, 9.0), alpha, beta)
            out = solve_ground_state(p)
        assert out.converged
        assert calls["inverse"] == 1 and calls["minres"] > 0 and calls["solve"] == 0
        cfg = SolverConfig()
        starts = cold_starts(p, 8)
        batch = solver._run_descent(p, cfg, np.array(starts), range(8))
        for i, start in enumerate(starts):
            [alone] = solver._run_descent(p, cfg, np.array([start]), [i])
            assert_same_result(batch[i], alone)


@pytest.mark.parametrize("flavour", ["dirichlet", "lambda"])
def test_numpy_scalar_parameters_give_python_floats(flavour):
    # Problems store lam, alpha and beta as Python floats, so numpy scalars
    # given for them never leak into the energies they produce.
    g = WeightedGraph(2, [(0, 1, 1.0)])
    alpha, beta = np.float64(2.0), np.float64(2.5)
    if flavour == "dirichlet":
        p = DirichletProblem(g, frozenset({0}), frozenset({0, 1}), alpha, beta)
        out, energy = solve_dirichlet(p), functional.energy_J_Omega(p, ([1.0, 0.0], [1.0, 1.0]))
    else:
        p = LambdaProblem(g, PotentialField([0.0, 1.0], [0.0, 0.0]), np.float64(3.0), alpha, beta)
        out, energy = solve_ground_state(p), functional.energy_J_lambda(p, (np.ones(2), np.ones(2)))
    assert out.converged
    assert type(out.energy) is float
    assert type(out.nehari.energy) is float
    assert type(energy) is float


def g22_problem(g22, flavour):
    graph, pots, d = g22
    return d if flavour == "dirichlet" else LambdaProblem(graph, pots, 100.0, d.alpha, d.beta)


class TestCertificate:
    @pytest.mark.parametrize("flavour", ["dirichlet", "lambda"])
    def test_solve_validates_only_its_warm_starts(self, g22, g22_dirichlet, monkeypatch,
                                                  flavour):
        # Pairs are validated once, where they enter through the public API;
        # the solver's own iterates are never checked or copied again.
        p = g22_problem(g22, flavour)
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[f"{module.__name__}.{name}"] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        count(functional, "as_pair")
        count(functional, "check_admissible")
        count(solver, "as_pair")
        ground = g22_dirichlet.pair
        warm = [ground, PairFunction(0.5 * ground.u, 0.5 * ground.v)]
        solve = solve_dirichlet if flavour == "dirichlet" else solve_ground_state
        out = solve(p, warm_starts=warm)
        assert out.converged
        assert calls == {"graphwell.solver.as_pair": 2}

    def test_finish_evaluates_each_set_of_points_once(self, g22, monkeypatch):
        # The rows that left the descent and the re-projected polish
        # candidates are each evaluated once; nehari_scale makes the third
        # call of each kernel. The energies, the guard and the certificate
        # are computed from those values.
        _graph, _pots, d = g22
        calls, during, polished = Counter(), [], []

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        for module in (solver, functional):
            count(module, "norm_sq_of")
            count(module, "coupling_integral")
        finish, polish = solver._finish, solver._newton_polish

        def finish_spy(*args):
            before = calls.copy()
            out = finish(*args)
            during.append(calls - before)
            return out

        def polish_spy(p, w, grad_tol):
            polished.append(len(w))
            return polish(p, w, grad_tol)

        monkeypatch.setattr(solver, "_finish", finish_spy)
        monkeypatch.setattr(solver, "_newton_polish", polish_spy)
        assert solve_dirichlet(d).converged
        [m] = polished
        assert m > 1
        assert during == [{"norm_sq_of": 3, "coupling_integral": 3}]

    def test_starts_without_a_projection_raise_at_entry(self, g22, monkeypatch):
        # _run_descent gives such starts no result; the solve raises.
        graph, pots, d = g22
        zero = np.zeros((2, 2, d.graph.vertex_count))
        assert solver._run_descent(d, SolverConfig(), zero, [0, 1]) == [None, None]
        monkeypatch.setattr(solver, "_initial_pair", lambda p, rng: np.zeros_like(zero[0]))
        cfg = SolverConfig(restarts=2)
        with pytest.raises(DegeneratePairError, match="no Nehari projection exists"):
            solve_dirichlet(d, cfg)
        with pytest.raises(DegeneratePairError, match="no Nehari projection exists"):
            solve_ground_state(LambdaProblem(graph, pots, 10.0, 2.0, 2.0), cfg,
                               warm_starts=[PairFunction(*zero[0])])

    @pytest.mark.parametrize("flavour", ["dirichlet", "lambda"])
    def test_batched_certificate_matches_nehari_diagnostics(self, g22, flavour):
        p = g22_problem(g22, flavour)
        cfg = SolverConfig()
        eps = np.finfo(np.float64).eps
        rows = solver._run_descent(p, cfg, np.array(cold_starts(p, 8)), range(8))
        assert len(rows) == 8
        for row in rows:
            nd, ref = row.nehari, nehari_diagnostics(p, row.pair)
            assert [type(x) for x in nd] == [float, float, float, float, bool]
            assert type(row.energy) is float and type(row.residual_norm) is float
            for name in ("norm_sq", "coupling", "energy"):
                assert getattr(nd, name) == getattr(ref, name)
            assert nd.nontrivial == ref.nontrivial
            assert row.energy == nd.energy
            tol = max(cfg.grad_tol, 64 * eps * math.sqrt(nd.norm_sq))
            assert row.converged == (row.residual_norm <= tol
                                     and abs(nd.defect) <= math.sqrt(cfg.grad_tol) * nd.norm_sq
                                     and nd.nontrivial)


@st.composite
def polish_systems(draw):
    """k = 1..6 rows of the polish's Newton system H(w) x = -mu r(w) on a
    random connected graph, for either flavour: w are positive pairs on the
    masks, projected onto the Nehari manifold, where H is indefinite (the
    radial direction has negative curvature)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, 3, 30)
    pots = two_wells(rng, g.vertex_count)
    alpha, beta = draw(st.floats(1.2, 4.0)), draw(st.floats(1.2, 4.0))
    if draw(st.booleans()):
        p = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha, beta)
    else:
        p = LambdaProblem(g, pots, 10.0 ** draw(st.floats(-2.0, 9.0)), alpha, beta)
    k = draw(st.integers(1, 6))
    w = np.where(p.mask, rng.uniform(0.3, 2.0, (k, 2, g.vertex_count)), 0.0)
    w = nehari_scale(p, w)[:, None, None] * w
    b = -p.graph.mu * residual_of(p, w)
    minv = np.where(p.mask, 1.0 / (p.graph.mu * solver._diag_of(p)), 0.0)
    return p, w, b, minv


def minres_alone(p, w, b, minv, i):
    """Row i of the system, solved as a batch of one."""
    return solver._minres(hessian_operator(p, w[i:i + 1]), b[i:i + 1], minv)[0]


class TestMinres:
    # The polish solves the Newton systems of all its rows in one lockstep
    # MINRES; each row must get what it gets alone.
    @settings(max_examples=40, deadline=None)
    @given(system=polish_systems())
    def test_rows_match_batches_of_one(self, system):
        p, w, b, minv = system
        x = solver._minres(hessian_operator(p, w), b, minv)
        for i in range(len(b)):
            np.testing.assert_array_equal(x[i], minres_alone(p, w, b, minv, i))

    @settings(max_examples=40, deadline=None)
    @given(system=polish_systems(), zero=st.integers(0, 5))
    def test_zero_right_hand_side_gives_zero_and_leaves_the_rest(self, system, zero):
        p, w, b, minv = system
        zero %= len(b)
        b[zero] = 0.0
        x = solver._minres(hessian_operator(p, w), b, minv)
        assert not x[zero].any()
        for i in range(len(b)):
            if i != zero:
                np.testing.assert_array_equal(x[i], minres_alone(p, w, b, minv, i))

    @settings(max_examples=40, deadline=None)
    @given(system=polish_systems())
    def test_iteration_cap_does_not_grow_with_the_batch(self, system):
        # With a relative tolerance of 0 only the cap, or an exact zero
        # residual, stops a row. The batch runs as long as its slowest row
        # alone, within the cap of one row.
        p, w, b, minv = system
        products = []

        def counted(hess):
            def matvec(d):
                products.append(len(d))
                return hess(d)
            return matvec

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_MINRES_RTOL", 0.0)
            solver._minres(counted(hessian_operator(p, w)), b, minv)
            batch = len(products)
            alone = []
            for i in range(len(b)):
                products.clear()
                solver._minres(counted(hessian_operator(p, w[i:i + 1])), b[i:i + 1], minv)
                alone.append(len(products))
        assert batch <= solver._MINRES_ITERS_PER_UNKNOWN * w[0].size
        assert batch == max(alone)

    def test_zero_right_hand_side_is_silent_outside_the_solver(self, g22):
        # The scalars of a zero right-hand side are 0/0. The solver ignores
        # floating-point warnings, but _minres must not rely on that.
        d = g22[2]
        w = np.array(cold_starts(d, 4))
        w = nehari_scale(d, w)[:, None, None] * w
        b = -d.graph.mu * residual_of(d, w)
        b[1] = 0.0
        minv = np.where(d.mask, 1.0 / (d.graph.mu * solver._diag_of(d)), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solver._minres(hessian_operator(d, w), b, minv)
            alone = {i: minres_alone(d, w, b, minv, i) for i in (0, 2, 3)}
        assert not x[1].any()
        for i, xi in alone.items():
            np.testing.assert_array_equal(x[i], xi)


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

    def test_iteration_budget_hands_its_point_to_the_polish(self, g22, monkeypatch):
        # The budget is tested at the loop head: after _MAX_ITERS descent
        # steps the restart leaves at its _MAX_ITERS + 1st loop head, and the
        # point it leaves with is the one the polish starts from.
        finished, polished = [], []
        finish, polish = solver._finish, solver._newton_polish

        def finish_spy(p, cfg, w, iters, index):
            finished.append((w.copy(), iters.copy()))
            return finish(p, cfg, w, iters, index)

        def polish_spy(p, w, grad_tol):
            polished.append(w.copy())
            return polish(p, w, grad_tol)

        monkeypatch.setattr(solver, "_MAX_ITERS", 3)
        monkeypatch.setattr(solver, "_finish", finish_spy)
        monkeypatch.setattr(solver, "_newton_polish", polish_spy)
        _graph, _pots, d = g22
        out = solve_dirichlet(d, SolverConfig(restarts=1))
        assert out.iterations == 4
        [(left, iters)] = finished
        assert iters.tolist() == [4]
        [start] = polished
        np.testing.assert_array_equal(start, left)

    def test_result_always_admissible(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        d = DirichletProblem(g, frozenset({1}), frozenset({1, 2}), alpha=2.0, beta=2.0)
        out = solve_dirichlet(d)
        assert out.converged
        assert not out.pair.u[[0, 2, 3]].any()
        assert not out.pair.v[[0, 3]].any()

