import importlib.util
import math
import shutil
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import graphwell
from graphwell import (
    BoundaryMismatchError,
    DirichletProblem,
    GraphValidationError,
    LambdaProblem,
    PairFunction,
    PotentialField,
    SolverConfig,
    SweepConfig,
    UnknownLabelError,
    WeightedGraph,
    aligned_h_distance,
    boundary,
    compare_reference,
    decade_grid,
    g22_reference_values,
    lambda_sweep,
    grad_J_Omega,
    nehari_diagnostics,
    norm_H_sq,
    parse_problem,
    solve_dirichlet,
    solve_ground_state,
)
from graphwell import experiments, solver
from graphwell.errors import DegeneratePairError, EnergyOverflowError
from graphwell.experiments import (
    G22_BOUNDARY_A,
    G22_BOUNDARY_B,
    G22_MIRROR,
    G22_WELL_A,
    G22_WELL_B,
    TABLE1_REFERENCE,
    _g22_instance,
)
from tests.conftest import load_workloads

G22_TEXT = resources.files("graphwell").joinpath("data/g22.graph").read_text(encoding="utf-8")


def small_family(alpha=2.0, beta=2.0):
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)], measure=[1.0, 0.5, 2.0])
    pots = PotentialField([0.0, 0.0, 1.2], [0.5, 0.0, 0.0])
    d = DirichletProblem(g, pots.omega_a, pots.omega_b, alpha=alpha, beta=beta)
    return pots, d


class TestBuild:
    def test_structure(self, g22):
        g, pots, d = g22
        assert g.vertex_count == 22
        assert g.edge_count == 56
        assert g.labels == tuple(f"x{i}" for i in range(1, 23))
        assert np.all(g.mu == 1.0)
        assert {g.label_of(x) for x in pots.omega_a} == G22_WELL_A
        assert {g.label_of(x) for x in pots.omega_b} == G22_WELL_B
        assert {g.label_of(x) for x in d.overlap} == {f"x{i}" for i in range(1, 7)}
        assert {g.label_of(x) for x in boundary(g, d.omega_a)} == G22_BOUNDARY_A
        assert {g.label_of(x) for x in boundary(g, d.omega_b)} == G22_BOUNDARY_B

    def test_mirror_is_automorphism(self, g22):
        g, _pots, _d = g22
        edges = [(g.label_of(int(i)), g.label_of(int(j))) for i, j in zip(g.edge_i, g.edge_j)]
        canon = {frozenset(e) for e in edges}
        assert {frozenset((G22_MIRROR[a], G22_MIRROR[b])) for a, b in edges} == canon
        assert {G22_MIRROR[s] for s in G22_WELL_A} == G22_WELL_B
        assert {G22_MIRROR[s] for s in G22_BOUNDARY_A} == G22_BOUNDARY_B
        # involution
        assert all(G22_MIRROR[G22_MIRROR[s]] == s for s in g.labels)

    def test_package_data_found_under_a_second_package_name(self, g22, tmp_path):
        # Two source trees load side by side in one process only under two
        # package names, so each must read the data files of its own tree. The
        # copy's reference CSV lacks its last vertex, so reading the installed
        # tree's CSV instead shows.
        root = tmp_path / "graphwell_second"
        shutil.copytree(Path(graphwell.__file__).parent, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        csv_path = root / "data" / "g22_dirichlet_reference.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-1]), encoding="utf-8")
        spec = importlib.util.spec_from_file_location(
            root.name, root / "__init__.py", submodule_search_locations=[str(root)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            g, _pots, d = module.build_g22()
            reference = module.g22_reference_values()
        finally:
            for name in [m for m in sys.modules if m.partition(".")[0] == spec.name]:
                del sys.modules[name]
        assert len(reference) == len(graphwell.g22_reference_values()) - 2
        graph, _pots, dirichlet = g22
        assert type(g) is not type(graph)
        assert g.labels == graph.labels
        assert np.array_equal(g.edge_w, graph.edge_w)
        assert d.omega_a == dirichlet.omega_a and d.omega_b == dirichlet.omega_b

    @pytest.mark.parametrize("old,new,vertex", [
        ("x7  x14  1\n", "", "x14"),                      # missing contact edge
        ("[edges]\n", "[edges]\nx1  x15  1\n", "x15"),  # extra contact edge
        ("x7  1  0  1\n", "x7  1  1  1\n", "x7"),         # x7 left out of the a-well
    ])
    def test_edited_instance_detected(self, old, new, vertex):
        assert G22_TEXT.count(old) == 1
        pf = parse_problem(G22_TEXT.replace(old, new))
        with pytest.raises(BoundaryMismatchError) as err:
            _g22_instance(pf)
        assert err.value.vertex == vertex


class TestDirichletGroundState:
    def test_converged(self, g22_dirichlet):
        assert g22_dirichlet.converged
        assert g22_dirichlet.residual_norm <= 1e-9

    def test_supported_on_wells(self, g22, g22_dirichlet):
        g, _pots, d = g22
        u, v = g22_dirichlet.pair
        assert not u[~d.mask_a].any()
        assert not v[~d.mask_b].any()

    def test_mirror_symmetry(self, g22, g22_dirichlet):
        g, _pots, _d = g22
        u, v = g22_dirichlet.pair
        sigma = np.array([g.id_of(G22_MIRROR[lab]) for lab in g.labels])
        assert float(np.max(np.abs(u - v[sigma]))) < 1e-6

    def test_matches_frozen_reference(self, g22, g22_dirichlet):
        g, _pots, d = g22
        ref = g22_reference_values()
        ref_u = np.array([ref[(lab, "u")] for lab in g.labels])
        ref_v = np.array([ref[(lab, "v")] for lab in g.labels])
        u, v = g22_dirichlet.pair
        # fix the global sign per component before comparing values
        if u[g.id_of("x1")] * ref_u[g.id_of("x1")] < 0:
            u = -u
        if v[g.id_of("x1")] * ref_v[g.id_of("x1")] < 0:
            v = -v
        assert float(np.max(np.abs(u - ref_u))) < 1e-6
        assert float(np.max(np.abs(v - ref_v))) < 1e-6
        ref_energy = nehari_diagnostics(d, PairFunction(ref_u, ref_v)).energy
        assert g22_dirichlet.energy == pytest.approx(ref_energy, rel=1e-8)

    def test_reference_table_complete(self, g22):
        g, _pots, d = g22
        ref = g22_reference_values()
        assert len(ref) == 44
        for lab in g.labels:
            x = g.id_of(lab)
            if not d.mask_a[x]:
                assert ref[(lab, "u")] == 0.0
            if not d.mask_b[x]:
                assert ref[(lab, "v")] == 0.0


class TestGrids:
    def test_default_decades(self):
        grid = decade_grid()
        assert len(grid) == 8
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e7)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(10.0, rel=1e-12) for r in ratios)

    def test_dense_grid(self):
        grid = decade_grid(per_decade=4)
        assert len(grid) == 29
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e7)

    @pytest.mark.parametrize("args,fragment", [
        ((0, 7, 0), "per_decade must be a positive integer, got 0"),
        ((0, 7, 0.5), "per_decade must be a positive integer, got 0.5"),
        ((7, 0), "exponents 7 to 0 are not a nonnegative whole number"),
    ])
    def test_grid_refuses_what_it_cannot_keep(self, args, fragment):
        # Each of these returned a grid without per_decade points per
        # decade, or failed inside numpy.
        with pytest.raises(ValueError, match=fragment):
            decade_grid(*args)

    @pytest.mark.parametrize("lams", [(), (0.0, 1.0), (-1.0, 2.0), (1.0, 1.0), (2.0, 1.0),
                                      (1.0, math.nan), (1.0, math.inf), "15", b"15"])
    def test_sweep_config_rejects_bad_grids(self, lams):
        # A string iterates as its characters: "15" was read as (1.0, 5.0).
        with pytest.raises(ValueError):
            SweepConfig(lambdas=lams)


class TestAlignment:
    def test_sign_flips_ignored(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        rng = np.random.default_rng(31)
        w = PairFunction(rng.normal(size=3), rng.normal(size=3))
        assert aligned_h_distance(g, w, w) == 0.0
        flipped = PairFunction(-w.u, w.v)
        assert aligned_h_distance(g, flipped, w) == 0.0
        both = PairFunction(-w.u, -w.v)
        assert aligned_h_distance(g, both, w) == 0.0

    def test_detects_real_difference(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        w1 = PairFunction(np.array([1.0, 0.0]), np.zeros(2))
        w2 = PairFunction(np.array([0.0, 1.0]), np.zeros(2))
        # best alignment flips u, leaving the constant difference (-1, -1):
        # no gradient, mass 2
        assert aligned_h_distance(g, w1, w2) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_same_bits_as_the_four_flips_alone(self, g22):
        g, _pots, _d = g22
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = PairFunction(*rng.normal(size=(2, 22)))
            ref = PairFunction(*rng.normal(size=(2, 22)))
            flips = [norm_H_sq(g, (su * w.u - ref.u, sv * w.v - ref.v))
                     for su in (1.0, -1.0) for sv in (1.0, -1.0)]
            assert aligned_h_distance(g, w, ref) == math.sqrt(min(flips))

    @pytest.mark.parametrize("bad", [np.array([1.0, math.nan]), np.zeros(3)])
    def test_pairs_validated(self, bad):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        good = PairFunction(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            aligned_h_distance(g, PairFunction(bad, np.ones(2)), good)
        with pytest.raises(ValueError):
            aligned_h_distance(g, good, PairFunction(np.ones(2), bad))


class TestSweep:
    def test_small_sweep_metrics(self):
        pots, d = small_family()
        records = lambda_sweep(pots, d, SweepConfig(lambdas=(1.0, 10.0, 100.0)))
        assert [r.lam for r in records] == [1.0, 10.0, 100.0]
        assert all(r.converged for r in records)
        energies = [r.energy for r in records]
        assert all(b >= a - 1e-10 for a, b in zip(energies, energies[1:]))
        assert records[-1].sup_u_outside < records[0].sup_u_outside
        assert records[-1].h_distance < records[0].h_distance

    def test_energies_capped_by_limit_level(self):
        pots, d = small_family()
        cap = solve_dirichlet(d).energy
        records = lambda_sweep(pots, d, SweepConfig(lambdas=(1.0, 100.0)))
        for r in records:
            assert r.energy <= cap + 1e-9 * max(1.0, abs(cap))

    def test_rejects_potentials_of_another_vertex_count(self, monkeypatch):
        _pots, d = small_family()
        solves = []
        monkeypatch.setattr("graphwell.experiments.solve_dirichlet",
                            lambda *args: solves.append(args))
        with pytest.raises(GraphValidationError):
            lambda_sweep(PotentialField([0.0, 0.0], [0.0, 1.0]), d)
        assert solves == []

    @pytest.mark.parametrize("omega_a, omega_b", [({1}, {1, 2}), ({0, 1}, {1}), ({0, 1, 2}, {1, 2})])
    def test_rejects_wells_other_than_the_zero_sets(self, monkeypatch, omega_a, omega_b):
        # The sup-norms are taken off the zero sets, and the lambda-problems
        # converge to the Dirichlet problem on them, not on d's wells.
        pots, d = small_family()
        other = DirichletProblem(d.graph, omega_a, omega_b, alpha=2.0, beta=2.0)
        solves = []
        monkeypatch.setattr("graphwell.experiments.solve_dirichlet",
                            lambda *args: solves.append(args))
        with pytest.raises(GraphValidationError, match="not the zero sets"):
            lambda_sweep(pots, other, SweepConfig(lambdas=(1.0,)))
        assert solves == []

    def test_lambda_problems_take_the_dirichlet_exponents(self):
        pots, d = small_family(alpha=3.0, beta=2.5)
        records = lambda_sweep(pots, d, SweepConfig(lambdas=(1.0,)))
        want = solve_ground_state(LambdaProblem(d.graph, pots, 1.0, 3.0, 2.5),
                                  warm_starts=[solve_dirichlet(d).pair])
        assert records[0].energy == want.energy

    def test_previous_solution_seed_keeps_a_lower_state_off_g22(self):
        # On G22 the previous-solution seed never lowers an energy. Here
        # (n = 28, alpha 1.785, beta 1.315) the sweep's lambda = 1 row, seeded
        # through the chain from lambda = 1e-2, lies a factor of 20 below the
        # solve seeded with the Dirichlet minimizer alone.
        p = load_workloads().random_instance(np.random.default_rng([7, 10]))
        pots = p.potentials
        d = DirichletProblem(p.graph, pots.omega_a, pots.omega_b, p.alpha, p.beta)
        row = lambda_sweep(pots, d, SweepConfig(lambdas=(1e-2, 0.1, 1.0)))[-1]
        alone = solve_ground_state(LambdaProblem(p.graph, pots, 1.0, p.alpha, p.beta),
                                   warm_starts=[solve_dirichlet(d).pair])
        assert row.converged and alone.converged
        assert row.energy == pytest.approx(2.58140222667, rel=1e-9)
        assert alone.energy == pytest.approx(53.5362179685, rel=1e-9)


def chain_sweep(monkeypatch, pots, d, cfg):
    """lambda_sweep with each lambda-solve descending its seeded restarts
    itself, in one batch with its warm starts: the per-lambda chain."""
    def alone(p, cfg, warm_starts, _restarts):
        return solve_ground_state(p, cfg, warm_starts=warm_starts)

    with monkeypatch.context() as m:
        m.setattr(experiments, "solve_ground_state", alone)
        return lambda_sweep(pots, d, cfg)


def instance_sweep(key):
    """A random_instance's potentials and its Dirichlet problem."""
    p = load_workloads().random_instance(np.random.default_rng(key))
    pots = p.potentials
    return pots, DirichletProblem(p.graph, pots.omega_a, pots.omega_b, p.alpha, p.beta)


class TestSeededBatch:
    # lambda_sweep descends the seeded restarts and the Dirichlet warm start
    # of all its lambdas as one batch, then solves each lambda from its
    # previous solution alone, handing over its finished rows. A row's bits
    # do not depend on its batch, so the records are those of the per-lambda
    # chain, field for field.
    @pytest.mark.parametrize("seed", [1, 7])
    def test_g22_records_equal_the_per_lambda_chain(self, g22, monkeypatch, seed):
        _graph, pots, d = g22
        cfg = SweepConfig(solver=SolverConfig(rng_seed=seed))
        assert lambda_sweep(pots, d, cfg) == chain_sweep(monkeypatch, pots, d, cfg)

    @pytest.mark.parametrize("side", [None, 9], ids=["g22", "grid81"])
    def test_batched_restarts_match_each_lambda_alone(self, g22, side):
        # Warm starts win nearly every record, so the records alone hardly
        # see the restarts. Every row of the batch of all lambdas, the
        # Dirichlet warm start ref and the seeded restarts, must have the
        # bits it gets in a batch of its own lambda. G22 polishes by dense
        # steps, the 81-vertex grid by MINRES; both take the exact metric
        # from a per-row inverse.
        if side is None:
            graph, pots, _d = g22
        else:
            grid = load_workloads().grid_problem(side, 1.0, 2)
            graph, pots = grid.graph, grid.potentials
        cfg = SolverConfig()
        problems = [LambdaProblem(graph, pots, lam, 2.0, 2.0) for lam in decade_grid()]
        ref = solve_dirichlet(DirichletProblem(graph, pots.omega_a, pots.omega_b, 2.0, 2.0)).pair
        batched = solver._seeded_restarts(problems, cfg, ref)
        starts = np.array([np.array(ref), *solver._cold_starts(problems[0], cfg)])
        past = 0
        for q, got in zip(problems, batched, strict=True):
            with np.errstate(all="ignore"):
                [alone] = solver._descend([q], cfg, [starts], [range(-1, cfg.restarts)])
            assert [r.restart_index for r in got[:cfg.restarts + 1]] == list(range(-1, cfg.restarts))
            for a, b in zip(got, alone, strict=True):
                assert (a.restart_index, a.converged, a.iterations, a.energy) == (
                    b.restart_index, b.converged, b.iterations, b.energy)
                assert np.array_equal(a.pair, b.pair)
                past += a.iterations > solver._EXACT_METRIC_HEAD + 1
        assert past > 1

    # [7, 10] is the instance whose previous solution wins at lambda = 1;
    # at [7, 3] a seeded restart wins at lambda = 1e-2 and 1.
    @pytest.mark.parametrize("key", [[7, 10], [7, 2], [7, 3], [7, 15]])
    def test_instance_records_equal_the_per_lambda_chain(self, monkeypatch, key):
        pots, d = instance_sweep(key)
        cfg = SweepConfig(lambdas=decade_grid(-2.0, 2.0))
        records = lambda_sweep(pots, d, cfg)
        assert all(r.converged for r in records)
        assert records == chain_sweep(monkeypatch, pots, d, cfg)

    def test_records_between_the_bounds_equal_the_per_lambda_chain(self, monkeypatch):
        # n = 81 batches its lambdas, takes the exact metric from a per-row
        # inverse, and polishes by MINRES with a per-row preconditioner.
        grid = load_workloads().grid_problem(9, 1.0, 2)
        assert solver._DIRECT_NEWTON_MAX_N < grid.graph.vertex_count <= solver._EXACT_METRIC_MAX_N
        pots = grid.potentials
        d = DirichletProblem(grid.graph, pots.omega_a, pots.omega_b, 2.0, 2.0)
        cfg = SweepConfig(lambdas=decade_grid(0.0, 4.0))
        records = lambda_sweep(pots, d, cfg)
        assert all(r.converged for r in records)
        assert records == chain_sweep(monkeypatch, pots, d, cfg)

    def test_small_graphs_batch_every_lambda_and_large_graphs_one(self, g22, monkeypatch):
        calls = []
        descent = solver._run_descent

        def spy(p, cfg, starts, indices, stall=True):
            calls.append((len(starts), p.coef.ndim, len({c.tobytes() for c in p.coef})))
            return descent(p, cfg, starts, indices, stall)

        monkeypatch.setattr(solver, "_run_descent", spy)
        _graph, pots, d = g22
        lambda_sweep(pots, d)
        # One row per lambda for ref and for each restart, each row with its
        # own lambda's coef.
        assert (8 * 9, 3, 8) in calls
        assert solver._EXACT_METRIC_MAX_N >= d.graph.vertex_count
        calls.clear()
        grid = load_workloads().grid_problem(50, 100.0, 2)
        pots = grid.potentials
        d = DirichletProblem(grid.graph, pots.omega_a, pots.omega_b, 2.0, 2.0)
        assert d.graph.vertex_count > solver._EXACT_METRIC_MAX_N
        lambda_sweep(pots, d, SweepConfig(lambdas=(1.0, 100.0), solver=SolverConfig(restarts=2)))
        # The Dirichlet solve, then each lambda's ref and restarts in a batch
        # of their own, each with one distinct coef for all its rows; then the
        # second lambda's previous solution. The first lambda has no other
        # warm start.
        assert all(coefs == 1 for _rows, _ndim, coefs in calls)
        assert [rows for rows, _ndim, _coefs in calls] == [2, 3, 3, 1]

    def test_a_warm_start_alone_still_wins(self, monkeypatch):
        # With zero seeded starts no restart has a projection, so each lambda
        # is solved from its warm starts alone, as by the per-lambda chain.
        pots, d = small_family()
        ref = solve_dirichlet(d)
        monkeypatch.setattr(experiments, "solve_dirichlet", lambda d, cfg: ref)
        monkeypatch.setattr(solver, "_initial_pair",
                            lambda p, rng: np.zeros((2, p.graph.vertex_count)))
        won = []
        solve = experiments.solve_ground_state

        def spy(*args, **kwargs):
            out = solve(*args, **kwargs)
            won.append(out.restart_index)
            return out

        monkeypatch.setattr(experiments, "solve_ground_state", spy)
        cfg = SweepConfig(lambdas=(1.0, 10.0, 100.0))
        records = lambda_sweep(pots, d, cfg)
        assert len(won) == 3 and all(i < 0 for i in won)
        assert all(r.converged for r in records)
        monkeypatch.setattr(experiments, "solve_ground_state", solve)
        assert records == chain_sweep(monkeypatch, pots, d, cfg)

    @pytest.mark.parametrize("alpha, error, message", [
        (2.0, DegeneratePairError, "no Nehari projection exists"),
        (1.001, EnergyOverflowError, "the Nehari projection of every start overflowed")])
    def test_no_projectable_start_raises_per_problem(self, monkeypatch, alpha, error, message):
        # A start has no projection where its coupling vanishes (zero) or its
        # Nehari scale overflows (gamma near 2, a start far off the manifold).
        # One overflow among the starts makes the error an overflow, also
        # when the warm start is zero and descends with the restarts.
        pots, d = small_family(alpha, alpha)
        p = LambdaProblem(d.graph, pots, 10.0, alpha, alpha)
        n = d.graph.vertex_count
        start = np.zeros((2, n)) if error is DegeneratePairError else np.full((2, n), 1e-30)
        monkeypatch.setattr(solver, "_initial_pair", lambda p, rng: start.copy())
        cfg = SolverConfig(restarts=2)
        warms = [start] if error is DegeneratePairError else [start, np.zeros((2, n))]
        for warm in warms:
            warm = [PairFunction(*warm)]
            [own] = solver._seeded_restarts([p], cfg, warm[-1])
            assert own == []
            with pytest.raises(error, match=message):
                solve_ground_state(p, cfg, warm_starts=warm)
            with pytest.raises(error, match=message):
                solve_ground_state(p, cfg, warm_starts=warm, _restarts=own)

    def test_each_start_is_projected_once_per_pass(self, g22, monkeypatch):
        # _run_descent projects the starts of each pass, and _finish the
        # polished rows; nothing else projects on the way to an answer. The
        # sweep descends ref once, with the restarts, not once per lambda.
        callers = []
        scale = solver.nehari_scale

        def spy(p, w):
            callers.append(sys._getframe(1).f_code.co_name)
            return scale(p, w)

        monkeypatch.setattr(solver, "nehari_scale", spy)
        graph, pots, d = g22
        lambda_sweep(pots, d)
        assert set(callers) <= {"_run_descent", "_finish"}
        assert len(callers) <= 18
        callers.clear()
        assert solve_ground_state(LambdaProblem(graph, pots, 100.0, 2.0, 2.0)).converged
        assert callers and set(callers) <= {"_run_descent", "_finish"}

    def test_first_pass_stays_ahead_of_its_re_descent(self, monkeypatch):
        # Without descent steps or polish no restart converges, so every one
        # descends again, to the same point and energy: the first pass and
        # the re-descent of each restart tie, and the first pass must win.
        monkeypatch.setattr(solver, "_MAX_ITERS", 0)
        monkeypatch.setattr(solver, "_newton_polish", lambda p, w, tol: w)
        passes = {True: [], False: []}
        descent = solver._run_descent

        def spy(p, cfg, starts, indices, stall=True):
            out = descent(p, cfg, starts, indices, stall)
            passes[stall] += out
            return out

        monkeypatch.setattr(solver, "_run_descent", spy)
        won = []
        solve = experiments.solve_ground_state

        def solve_spy(*args, **kwargs):
            out = solve(*args, **kwargs)
            won.append(out)
            return out

        monkeypatch.setattr(experiments, "solve_ground_state", solve_spy)
        pots, d = small_family()
        cfg = SweepConfig(lambdas=(1.0, 10.0), solver=SolverConfig(restarts=3))
        records = lambda_sweep(pots, d, cfg)
        assert any(r.restart_index >= 0 for r in passes[False])
        assert not any(r.converged for r in won)
        assert all(any(w is r for r in passes[True]) for w in won)
        monkeypatch.setattr(experiments, "solve_ground_state", solve)
        assert records == chain_sweep(monkeypatch, pots, d, cfg)


class TestComparison:
    def test_self_comparison_matches(self, g22, g22_dirichlet):
        g, _pots, _d = g22
        table = {}
        for x in range(22):
            table[(g.label_of(x), "u")] = float(g22_dirichlet.pair.u[x])
            table[(g.label_of(x), "v")] = float(g22_dirichlet.pair.v[x])
        report = compare_reference(g, g22_dirichlet, table)
        assert len(report.entries) == 44
        assert report.max_deviation == 0.0
        assert report.verdict == "MATCH"

    def test_absent_entries_mean_zero(self, g22, g22_dirichlet):
        g, _pots, _d = g22
        report = compare_reference(g, g22_dirichlet, {})
        peak = float(np.max(np.abs(g22_dirichlet.pair.u)))
        assert report.max_deviation == pytest.approx(peak)

    def test_unknown_label_rejected(self, g22, g22_dirichlet):
        g, _pots, _d = g22
        with pytest.raises(UnknownLabelError):
            compare_reference(g, g22_dirichlet, {("x99", "u"): 1.0})
        with pytest.raises(UnknownLabelError):
            compare_reference(g, g22_dirichlet, {("x1", "w"): 1.0})

    def test_published_table_well_formed(self):
        assert len(TABLE1_REFERENCE) == 18
        assert all(comp in ("u", "v") for _lab, comp in TABLE1_REFERENCE)
        assert all(val > 0 for val in TABLE1_REFERENCE.values())

    def test_published_table_not_critical_on_committed_graph(self, g22):
        # the published values are only a solution of the authors' (not fully
        # recoverable) adjacency; on the committed reconstruction their
        # residual must be far from zero, which is what the divergence
        # verdict reports at the value level
        g, _pots, d = g22
        ids = {lab: i for i, lab in enumerate(g.labels)}
        u = np.zeros(g.vertex_count)
        v = np.zeros(g.vertex_count)
        for (lab, comp), val in TABLE1_REFERENCE.items():
            (u if comp == "u" else v)[ids[lab]] = val
        res = grad_J_Omega(d, PairFunction(u, v))
        rnorm = math.sqrt(float(np.dot(g.mu, res.u ** 2) + np.dot(g.mu, res.v ** 2)))
        assert rnorm > 1e-2
