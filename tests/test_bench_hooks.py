"""The traced benchmark run (perfbench/spans.py) looks layer functions up by
name in the modules that call them. These checks fail when a refactor moves
or renames one of those names, or stops calling it from the solver loops."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from graphwell import SweepConfig, build_g22, experiments, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves():
    for module_name, attr, _span in load_spans().PATCHES:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def test_solver_loops_call_kernel_through_module_globals():
    descent = set(solver._run_descent.__code__.co_names)
    assert {"residual_of", "norm_sq_of", "coupling_integral", "nehari_scale"} <= descent
    stacked = next(c for c in solver._newton_polish.__code__.co_consts
                   if getattr(c, "co_name", None) == "stacked")
    assert "residual_of" in stacked.co_names


def test_sweep_calls_the_lambda_solver_itself():
    # warm_won_ratio counts solve_ground_state calls whose caller frame is
    # lambda_sweep, so the call must stay in that function's own body.
    assert "solve_ground_state" in experiments.lambda_sweep.__code__.co_names


def test_traced_solver_counters_are_live():
    # The descent and polish counters are derived from which objects the
    # solver passes to the kernels; a refactor that changes that would read
    # them as zero without failing any name check above.
    spans = load_spans()
    tracer = spans.Tracer(spans.SpanRecorder())
    _g, _pots, d = build_g22()
    tracer.install()
    try:
        solver.solve_dirichlet(d)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    for name in ("solver.descent.iterations", "solver.armijo.trials",
                 "solver.polish.residual_evals", "solver.polish.newton_steps",
                 "solver.polish.linsolve.s", "functional.residual_of.calls"):
        assert totals.get(name, 0) > 0, name


def test_sweep_counters_see_one_solve_per_lambda(monkeypatch):
    # warm_won_ratio and solver.solve.calls read the solve_ground_state calls
    # made from lambda_sweep's own frame. The sweep descends every lambda's
    # seeded restarts in one batch before them, so each call must still be
    # made once per lambda and return that lambda's answer: the one the
    # per-lambda chain, each solve descending its own restarts, returns.
    _g, pots, d = build_g22()
    cfg = SweepConfig()
    spans = load_spans()
    tracer = spans.Tracer(spans.SpanRecorder())
    tracer.install()
    try:
        experiments.lambda_sweep(pots, d, cfg)
    finally:
        tracer.uninstall()
    totals = tracer.totals()

    solve = experiments.solve_ground_state
    seen, chain = [], []

    def spy(p, *args, **kwargs):
        out = solve(p, *args, **kwargs)
        seen.append((sys._getframe(1).f_code.co_name, p.lam, out))
        return out

    def alone(p, cfg, warm_starts, _restarts):
        out = solve(p, cfg, warm_starts=warm_starts)
        chain.append(out)
        return out

    monkeypatch.setattr(experiments, "solve_ground_state", spy)
    experiments.lambda_sweep(pots, d, cfg)
    monkeypatch.setattr(experiments, "solve_ground_state", alone)
    experiments.lambda_sweep(pots, d, cfg)
    assert [(caller, lam) for caller, lam, _out in seen] == [("lambda_sweep", lam)
                                                             for lam in cfg.lambdas]
    for (_caller, _lam, out), want in zip(seen, chain, strict=True):
        assert out.energy == want.energy
        assert out.restart_index == want.restart_index
        assert np.array_equal(out.pair, want.pair)
    assert totals["solver.solve.calls"] == totals["experiments.lambda_solves"] == len(cfg.lambdas)
    assert totals.get("experiments.warm_won", 0) == sum(out.restart_index < 0
                                                        for _c, _l, out in seen)
