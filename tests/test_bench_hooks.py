"""The traced benchmark run (perfbench/spans.py) looks layer functions up by
name in the modules that call them. These checks fail when a refactor moves
or renames one of those names, or stops calling it from the solver loops."""

import importlib
import importlib.util
from pathlib import Path

from graphwell import build_g22, experiments, solver

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
