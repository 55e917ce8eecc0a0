"""Span recorder and per-layer tracing for the traced benchmark run.

Nothing in ``src/`` is edited. A traced run replaces each layer function by a
wrapper under the name through which its caller looks it up (for example
``graphwell.cli.parse_problem_file``), so every call opens a span. Spans nest
through the call stack; a span's self time is its duration minus the part of
it that its child spans cover.

The solver's restart loop and Newton polish are private functions, so the
descent and polish counters are derived from the calling frame of the public
functions they use; see ``Tracer._on_residual`` and the hooks below it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A function is patched in every module that
# calls it through its own global name, so calls from inside graphwell are
# caught as well as calls from the benchmark.
PATCHES = (
    ("graphwell.cli", "parse_problem_file", "problem_io.parse_problem_file"),
    ("graphwell.cli", "write_sweep", "problem_io.write_sweep"),
    ("graphwell.cli", "lambda_sweep", "experiments.lambda_sweep"),
    ("graphwell.problem_io", "WeightedGraph", "graph.WeightedGraph"),
    ("graphwell.problem_io", "validate_graph", "graph.validate_graph"),
    ("graphwell.experiments", "solve_dirichlet", "solver.solve_dirichlet"),
    ("graphwell.experiments", "solve_ground_state", "solver.solve"),
    ("graphwell.solver", "residual_of", "functional.residual_of"),
    ("graphwell.solver", "norm_sq_of", "functional.norm_sq_of"),
    ("graphwell.solver", "coupling_integral", "functional.coupling_integral"),
    ("graphwell.solver", "nehari_scale", "functional.nehari_scale"),
    ("graphwell.solver", "as_pair", "calculus.as_pair"),
    ("graphwell.functional", "norm_sq_of", "functional.norm_sq_of"),
    ("graphwell.functional", "coupling_integral", "functional.coupling_integral"),
    ("graphwell.functional", "as_pair", "calculus.as_pair"),
    ("graphwell.functional", "check_admissible", "calculus.check_admissible"),
    ("graphwell.functional", "laplacian_all", "calculus.laplacian_all"),
    ("graphwell.calculus", "as_pair", "calculus.as_pair"),
    ("graphwell.calculus", "check_admissible", "calculus.check_admissible"),
)

LINSOLVE = "solver.polish.linsolve"

# Per-layer metrics: name -> (unit, better). Every traced run reports all of
# them, as means per measured op; a layer a workload never enters reads 0.
LAYER_METRICS = {
    "cli.main.s": ("s", "lower"),
    "problem_io.parse_problem_file.s": ("s", "lower"),
    "problem_io.write_sweep.s": ("s", "lower"),
    "graph.WeightedGraph.s": ("s", "lower"),
    "graph.validate_graph.s": ("s", "lower"),
    "experiments.lambda_sweep.s": ("s", "lower"),
    "experiments.warm_won_ratio": ("ratio", "higher"),
    "solver.solve.calls": ("count", "lower"),
    "solver.solve.s": ("s", "lower"),
    "solver.solve_dirichlet.s": ("s", "lower"),
    "solver.descent.iterations": ("count", "lower"),
    "solver.armijo.trials": ("count", "lower"),
    "solver.armijo.accept_ratio": ("ratio", "higher"),
    "solver.polish.newton_steps": ("count", "lower"),
    "solver.polish.residual_evals": ("count", "lower"),
    "solver.polish.residual.s": ("s", "lower"),
    "solver.polish.linsolve.s": ("s", "lower"),
    "functional.residual_of.calls": ("count", "lower"),
    "functional.residual_of.s": ("s", "lower"),
    "functional.norm_sq_of.calls": ("count", "lower"),
    "functional.norm_sq_of.s": ("s", "lower"),
    "functional.coupling_integral.calls": ("count", "lower"),
    "functional.coupling_integral.s": ("s", "lower"),
    "functional.nehari_scale.calls": ("count", "lower"),
    "calculus.as_pair.calls": ("count", "lower"),
    "calculus.as_pair.s": ("s", "lower"),
    "calculus.laplacian_all.calls": ("count", "lower"),
    "calculus.laplacian_all.s": ("s", "lower"),
    "calculus.check_admissible.calls": ("count", "lower"),
    "calculus.check_admissible.s": ("s", "lower"),
}

# Counts that must repeat exactly when an op is repeated on the same input.
COUNT_SUFFIXES = (".calls", "_evals", ".iterations", ".trials", "newton_steps")


class SpanRecorder:
    """Nested spans on one thread: name, start, end, parent and op id.

    Self time and call counts are folded per span name as each span ends.
    The first ``keep`` spans are also held in memory as
    ``[name, start, end, parent, op]`` (parent is an index into that list,
    -1 for a root) and written out when the run ends; the cap bounds memory
    on descent-heavy runs, which open millions of spans.
    """

    def __init__(self, clock=time.perf_counter, keep: int = 100_000):
        self.clock = clock
        self.keep = keep
        self.op: object = None
        self.spans: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._opened = 0
        self._stack: list[list] = []   # [index, name, start, time covered by children]

    def begin(self, name: str) -> None:
        index = self._opened
        self._opened += 1
        parent = self._stack[-1][0] if self._stack else -1
        start = self.clock()
        if index < self.keep:
            self.spans.append([name, start, None, parent, self.op])
        self._stack.append([index, name, start, 0.0])

    def end(self) -> float:
        """Close the innermost span and return its duration."""
        end = self.clock()
        index, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if index < self.keep:
            self.spans[index][2] = end
        return duration

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


class _Proxy:
    """Stands in for a module, overriding some attributes and passing the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        # Cached, so later lookups of the name cost no Python call.
        value = self.__dict__[name] = getattr(self._target, name)
        return value


class Tracer:
    """Installs the layer wrappers and derives the solver-internal counters."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self.counts: Counter[str] = Counter()
        self.times: defaultdict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._descent_w = None
        self._trials_pending = False

    def wrap(self, name: str, fn, hook=None):
        rec = self.rec

        def traced(*args, **kwargs):
            rec.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = rec.end()
            if hook is not None:
                hook(sys._getframe(1).f_code.co_name, args, out, duration)
            return out

        return traced

    def install(self) -> None:
        hooks = {
            ("graphwell.solver", "residual_of"): self._on_residual,
            ("graphwell.solver", "norm_sq_of"): self._on_norm_sq,
            ("graphwell.solver", "nehari_scale"): self._on_nehari_scale,
            ("graphwell.experiments", "solve_ground_state"): self._on_lambda_solve,
        }
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(span, getattr(module, attr),
                                                hooks.get((module_name, attr))))
        solver = importlib.import_module("graphwell.solver")
        np = solver.np
        linalg = _Proxy(np.linalg,
                        solve=self.wrap(LINSOLVE, np.linalg.solve, self._on_solve),
                        lstsq=self.wrap(LINSOLVE, np.linalg.lstsq))
        self._patch(solver, "np", _Proxy(np, linalg=linalg))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    # Derivation of the solver counters from calls the solver makes by name.
    #
    # _run_descent opens every descent iteration with
    #     res = residual_of(p, w); ...; norm_sq = norm_sq_of(p, w)
    # on the same object w, and evaluates each Armijo trial with
    #     norm_t = norm_sq_of(p, trial)
    # on a freshly built PairFunction. So a norm_sq_of call from _run_descent
    # whose argument is the pair last passed to residual_of from _run_descent
    # starts an iteration; any other norm_sq_of call from there is a trial.
    # An iteration that follows trials means the previous line search accepted
    # a step: a rejected line search breaks out of the loop. Each restart calls
    # nehari_scale from _run_descent before its first iteration and after its
    # polish, which clears a line search left unaccepted at an underflow. An
    # accepted step on the very last allowed iteration (max_iters) is not seen.
    #
    # _newton_polish evaluates the residual only through its closure
    # ``stacked`` and makes exactly one np.linalg.solve call per Newton step
    # (lstsq is a fallback within the same step).

    def _on_residual(self, caller, args, out, duration) -> None:
        if caller == "_run_descent":
            self._descent_w = args[1]
        elif caller == "stacked":
            self.counts["solver.polish.residual_evals"] += 1
            self.times["solver.polish.residual.s"] += duration

    def _on_norm_sq(self, caller, args, out, duration) -> None:
        if caller != "_run_descent":
            return
        if args[1] is self._descent_w:
            self.counts["solver.descent.iterations"] += 1
            if self._trials_pending:
                self.counts["solver.armijo.accepted"] += 1
                self._trials_pending = False
        else:
            self.counts["solver.armijo.trials"] += 1
            self._trials_pending = True

    def _on_nehari_scale(self, caller, args, out, duration) -> None:
        if caller == "_run_descent":
            self._descent_w = None
            self._trials_pending = False

    def _on_solve(self, caller, args, out, duration) -> None:
        if caller == "_newton_polish":
            self.counts["solver.polish.newton_steps"] += 1

    def _on_lambda_solve(self, caller, args, out, duration) -> None:
        if caller == "lambda_sweep":
            self.counts["experiments.lambda_solves"] += 1
            if out.restart_index < 0:
                self.counts["experiments.warm_won"] += 1

    def totals(self) -> dict[str, float]:
        """Cumulative raw figures: span self times and calls, derived counters."""
        out: dict[str, float] = {}
        for name, seconds in self.rec.self_s.items():
            out[name + ".s"] = seconds
        for name, calls in self.rec.calls.items():
            out[name + ".calls"] = calls
        out.update(self.counts)
        out.update(self.times)
        return out


def layer_metrics(totals: dict[str, float], ops: int) -> dict[str, float]:
    """Every per-layer metric, as a mean per op over ``ops`` measured ops."""
    out = {}
    for name in LAYER_METRICS:
        if name == "experiments.warm_won_ratio":
            solves = totals.get("experiments.lambda_solves", 0)
            out[name] = totals.get("experiments.warm_won", 0) / solves if solves else 0.0
        elif name == "solver.armijo.accept_ratio":
            trials = totals.get("solver.armijo.trials", 0)
            out[name] = totals.get("solver.armijo.accepted", 0) / trials if trials else 0.0
        else:
            out[name] = totals.get(name, 0) / ops
    return out


def count_keys(totals: dict[str, float]) -> list[str]:
    return sorted(k for k in totals if k.endswith(COUNT_SUFFIXES))
