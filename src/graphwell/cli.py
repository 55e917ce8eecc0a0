"""Command line surface: solve, dirichlet, sweep, check, validate."""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from . import calculus, functional
from .errors import (
    DegeneratePairError,
    DomainViolationError,
    EnergyOverflowError,
    GraphValidationError,
    ParseError,
    UnknownLabelError,
)
from .experiments import SweepConfig, decade_grid, lambda_sweep
from .functional import DirichletProblem, LambdaProblem
from .problem_io import ProblemFile, parse_problem_file, write_solution, write_sweep
from .solver import SolverConfig, solve_dirichlet, solve_ground_state

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DEGENERATE = 4
EXIT_UNCONVERGED = 5
EXIT_OVERFLOW = 6


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=SolverConfig.rng_seed,
                    help=f"restart RNG seed (default {SolverConfig.rng_seed})")
    sp.add_argument("--restarts", type=int, default=SolverConfig.restarts,
                    help="number of random restarts")
    sp.add_argument("--tol", type=float, default=SolverConfig.grad_tol, help="residual tolerance")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _add_exponent_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float, default=None, help="override file alpha")
    sp.add_argument("--beta", type=float, default=None, help="override file beta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphwell",
        description="Ground states of coupled elliptic systems on weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve the lambda-problem at one lambda")
    sp.add_argument("problem", help="problem file path")
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="potential scaling (required unless the file declares exactly one)")
    _add_exponent_flags(sp)
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("dirichlet", help="solve the limit system on the wells")
    sp.add_argument("problem")
    _add_exponent_flags(sp)
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_dirichlet)

    sp = sub.add_parser("sweep", help="lambda sweep against the Dirichlet ground state")
    sp.add_argument("problem")
    sp.add_argument("--lambdas", default=None,
                    help="comma separated increasing lambda list (default: file list or decades 1..1e7)")
    _add_exponent_flags(sp)
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("check", help="run the numerical invariant suite on a file")
    sp.add_argument("problem")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("validate", help="parse and validate the graph only")
    sp.add_argument("problem")
    sp.set_defaults(func=_cmd_validate)
    return parser


def _solver_config(args) -> SolverConfig:
    return SolverConfig(grad_tol=args.tol, restarts=args.restarts, rng_seed=args.seed)


def _exponents(args, pf: ProblemFile) -> tuple[float, float]:
    """alpha and beta: --alpha and --beta where given, else the file's."""
    return (pf.alpha if args.alpha is None else args.alpha,
            pf.beta if args.beta is None else args.beta)


def _usage_error(message) -> int:
    print(f"graphwell: {message}", file=sys.stderr)
    return EXIT_PARSE


def _emit_solution(args, pf: ProblemFile, result) -> int:
    write_solution(pf.graph, result, args.out if args.out else sys.stdout)
    print(f"energy {result.energy:.12g}  residual {result.residual_norm:.3e}  "
          f"iterations {result.iterations}  restart {result.restart_index}  "
          f"converged {str(result.converged).lower()}", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def _cmd_solve(args) -> int:
    pf = parse_problem_file(args.problem)
    lam = args.lam
    if lam is None:
        if len(pf.lambdas) == 1:
            lam = pf.lambdas[0]
        else:
            return _usage_error(f"--lambda required (file declares {len(pf.lambdas)} values)")
    try:
        problem = LambdaProblem(pf.graph, pf.potentials, lam, *_exponents(args, pf))
        cfg = _solver_config(args)
    except ValueError as exc:
        return _usage_error(exc)
    result = solve_ground_state(problem, cfg)
    return _emit_solution(args, pf, result)


def _cmd_dirichlet(args) -> int:
    pf = parse_problem_file(args.problem)
    try:
        problem = DirichletProblem(pf.graph, pf.potentials.omega_a, pf.potentials.omega_b,
                                   *_exponents(args, pf))
        cfg = _solver_config(args)
    except ValueError as exc:
        return _usage_error(exc)
    result = solve_dirichlet(problem, cfg)
    return _emit_solution(args, pf, result)


def _cmd_sweep(args) -> int:
    pf = parse_problem_file(args.problem)
    if args.lambdas is not None:
        try:
            lambdas = tuple(float(t) for t in args.lambdas.split(","))
        except ValueError:
            return _usage_error(f"bad --lambdas list: {args.lambdas!r}")
    elif pf.lambdas:
        lambdas = pf.lambdas
    else:
        lambdas = decade_grid()
    pots = pf.potentials
    try:
        dirichlet = DirichletProblem(pf.graph, pots.omega_a, pots.omega_b, *_exponents(args, pf))
        cfg = SweepConfig(lambdas=lambdas, solver=_solver_config(args))
        # The sweep builds, and so checks, every lambda-problem before any solve.
        records = lambda_sweep(pots, dirichlet, cfg)
    except ValueError as exc:
        return _usage_error(exc)
    write_sweep(records, args.out if args.out else sys.stdout)
    bad = sum(1 for r in records if not r.converged)
    if bad:
        print(f"graphwell: {bad} of {len(records)} lambda solves did not converge",
              file=sys.stderr)
        return EXIT_UNCONVERGED
    return EXIT_OK


def _cmd_check(args) -> int:
    """Numerical invariants on the parsed instance: calculus identity,
    residual vs finite differences, and the sup-norm embedding bound."""
    pf = parse_problem_file(args.problem)
    g = pf.graph
    try:
        rng = np.random.default_rng([args.seed, 101])
    except ValueError as exc:
        return _usage_error(f"--seed: {exc}")
    lam = pf.lambdas[0] if pf.lambdas else 1.0
    try:
        problem = LambdaProblem(g, pf.potentials, lam, pf.alpha, pf.beta)
        embedding_problems = [LambdaProblem(g, pf.potentials, t, pf.alpha, pf.beta)
                              for t in (1e-2, 1.0, 1e2, 1e4)]
    except ValueError as exc:
        return _usage_error(exc)
    n = g.vertex_count
    failures = 0

    worst = 0.0
    for _ in range(50):
        u = rng.standard_normal(n)
        xi = rng.standard_normal(n)
        lhs = calculus.integrate(g, calculus.gradient_form_all(g, u, xi))
        terms = calculus.laplacian_all(g, u) * xi
        rhs = -calculus.integrate(g, terms)
        # Errors here and below are relative to the size of the terms, not of
        # their sum: random signs may cancel a sum far below its rounding error.
        scale = calculus.integrate(g, np.abs(terms))
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-30))
    failures += _report("integration by parts", worst < 1e-12, f"max rel err {worst:.2e}")

    worst = 0.0
    h = 1e-5
    # Values away from 0, where |u|^alpha is not smooth for alpha < 2.
    base = rng.choice((-1.0, 1.0), (2, n)) * rng.uniform(0.5, 1.5, (2, n))
    for _ in range(20):
        d = rng.standard_normal((2, n))
        res = functional.grad_J_lambda(problem, base)
        pairing = calculus.integrate(g, res.u * d[0] + res.v * d[1])
        scale = calculus.integrate(g, np.abs(res.u * d[0]) + np.abs(res.v * d[1]))
        plus = functional.energy_J_lambda(problem, base + h * d)
        minus = functional.energy_J_lambda(problem, base - h * d)
        fd = (plus - minus) / (2 * h)
        worst = max(worst, abs(fd - pairing) / max(scale, 1e-30))
    failures += _report("residual vs finite differences", worst < 1e-6,
                        f"max rel err {worst:.2e}")

    bound = 2.0 / np.sqrt(g.mu_min)
    violations = 0
    for plam in embedding_problems:
        for _ in range(50):
            w = rng.standard_normal((2, n))
            lhs = calculus.norm_Lq(g, w, np.inf)
            rhs = bound * np.sqrt(functional.norm_H_lambda_sq(plam, w))
            if lhs > rhs * (1 + 1e-12):
                violations += 1
    failures += _report("sup-norm embedding bound", violations == 0,
                        f"{violations} violations")

    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def _report(name: str, ok: bool, detail: str) -> int:
    print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    pf = parse_problem_file(args.problem)
    g, pots = pf.graph, pf.potentials
    print(f"valid: {g.vertex_count} vertices, {g.edge_count} edges, "
          f"mu_min {g.mu_min:g}, connected")
    print(f"wells: |omega_a| {len(pots.omega_a)}, |omega_b| {len(pots.omega_b)}, "
          f"overlap {len(pots.overlap)}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"graphwell: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphValidationError, DomainViolationError, UnknownLabelError) as exc:
        print(f"graphwell: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegeneratePairError as exc:
        print(f"graphwell: degenerate problem: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except EnergyOverflowError as exc:
        print(f"graphwell: overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except OSError as exc:
        print(f"graphwell: io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
