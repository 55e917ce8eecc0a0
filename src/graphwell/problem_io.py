"""Problem file parsing and CSV serialization.

The problem format is line oriented and diff friendly: four sections headed
by [vertices], [edges], [params], [domains], whitespace-separated fields,
'#' starts a comment. Domains are optional; when absent the wells are the
zero sets of the potentials. All floats are written back with 17 significant
digits so a round trip reproduces them bit exactly.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError
from .functional import DirichletProblem, LambdaFamily, LambdaProblem
from .graph import PotentialField, WeightedGraph, validate_graph
from .solver import SolveResult

_SECTIONS = ("vertices", "edges", "params", "domains")


@dataclass(frozen=True)
class ProblemFile:
    """Everything a problem file declares, fully validated."""

    graph: WeightedGraph
    potentials: PotentialField
    alpha: float
    beta: float
    lambdas: tuple[float, ...]
    omega_a: frozenset
    omega_b: frozenset
    family: LambdaFamily
    dirichlet: DirichletProblem

    def lambda_problem(self, lam: float) -> LambdaProblem:
        return self.family.problem(lam)


def _float(tok: str, line: int, what: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(f"{what} is not a number: {tok!r}", line) from None
    if val != val:
        raise ParseError(f"{what} is NaN", line)
    if math.isinf(val):
        raise ParseError(f"{what} is infinite", line)
    return val


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem file; every error names its line."""
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    current: str | None = None
    nlines = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        nlines = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ParseError("content before any section header", lineno)
        sections[current].append((lineno, line.split()))

    if "vertices" not in sections or not sections["vertices"]:
        raise ParseError("missing or empty [vertices] section", nlines)

    labels: list[str] = []
    ids: dict[str, int] = {}
    mu, avals, bvals = [], [], []
    for lineno, toks in sections["vertices"]:
        if len(toks) != 4:
            raise ParseError(f"vertex row needs 'label mu a b', got {len(toks)} fields", lineno)
        lab = toks[0]
        if lab in ids:
            raise ParseError(f"duplicate vertex label {lab!r}", lineno)
        m = _float(toks[1], lineno, "measure")
        if m <= 0:
            raise ParseError(f"measure must be positive, got {m}", lineno)
        a = _float(toks[2], lineno, "potential a")
        b = _float(toks[3], lineno, "potential b")
        if a < 0 or b < 0:
            raise ParseError("potentials must be nonnegative", lineno)
        ids[lab] = len(labels)
        labels.append(lab)
        mu.append(m)
        avals.append(a)
        bvals.append(b)

    triples = []
    seen_edges: set[frozenset] = set()
    for lineno, toks in sections.get("edges", []):
        if len(toks) != 3:
            raise ParseError(f"edge row needs 'label label weight', got {len(toks)} fields", lineno)
        la, lb = toks[0], toks[1]
        for lab in (la, lb):
            if lab not in ids:
                raise ParseError(f"undeclared vertex {lab!r} in edge", lineno)
        if la == lb:
            raise ParseError(f"self loop at {la!r}", lineno)
        key = frozenset((la, lb))
        if key in seen_edges:
            raise ParseError(f"duplicate edge {la} {lb}", lineno)
        seen_edges.add(key)
        w = _float(toks[2], lineno, "edge weight")
        if w <= 0:
            raise ParseError(f"edge weight must be positive, got {w}", lineno)
        triples.append((ids[la], ids[lb], w))

    params: dict[str, tuple[int, list[str]]] = {}
    params_line = nlines
    if "params" in sections:
        for lineno, toks in sections["params"]:
            params_line = lineno
            key = toks[0]
            if key not in ("alpha", "beta", "lambda"):
                raise ParseError(f"unknown parameter {key!r}", lineno)
            if key in params:
                raise ParseError(f"duplicate parameter {key!r}", lineno)
            params[key] = (lineno, toks[1:])
    for key in ("alpha", "beta"):
        if key not in params:
            raise ParseError(f"missing required parameter {key!r} in [params]", params_line)
        lineno, vals = params[key]
        if len(vals) != 1:
            raise ParseError(f"{key} takes exactly one value", lineno)
    alpha = _float(params["alpha"][1][0], params["alpha"][0], "alpha")
    beta = _float(params["beta"][1][0], params["beta"][0], "beta")
    for name, val, lineno in (("alpha", alpha, params["alpha"][0]),
                              ("beta", beta, params["beta"][0])):
        if not val > 1:
            raise ParseError(f"{name} must exceed 1, got {val}", lineno)

    lambdas: tuple[float, ...] = ()
    if "lambda" in params:
        lineno, vals = params["lambda"]
        if not vals:
            raise ParseError("lambda needs at least one value", lineno)
        lams = [_float(t, lineno, "lambda") for t in vals]
        if any(x <= 0 for x in lams):
            raise ParseError("lambda values must be positive", lineno)
        if any(y <= x for x, y in zip(lams, lams[1:])):
            raise ParseError("lambda values must be strictly increasing", lineno)
        lambdas = tuple(lams)

    domains: dict[str, frozenset] = {}
    for lineno, toks in sections.get("domains", []):
        key = toks[0]
        if key not in ("omega_a", "omega_b"):
            raise ParseError(f"unknown domain {key!r}", lineno)
        if key in domains:
            raise ParseError(f"duplicate domain {key!r}", lineno)
        if len(toks) < 2:
            raise ParseError(f"{key} needs at least one vertex", lineno)
        members = set()
        for lab in toks[1:]:
            if lab not in ids:
                raise ParseError(f"undeclared vertex {lab!r} in domain", lineno)
            members.add(ids[lab])
        domains[key] = frozenset(members)

    graph = WeightedGraph(len(labels), triples, measure=mu, labels=labels)
    validate_graph(graph)
    potentials = PotentialField(avals, bvals)
    omega_a = domains.get("omega_a", potentials.omega_a)
    omega_b = domains.get("omega_b", potentials.omega_b)
    family = LambdaFamily(graph, potentials, alpha, beta)
    dirichlet = DirichletProblem(graph, omega_a, omega_b, alpha, beta)
    return ProblemFile(graph=graph, potentials=potentials, alpha=alpha, beta=beta,
                       lambdas=lambdas, omega_a=omega_a, omega_b=omega_b,
                       family=family, dirichlet=dirichlet)


def parse_problem_file(path: str | os.PathLike) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def format_problem(pf: ProblemFile) -> str:
    """Render a ProblemFile back into the problem format.

    Comments and original whitespace are not preserved, but parsing the output
    reproduces the same problem bit exactly (floats are written with 17
    significant digits, and the inferred domains are made explicit).
    """
    g = pf.graph
    lines = ["[vertices]"]
    for x in range(g.vertex_count):
        lines.append(" ".join([g.labels[x], _fmt(g.mu[x]),
                               _fmt(pf.potentials.a[x]), _fmt(pf.potentials.b[x])]))
    lines.append("[edges]")
    for i, j, w in zip(pf.graph.edge_i, pf.graph.edge_j, pf.graph.edge_w):
        lines.append(" ".join([g.labels[int(i)], g.labels[int(j)], _fmt(w)]))
    lines.append("[params]")
    lines.append(f"alpha {_fmt(pf.alpha)}")
    lines.append(f"beta {_fmt(pf.beta)}")
    if pf.lambdas:
        lines.append("lambda " + " ".join(_fmt(x) for x in pf.lambdas))
    lines.append("[domains]")
    for key, dom in (("omega_a", pf.omega_a), ("omega_b", pf.omega_b)):
        members = sorted(dom)
        lines.append(key + " " + " ".join(g.labels[x] for x in members))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _open_sink(sink):
    if isinstance(sink, (str, os.PathLike)):
        return open(sink, "w", encoding="utf-8", newline="\n"), True
    return sink, False


def write_solution(graph: WeightedGraph, result: SolveResult, sink) -> None:
    """CSV rows vertex,u,v in declaration order, 17 significant digits."""
    fh, owned = _open_sink(sink)
    try:
        fh.write("vertex,u,v\n")
        for x in range(graph.vertex_count):
            fh.write(f"{graph.labels[x]},{_fmt(result.pair.u[x])},{_fmt(result.pair.v[x])}\n")
    finally:
        if owned:
            fh.close()


def write_sweep(records: Iterable, sink) -> None:
    """One CSV row per lambda with the sweep metrics; header always present."""
    fh, owned = _open_sink(sink)
    try:
        fh.write("lambda,energy,sup_u_outside,sup_v_outside,h_distance,residual_norm,converged\n")
        for r in records:
            fh.write(",".join([
                _fmt(r.lam), _fmt(r.energy), _fmt(r.sup_u_outside), _fmt(r.sup_v_outside),
                _fmt(r.h_distance), _fmt(r.residual_norm),
                "true" if r.converged else "false",
            ]) + "\n")
    finally:
        if owned:
            fh.close()


def read_solution(source) -> dict[str, tuple[float, float]]:
    """Inverse of write_solution: label -> (u, v)."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, io.TextIOBase) or hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    out: dict[str, tuple[float, float]] = {}
    for row in csv.DictReader(text.splitlines()):
        out[row["vertex"]] = (float(row["u"]), float(row["v"]))
    return out
