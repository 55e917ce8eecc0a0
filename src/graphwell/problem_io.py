"""Problem file parsing and CSV serialization.

The problem format is line oriented and diff friendly: four sections headed
by [vertices], [edges], [params], [domains], whitespace-separated fields,
'#' starts a comment. Domains are optional; when absent the wells are the
zero sets of the potentials. The CSVs write labels by csv quoting rules and
floats to 17 digits, so reading one back gives every label and float exactly.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError
from .functional import DirichletProblem
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
    # Validates the declared wells: nonempty and overlapping.
    DirichletProblem(graph, omega_a, omega_b, alpha, beta)
    return ProblemFile(graph=graph, potentials=potentials, alpha=alpha, beta=beta,
                       lambdas=lambdas, omega_a=omega_a, omega_b=omega_b)


def parse_problem_file(path: str | os.PathLike) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sink(sink):
    """A context giving the stream to write to: a path is opened (and closed
    on exit), a caller's stream is used as it is and left open."""
    if isinstance(sink, (str, os.PathLike)):
        return open(sink, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sink)


def write_solution(graph: WeightedGraph, result: SolveResult, sink) -> None:
    """CSV rows vertex,u,v in declaration order, 17 significant digits."""
    with _sink(sink) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("vertex", "u", "v"))
        out.writerows((lab, _fmt(u), _fmt(v)) for lab, u, v in zip(graph.labels, *result.pair))


def write_sweep(records: Iterable, sink) -> None:
    """One CSV row per lambda with the sweep metrics; header always present."""
    with _sink(sink) as fh:
        fh.write("lambda,energy,sup_u_outside,sup_v_outside,h_distance,residual_norm,converged\n")
        for r in records:
            fh.write(",".join([
                _fmt(r.lam), _fmt(r.energy), _fmt(r.sup_u_outside), _fmt(r.sup_v_outside),
                _fmt(r.h_distance), _fmt(r.residual_norm),
                "true" if r.converged else "false",
            ]) + "\n")


def read_solution(source) -> dict[str, tuple[float, float]]:
    """Inverse of write_solution: label -> (u, v). A header other than
    vertex,u,v, a row without three fields, a value that is not a finite
    number and a repeated vertex label raise ParseError with the line."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    rows = csv.reader(text.splitlines())
    header = next(rows, [])
    if header != ["vertex", "u", "v"]:
        raise ParseError(f"solution header must be 'vertex,u,v', got {','.join(header)!r}", 1)
    out: dict[str, tuple[float, float]] = {}
    for row in rows:
        line = rows.line_num
        if len(row) != 3:
            raise ParseError(f"solution row needs 'vertex,u,v', got {len(row)} fields", line)
        label, u, v = row
        if label in out:
            raise ParseError(f"duplicate vertex label {label!r}", line)
        out[label] = (_float(u, line, "u"), _float(v, line, "v"))
    return out
