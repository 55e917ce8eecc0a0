"""Problem file parsing and CSV serialization.

The problem format is line oriented and diff friendly: three sections headed
by [vertices], [edges], [params], whitespace-separated fields, '#' starts a
comment. The wells are not declared: they are the zero sets of the potentials
a and b, read from the PotentialField. The CSVs write labels by csv quoting
rules and floats to 17 digits, so reading one back gives every label and float
exactly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .calculus import PairFunction, as_pair
from .errors import ParseError
from .graph import PotentialField, WeightedGraph, validate_graph

_SECTIONS = ("vertices", "edges", "params")
_BOM = "\ufeff"     # the byte-order mark, which both parsers drop once at the start


@dataclass(frozen=True)
class ProblemFile:
    """Everything a problem file declares, fully validated. The wells are
    potentials.omega_a and potentials.omega_b, the zero sets of a and b."""

    graph: WeightedGraph
    potentials: PotentialField
    alpha: float
    beta: float
    lambdas: tuple[float, ...]


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
    """Parse and validate a problem file, less one leading byte-order mark;
    every error names its line."""
    text = text.removeprefix(_BOM)
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

    graph = WeightedGraph(len(labels), triples, measure=mu, labels=labels)
    validate_graph(graph)
    return ProblemFile(graph=graph, potentials=PotentialField(avals, bvals), alpha=alpha,
                       beta=beta, lambdas=lambdas)


def _read_text(path) -> str:
    """The text of a file, given a path or a package resource: UTF-8, a
    byte-order mark kept for the parser to drop. A byte that is not UTF-8
    raises ParseError with its line."""
    data = (path if hasattr(path, "read_bytes") else Path(path)).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines count as in parse_problem; a byte-order mark breaks no line.
        before = exc.object[:exc.start].decode("utf-8")
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8",
                         len((before + "?").splitlines())) from None


def parse_problem_file(path) -> ProblemFile:
    return parse_problem(_read_text(path))


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(sink, header: tuple[str, ...], rows: Iterable) -> None:
    """The header and the rows, one CSV line each, to a path (opened and
    closed here) or to a caller's stream (left open)."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            return _write_csv(fh, header, rows)
    out = csv.writer(sink, lineterminator="\n")
    out.writerow(header)
    out.writerows(rows)


def write_solution(graph: WeightedGraph, pair: PairFunction, sink) -> None:
    """CSV rows vertex,u,v in declaration order, 17 significant digits. The
    pair is validated by as_pair before a path sink is opened."""
    u, v = as_pair(graph, pair)
    _write_csv(sink, ("vertex", "u", "v"),
               ((lab, _fmt(x), _fmt(y)) for lab, x, y in zip(graph.labels, u, v)))


def write_sweep(records: Iterable, sink) -> None:
    """One CSV row per lambda with the sweep metrics; header always present."""
    _write_csv(sink, ("lambda", "energy", "sup_u_outside", "sup_v_outside", "h_distance",
                      "residual_norm", "converged"),
               ((_fmt(r.lam), _fmt(r.energy), _fmt(r.sup_u_outside), _fmt(r.sup_v_outside),
                 _fmt(r.h_distance), _fmt(r.residual_norm), "true" if r.converged else "false")
                for r in records))


def read_solution(source) -> dict[str, tuple[float, float]]:
    """Inverse of write_solution: label -> (u, v), from a stream or a file,
    less one leading byte-order mark. A header other than vertex,u,v, a row
    without three fields, a value that is not a finite number and a repeated
    vertex label raise ParseError with the line."""
    text = source.read() if hasattr(source, "read") else _read_text(source)
    rows = csv.reader(text.removeprefix(_BOM).splitlines())
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
