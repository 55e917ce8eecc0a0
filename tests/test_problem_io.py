import io
from importlib import resources

import numpy as np
import pytest

from graphwell import (
    GraphValidationError,
    NehariDiagnostics,
    PairFunction,
    ParseError,
    SolveResult,
    decade_grid,
    format_problem,
    parse_problem,
    parse_problem_file,
    read_solution,
    write_solution,
    write_sweep,
)
from graphwell.experiments import G22_EDGES, G22_WELL_A, G22_WELL_B, SweepRecord

MINIMAL = """\
# two wells sharing vertex p
[vertices]
p 1 0 0
q 2 0.5 0
[edges]
p q 1.5
[params]
alpha 2
beta 2
lambda 1 10
"""


def fake_result(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nd = NehariDiagnostics(1.0, 1.0, 0.0, 0.25, True)
    return SolveResult(pair=PairFunction(u, v), energy=0.25, residual_norm=1e-12,
                       nehari=nd, iterations=3, restart_index=0, converged=True)


class TestParse:
    def test_minimal(self):
        pf = parse_problem(MINIMAL)
        assert pf.graph.labels == ("p", "q")
        assert pf.graph.vertex_count == 2
        assert pf.graph.edge_count == 1
        assert pf.graph.edge_w[0] == 1.5
        assert np.array_equal(pf.graph.mu, [1.0, 2.0])
        assert np.array_equal(pf.potentials.a, [0.0, 0.5])
        assert np.array_equal(pf.potentials.b, [0.0, 0.0])
        assert pf.alpha == 2.0 and pf.beta == 2.0
        assert pf.lambdas == (1.0, 10.0)
        # wells inferred from the zero sets
        assert pf.omega_a == frozenset({0})
        assert pf.omega_b == frozenset({0, 1})
        p = pf.lambda_problem(10.0)
        assert p.lam == 10.0

    def test_domains_override_inference(self):
        text = MINIMAL + "[domains]\nomega_a p q\nomega_b p\n"
        pf = parse_problem(text)
        assert pf.omega_a == frozenset({0, 1})
        assert pf.omega_b == frozenset({0})
        assert pf.dirichlet.omega_a == frozenset({0, 1})

    def test_comments_and_blank_lines_ignored(self):
        noisy = MINIMAL.replace("[edges]", "\n   # noise\n[edges]  # trailing")
        pf = parse_problem(noisy)
        assert pf.graph.edge_count == 1

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("p 1 0 0\n", 1, "before any section"),
        ("[bogus]\n", 1, "unknown section"),
        ("[vertices]\np 1 0 0\n[vertices]\n", 3, "duplicate section"),
        ("[vertices]\np 1 0\n", 2, "vertex row"),
        ("[vertices]\np 1 0 0\np 1 0 0\n", 3, "duplicate vertex"),
        ("[vertices]\np abc 0 0\n", 2, "not a number"),
        ("[vertices]\np 0 0 0\n", 2, "measure must be positive"),
        ("[vertices]\np nan 0 0\n", 2, "NaN"),
        ("[vertices]\np 1 -0.5 0\n", 2, "nonnegative"),
        ("[vertices]\np 1 0 0\n[edges]\np r 1\n", 4, "undeclared vertex"),
        ("[vertices]\np 1 0 0\n[edges]\np p 1\n", 4, "self loop"),
        ("[vertices]\np 1 0 0\nq 1 0 0\n[edges]\np q 1\nq p 2\n", 6, "duplicate edge"),
        ("[vertices]\np 1 0 0\nq 1 0 0\n[edges]\np q 0\n", 5, "must be positive"),
        ("[vertices]\np 1 0 0\nq 1 0 0\n[edges]\np q\n", 5, "edge row"),
        ("[vertices]\np 1 0 0\n[params]\ngamma 2\n", 4, "unknown parameter"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nalpha 3\n", 5, "duplicate parameter"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2 3\nbeta 2\n", 4, "exactly one"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\n", 4, "missing required parameter"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 1\nbeta 2\n", 4, "must exceed 1"),
        ("[vertices]\np 1 0 0\n[params]\nalpha inf\nbeta 2\n", 4, "infinite"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\nlambda\n", 6, "at least one"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\nlambda 0\n", 6, "positive"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\nlambda 1 inf\n", 6, "infinite"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\nlambda 2 1\n", 6, "increasing"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\n[domains]\nwells p\n", 7, "unknown domain"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\n[domains]\nomega_a p\nomega_a p\n", 8, "duplicate domain"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\n[domains]\nomega_a\n", 7, "at least one vertex"),
        ("[vertices]\np 1 0 0\n[params]\nalpha 2\nbeta 2\n[domains]\nomega_a r\n", 7, "undeclared vertex"),
        ("", 1, "missing or empty"),
    ])
    def test_errors_name_their_line(self, text, lineno, fragment):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert err.value.line == lineno
        assert fragment in str(err.value)
        assert str(err.value).startswith(f"line {lineno}:")

    def test_missing_alpha_reported_on_params(self):
        # no [params] at all: the complaint points at the end of the file
        with pytest.raises(ParseError, match="alpha"):
            parse_problem("[vertices]\np 1 0 0\n")

    def test_semantic_errors_are_validation(self):
        # structurally fine, semantically broken instances fail graph or
        # potential validation, not parsing
        disconnected = ("[vertices]\np 1 0 0\nq 1 0 0\n"
                        "[params]\nalpha 2\nbeta 2\n")
        with pytest.raises(GraphValidationError, match="disconnected"):
            parse_problem(disconnected)
        no_overlap = ("[vertices]\np 1 0 1\nq 1 1 0\n[edges]\np q 1\n"
                      "[params]\nalpha 2\nbeta 2\n")
        with pytest.raises(GraphValidationError, match="overlap"):
            parse_problem(no_overlap)


class TestPackagedInstance:
    def test_g22_file_matches_builtin_design(self):
        text = resources.files("graphwell").joinpath("data/g22.graph").read_text()
        pf = parse_problem(text)
        g = pf.graph
        assert g.vertex_count == 22
        assert g.edge_count == 56
        file_edges = {frozenset((g.labels[int(i)], g.labels[int(j)]))
                      for i, j in zip(g.edge_i, g.edge_j)}
        assert file_edges == {frozenset(e) for e in G22_EDGES}
        assert {g.label_of(x) for x in pf.omega_a} == G22_WELL_A
        assert {g.label_of(x) for x in pf.omega_b} == G22_WELL_B
        assert pf.lambdas == decade_grid()
        assert pf.alpha == 2.0 and pf.beta == 2.0


class TestSolutionRoundTrip:
    def test_tricky_floats_survive(self, tmp_path):
        vals_u = [0.1, 1.0 / 3.0]
        vals_v = [1e-300, -2.5e-17]
        pf = parse_problem(MINIMAL)
        res = fake_result(vals_u, vals_v)
        path = tmp_path / "sol.csv"
        write_solution(pf.graph, res, path)
        back = read_solution(path)
        assert back["p"] == (0.1, 1e-300)
        assert back["q"] == (1.0 / 3.0, -2.5e-17)

    def test_stringio_and_path_agree(self, tmp_path):
        pf = parse_problem(MINIMAL)
        res = fake_result([1.25, 0.0], [-3.5, 2.0])
        buf = io.StringIO()
        write_solution(pf.graph, res, buf)
        path = tmp_path / "sol.csv"
        write_solution(pf.graph, res, path)
        assert buf.getvalue() == path.read_text()
        assert buf.getvalue().splitlines()[0] == "vertex,u,v"

    def test_declaration_order_preserved(self):
        pf = parse_problem(MINIMAL)
        buf = io.StringIO()
        write_solution(pf.graph, fake_result([1.0, 2.0], [3.0, 4.0]), buf)
        rows = buf.getvalue().splitlines()
        assert rows[1].startswith("p,") and rows[2].startswith("q,")


class TestSweepOutput:
    def test_empty_is_header_only(self):
        buf = io.StringIO()
        write_sweep([], buf)
        assert buf.getvalue() == ("lambda,energy,sup_u_outside,sup_v_outside,"
                                  "h_distance,residual_norm,converged\n")

    def test_rows_round_trip(self):
        recs = [SweepRecord(1.0, -0.5, 0.125, 2e-7, 0.1, 1e-10, True),
                SweepRecord(10.0, 0.75, 0.0, 0.0, 1.0 / 7.0, 9.9e-10, False)]
        buf = io.StringIO()
        write_sweep(recs, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == 0.125
        assert first[6] == "true"
        second = lines[2].split(",")
        assert float(second[4]) == 1.0 / 7.0
        assert second[6] == "false"


class TestProblemRoundTrip:
    def test_format_parse_fixed_point(self):
        pf = parse_problem(MINIMAL)
        once = format_problem(pf)
        again = format_problem(parse_problem(once))
        assert once == again

    def test_round_trip_preserves_problem(self):
        text = MINIMAL + "[domains]\nomega_a p q\nomega_b p\n"
        pf1 = parse_problem(text)
        pf2 = parse_problem(format_problem(pf1))
        assert pf2.graph.labels == pf1.graph.labels
        assert np.array_equal(pf2.graph.mu, pf1.graph.mu)
        assert np.array_equal(pf2.graph.edge_w, pf1.graph.edge_w)
        assert np.array_equal(pf2.potentials.a, pf1.potentials.a)
        assert pf2.lambdas == pf1.lambdas
        assert pf2.omega_a == pf1.omega_a
        assert pf2.omega_b == pf1.omega_b

    def test_awkward_floats_survive_format(self):
        text = ("[vertices]\np 0.30000000000000004 0 0\nq 1e-17 0.1 0\n"
                "[edges]\np q 2.2250738585072014e-308\n"
                "[params]\nalpha 2.0000000000000004\nbeta 2\nlambda 0.1 0.30000000000000004\n")
        pf1 = parse_problem(text)
        pf2 = parse_problem(format_problem(pf1))
        assert pf2.graph.mu[0] == 0.30000000000000004
        assert pf2.graph.mu[1] == 1e-17
        assert pf2.graph.edge_w[0] == 2.2250738585072014e-308
        assert pf2.alpha == 2.0000000000000004
        assert pf2.lambdas == (0.1, 0.30000000000000004)

    def test_parse_file_matches_parse_text(self, tmp_path):
        path = tmp_path / "prob.graph"
        path.write_text(MINIMAL, encoding="utf-8")
        pf = parse_problem_file(path)
        assert pf.graph.labels == ("p", "q")
