import io
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from graphwell import (
    GraphValidationError,
    PairFunction,
    ParseError,
    decade_grid,
    parse_problem,
    parse_problem_file,
    read_solution,
    write_solution,
    write_sweep,
)
from graphwell.experiments import G22_WELL_A, G22_WELL_B, SweepRecord

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


def pair_of(u, v):
    return PairFunction(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


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
        # the wells are the zero sets of the potentials
        assert pf.potentials.omega_a == frozenset({0})
        assert pf.potentials.omega_b == frozenset({0, 1})

    def test_wells_cannot_be_declared(self):
        # A declared well would have to restate a zero set, or the lambda
        # problems would not converge to the Dirichlet problem on it.
        with pytest.raises(ParseError, match=r"unknown section \[domains\]") as err:
            parse_problem(MINIMAL + "[domains]\nomega_a p q\nomega_b p\n")
        assert err.value.line == MINIMAL.count("\n") + 1

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
        assert {g.label_of(x) for x in pf.potentials.omega_a} == G22_WELL_A
        assert {g.label_of(x) for x in pf.potentials.omega_b} == G22_WELL_B
        assert pf.lambdas == decade_grid()
        assert pf.alpha == 2.0 and pf.beta == 2.0


class TestReadme:
    def test_problem_file_example_parses_to_the_stated_wells(self):
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = text[text.index("## Problem files"):]
        example = re.search(r"```\n(.*?)```", section, re.S).group(1)
        stated = re.search(r"Here Omega_a = \{(.*?)\} and\s+Omega_b = \{(.*?)\}", section)
        pf = parse_problem(example)
        for well, listed in zip((pf.potentials.omega_a, pf.potentials.omega_b), stated.groups()):
            assert {pf.graph.label_of(x) for x in well} == set(listed.split(", "))


class TestSolutionRoundTrip:
    def test_tricky_floats_survive(self, tmp_path):
        vals_u = [0.1, 1.0 / 3.0]
        vals_v = [1e-300, -2.5e-17]
        pf = parse_problem(MINIMAL)
        pair = pair_of(vals_u, vals_v)
        path = tmp_path / "sol.csv"
        write_solution(pf.graph, pair, path)
        back = read_solution(path)
        assert back["p"] == (0.1, 1e-300)
        assert back["q"] == (1.0 / 3.0, -2.5e-17)

    def test_labels_with_commas_and_quotes_survive(self):
        # A label is any token without whitespace, so a comma or a quote in
        # one must not split its row or be stripped on the way back.
        pf = parse_problem('[vertices]\np,1 1 0 0\n"q" 2 0.5 0\n[edges]\np,1 "q" 1.5\n'
                           '[params]\nalpha 2\nbeta 2\n')
        buf = io.StringIO()
        write_solution(pf.graph, pair_of([1.25, 0.0], [-3.5, 2.0]), buf)
        buf.seek(0)
        assert read_solution(buf) == {"p,1": (1.25, -3.5), '"q"': (0.0, 2.0)}

    def test_stringio_and_path_agree(self, tmp_path):
        pf = parse_problem(MINIMAL)
        pair = pair_of([1.25, 0.0], [-3.5, 2.0])
        buf = io.StringIO()
        write_solution(pf.graph, pair, buf)
        path = tmp_path / "sol.csv"
        write_solution(pf.graph, pair, path)
        assert buf.getvalue() == path.read_text()
        assert buf.getvalue().splitlines()[0] == "vertex,u,v"

    def test_declaration_order_preserved(self):
        pf = parse_problem(MINIMAL)
        buf = io.StringIO()
        write_solution(pf.graph, pair_of([1.0, 2.0], [3.0, 4.0]), buf)
        rows = buf.getvalue().splitlines()
        assert rows[1].startswith("p,") and rows[2].startswith("q,")

    def test_wrong_header_names_line_1(self):
        with pytest.raises(ParseError, match="header") as exc:
            read_solution(io.StringIO("label,u,v\np,1,2\n"))
        assert exc.value.line == 1

    def test_short_row_names_its_line(self):
        with pytest.raises(ParseError, match="2 fields") as exc:
            read_solution(io.StringIO("vertex,u,v\np,1,2\nq,3\n"))
        assert exc.value.line == 3

    def test_non_number_names_its_line(self):
        with pytest.raises(ParseError, match="v is not a number") as exc:
            read_solution(io.StringIO("vertex,u,v\np,1,two\n"))
        assert exc.value.line == 2

    def test_repeated_vertex_names_its_line(self):
        with pytest.raises(ParseError, match="duplicate vertex label 'p'") as exc:
            read_solution(io.StringIO("vertex,u,v\np,1,2\nq,3,4\np,5,6\n"))
        assert exc.value.line == 4


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
    def test_awkward_floats_survive_format(self):
        text = ("[vertices]\np 0.30000000000000004 0 0\nq 1e-17 0.1 0\n"
                "[edges]\np q 2.2250738585072014e-308\n"
                "[params]\nalpha 2.0000000000000004\nbeta 2\nlambda 0.1 0.30000000000000004\n")
        pf = parse_problem(text)
        assert pf.graph.mu[0] == 0.30000000000000004
        assert pf.graph.mu[1] == 1e-17
        assert pf.graph.edge_w[0] == 2.2250738585072014e-308
        assert pf.alpha == 2.0000000000000004
        assert pf.lambdas == (0.1, 0.30000000000000004)

    def test_parse_file_matches_parse_text(self, tmp_path):
        path = tmp_path / "prob.graph"
        path.write_text(MINIMAL, encoding="utf-8")
        pf = parse_problem_file(path)
        assert pf.graph.labels == ("p", "q")


class TestEncoding:
    # Every file is read as UTF-8, with or without a byte-order mark; a byte
    # that is not UTF-8 is a ParseError that names its line.
    def test_byte_order_mark_parses_like_its_plain_twin(self, tmp_path):
        plain, marked = tmp_path / "plain.graph", tmp_path / "marked.graph"
        plain.write_text(MINIMAL, encoding="utf-8")
        marked.write_text(MINIMAL, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = parse_problem_file(plain), parse_problem_file(marked)
        assert a.graph.labels == b.graph.labels == ("p", "q")
        assert np.array_equal(a.graph.mu, b.graph.mu)
        assert np.array_equal(a.graph.edge_w, b.graph.edge_w)
        assert (a.alpha, a.beta, a.lambdas) == (b.alpha, b.beta, b.lambdas)
        assert a.potentials.omega_a == b.potentials.omega_a
        assert a.potentials.omega_b == b.potentials.omega_b

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, newline, encoding):
        # 'q\xe9' is Latin-1 for 'qé', on line 4 of MINIMAL.
        data = MINIMAL.replace("\n", newline).encode(encoding).replace(b"q 2", b"q\xe9 2")
        path = tmp_path / "latin1.graph"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="byte 0xe9 is not UTF-8") as exc:
            parse_problem_file(path)
        assert exc.value.line == 4

    def test_solution_with_byte_order_mark_reads_like_its_plain_twin(self, tmp_path):
        text = "vertex,u,v\np,1.25,-3.5\nq,0,2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert read_solution(marked) == read_solution(plain) == {"p": (1.25, -3.5),
                                                                 "q": (0.0, 2.0)}

    def test_text_and_stream_drop_one_byte_order_mark(self):
        # A caller who opens a BOM file with encoding="utf-8" passes the mark on.
        a, b = parse_problem(MINIMAL), parse_problem("\ufeff" + MINIMAL)
        assert a.graph.labels == b.graph.labels == ("p", "q")
        assert np.array_equal(a.graph.mu, b.graph.mu)
        assert np.array_equal(a.graph.edge_w, b.graph.edge_w)
        assert (a.alpha, a.beta, a.lambdas) == (b.alpha, b.beta, b.lambdas)
        assert a.potentials.omega_a == b.potentials.omega_a
        text = "vertex,u,v\np,1.25,-3.5\nq,0,2\n"
        assert (read_solution(io.StringIO("\ufeff" + text)) == read_solution(io.StringIO(text))
                == {"p": (1.25, -3.5), "q": (0.0, 2.0)})
        # One mark only: a second is content.
        with pytest.raises(ParseError, match="content before any section header"):
            parse_problem("\ufeff\ufeff" + MINIMAL)
        with pytest.raises(ParseError, match="solution header must be 'vertex,u,v'"):
            read_solution(io.StringIO("\ufeff\ufeff" + text))

    def test_solution_with_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"vertex,u,v\np,1,2\nq\xe9,3,4\n")
        with pytest.raises(ParseError, match="byte 0xe9 is not UTF-8") as exc:
            read_solution(path)
        assert exc.value.line == 3
