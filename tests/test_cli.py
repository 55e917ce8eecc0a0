import csv
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from graphwell import read_solution, solver
from graphwell.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_PARSE,
    EXIT_UNCONVERGED,
    EXIT_VALIDATION,
    main,
)

TINY = """\
[vertices]
p 1 0 0
q 2 0.5 0
[edges]
p q 1.5
[params]
alpha 2
beta 2
lambda 2
"""

MULTI_LAMBDA = TINY.replace("lambda 2", "lambda 1 10")


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.graph"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


@pytest.fixture
def multi(tmp_path):
    path = tmp_path / "multi.graph"
    path.write_text(MULTI_LAMBDA, encoding="utf-8")
    return str(path)


class TestSolve:
    def test_stdout_csv(self, tiny, capsys):
        rc = main(["solve", tiny])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        lines = captured.out.splitlines()
        assert lines[0] == "vertex,u,v"
        assert len(lines) == 3
        assert "converged true" in captured.err

    def test_out_file(self, tiny, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        rc = main(["solve", tiny, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert captured.out == ""
        sol = read_solution(out)
        assert set(sol) == {"p", "q"}

    def test_lambda_flag_overrides(self, multi, capsys):
        rc = main(["solve", multi, "--lambda", "5"])
        assert rc == EXIT_OK
        capsys.readouterr()

    def test_ambiguous_lambda_rejected(self, multi, capsys):
        rc = main(["solve", multi])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert "--lambda required" in captured.err

    def test_unconverged_exit_code(self, tiny, capsys, monkeypatch):
        # Without descent steps or polish, the random starts stay uncertified.
        # A tiny --tol would not do: the residual target is floored at
        # rounding level relative to ||w||.
        monkeypatch.setattr(solver, "_MAX_ITERS", 0)
        monkeypatch.setattr(solver, "_newton_polish", lambda p, w, tol: w)
        rc = main(["solve", tiny, "--restarts", "2"])
        captured = capsys.readouterr()
        assert rc == EXIT_UNCONVERGED
        assert "converged false" in captured.err

    def test_degenerate_exit_code(self, tiny, capsys, monkeypatch):
        # Zero starts have no Nehari projection, so no restart enters descent.
        monkeypatch.setattr(solver, "_initial_pair",
                            lambda p, rng: np.zeros((2, p.graph.vertex_count)))
        rc = main(["solve", tiny, "--restarts", "2"])
        captured = capsys.readouterr()
        assert rc == EXIT_DEGENERATE
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("graphwell: degenerate problem: ")

    def test_exponent_overrides(self, tiny, capsys):
        rc = main(["solve", tiny, "--alpha", "2.5", "--beta", "2.5"])
        assert rc == EXIT_OK
        capsys.readouterr()


class TestErrorPaths:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("[vertices]\np 1 0\n", encoding="utf-8")
        rc = main(["solve", str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert "parse error" in captured.err
        assert "line 2" in captured.err

    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "disc.graph"
        bad.write_text("[vertices]\np 1 0 0\nq 1 0 0\n[params]\nalpha 2\nbeta 2\n",
                       encoding="utf-8")
        rc = main(["validate", str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert "validation error" in captured.err

    def test_disjoint_declared_wells_fail_validation(self, tmp_path, capsys):
        # a vanishes only at p and b only at q: the wells are disjoint
        bad = tmp_path / "disjoint.graph"
        bad.write_text(TINY.replace("p 1 0 0", "p 1 0 1"), encoding="utf-8")
        rc = main(["validate", str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert "do not overlap" in captured.err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_byte_order_mark_runs_like_its_plain_twin(self, tiny, tmp_path, capsys, command):
        marked = tmp_path / "marked.graph"
        marked.write_text(TINY, encoding="utf-8-sig")
        assert main([command, tiny]) == EXIT_OK
        plain = capsys.readouterr()
        assert main([command, str(marked)]) == EXIT_OK
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_non_utf8_byte_is_a_parse_error(self, tmp_path, capsys, command):
        # 'q\xe9' is Latin-1 for 'qé', on line 3 of TINY.
        bad = tmp_path / "latin1.graph"
        bad.write_bytes(TINY.encode().replace(b"q 2", b"q\xe9 2"))
        rc = main([command, str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.err == "graphwell: parse error: line 3: byte 0xe9 is not UTF-8\n"

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "nope.graph")])
        captured = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert "io error" in captured.err

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--restarts", "0"]),
        ("dirichlet", ["--tol", "-1"]),
        ("solve", ["--lambda", "-5"]),
        ("solve", ["--alpha", "0.5"]),
        ("sweep", ["--alpha", "0.5"]),
        ("check", ["--seed", "-1"]),
        ("dirichlet", ["--tol", "nan"]),
        ("solve", ["--lambda", "nan"]),
        ("dirichlet", ["--tol", "inf"]),
        ("sweep", ["--lambdas", "1,inf"]),
        ("sweep", ["--lambdas", "1,nan"]),
        ("solve", ["--alpha", "inf"]),
        ("dirichlet", ["--beta", "inf"]),
    ])
    def test_bad_numeric_flag_is_usage_error(self, tiny, capsys, command, flags):
        rc = main([command, tiny, *flags])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("graphwell: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--lambda", "1e308"]),
        ("sweep", ["--lambdas", "1,1e308"]),
        ("check", []),
    ])
    def test_overflowing_mass_coefficient_is_usage_error(self, tmp_path, capsys, command, flags):
        # lambda a + 1 is inf at q; no solve may start from it, and numpy may
        # not warn on the way (warnings are errors here).
        path = tmp_path / "steep.graph"
        path.write_text("[vertices]\np 1 0 0\nq 1 2 0\nr 1 0 0\n[edges]\np q 1\nq r 1\n"
                        "[params]\nalpha 2\nbeta 2\nlambda 1e308\n", encoding="utf-8")
        rc = main([command, str(path), *flags])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == ("graphwell: lambda 1e+308 overflows the mass coefficient "
                                "lambda a + 1\n")

    @pytest.mark.parametrize("exponent", ["1.003", "1.0015"])
    def test_overflow_is_one_stderr_line(self, exponent):
        # With alpha = beta this close to 1 the ground state of G22 is of size
        # 1e180 and beyond: at 1.003 every restart's energy overflows, at
        # 1.0015 already the Nehari projection of every start does. Run as a
        # process, so numpy warnings and tracebacks would show on stderr.
        g22 = resources.files("graphwell").joinpath("data/g22.graph")
        proc = subprocess.run(
            [sys.executable, "-m", "graphwell.cli", "solve", str(g22),
             "--alpha", exponent, "--beta", exponent, "--lambda", "1"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OVERFLOW == 6
        assert proc.stdout == ""
        assert proc.stderr.startswith("graphwell: overflow: ")
        assert proc.stderr.count("\n") == 1

    def test_exit_code_values(self):
        # the numeric contract other tooling relies on
        assert (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION,
                EXIT_DEGENERATE, EXIT_UNCONVERGED) == (0, 2, 3, 4, 5)


class TestDirichlet:
    def test_solves_wells(self, tiny, capsys):
        rc = main(["dirichlet", tiny])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        lines = captured.out.splitlines()
        assert lines[0] == "vertex,u,v"
        sol = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        # q sits outside the a-well, so u vanishes there
        assert float(sol["q"][0]) == 0.0


class TestSweep:
    def test_flag_grid(self, tiny, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", tiny, "--lambdas", "1,10", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,energy,")
        assert len(lines) == 3
        assert all(row.endswith("true") for row in lines[1:])

    @pytest.mark.parametrize("fixture, rows", [("tiny", 1), ("multi", 2)])
    def test_file_grid_used(self, fixture, rows, request, capsys):
        # A file's lambda list, of one value or more, is the sweep's grid.
        rc = main(["sweep", request.getfixturevalue(fixture)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert len(captured.out.splitlines()) == 1 + rows

    def test_default_grid_without_file_lambdas(self, tmp_path, capsys):
        # No lambda line and no --lambdas: the decades 1 .. 1e7.
        path = tmp_path / "nolambda.graph"
        path.write_text(TINY.replace("lambda 2\n", ""), encoding="utf-8")
        rc = main(["sweep", str(path)])
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rc == EXIT_OK
        assert [float(r["lambda"]) for r in rows] == [10.0 ** k for k in range(8)]

    def test_bad_list_rejected(self, tiny, capsys):
        assert main(["sweep", tiny, "--lambdas", "1,zz"]) == EXIT_PARSE
        capsys.readouterr()
        assert main(["sweep", tiny, "--lambdas", "10,1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "increasing" in captured.err

    def test_warm_start_flag_is_gone(self, tiny, capsys):
        # Every sweep warm-starts; the old switch is now an unknown option.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", tiny, "--lambdas", "1,10", "--no-warm-start"])
        assert exc.value.code == 2
        assert "--no-warm-start" in capsys.readouterr().err

    def test_same_seed_same_bytes(self, tiny, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", tiny, "--lambdas", "1,100", "--seed", "3",
                     "--out", str(a)]) == EXIT_OK
        assert main(["sweep", tiny, "--lambdas", "1,100", "--seed", "3",
                     "--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unconverged_exit_code(self, tiny, tmp_path, capsys, monkeypatch):
        # As in TestSolve.test_unconverged_exit_code: no descent steps and no
        # polish leave every solve uncertified. The CSV is written anyway.
        monkeypatch.setattr(solver, "_MAX_ITERS", 0)
        monkeypatch.setattr(solver, "_newton_polish", lambda p, w, tol: w)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", tiny, "--lambdas", "1,10", "--restarts", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_UNCONVERGED
        assert captured.err == "graphwell: 2 of 2 lambda solves did not converge\n"
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,energy,")
        assert len(lines) == 3
        assert all(row.endswith(",false") for row in lines[1:])

    def test_g22_sweep_matches_golden_answer(self, tmp_path, capsys):
        # tests/data/g22_sweep_seed7.csv is the output of
        # `graphwell sweep g22.graph --seed 7` on the packaged instance. The
        # residual column is rounding noise and is not compared.
        out = tmp_path / "sweep.csv"
        path = str(resources.files("graphwell").joinpath("data/g22.graph"))
        assert main(["sweep", path, "--seed", "7", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        golden = Path(__file__).parent / "data" / "g22_sweep_seed7.csv"
        with golden.open(encoding="utf-8") as fh:
            want = list(csv.DictReader(fh))
        with out.open(encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        assert [r["lambda"] for r in got] == [r["lambda"] for r in want]
        for g, w in zip(got, want):
            assert float(g["energy"]) == pytest.approx(float(w["energy"]), rel=1e-12, abs=0.0)
            for key in ("sup_u_outside", "sup_v_outside", "h_distance"):
                assert float(g[key]) == pytest.approx(float(w[key]), rel=0.0, abs=1e-12), key
            assert g["converged"] == w["converged"]


class TestCheckAndValidate:
    def test_check_passes(self, tiny, capsys):
        rc = main(["check", tiny])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        out = captured.out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    @pytest.mark.parametrize("side", [40, 50])
    def test_check_passes_on_a_large_grid_with_exponents_near_1(self, side, tmp_path, capsys):
        # Unit side x side grid, alpha = beta = 1.1. The finite-difference
        # check drew values near 0, where |u|^1.1 is not smooth, and both
        # checks measured errors against sums that random signs had cancelled
        # (integration by parts at side 40, seed 4).
        width = int(0.6 * side)
        rows = ["[vertices]"]
        rows += [f"v{r}_{c} 1 {int(c >= width)} {int(c < side - width)}"
                 for r in range(side) for c in range(side)]
        rows.append("[edges]")
        rows += [f"v{r}_{c} v{r}_{c + 1} 1" for r in range(side) for c in range(side - 1)]
        rows += [f"v{r}_{c} v{r + 1}_{c} 1" for r in range(side - 1) for c in range(side)]
        rows += ["[params]", "alpha 1.1", "beta 1.1"]
        path = tmp_path / "grid.graph"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for seed in range(5):
            assert main(["check", str(path), "--seed", str(seed)]) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 3 and all(line.startswith("PASS ") for line in lines), (seed, lines)

    def test_validate_summary(self, tmp_path, capsys):
        target = tmp_path / "g22.graph"
        data = resources.files("graphwell").joinpath("data/g22.graph").read_text()
        target.write_text(data, encoding="utf-8")
        rc = main(["validate", str(target)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert "valid: 22 vertices, 56 edges" in captured.out
        assert "overlap 6" in captured.out


class TestConsoleScript:
    def test_installed_entry_point(self, tiny):
        exe = shutil.which("graphwell")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "validate", tiny], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "valid:" in proc.stdout

    def test_module_invocation(self, tiny):
        proc = subprocess.run([sys.executable, "-m", "graphwell.cli", "validate", tiny],
                              capture_output=True, text=True)
        assert proc.returncode == 0
