import shutil
import subprocess
import sys
from importlib import resources

import pytest

from graphwell import read_solution
from graphwell.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
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

    def test_unconverged_exit_code(self, tiny, capsys):
        # a tolerance below the float noise floor cannot be certified
        rc = main(["solve", tiny, "--tol", "1e-30", "--restarts", "2"])
        captured = capsys.readouterr()
        assert rc == EXIT_UNCONVERGED
        assert "converged false" in captured.err

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

    def test_file_grid_used(self, multi, capsys):
        rc = main(["sweep", multi])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert len(captured.out.splitlines()) == 3

    def test_bad_list_rejected(self, tiny, capsys):
        assert main(["sweep", tiny, "--lambdas", "1,zz"]) == EXIT_PARSE
        capsys.readouterr()
        assert main(["sweep", tiny, "--lambdas", "10,1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "increasing" in captured.err

    def test_no_warm_start(self, tiny, capsys):
        rc = main(["sweep", tiny, "--lambdas", "1,10", "--no-warm-start"])
        capsys.readouterr()
        assert rc == EXIT_OK

    def test_same_seed_same_bytes(self, tiny, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", tiny, "--lambdas", "1,100", "--seed", "3",
                     "--out", str(a)]) == EXIT_OK
        assert main(["sweep", tiny, "--lambdas", "1,100", "--seed", "3",
                     "--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestCheckAndValidate:
    def test_check_passes(self, tiny, capsys):
        rc = main(["check", tiny])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        out = captured.out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

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
