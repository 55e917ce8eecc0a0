"""The envelope soak, scripts/soak.py: its gate, and the first 300 draws of
meta-seed 1, a slice fixed before any outcome was seen."""

import json
import re

import pytest

from tests.conftest import load_soak


def test_first_draws_of_meta_seed_1_pass_the_gate(capsys):
    soak = load_soak()
    assert soak.main(["--meta-seed", "1", "--draws", "300"]) == 0
    out, err = capsys.readouterr()
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["index"] for r in rows] == list(range(300))
    assert {r["exit"] for r in rows} <= set(soak.STATED_EXITS)
    assert {r["kind"] for r in rows} == {"lambda", "dirichlet"}
    assert all(r["converged"] == (r["exit"] == "converged") for r in rows)
    # The summary line ends with the soak's CPU seconds.
    [summary] = err.splitlines()
    assert float(re.fullmatch(r"meta-seed 1, 300 draws: .*; CPU (\d+\.\d\d) s", summary)[1]) > 0


def test_an_unconverged_draw_fails_the_gate(capsys, monkeypatch):
    soak = load_soak()
    run_draw = soak.run_draw

    def unconverged(meta_seed, index):
        row = run_draw(meta_seed, index)
        return {**row, "converged": False, "exit": "unconverged"} if index == 1 else row

    monkeypatch.setattr(soak, "run_draw", unconverged)
    assert soak.main(["--draws", "3"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3
    assert "converged 2, unconverged 1" in err
    [failed] = [line for line in err.splitlines() if line.startswith("FAILED")]
    assert json.loads(failed.removeprefix("FAILED "))["index"] == 1


def test_an_unstated_error_is_recorded_and_fails_the_gate(capsys, monkeypatch):
    # An error outside the stated exits ends neither the soak nor its
    # summary: its traceback goes to stderr, its draw's line names it, and
    # the gate fails that draw.
    soak = load_soak()
    solve = soak.solve_ground_state
    calls = []

    def broken(p):      # draws 0 to 2 are lambda-draws; draw 1 breaks
        calls.append(p)
        if len(calls) == 2:
            raise RuntimeError("broken")
        return solve(p)

    monkeypatch.setattr(soak, "solve_ground_state", broken)
    assert soak.main(["--draws", "3"]) == 1
    out, err = capsys.readouterr()
    assert [json.loads(line)["exit"] for line in out.splitlines()][1] == "RuntimeError"
    assert "RuntimeError: broken" in err
    *_traceback, summary, failed = err.splitlines()
    assert summary.startswith("meta-seed 1, 3 draws: ") and "RuntimeError 1" in summary
    assert json.loads(failed.removeprefix("FAILED "))["index"] == 1


@pytest.mark.parametrize("args", [["--meta-seed", "-1"], ["--draws", "-3"], ["--draws", "0"],
                                  ["--draws", "x"]])
def test_bad_arguments_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        load_soak().main(args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err
