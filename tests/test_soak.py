"""The envelope soak, scripts/soak.py: its gate, and the first 300 draws of
meta-seed 1, a slice fixed before any outcome was seen."""

import json

from tests.conftest import load_soak


def test_first_draws_of_meta_seed_1_pass_the_gate(capsys):
    soak = load_soak()
    assert soak.main(["--meta-seed", "1", "--draws", "300"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["index"] for r in rows] == list(range(300))
    assert {r["exit"] for r in rows} <= set(soak.STATED_EXITS)
    assert {r["kind"] for r in rows} == {"lambda", "dirichlet"}
    assert all(r["converged"] == (r["exit"] == "converged") for r in rows)


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
