"""README.md stays true to the code: its Python blocks run, and every
backticked dotted name that starts at a package module resolves."""

import importlib
import re
from pathlib import Path

import pytest

import graphwell

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
MODULES = {p.stem for p in Path(graphwell.__file__).parent.glob("*.py")} - {"__init__"}
DOTTED = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README)))


def test_blocks_found():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("code", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(PYTHON_BLOCKS) + 1)])
def test_python_block_runs(code):
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("name", [n for n in DOTTED
                                  if n.split(".")[0] in MODULES | {"graphwell"}])
def test_dotted_name_resolves(name):
    parts = name.removeprefix("graphwell.").split(".")
    obj = importlib.import_module(f"graphwell.{parts.pop(0)}" if parts[0] in MODULES else "graphwell")
    for part in parts:
        assert hasattr(obj, part), f"README.md cites {name}, which has no {part}"
        obj = getattr(obj, part)
