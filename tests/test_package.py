"""The package namespace and the README's library example."""

import ast
import re
from pathlib import Path

import pytest

import spintool
from spintool import eig, gates, hamiltonians, linalg, spectral, spin

MODULES = (linalg, spin, hamiltonians, eig, spectral, gates)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_are_the_module_lists():
    names = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert spintool.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spintool, name) is getattr(module, name), name


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["True", "True True True"]
    closed = ((-3.75, 1), (-2.75, 3), (-0.75, 5), (2.25, 7))
    assert ast.literal_eval(lines[3]) == closed
    computed = ast.literal_eval(lines[2])
    assert [m for _, m in computed] == [m for _, m in closed]
    assert [v for v, _ in computed] == pytest.approx([v for v, _ in closed], abs=1e-12)
