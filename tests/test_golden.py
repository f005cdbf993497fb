"""Pinned plain, json and csv output of every command at 2s = 1..4.

Each file under ``tests/golden/`` holds the stdout of one argv.  The test
compares it with a fresh run token by token: numbers must agree within
1e-12 relative (1e-12 absolute near zero), because Jacobi rounding may
differ by a few ulps between BLAS builds; all other text must match
exactly.

After an intended change of layout, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import re
from pathlib import Path

import pytest

import spintool.cli as cli

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("plain", "json", "csv")
SPINS = {"1/2": 1, "1": 2, "3/2": 3, "2": 4}

# a signed decimal or exponent literal; the sign belongs to the number so that
# "0.5+1e-17i" and "0.5-1e-17i" differ only in a number
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _commands() -> dict[str, list[str]]:
    commands = {}
    for spin, twice in SPINS.items():
        commands |= {
            f"spectrum-H-2s{twice}": ["spectrum", "--spin", spin, "--hamiltonian", "H"],
            f"spectrum-K-2s{twice}": ["spectrum", "--spin", spin, "--hamiltonian", "K"],
            f"verify-2s{twice}": ["verify", "--spin", spin],
            f"verify-kmax3-2s{twice}": ["verify", "--spin", spin, "--kmax", "3"],
            f"gate-check-2s{twice}": [
                "gate", "--spin", spin, "--hamiltonian", "K", "--theta", "0.7", "--check",
            ],
        }
    commands["table-max2"] = ["table", "--max-spin", "2"]
    return commands


CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in _commands().items()
    for fmt in FORMATS
}


def _same_output(expected: str, actual: str) -> str | None:
    """None if the outputs agree, else a description of the first difference."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return f"{len(got)} tokens, expected {len(want)}"
    # split with one capture group alternates text (even) and numbers (odd)
    for index, (a, b) in enumerate(zip(want, got)):
        if index % 2 == 0:
            if a != b:
                return f"text {b!r} at token {index}, expected {a!r}"
        elif not math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-12):
            return f"number {b} at token {index}, expected {a}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, run_cli):
    code, out, err = run_cli(*CASES[name])
    assert (code, err) == (0, "")
    problem = _same_output((GOLDEN / name).read_text(encoding="utf-8"), out)
    assert problem is None, f"{name}: {problem}"


def test_comparison_tolerates_rounding_only():
    assert _same_output("x=0.1+1e-17i\n", "x=0.10000000000000002-1e-17i\n") is None
    assert _same_output("x=0.1\n", "x=0.1000001\n") is not None
    assert _same_output("verdict=PASS\n", "verdict=FAIL\n") is not None
    assert _same_output("a 1 2\n", "a 1 2 3\n") is not None


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        (GOLDEN / name).write_text(buf.getvalue(), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}")
