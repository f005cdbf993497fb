"""The console contract, checked on a real process.

``run`` starts the installed ``spintool`` script when it is on PATH, else
``python -m spintool.cli``.  Either inherits the environment, and so the
package, of these tests, and every warning is an error in it.  These are
the checks that need a process of their own: a pipe that its reader
closes, the exit code and stderr of the whole program, the entry point
itself, and the byte sweep of ``tests/cli_sweep.py``.  Every other check
of the command line runs in process, in ``test_cli.py`` and beside the
code that it checks.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from cli_sweep import sweep

_SCRIPT = shutil.which("spintool")
_COMMAND = [_SCRIPT] if _SCRIPT else [sys.executable, "-m", "spintool.cli"]

_CAP_GATE = ["gate", "--spin", "12", "--theta", "0.7", "--check"]


def run(*args: str, head: int | None = None) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``spintool *args``.

    With ``head``, only that many bytes of stdout are read before the pipe
    is closed, as ``| head -c`` does.
    """
    # the environment as the test has it, not as it was at import
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    with subprocess.Popen(
        [*_COMMAND, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        if head is None:
            out, err = proc.communicate()
        else:
            out = proc.stdout.read(head)
            proc.stdout.close()
            err = proc.stderr.read()
        code = proc.wait()
    return code, out.decode(), err.decode()


def test_the_entry_point_writes_a_table():
    code, out, err = run("table", "--max-spin", "1", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].startswith("spin,dimension,")


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_a_closed_pipe_ends_in_the_verdicts_exit_code(fmt):
    # the reader takes 20 bytes of H's gate at the cap and goes while it is
    # still being written: no traceback, and not exit 1, the code of a
    # failed verdict
    code, out, err = run(*_CAP_GATE, "--hamiltonian", "H", "--format", fmt, head=20)
    assert len(out) == 20
    assert (code, err) == (0, "")


def test_k_gate_at_the_cap_is_one_matrix_in_every_format():
    # K's pattern is one component: its gate takes the dense products, and
    # each of its rows the full-row path of each format's writer
    # the three processes run side by side
    with ThreadPoolExecutor(3) as pool:
        runs = pool.map(
            lambda fmt: run(*_CAP_GATE, "--hamiltonian", "K", "--format", fmt),
            ["json", "csv", "plain"],
        )
        codes, (json_text, csv_text, plain_text), errors = zip(*runs)
    assert codes == (0, 0, 0) and errors == ("", "", "")
    report = json.loads(json_text)
    # max |lambda| = s(s + 1) = 156
    check = report["check"]
    assert report["verdict"] is check["passed"] is True
    assert check["unitarity_residual"] <= 1e-8
    assert check["eigenpair_residual"] <= 1e-8 * 156
    pairs = np.array(report["matrix"])
    assert pairs.shape == (625, 625, 2)
    rows = csv_text.splitlines()[1:]
    cells = [[complex(cell.replace("i", "j")) for cell in row.split(",")] for row in rows]
    assert np.array_equal(cells, pairs[..., 0] + 1j * pairs[..., 1])
    # plain writes the cells of csv, a space between them
    lines = plain_text.splitlines()
    assert lines[-1] == "verdict=PASS"
    assert lines[-626:-1] == [row.replace(",", " ") for row in rows]


def test_an_ambient_spin_tool_tol_is_not_read(monkeypatch):
    # the process inherits the variable, and the tolerance is still --tol's
    # default
    monkeypatch.setenv("SPIN_TOOL_TOL", "1e-3")
    code, out, err = run("verify", "--spin", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["tol"] == 1e-12


def test_subnormal_tol_ends_silently_in_an_exit_code():
    # a subnormal pivot once overflowed the Jacobi step: with warnings as
    # errors that was a RuntimeWarning traceback and exit 1
    code, out, err = run("spectrum", "--spin", "3", "--hamiltonian", "H", "--tol", "1e-310")
    assert code in (0, 3), err
    assert "Warning" not in err and "Traceback" not in err
    if code == 0:
        assert out.splitlines()[-1].startswith("verdict=")


def test_the_cli_sweep_tells_a_tree_from_a_changed_copy(tmp_path):
    # tests/cli_sweep.py compares two trees' command lines byte for byte:
    # one tree against itself gives no difference, and a copy whose one
    # message changed gives that command alone
    root = Path(__file__).resolve().parents[1]
    argv = [
        ("spectrum", "--spin", "1", "--hamiltonian", "K", "--format", "json"),
        ("spectrum", "--hamiltonian", "file", "--file", "{dir}/latin1-line3.txt"),
        ("spectrum", "--hamiltonian", "file", "--file", "{dir}/comments-only.txt"),
    ]
    assert sweep(argv, root, root) == []
    shutil.copytree(
        root / "src" / "spintool",
        tmp_path / "src" / "spintool",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cli = tmp_path / "src" / "spintool" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("no matrix rows found") == 1
    cli.write_text(text.replace("no matrix rows found", "no rows"), encoding="utf-8")
    assert sweep(argv, root, tmp_path) == [argv[2]]
