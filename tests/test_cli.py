import contextlib
import csv
import io
import json
import math
import os
import re
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spintool.cli as cli
from spintool.eig import hermitian_eig
from spintool.gates import unitarity_residual
from spintool.linalg import Blocks, BlockStack
from spintool.spectral import cluster_spectrum

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "report_schema.json").read_text(encoding="utf-8")
)


def _valid_json(out):
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_spectrum_plain_spin_one(run_cli):
    code, out, _ = run_cli("spectrum", "--spin", "1", "--hamiltonian", "H")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("spectrum spin=1 hamiltonian=H dimension=9")
    clusters = [ln for ln in lines if ln.startswith("cluster ")]
    assert len(clusters) == 3
    assert clusters[0].endswith("multiplicity=1")
    assert lines[-1] == "verdict=PASS"


def test_spectrum_json_spin_half_cyclic(run_cli):
    code, out, _ = run_cli(
        "spectrum", "--spin", "1/2", "--hamiltonian", "K", "--format", "json"
    )
    assert code == 0
    doc = _valid_json(out)
    assert doc["command"] == "spectrum"
    assert doc["dimension"] == 4
    values = [c["value"] for c in doc["clusters"]]
    mults = [c["multiplicity"] for c in doc["clusters"]]
    np.testing.assert_allclose(values, [-0.75, 0.25], atol=1e-12)
    assert mults == [1, 3]
    assert doc["closed_form_match"] is True


def test_spectrum_csv_matches_json(run_cli):
    code, out_csv, _ = run_cli("spectrum", "--spin", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    code, out_json, _ = run_cli("spectrum", "--spin", "1", "--format", "json")
    doc = json.loads(out_json)
    assert len(rows) == len(doc["clusters"])
    for row, cluster in zip(rows, doc["clusters"]):
        assert float(row["value"]) == cluster["value"]
        assert int(row["multiplicity"]) == cluster["multiplicity"]


def test_verify_json_spin_three_half(run_cli):
    code, out, _ = run_cli("verify", "--spin", "3/2", "--format", "json")
    assert code == 0
    doc = _valid_json(out)
    assert doc["verdict"] is True
    assert doc["algebra"]["passed"] is True
    assert doc["spectra_equal"] is True
    assert doc["closed_form_match"] is True
    values = [c["value"] for c in doc["clusters"]]
    mults = [c["multiplicity"] for c in doc["clusters"]]
    np.testing.assert_allclose(values, [-3.75, -2.75, -0.75, 2.25], atol=1e-9)
    assert mults == [1, 3, 5, 7]
    assert any("multiplicity 7" in note for note in doc["notes"])


def test_verify_moment_prefix_spin_half(run_cli):
    # at 2s = 1 the range is the full dimension 4, and the prefix is 2
    code, out, _ = run_cli("verify", "--spin", "1/2", "--format", "json")
    assert code == 0
    doc = _valid_json(out)
    assert doc["kmax"] == 4
    assert doc["moments"]["powers"] == [1, 2, 3, 4]
    np.testing.assert_allclose(
        doc["moments"]["traces_a"], [0.0, 0.75, -0.375, 0.328125], atol=1e-15
    )
    np.testing.assert_allclose(
        doc["moments"]["traces_b"], [0.0, 0.75, -0.375, 0.328125], atol=1e-15
    )
    assert doc["moments"]["prefix_len"] == 2
    assert doc["moments"]["prefix_passed"] is True


def test_verify_default_kmax_is_dimension(run_cli):
    code, out, _ = run_cli("verify", "--spin", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kmax"] == 9
    assert doc["moments"]["prefix_len"] == 3


def test_verify_csv_moment_table(run_cli):
    code, out, _ = run_cli("verify", "--spin", "1/2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["power"] for r in rows] == ["1", "2", "3", "4"]
    assert float(rows[2]["trace_a"]) == -0.375


_FORMATS = ("plain", "json", "csv")


@pytest.mark.parametrize(
    "argv, kmax, fmt",
    [
        pytest.param(argv, kmax, fmt, id=f"{name}-{fmt}")
        for name, argv, kmax, formats in [
            ("11/2", ("--spin", "11/2"), 144, _FORMATS),
            ("6", ("--spin", "6"), 169, _FORMATS),
            # at the cap, in json: kmax 25 ends on a giant power that one
            # trace reads
            ("12", ("--spin", "12"), 25, ["json"]),
        ]
        for fmt in formats
    ],
)
def test_verify_full_moment_range_passes(run_cli, argv, kmax, fmt):
    code, out, err = run_cli("verify", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        doc = _valid_json(out)
        assert doc["verdict"] is True
        assert doc["moments"]["passed"] is True
        assert doc["kmax"] == kmax
    elif fmt == "plain":
        assert "\nmoments passed=True " in out
        assert out.endswith("\nverdict=PASS\n")
    else:
        # csv holds the moment table only; exit 0 is the passing verdict
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["power"]) for r in rows] == list(range(1, kmax + 1))
        assert all(np.isfinite(float(r["trace_b"])) for r in rows)


def test_gate_json_identity_at_zero(run_cli):
    code, out, _ = run_cli(
        "gate", "--spin", "1/2", "--theta", "0", "--format", "json"
    )
    assert code == 0
    doc = _valid_json(out)
    matrix = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    np.testing.assert_allclose(matrix, np.eye(4), atol=1e-12)
    assert doc["check"] is None


def test_gate_check_full_turn(run_cli):
    theta = repr(2.0 * np.pi)
    code, out, _ = run_cli(
        "gate", "--spin", "1/2", "--theta", theta, "--check", "--format", "json"
    )
    assert code == 0
    doc = _valid_json(out)
    assert doc["check"]["passed"] is True
    assert doc["check"]["unitarity_residual"] <= 1e-10
    assert doc["check"]["global_phase"] == pytest.approx(-np.pi / 2.0, abs=1e-9)


@pytest.mark.parametrize(
    "theta, global_phase",
    [
        (25.132741228718345, 0.0),  # 8 pi: the phases straddle the 0 / 2 pi wrap
        (2.0 * np.pi, -np.pi / 2.0),  # one phase, 3 pi / 2, away from the wrap
        (0.7, None),  # two distinct phases
    ],
)
def test_gate_check_global_phase_across_the_wrap(run_cli, theta, global_phase):
    argv = ["gate", "--spin", "1/2", "--hamiltonian", "K", "--theta", repr(theta), "--check"]
    code, out, _ = run_cli(*argv, "--format", "json")
    assert code == 0
    found = _valid_json(out)["check"]["global_phase"]
    if global_phase is None:
        assert found is None
    else:
        assert found == pytest.approx(global_phase, abs=1e-9)
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert (f"global_phase={found!r}" in out.splitlines()) == (found is not None)


@pytest.mark.parametrize("check", [[], ["--check"]])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_gate_with_overflowing_phases_is_numerical_error(run_cli, fmt, check):
    # theta * lambda overflows to inf, so every gate entry is NaN
    code, out, err = run_cli(
        "gate", "--spin", "2", "--theta", "1e308", *check, "--format", fmt
    )
    assert (code, out) == (3, "")
    assert err == "error: synthesized gate failed the unitarity bound: nan\n"


def test_gate_check_catches_broken_unitary(run_cli, monkeypatch):
    real = cli.synthesize_gate

    def broken(ham, theta, **kwargs):
        gate = real(ham, theta, **kwargs)
        damaged = gate.matrix.copy()
        damaged[0, 0] += 1e-3
        # the check reads the residual that synthesis measured, as it does
        # for every gate synthesize_gate returns
        return cli.Gate(
            theta=gate.theta,
            kind=gate.kind,
            spin=gate.spin,
            matrix_blocks=BlockStack.of(damaged),
            source_values=gate.source_values,
            unitarity_residual=unitarity_residual(damaged),
            source_residual=gate.source_residual,
        )

    monkeypatch.setattr(cli, "synthesize_gate", broken)
    code, out, _ = run_cli("gate", "--spin", "1/2", "--theta", "1.0", "--check")
    assert code == 1
    assert "verdict=FAIL" in out


@pytest.mark.parametrize("tol, passed", [(1e-12, True), (1e-3, False), (0.5, False)])
def test_gate_check_fails_loose_eigenpairs(run_cli, cli_tol, tol, passed):
    # solved at a loose stop, which only a test sets, the gate is still
    # unitary to rounding, but built from eigenpairs 4.4e-4 off at 1e-3
    # against a bound of 1e-8 * max |lambda|, 2e-8 for H at spin 1
    cli_tol(tol)
    argv = ["gate", "--spin", "1", "--theta", "0.3", "--check"]
    code, out, err = run_cli(*argv, "--format", "json")
    assert (code, err) == (0 if passed else 1, "")
    doc = _valid_json(out)
    check = doc["check"]
    assert doc["verdict"] is passed
    assert check["unitarity_residual"] <= 1e-10
    assert check["passed"] is passed
    assert (check["eigenpair_residual"] <= 2e-8) is passed
    code, out, _ = run_cli(*argv)
    lines = out.splitlines()
    assert lines[2] == f"eigenpair_residual={check['eigenpair_residual']!r}"
    assert lines[-1] == ("verdict=PASS" if passed else "verdict=FAIL")


@pytest.mark.parametrize(
    "argv",
    [
        "spectrum --spin 1 --hamiltonian H",
        "spectrum --spin 3/2 --hamiltonian K",
        "verify --spin 1",
        "table --max-spin 3/2",
    ],
)
def test_a_kernel_that_loses_similarity_fails_every_verdict(run_cli, lossy_rotations, argv):
    # transposed rotations keep every value, so every byte of the report but
    # the verdicts stays, closed form and moments included: each verdict
    # fails on its eigenpair residuals, which no format prints
    argv = [*argv.split(), "--format", "json"]
    code, out, err = run_cli(*argv)
    honest = _valid_json(out)
    assert (code, err, honest["verdict"]) == (0, "", True)
    lossy_rotations()
    code, out, err = run_cli(*argv)
    lossy = _valid_json(out)
    assert (code, err, lossy["verdict"]) == (1, "", False)
    for row in honest.get("rows", []):
        row["verdict"] = False
    assert lossy == {**honest, "verdict": False}


def test_a_gate_of_lost_similarity_fails_its_check(run_cli, lossy_rotations):
    # the vectors stay orthonormal, so the gate is unitary to rounding; only
    # its generator's eigenpair residual shows the loss
    lossy_rotations()
    code, out, err = run_cli("gate", "--spin", "1", "--theta", "0.3", "--check", "--format", "json")
    check = _valid_json(out)["check"]
    assert (code, err) == (1, "")
    assert check["unitarity_residual"] <= 1e-10
    assert check["eigenpair_residual"] > 1e-8 * 2.0 and not check["passed"]


# a gate of two blocks over the labels [1, 0, 0, 1, 1]: rows and columns
# {1, 2}, the first block, and {0, 3, 4}; the blocks hold signed zeros and
# +0.0, and every entry off them is +0.0
_BLOCK_LABEL = [1, 0, 0, 1, 1]
_EDGE_BLOCKS = np.array(
    [
        [complex(-0.0, 0.0), 0j, 0j, complex(1e16, -1e16), complex(0.0, 0.0)],
        [0j, complex(0.0, -0.0), complex(5e-324, -5e-324), 0j, 0j],
        [0j, complex(0.0, 0.0), complex(-100.0, -0.05), 0j, 0j],
        [complex(-1.5, 1e-300), 0j, 0j, complex(-0.0, -0.0), complex(2.0, -1.0)],
        [complex(0.1, 2.5), 0j, 0j, complex(-0.0, 5e-324), complex(0.0, -0.0)],
    ]
)


def _in_blocks(dense, label=_BLOCK_LABEL):
    """dense, which is zero off the blocks of label, as a gate holds it: the
    stack of its blocks, here with NaN in their padding, which no writer
    may read."""
    rows = Blocks.of(np.array(label))
    assert rows.members.shape[0] > 1
    stack = rows.stack(dense)
    stack[~rows.inside(rows)] = np.nan
    return BlockStack(stack, rows, rows)


@pytest.mark.parametrize("held", ["dense", "blocks"])
def test_gate_cells_are_format_complex_of_the_json_pairs(run_cli, monkeypatch, held):
    # a dense matrix, which a gate assembled by hand holds as one block; a
    # gate of several blocks writes each row from its block, in row order,
    # and builds no dense array
    edge = np.array(
        [
            [complex(0.0, -0.0), complex(-0.0, 0.0), complex(1e16, -1e16)],
            [complex(5e-324, -5e-324), complex(-100.0, -0.05), complex(0.1, 2.5)],
            [complex(-1.5, 1e-300), complex(2.0, -1.0), complex(-0.0, -0.0)],
        ]
    )
    matrix = BlockStack.of(edge)
    if held == "blocks":
        edge = _EDGE_BLOCKS
        matrix = _in_blocks(edge)
    real = cli.synthesize_gate

    def with_edge_entries(ham, theta, **kwargs):
        gate = real(ham, theta, **kwargs)
        return cli.Gate(gate.theta, gate.kind, gate.spin, matrix, gate.source_values)

    monkeypatch.setattr(cli, "synthesize_gate", with_edge_entries)
    argv = ["gate", "--spin", "1/2", "--theta", "1.0"]
    n = len(edge)
    cells = [[cli.format_complex(z) for z in row] for row in edge.tolist()]
    _, out, _ = run_cli(*argv, "--format", "csv")
    header = ",".join(f"col{j}" for j in range(n))
    assert out.splitlines() == [header] + [",".join(row) for row in cells]
    _, out, _ = run_cli(*argv)
    assert out.splitlines()[1 : n + 1] == [" ".join(row) for row in cells]
    _, out, _ = run_cli(*argv, "--format", "json")
    pairs = json.loads(out)["matrix"]
    assert [[cli.format_complex(complex(*z)) for z in row] for row in pairs] == cells
    if held == "blocks":
        assert "dense" not in vars(matrix)
        report = _gate_report(*argv[1:])
        assert report["matrix"] is matrix and report["dimension"] == n
        _assert_same_text("".join(cli._render_json(report)), _dumps_with_pairs(report))
        _assert_same_text("".join(cli._render_csv(report)), _reference_csv(report))
        _assert_same_text("".join(cli._render_plain(report)), _reference_plain(report))


def _gate_report(*argv):
    args = cli.build_parser().parse_args(["gate", *argv])
    args.tol = cli.DEFAULT_TOL
    return cli.cmd_gate(args)


def _dense(report):
    """The report's matrix as a dense array: the gate's blocks scattered."""
    return report["matrix"].dense


def _dumps_with_pairs(report):
    """The json of the report with its matrix as (re, im) pairs of floats."""
    m = _dense(report)
    pairs = [list(zip(re, im)) for re, im in zip(m.real.tolist(), m.imag.tolist())]
    return json.dumps({**report, "matrix": pairs}, indent=2, allow_nan=False) + "\n"


def _assert_same_text(found, expected):
    """Fail at the first differing character; pytest's own diff of two
    strings of 17 MB would take minutes."""
    if found != expected:
        at = len(os.path.commonprefix([found, expected]))
        start = max(0, at - 40)
        pytest.fail(
            f"texts differ at offset {at}: "
            f"{found[start:at + 40]!r} != {expected[start:at + 40]!r}"
        )


@pytest.mark.parametrize(
    "spin, hamiltonian", [("1/2", "K"), ("2", "K"), ("6", "K"), ("12", "H")]
)
def test_gate_json_is_byte_exact(spin, hamiltonian):
    argv = ["--spin", spin, "--hamiltonian", hamiltonian, "--theta", "0.7", "--check"]
    report = _gate_report(*argv)
    # each gate passes its check, whose bound on the eigenpair residual
    # scales with max |lambda| = s(s + 1), 156 at the cap
    check = report["check"]
    assert report["verdict"] is check["passed"] is True
    assert check["unitarity_residual"] <= 1e-8
    s = Fraction(spin)
    assert check["eigenpair_residual"] <= 1e-8 * max(1, s * (s + 1))
    _assert_same_text("".join(cli._render_json(report)), _dumps_with_pairs(report))


@pytest.mark.parametrize("spin", ["1/2", "2", "6"])
@pytest.mark.parametrize("hamiltonian", ["H", "K"])
def test_gate_json_comes_in_row_pieces(spin, hamiltonian):
    argv = ["--spin", spin, "--hamiltonian", hamiltonian, "--theta", "0.7", "--check"]
    report = _gate_report(*argv)
    pieces = list(cli._render_json(report))
    # the head, one piece per matrix row and the tail, never joined
    assert len(pieces) == report["dimension"] + 2
    _assert_same_text("".join(pieces), _dumps_with_pairs(report))
    rows = json.loads("".join(pieces))["matrix"]
    for piece, row in zip(pieces[1:-1], rows):
        assert json.loads(piece.rstrip().rstrip(",")) == row


@pytest.mark.parametrize("held", ["dense", "blocks"])
@pytest.mark.parametrize("check", [[], ["--check"]])
def test_gate_json_of_a_non_finite_matrix_writes_nothing(run_cli, monkeypatch, check, held):
    real = cli.synthesize_gate

    def with_a_nan(ham, theta, **kwargs):
        gate = real(ham, theta, **kwargs)
        if held == "dense":
            dense = gate.matrix.copy()
            dense[-1, -1] = complex(1.0, np.nan)
            matrix = BlockStack.of(dense)
        else:
            # in H's last block, one of 9 at 2s = 4
            blocks = gate.matrix_blocks
            assert blocks.rows.members.shape[0] == 9
            stack = blocks.stack.copy()
            stack[-1, 0, 0] = complex(1.0, np.nan)
            matrix = BlockStack(stack, blocks.rows, blocks.columns)
        return cli.Gate(
            gate.theta,
            gate.kind,
            gate.spin,
            matrix,
            gate.source_values,
            unitarity_residual(matrix.dense),
            gate.source_residual,
        )

    monkeypatch.setattr(cli, "synthesize_gate", with_a_nan)
    code, out, err = run_cli("gate", "--spin", "2", "--theta", "0.7", *check, "--format", "json")
    # json has no NaN: a usage error, and no half-written report
    assert code == 2
    assert out == ""
    assert "not JSON compliant" in err


@pytest.mark.parametrize("where", ["matrix", "block", "head"])
def test_gate_json_of_a_nan_report_raises_before_any_piece(where):
    # both checks run on the call itself, not as the pieces are drawn, so
    # main has written nothing when the error reaches it; each names the
    # first value that is not finite, as json does, in row-major order also
    # where the blocks hold another before it
    report = _gate_report("--spin", "1", "--theta", "0.7", "--check")
    if where == "matrix":
        dense = _dense(report).copy()
        dense[0, 0] = complex(np.nan, 0.0)
        report["matrix"] = BlockStack.of(dense)
    elif where == "block":
        bad = np.zeros((5, 5), dtype=complex)
        # in the first block, rows {1, 2}, and then in the second, whose
        # row 0 comes first, its real part before its imaginary part
        bad[1, 2] = complex(np.nan, 0.0)
        bad[0, 3] = complex(-np.inf, np.nan)
        report["matrix"] = _in_blocks(bad)
    else:
        report["check"] = {**report["check"], "unitarity_residual": math.nan}
    with pytest.raises(ValueError) as expected:
        _dumps_with_pairs(report)
    with pytest.raises(ValueError, match="not JSON compliant") as found:
        cli._render_json(report)
    assert str(found.value) == str(expected.value)
    if where == "block":
        assert str(found.value).endswith(": -inf")


_CAP_GATE = ["gate", "--spin", "12", "--hamiltonian", "H", "--theta", "0.7", "--check"]


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_h_gate_at_the_cap_holds_no_dense_vectors_or_gate(fmt):
    # measured 9.16 / 8.97 / 8.97 MiB (json / csv / plain): H itself, 6.0,
    # beside the eigensolve's copy of H's strided real form for its norm,
    # 2.98, and the blocks of the vectors and then of the gate, 0.47 MiB
    # each, beside one row of text; the bound leaves 0.84 MiB to spare, and
    # an n x n complex array is 5.96.  With the vectors and then the gate
    # scattered into such arrays it read 13.0 / 12.8 / 12.8; with the whole
    # text rendered before the first write, the decomposition held while
    # the gate was scattered and the vectors finished through dense float64
    # copies, 23.0 / 19.3 / 19.3
    with open(os.devnull, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = cli.main([*_CAP_GATE, "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 10.0 * 2**20


def _reference_csv(report):
    """The csv of a gate report, one format_complex call per cell."""
    m = _dense(report)
    lines = [",".join(f"col{j}" for j in range(report["dimension"]))]
    lines += [",".join(cli.format_complex(z) for z in row) for row in m.tolist()]
    return "\n".join(lines) + "\n"


def _reference_plain(report):
    """The plain text of a gate report, one format_complex call per cell.

    The lines around the matrix are those of the same report with no rows.
    """
    m = _dense(report)
    around = "".join(cli._render_plain({**report, "matrix": BlockStack.of(m[:0])}))
    around = around.splitlines()
    rows = [" ".join(cli.format_complex(z) for z in row) for row in m.tolist()]
    return "\n".join(around[:-1] + rows + around[-1:]) + "\n"


@pytest.mark.parametrize("spin, hamiltonian", [("2", "K"), ("6", "K"), ("12", "H")])
def test_gate_csv_and_plain_are_byte_exact(spin, hamiltonian):
    argv = ["--spin", spin, "--hamiltonian", hamiltonian, "--theta", "0.7", "--check"]
    report = _gate_report(*argv)
    _assert_same_text("".join(cli._render_csv(report)), _reference_csv(report))
    plain = "".join(cli._render_plain(report))
    _assert_same_text(plain, _reference_plain(report))
    assert plain.endswith("\nverdict=PASS\n")


def _formatted_rows_and_held_bytes(monkeypatch, report, fmt):
    """How many rows the cell formatters format while the report is written
    in fmt, and the most traced memory held past the first piece."""
    calls = []
    for name in ("_complex_cells", "_pair_cells"):
        real = getattr(cli, name)

        def spy(values, real=real):
            calls.append(None)
            return real(values)

        monkeypatch.setattr(cli, name, spy)
    tracemalloc.start()
    try:
        pieces = iter(cli._RENDERERS[fmt](report))
        next(pieces)
        base = held = tracemalloc.get_traced_memory()[0]
        for piece in pieces:
            del piece
            held = max(held, tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return len(calls), held - base


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_h_gate_at_the_cap_holds_no_row_once_it_is_written(monkeypatch, fmt):
    # measured 0.056 / 0.017 / 0.017 MiB held (json / csv / plain); a memo
    # that formatted each of the 325 distinct rows once, and held the cells
    # of the rows at total M until their twins at -M were written, held
    # 0.55 / 0.46 / 0.46
    report = _gate_report("--spin", "12", "--hamiltonian", "H", "--theta", "0.7")
    held = _formatted_rows_and_held_bytes(monkeypatch, report, fmt)[1]
    assert held < 0.25 * 2**20


def test_k_gate_at_the_cap_formats_every_row_and_holds_none(monkeypatch):
    # every entry of K's gate is kept: each row is formatted whole, and
    # nothing is kept from one row to the next (measured 0.035 MiB held,
    # against 0.06 MiB of cells per row; a numpy pass over a block of rows
    # held 0.1)
    report = _gate_report("--spin", "12", "--hamiltonian", "K", "--theta", "0.7")
    formatted, held = _formatted_rows_and_held_bytes(monkeypatch, report, "csv")
    assert formatted == 625
    assert held < 0.25 * 2**20


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_k_gate_at_theta_zero_holds_no_row_once_it_is_written(monkeypatch, fmt):
    # at theta = 0, 160 of the 169 rows of K's gate at 2s = 12 are not full,
    # and no two are alike: no row's cells may be kept once it is written
    # (measured 0.032 / 0.023 / 0.023 MiB held; a count pass and memo keyed
    # by a hash of each row held 0.70 / 0.68 / 0.68, and a memo of every
    # such row 3.9 / 3.2 / 3.2)
    report = _gate_report("--spin", "6", "--hamiltonian", "K", "--theta", "0")
    held = _formatted_rows_and_held_bytes(monkeypatch, report, fmt)[1]
    assert held < 0.25 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--spin", "3/2", "--hamiltonian", "K"],
        ["verify", "--spin", "1"],
        ["gate", "--spin", "1", "--theta", "0.7", "--check"],
        ["table", "--max-spin", "1"],
    ],
    ids=["spectrum", "verify", "gate", "table"],
)
def test_main_table_cells_are_strings_that_csv_joins_as_they_are(argv):
    args = cli.build_parser().parse_args(argv)
    args.tol = cli.DEFAULT_TOL
    report = args.handler(args)
    if report["command"] == "gate":
        # a gate's table is its matrix, whose rows csv writes whole
        lines = _reference_csv(report).splitlines()
    else:
        header, rows = cli._main_table(report)
        rows = list(rows)
        assert rows and all(type(cell) is str for row in rows for cell in row)
        lines = [",".join(header)] + [",".join(row) for row in rows]
    pieces = list(cli._render_csv(report))
    assert "".join(pieces) == "\n".join(lines) + "\n"
    # one line per piece, drawn as it is written
    assert pieces == [line + "\n" for line in lines]


def test_gate_zero_and_signed_zero_entries_in_every_format():
    # only an entry whose parts are both +0.0, bit for bit, may take the
    # shared zero text: (+0.0, -0.0) keeps its -0.0 in json, and (-0.0, +0.0)
    # and (-0.0, -0.0) keep theirs in csv and plain
    z, nz = 0.0, -0.0
    report = _gate_report("--spin", "1/2", "--theta", "1.0", "--check")
    dense = [
        [complex(z, z)] * 4,
        [complex(z, nz), complex(nz, z), complex(nz, nz), complex(z, z)],
        [complex(5e-324, -1e16), complex(-0.1, 2.5), complex(1e300, z), complex(z, -1.0)],
        [complex(z, 1.0), complex(z, z), complex(-2.5, nz), complex(z, z)],
    ]
    report["matrix"] = BlockStack.of(dense)
    _assert_same_text("".join(cli._render_json(report)), _dumps_with_pairs(report))
    csv_text = "".join(cli._render_csv(report))
    _assert_same_text(csv_text, _reference_csv(report))
    _assert_same_text("".join(cli._render_plain(report)), _reference_plain(report))
    assert csv_text.splitlines()[2] == "0.0+0.0i,-0.0+0.0i,-0.0+0.0i,0.0+0.0i"
    pairs = json.loads("".join(cli._render_json(report)))["matrix"]
    assert [math.copysign(1.0, x) for x in pairs[1][0]] == [1.0, -1.0]


def test_gate_json_of_edge_entries_is_byte_exact():
    report = _gate_report("--spin", "1/2", "--theta", "1.0")
    dense = np.array(
        [
            [complex(-0.0, 5e-324), complex(1e300, -1e-300), complex(0.1, -0.0)],
            [complex(-5e-324, 1e16), complex(-2.5, 2.0**-1074), complex(1e-300, -1e300)],
        ]
    )
    report["matrix"] = BlockStack.of(dense)
    _assert_same_text("".join(cli._render_json(report)), _dumps_with_pairs(report))
    for bad in (np.nan, np.inf):
        dense[1, 1] = complex(1.0, bad)
        report["matrix"] = BlockStack.of(dense.copy())
        with pytest.raises(ValueError) as expected:
            _dumps_with_pairs(report)
        with pytest.raises(ValueError) as found:
            cli._render_json(report)
        assert str(found.value) == str(expected.value)


def test_table_json_validates(run_cli):
    code, out, _ = run_cli("table", "--max-spin", "2", "--format", "json")
    assert code == 0
    doc = _valid_json(out)
    assert [row["spin"] for row in doc["rows"]] == ["1/2", "1", "3/2", "2"]
    assert [row["dimension"] for row in doc["rows"]] == [4, 9, 16, 25]
    assert all(row["verdict"] for row in doc["rows"])
    assert doc["verdict"] is True
    assert any("multiplicity 7" in note for note in doc["rows"][2]["notes"])


def test_table_csv_shape(run_cli):
    code, out, _ = run_cli("table", "--max-spin", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["spin"] for r in rows] == ["1/2", "1"]
    assert all(r["verdict"] == "True" for r in rows)


def test_table_output_deterministic(run_cli):
    _, first, _ = run_cli("table", "--max-spin", "3/2", "--format", "json")
    _, second, _ = run_cli("table", "--max-spin", "3/2", "--format", "json")
    assert first == second


def test_matrix_file_spectrum(run_cli, tmp_path):
    path = tmp_path / "herm.txt"
    path.write_text("# 2x2 with eigenvalues 1 and 4\n2 1-1i\n1+1i 3\n")
    code, out, _ = run_cli(
        "spectrum", "--hamiltonian", "file", "--file", str(path), "--format", "json"
    )
    assert code == 0
    doc = _valid_json(out)
    assert doc["spin"] is None
    assert doc["hamiltonian"] == "file"
    assert doc["closed_form_match"] is None
    np.testing.assert_allclose(
        [c["value"] for c in doc["clusters"]], [1.0, 4.0], atol=1e-10
    )


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_matrix_file_with_a_byte_order_mark_reads_the_same(run_cli, tmp_path, fmt):
    # a BOM once stuck to the first entry: cannot parse matrix entry '\ufeff1'
    path = tmp_path / "herm.txt"
    runs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + b"1 1-1i\n1+1i 3\n")
        argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
        runs.append(run_cli(*argv))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_matrix_file_round_trip_format():
    token = cli.format_complex(complex(0.1, -2.5))
    assert token == "0.1-2.5i"
    assert cli.parse_complex_token(token) == complex(0.1, -2.5)
    assert cli.parse_complex_token("i") == 1j
    assert cli.parse_complex_token("-2") == -2.0
    with pytest.raises(ValueError):
        cli.parse_complex_token("oops")
    assert cli.parse_complex_token("1.7976931348623157e308") == 1.7976931348623157e308
    assert cli.parse_complex_token("(1-2I)") == complex(1.0, -2.0)
    # only a final i is the unit, so inf and Infinity are numbers, and infinite
    for token in (
        "nan", "-nan", "1e400", "-1e309", "nani", "1e400i", "nan+1i",
        "inf", "-inf", "Infinity", "infi",
    ):
        with pytest.raises(ValueError, match="is not finite"):
            cli.parse_complex_token(token)


def test_corrupted_matrix_file_is_usage_error(run_cli, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 oops\n1 3\n")
    code, _, err = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 2
    assert "cannot parse" in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_a_matrix_file_that_is_not_utf8_is_a_usage_error_naming_it(
    run_cli, tmp_path, fmt
):
    # UnicodeDecodeError is a ValueError: it once skipped the read wrapper.
    # The message names the line of the bad byte, and its position counts
    # from that line's start, also where \x0c splits the line read
    path = tmp_path / "latin1.txt"
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
    decode = "'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte"
    for text, line in [
        ("# r\xe9el\n1 0\n0 1\n", 1),
        ("1 0\n0 1\n# r\xe9el\n", 3),
        ("1 0\x0c0 1\n# r\xe9el\n", 3),
        ("1 0\n0 1\x0c# r\xe9el\n", 3),
        ("1 0\r\n\x0c\n# r\xe9el\x0c1\n", 4),
    ]:
        path.write_bytes(text.encode("latin-1"))
        assert run_cli(*argv) == (2, "", f"error: {path}:{line}: {decode}\n")
    # a read error names the file, as it did
    argv[4] = str(tmp_path)
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read matrix file {str(tmp_path)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_a_matrix_file_of_no_rows_is_a_usage_error(run_cli, tmp_path, fmt):
    path = tmp_path / "empty.txt"
    path.write_text("# a matrix\n\n   \n# of no rows\n")
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
    assert run_cli(*argv) == (2, "", f"error: {path}: no matrix rows found\n")


def test_a_later_row_wider_than_the_first_is_refused_before_it_is_parsed(
    run_cli, tmp_path, monkeypatch
):
    parsed = []
    parse = cli.parse_complex_token

    def spy(token):
        parsed.append(token)
        return parse(token)

    monkeypatch.setattr(cli, "parse_complex_token", spy)
    path = tmp_path / "wide.txt"
    path.write_text("1 0\n" + " ".join(["oops"] * 10**5) + "\n")
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path)]
    assert run_cli(*argv) == (2, "", f"error: {path}:2: row has 100000 entries, expected 2\n")
    assert parsed == ["1", "0"]
    # a narrower row is parsed first, as before
    path.write_text("1 0\noops\n")
    assert run_cli(*argv) == (2, "", f"error: {path}:2: cannot parse matrix entry 'oops'\n")


def test_one_huge_line_is_held_a_few_times_at_most(tmp_path):
    # 2 MB of one line: its entries past the limit are counted, not listed.
    # Measured 6.4 MB: the line read, its decoded copy and the rest after
    # the 625th entry; a list of its 524288 entries held 36 MB
    path = tmp_path / "huge.txt"
    path.write_text(" ".join(["1.5"] * 2**19) + "\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            cli.read_matrix_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = f"{path}:1: row has {2**19} entries; a matrix file holds at most 625 x 625"
    assert str(info.value) == message
    assert peak <= 4 * size


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "token, message",
    [
        ("nan", "matrix entry 'nan' is not finite"),
        ("1e400", "matrix entry '1e400' is not finite"),
        ("1-1e400i", "matrix entry '1-1e400i' is not finite"),
        # only a final i is read as the imaginary unit, so this is a number
        ("inf", "matrix entry 'inf' is not finite"),
    ],
)
def test_a_non_finite_matrix_entry_names_its_file_and_line(
    run_cli, tmp_path, token, message, fmt
):
    path = tmp_path / "entries.txt"
    path.write_text(f"# 2x2\n1 0\n0 {token}\n")
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:3: {message}\n"


def test_ragged_matrix_file_is_usage_error(run_cli, tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("1 0\n0\n")
    code, _, err = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 2
    assert "expected" in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_non_square_matrix_file_is_usage_error(run_cli, tmp_path, fmt):
    path = tmp_path / "wide.txt"
    path.write_text("1 2 3\n4 5 6\n")
    code, out, err = run_cli(
        "spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt
    )
    assert (code, out) == (2, "")
    assert err == "error: eigensolver needs a square matrix, got shape (2, 3)\n"


def _identity_text(n: int) -> str:
    return "".join(" ".join(["0"] * i + ["1"] + ["0"] * (n - 1 - i)) + "\n" for i in range(n))


def test_a_matrix_file_as_wide_as_the_cap_is_read(run_cli, tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text(_identity_text(625))
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", "json"]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert _valid_json(out)["clusters"] == [{"value": 1.0, "multiplicity": 625}]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_a_matrix_file_wider_than_the_cap_is_a_usage_error(run_cli, tmp_path, fmt):
    path = tmp_path / "wide.txt"
    path.write_text(_identity_text(626))
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:1: row has 626 entries; a matrix file holds at most 625 x 625\n"
    # the width is read off the first row, before any entry is parsed
    path.write_text(" ".join(["oops"] * 626) + "\n")
    assert run_cli(*argv) == (2, "", err)
    # and before a later line is decoded
    path.write_bytes(b" ".join([b"0"] * 626) + b"\n\xff\xfe\n")
    assert run_cli(*argv) == (2, "", err)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_a_matrix_file_longer_than_the_cap_is_a_usage_error(run_cli, tmp_path, fmt):
    # a file 625 entries wide once had no limit on its rows
    path = tmp_path / "long.txt"
    path.write_text("1\n" * 626)
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
    assert run_cli(*argv) == (
        2, "", f"error: {path}:626: more than 625 rows; a matrix file holds at most 625 x 625\n"
    )


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_every_line_break_of_splitlines_ends_a_matrix_row(run_cli, tmp_path, fmt):
    # the file is read a line at a time, and each line split again, so these
    # breaks end rows as they did when the whole text was split at once
    path = tmp_path / "breaks.txt"
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
    path.write_text("2 1-1i\n1+1i 3\n")
    expected = run_cli(*argv)
    assert expected[0] == 0
    path.write_bytes("2 1-1i\x0c1+1i 3\x0b\x1d\x1e\u2029".encode())
    assert run_cli(*argv) == expected
    path.write_bytes("# a\x1c\x852 1-1i\u2028\r1+1i oops\r\n".encode())
    assert run_cli(*argv) == (2, "", f"error: {path}:5: cannot parse matrix entry 'oops'\n")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_a_tiny_asymmetry_fails_a_subnormal_tol(run_cli, cli_tol, tmp_path, fmt):
    # the squares of the defect underflow; it once read 0 and passed
    path = tmp_path / "tiny.txt"
    path.write_text("0 1e-300\n0 0\n")
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
    assert run_cli(*argv)[0] == 0
    cli_tol(5e-324)
    assert run_cli(*argv) == (
        3, "", "error: matrix is not Hermitian: defect 1.414e-300 exceeds 9.881e-324\n"
    )


def _seeded_matrices() -> dict[str, np.ndarray]:
    """Four Hermitian matrices from one seeded generator, each a pattern that
    the eigensolver takes its own way."""
    rng = np.random.default_rng(5)

    def permuted_blocks(widths):
        # a random Hermitian matrix whose pattern has components of these widths
        n = sum(widths)
        m = np.zeros((n, n), dtype=complex)
        start = 0
        for w in widths:
            r = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
            m[start : start + w, start : start + w] = r + r.conj().T
            start += w
        order = rng.permutation(n)
        return m[np.ix_(order, order)]

    # three blocks of width 2 stack; widths 4 and 1 would outgrow the matrix
    found = {"stacks": permuted_blocks([2, 2, 2]), "cannot-pay": permuted_blocks([4, 1])}
    # tridiagonal with purely imaginary off-diagonal entries: an exact real
    # form whose colours alternate, swept in real arithmetic
    n = 9
    m = np.diag(rng.standard_normal(n)).astype(complex)
    links = 1j * rng.standard_normal(n - 1)
    m[np.arange(n - 1), np.arange(1, n)] = links
    m[np.arange(1, n), np.arange(n - 1)] = links.conj()
    found["imaginary-tridiagonal"] = m
    # real, so swept in float64, where the sign of a zero survives:
    # components 0 and 1 are bit for bit one block, swept once; 2 and 3
    # differ only in the sign of the zero at their centre, so are swept apart
    b, c = (rng.standard_normal((3, 3)) for _ in range(2))
    b, c = b + b.T, c + c.T
    c[1, 1] = 0.0
    m = np.zeros((12, 12), dtype=complex)
    for k, block in enumerate((b, b, c, c)):
        m[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = block
    m[10, 10] = -0.0
    found["twins"] = m
    return found


@pytest.mark.parametrize("name", ["stacks", "cannot-pay", "imaginary-tridiagonal", "twins"])
def test_seeded_matrix_files_match_eigvalsh(run_cli, tmp_path, name):
    path = tmp_path / f"{name}.txt"
    rows = _seeded_matrices()[name]
    path.write_text(
        "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n" for row in rows)
    )
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", "json"]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    report = _valid_json(out)
    assert report["verdict"] is True
    values = [c["value"] for c in report["clusters"] for _ in range(c["multiplicity"])]
    oracle = np.linalg.eigvalsh(cli.read_matrix_file(str(path)))
    assert len(values) == oracle.size
    assert np.max(np.abs(np.array(values) - oracle)) <= 1e-12


def test_non_hermitian_matrix_file_is_numerical_error(run_cli, tmp_path):
    path = tmp_path / "nonherm.txt"
    path.write_text("0 1\n0 0\n")
    code, _, err = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 3
    assert "Hermitian" in err


def test_overflowing_matrix_file_is_numerical_error(run_cli, tmp_path):
    # every entry is finite, and the norm of the second file is too, but not
    # the sum of squares that sets the stop threshold
    path = tmp_path / "big.txt"
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path)]
    for text in ("1e308 0\n0 1e308\n", "1e308 0\n0 1\n"):
        path.write_text(text)
        assert run_cli(*argv) == (
            3,
            "",
            "error: the squares of the matrix's entries sum beyond double precision; "
            "rescale its entries\n",
        )


def test_sector_sweep_budget_names_the_sector(run_cli, sweep_budget):
    sweep_budget(2)
    code, out, err = run_cli("spectrum", "--hamiltonian", "K", "--spin", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: sector of charge 2(qa+qb) = ")
    assert "(width " in err and "after 2 sweeps" in err


@pytest.mark.parametrize(
    "argv, tol, rounding, bound",
    [
        ("spectrum --spin 1 --hamiltonian K", 1e-100, "6.923e-15", "3.464e-100"),
        ("verify --spin 1", 1e-100, "6.923e-15", "3.464e-100"),
        ("spectrum --spin 12 --hamiltonian K", 1e-17, "3.125e-10", "2.252e-14"),
    ],
    ids=["spectrum-1", "verify-1", "spectrum-12"],
)
def test_a_tol_below_rounding_is_named_not_the_charge(run_cli, cli_tol, argv, tol, rounding, bound):
    # (S3, S1) commutes with K; the leak bound tol * ||K||_F stands, but the
    # error says that it lies below the rounding n * eps * ||K||_F of the basis
    cli_tol(tol)
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (3, "")
    assert re.fullmatch(
        rf"error: the leak lies within the rounding of the sector basis, {rounding}: "
        rf"off-sector norm \S+ exceeds {bound} \(commutator norm \S+\)\n",
        err,
    ), err


@pytest.mark.parametrize("theta", ["-1.5e-10", "-1e-05", "-.5", "-1.5"])
def test_negative_theta_is_a_value_in_both_forms(run_cli, theta):
    # a negative exponent literal once read as an unknown option and exited 2
    joined = run_cli("gate", "--spin", "1/2", f"--theta={theta}", "--check")
    assert joined[0] == 0
    assert run_cli("gate", "--spin", "1/2", "--theta", theta, "--check") == joined


@pytest.mark.parametrize("theta", ["-inf", "-Infinity", "-nan"])
def test_negative_non_finite_theta_is_named_as_a_value(run_cli, theta):
    # these once read as an option, and the error said "expected one argument"
    code, out, err = run_cli("gate", "--spin", "1", "--theta", theta)
    assert (code, out) == (2, "")
    lines = [line for line in err.splitlines() if "argument --theta:" in line]
    assert len(lines) == 1
    assert lines[0].endswith(f"argument --theta: must be finite: '{theta}'")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--spin", "1/2", "--file", "{path}"],
        ["--hamiltonian", "K", "--spin", "1", "--file", "{path}"],
        ["--hamiltonian", "file", "--file", "{path}", "--spin", "2"],
    ],
)
def test_spectrum_rejects_flags_it_would_ignore(run_cli, tmp_path, argv, fmt):
    path = tmp_path / "herm.txt"
    path.write_text("2 1-1i\n1+1i 3\n")
    argv = [arg.format(path=path) for arg in argv]
    code, out, err = run_cli("spectrum", *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: --") and err.count("\n") == 1


def test_missing_file_is_usage_error(run_cli, tmp_path):
    code, _, _ = run_cli(
        "spectrum", "--hamiltonian", "file", "--file", str(tmp_path / "nope.txt")
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--spin", "0/2"],
        ["spectrum", "--spin", "1/3"],
        ["spectrum"],
        ["spectrum", "--hamiltonian", "file"],
        ["verify"],
        ["verify", "--spin", "1", "--format", "yaml"],
        ["gate", "--spin", "1"],
        ["gate", "--spin", "1", "--theta", "inf"],
        ["table", "--max-spin", "30"],
        ["table", "--max-spin", "2", "--kmax", "4"],
        ["bogus"],
        [],
        ["gate", "--spin", "1", "--thetaa", "0.5"],
        ["gate", "--spin", "1", "--theta", "-x"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    code = cli.main(argv)
    capsys.readouterr()
    assert code == 2


_TOL_ARGVS = [
    ["spectrum", "--spin", "1"],
    ["verify", "--spin", "1"],
    ["gate", "--spin", "1", "--theta", "0.3", "--check"],
    ["table", "--max-spin", "1"],
]


@pytest.mark.parametrize("argv", _TOL_ARGVS, ids=lambda argv: argv[0])
def test_an_ambient_spin_tool_tol_changes_nothing(run_cli, monkeypatch, argv):
    # a SPIN_TOOL_TOL once replaced the default, and banana or 1 then exited
    # 2 and 1e-3 loosened every check
    argv = [*argv, "--format", "json"]
    monkeypatch.delenv("SPIN_TOOL_TOL", raising=False)
    unset = run_cli(*argv)
    assert unset[0] == 0 and json.loads(unset[1])["tol"] == 1e-12
    for value in ["banana", "1e-3", "1"]:
        monkeypatch.setenv("SPIN_TOOL_TOL", value)
        assert run_cli(*argv) == unset


@pytest.mark.parametrize(
    "argv, option",
    [
        *((argv, ["--tol", "1e-12"]) for argv in _TOL_ARGVS),
        (["spectrum", "--spin", "1"], ["--cluster-tol", "1e-6"]),
    ],
    ids=[*(argv[0] for argv in _TOL_ARGVS), "spectrum-cluster"],
)
def test_no_command_takes_a_tolerance(run_cli, argv, option):
    # every command runs at the constants that tests/test_margins.py audits;
    # a loose --tol once failed the true claim, and one below rounding exited 3
    code, out, err = run_cli(*argv, *option)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"unrecognized arguments: {' '.join(option)}")


def test_subnormal_tol_ends_silently_in_an_exit_code(run_cli, cli_tol):
    # a subnormal pivot once overflowed the Jacobi step: with warnings as
    # errors that was a RuntimeWarning traceback and exit 1
    cli_tol(1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("spectrum", "--spin", "3", "--hamiltonian", "H")
    assert code in (0, 3), err
    assert "Warning" not in err and "Traceback" not in err
    if code == 0:
        assert out.splitlines()[-1].startswith("verdict=")


def test_a_value_that_is_not_a_number_is_usage_error(run_cli):
    code, out, err = run_cli("gate", "--spin", "1", "--theta", "0x10")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: argument --theta: not a number: '0x10'")


@pytest.mark.parametrize(
    "text, need",
    [
        *(
            (text, f"spin exponent beyond +-308 in '{text}'")
            for text in ("1e100000000", "1e100000", "1e400", "1e-100000000", "1e-400")
        ),
        ("1e300", "spin 1e300 exceeds the supported cap 2s <= 24"),
        ("6" + "0" * 4299, f"spin 6{'0' * 4299} exceeds the supported cap 2s <= 24"),
        ("60/2", "spin 60/2 exceeds the supported cap 2s <= 24"),
    ],
    ids=lambda x: x[:12],
)
@pytest.mark.parametrize("command", [["spectrum", "--spin"], ["table", "--max-spin"]])
def test_an_overlong_spin_is_usage_error_at_once(run_cli, command, text, need):
    # "1e100000000" once ran for minutes, "1e100000" gave argparse's "invalid
    # _parse_spin_arg value" (its twice has more digits than str() writes)
    # and "1e400" a spin of 401 digits: each now names the text as given
    start = time.perf_counter()
    code, out, err = run_cli(*command, text)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    lines = [line for line in err.splitlines() if "error:" in line]
    assert lines == [f"spintool {command[0]}: error: argument {command[1]}: {need}"]


def test_the_sweep_budget_is_no_option(run_cli):
    # every block may take 100 sweeps, a constant: the flag that set it is gone
    for command in (["spectrum", "--spin", "1"], ["table", "--max-spin", "1"]):
        code, out, err = run_cli(*command, "--max-sweeps", "1")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith("unrecognized arguments: --max-sweeps 1")
        assert "--max-sweeps" not in cli.build_parser().parse_args(command).__dict__


def test_the_moment_range_is_no_option(run_cli):
    # the range is a rule of the spin: (2s+1)^2 up to 2s = 12, 2s+1 beyond
    code, out, err = run_cli("verify", "--spin", "1", "--kmax", "4")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("unrecognized arguments: --kmax 4")
    assert "kmax" not in vars(cli.build_parser().parse_args(["verify", "--spin", "1"]))


_CLOSE_PAIR = "1 0 0\n0 1.0000001 0\n0 0 3\n"


def test_cluster_tol_merges_close_eigenvalues(run_cli, tmp_path):
    # 1 and 1 + 1e-7 lie apart at the command's 1e-9 * ||M||_F and together
    # at a cluster_tol of 1e-6, which the library takes
    path = tmp_path / "close.txt"
    path.write_text(_CLOSE_PAIR)
    argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", "json"]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    split = _valid_json(out)
    assert split["cluster_tol"] == 1e-9 * math.sqrt(1 + 1.0000001**2 + 9)
    assert [c["multiplicity"] for c in split["clusters"]] == [1, 1, 1]
    merged = cluster_spectrum(hermitian_eig(cli.read_matrix_file(str(path))).values, 1e-6)
    assert merged.cluster_tol == 1e-6
    assert merged.multiplicities == (2, 1)
    assert merged.values[1] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--spin", "6"],
    ],
)
def test_arithmetic_failures_end_in_an_exit_code(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    if code == 3:
        assert err.startswith("error:")


def test_any_arithmetic_error_of_a_command_exits_3(monkeypatch, capsys):
    # float overflow, division by zero and the like end in exit 3 with the
    # exception's type, and write nothing to stdout
    def divide(args):
        raise ZeroDivisionError("x")

    monkeypatch.setattr(cli, "cmd_spectrum", divide)
    assert cli.main(["spectrum", "--spin", "1"]) == 3
    assert capsys.readouterr() == ("", "error: ZeroDivisionError: x\n")


def test_main_builds_one_parser_and_runs_the_handler_it_finds_then(monkeypatch, capsys):
    # the parser is built on the first call only; a command patched after
    # it was built is still the one that runs
    built, ran = [], []
    real_build, real_verify = cli.build_parser, cli.cmd_verify

    def build():
        built.append(None)
        return real_build()

    def verify(args):
        ran.append(args.spin)
        return real_verify(args)

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    try:
        assert cli.main(["verify", "--spin", "1/2"]) == 0
        monkeypatch.setattr(cli, "cmd_verify", verify)
        assert cli.main(["verify", "--spin", "1", "--format", "json"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1 and ran == [cli.HalfInteger.parse("1")]
    assert '"verdict": true' in capsys.readouterr().out


def test_file_and_built_operator_routes_agree(run_cli, tmp_path):
    k = cli.build_cyclic(cli.HalfInteger(3)).matrix
    path = tmp_path / "k.txt"
    path.write_text(
        "\n".join(" ".join(cli.format_complex(z) for z in row) for row in k.tolist())
    )
    code_file, out_file, _ = run_cli(
        "spectrum", "--hamiltonian", "file", "--file", str(path), "--format", "json"
    )
    code_k, out_k, _ = run_cli(
        "spectrum", "--spin", "3/2", "--hamiltonian", "K", "--format", "json"
    )
    assert code_file == code_k == 0
    by_file = _valid_json(out_file)
    by_charge = _valid_json(out_k)
    assert by_file["cluster_tol"] == by_charge["cluster_tol"]
    assert [c["multiplicity"] for c in by_file["clusters"]] == [
        c["multiplicity"] for c in by_charge["clusters"]
    ]
    np.testing.assert_allclose(
        [c["value"] for c in by_file["clusters"]],
        [c["value"] for c in by_charge["clusters"]],
        atol=by_file["cluster_tol"],
    )
