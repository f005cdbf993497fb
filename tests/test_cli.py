import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spintool.cli as cli

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
    code, out, _ = run_cli(
        "verify", "--spin", "1/2", "--kmax", "4", "--format", "json"
    )
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


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "argv, kmax",
    [
        (("--spin", "11/2"), 144),
        (("--spin", "6"), 169),
        (("--spin", "1", "--kmax", "600"), 600),
    ],
    ids=["11/2", "6", "1-kmax600"],
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


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_traces_beyond_doubles_are_a_numerical_error(run_cli, fmt):
    code, out, err = run_cli(
        "verify", "--spin", "2", "--kmax", "10000", "--format", fmt
    )
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("error: trace of power ")
    assert line.endswith(" overflowed double precision; lower kmax")


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
        return cli.Gate(
            theta=gate.theta,
            kind=gate.kind,
            spin=gate.spin,
            matrix=damaged,
            source_values=gate.source_values,
        )

    monkeypatch.setattr(cli, "synthesize_gate", broken)
    code, out, _ = run_cli("gate", "--spin", "1/2", "--theta", "1.0", "--check")
    assert code == 1
    assert "verdict=FAIL" in out


def test_gate_cells_are_format_complex_of_the_json_pairs(run_cli, monkeypatch):
    edge = np.array(
        [
            [complex(0.0, -0.0), complex(-0.0, 0.0), complex(1e16, -1e16)],
            [complex(5e-324, -5e-324), complex(-100.0, -0.05), complex(0.1, 2.5)],
            [complex(-1.5, 1e-300), complex(2.0, -1.0), complex(-0.0, -0.0)],
        ]
    )
    real = cli.synthesize_gate

    def with_edge_entries(ham, theta, **kwargs):
        gate = real(ham, theta, **kwargs)
        return cli.Gate(gate.theta, gate.kind, gate.spin, edge, gate.source_values)

    monkeypatch.setattr(cli, "synthesize_gate", with_edge_entries)
    argv = ["gate", "--spin", "1/2", "--theta", "1.0"]
    cells = [[cli.format_complex(z) for z in row] for row in edge.tolist()]
    _, out, _ = run_cli(*argv, "--format", "csv")
    assert out.splitlines() == ["col0,col1,col2"] + [",".join(row) for row in cells]
    _, out, _ = run_cli(*argv)
    assert out.splitlines()[1:4] == [" ".join(row) for row in cells]
    _, out, _ = run_cli(*argv, "--format", "json")
    pairs = json.loads(out)["matrix"]
    assert [[cli.format_complex(complex(*z)) for z in row] for row in pairs] == cells


def _gate_report(*argv):
    args = cli.build_parser().parse_args(["gate", *argv])
    args.tol = cli.DEFAULT_TOL
    return cli.cmd_gate(args)


def _dumps_with_pairs(report):
    """The json of the report with its matrix as (re, im) pairs of floats."""
    m = report["matrix"]
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


@pytest.mark.parametrize("spin, hamiltonian", [("1/2", "K"), ("2", "K"), ("12", "H")])
def test_gate_json_is_byte_exact(spin, hamiltonian):
    argv = ["--spin", spin, "--hamiltonian", hamiltonian, "--theta", "0.7", "--check"]
    report = _gate_report(*argv)
    _assert_same_text(cli._render_json(report), _dumps_with_pairs(report))


def test_gate_json_of_edge_entries_is_byte_exact():
    report = _gate_report("--spin", "1/2", "--theta", "1.0")
    report["matrix"] = np.array(
        [
            [complex(-0.0, 5e-324), complex(1e300, -1e-300), complex(0.1, -0.0)],
            [complex(-5e-324, 1e16), complex(-2.5, 2.0**-1074), complex(1e-300, -1e300)],
        ]
    )
    _assert_same_text(cli._render_json(report), _dumps_with_pairs(report))
    for bad in (np.nan, np.inf):
        report["matrix"] = report["matrix"].copy()
        report["matrix"][1, 1] = complex(1.0, bad)
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


def test_matrix_file_round_trip_format():
    token = cli.format_complex(complex(0.1, -2.5))
    assert token == "0.1-2.5i"
    assert cli.parse_complex_token(token) == complex(0.1, -2.5)
    assert cli.parse_complex_token("i") == 1j
    assert cli.parse_complex_token("-2") == -2.0
    with pytest.raises(ValueError):
        cli.parse_complex_token("oops")


def test_corrupted_matrix_file_is_usage_error(run_cli, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 oops\n1 3\n")
    code, _, err = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 2
    assert "cannot parse" in err


def test_ragged_matrix_file_is_usage_error(run_cli, tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("1 0\n0\n")
    code, _, err = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 2
    assert "expected" in err


def test_non_hermitian_matrix_file_is_numerical_error(run_cli, tmp_path):
    path = tmp_path / "nonherm.txt"
    path.write_text("0 1\n0 0\n")
    code, _, err = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 3
    assert "Hermitian" in err


def test_overflowing_matrix_file_is_numerical_error(run_cli, tmp_path):
    # every entry is finite, but the norm that sets the stop threshold is not
    path = tmp_path / "big.txt"
    path.write_text("1e308 0\n0 1e308\n")
    code, out, err = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 3
    assert out == ""
    assert err == (
        "error: the Frobenius norm of the matrix overflows; rescale its entries\n"
    )


def test_sector_sweep_budget_names_the_sector(run_cli):
    code, out, err = run_cli(
        "spectrum", "--hamiltonian", "K", "--spin", "3", "--max-sweeps", "2"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: sector of charge 2(qa+qb) = ")
    assert "(width " in err and "after 2 sweeps" in err


@pytest.mark.parametrize("theta", ["-1.5e-10", "-1e-05", "-.5", "-1.5"])
def test_negative_theta_is_a_value_in_both_forms(run_cli, theta):
    # a negative exponent literal once read as an unknown option and exited 2
    joined = run_cli("gate", "--spin", "1/2", f"--theta={theta}", "--check")
    assert joined[0] == 0
    assert run_cli("gate", "--spin", "1/2", "--theta", theta, "--check") == joined


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


def test_env_var_sets_tolerance(run_cli, monkeypatch):
    monkeypatch.setenv("SPIN_TOOL_TOL", "1e-10")
    code, out, _ = run_cli("verify", "--spin", "1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["tol"] == 1e-10


def test_flag_overrides_env(run_cli, monkeypatch):
    monkeypatch.setenv("SPIN_TOOL_TOL", "1e-10")
    code, out, _ = run_cli(
        "verify", "--spin", "1/2", "--tol", "1e-13", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["tol"] == 1e-13


def test_bad_env_var_is_usage_error(run_cli, monkeypatch):
    monkeypatch.setenv("SPIN_TOOL_TOL", "banana")
    code, _, err = run_cli("verify", "--spin", "1/2")
    assert code == 2
    assert "SPIN_TOOL_TOL" in err


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "spintool.cli", "table", "--max-spin", "1", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    header = result.stdout.splitlines()[0]
    assert header.startswith("spin,dimension,")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--spin", "1", "--kmax", "600"],
        ["verify", "--spin", "6"],
    ],
)
def test_arithmetic_failures_end_in_an_exit_code(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    if code == 3:
        assert err.startswith("error:")


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
