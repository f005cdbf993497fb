"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each test name carries its
criterion number, and each body prints a [PRIMARY nn] PASS/FAIL line that
is visible with ``-s`` or on failure.
"""

import json
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spintool.cli as cli
from spintool.eig import hermitian_eig
from spintool.gates import synthesize_gate, unitarity_residual
from spintool.hamiltonians import build_cyclic, build_heisenberg
from spintool.linalg import frobenius_norm
from spintool.spectral import newton_check
from spintool.spin import HalfInteger, make_spin_triple, verify_su2

SQ2 = np.sqrt(2.0)

H_HALF = 0.25 * np.array(
    [[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=complex
)
K_HALF = 0.25 * np.array(
    [[0, 1, -1j, -1j], [1, 0, 1j, 1j], [1j, -1j, 0, -1], [1j, -1j, -1, 0]],
    dtype=complex,
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

SPECTRUM_TABLES = {
    1: ((-0.75, 1), (0.25, 3)),
    2: ((-2.0, 1), (-1.0, 3), (1.0, 5)),
    4: ((-6.0, 1), (-5.0, 3), (-3.0, 5), (0.0, 7), (4.0, 9)),
}

H_EIGENVECTORS = [
    (np.array([0, 1, -1, 0]) / SQ2, -0.75),
    (np.array([1, 0, 0, 0]), 0.25),
    (np.array([0, 1, 1, 0]) / SQ2, 0.25),
    (np.array([0, 0, 0, 1]), 0.25),
]
K_EIGENVECTORS = [
    (np.array([1, -1, -1j, -1j]) / 2.0, -0.75),
    (np.array([1, 0, 0, 1j]) / SQ2, 0.25),
    (np.array([0, 1, 0, -1j]) / SQ2, 0.25),
    (np.array([0, 0, 1, -1]) / SQ2, 0.25),
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[PRIMARY {number:02d}] FAIL {description}")
        raise
    print(f"[PRIMARY {number:02d}] PASS {description}")


def test_criterion_01_spin_half_matrices_match_literals():
    with criterion(1, "spin-1/2 exchange matrices match stored literals within 1e-14"):
        h = build_heisenberg(HalfInteger(1)).matrix
        k = build_cyclic(HalfInteger(1)).matrix
        assert np.abs(h - H_HALF).max() <= 1e-14
        assert np.abs(k - K_HALF).max() <= 1e-14


def test_criterion_02_spectrum_tables_for_both_operators(spin_cache):
    with criterion(2, "spin 1/2, 1, 2 spectra match tables, both operators"):
        for twice, table in SPECTRUM_TABLES.items():
            entry = spin_cache(twice)
            for spectrum in (entry.cert.spectrum_a, entry.cert.spectrum_b):
                assert spectrum.multiplicities == tuple(m for _, m in table)
                np.testing.assert_allclose(
                    spectrum.values, [v for v, _ in table], atol=1e-9
                )


def test_criterion_03_spin_three_half_multiplicities(spin_cache, capsys):
    with criterion(3, "spin-3/2 clusters are 1,3,5,7 and the 9/4 note is recorded"):
        entry = spin_cache(3)
        for spectrum in (entry.cert.spectrum_a, entry.cert.spectrum_b):
            np.testing.assert_allclose(
                spectrum.values, [-3.75, -2.75, -0.75, 2.25], atol=1e-9
            )
            assert spectrum.multiplicities == (1, 3, 5, 7)
        code = cli.main(["verify", "--spin", "3/2", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert any("multiplicity 7" in note for note in doc["notes"])


def test_criterion_04_moment_identity_full_range(spin_cache):
    with criterion(4, "trace moments of the two operators agree for 2s=1..8"):
        for twice in range(1, 9):
            entry = spin_cache(twice)
            moments = entry.cert.moments
            dim = (twice + 1) ** 2
            assert len(moments.powers) == dim
            assert moments.passed
            assert moments.max_abs_diff <= 1e-8 * dim
            assert moments.prefix_len == twice + 1
            assert moments.prefix_passed


def test_criterion_05_su2_algebra_suite():
    with criterion(5, "su(2) identities hold for 2s=1..12; n=4 trace formula fails"):
        for twice in range(1, 13):
            triple = make_spin_triple(HalfInteger(twice))
            report = verify_su2(triple)
            assert report.passed
            assert report.max_residual <= 1e-12 * report.dimension
            for name, value in report.residuals.items():
                if name.startswith("tr(") and name.endswith(("^1)", "^3)", "^5)", "^7)")):
                    assert value <= 1e-10
        # the squared-trace formula is n = 2 only: at n = 4, spin 3/2
        # gives 41/4 while the formula value would be 5
        t = make_spin_triple(HalfInteger(3))
        fourth = float(np.trace(np.linalg.matrix_power(t.s3, 4)).real)
        assert fourth == pytest.approx(10.25, abs=1e-12)
        assert abs(fourth - 5.0) > 1e-6


def test_criterion_06_known_eigenvectors():
    with criterion(6, "all eight stored eigenvectors have residual <= 1e-10"):
        h = build_heisenberg(HalfInteger(1)).matrix
        k = build_cyclic(HalfInteger(1)).matrix
        for m, pairs in ((h, H_EIGENVECTORS), (k, K_EIGENVECTORS)):
            for vector, value in pairs:
                residual = np.linalg.norm(m @ vector - value * vector) / np.linalg.norm(vector)
                assert residual <= 1e-10


def test_criterion_07_newton_identities(spin_cache):
    with criterion(7, "Newton power sums match traces up to the dimension, 2s<=6"):
        for twice in range(1, 7):
            entry = spin_cache(twice)
            assert len(entry.cert.moments.powers) == (twice + 1) ** 2
            assert newton_check(entry.dec_h.values, entry.cert.moments.traces_a)
            assert newton_check(entry.dec_k.values, entry.cert.moments.traces_b)


def test_criterion_08_gate_properties():
    with criterion(8, "gate synthesis: unitary, group law, swap, full turn, series"):
        rng = np.random.default_rng(2026)
        for twice in (1, 2):
            for build in (build_heisenberg, build_cyclic):
                ham = build(HalfInteger(twice))
                n = ham.dimension
                theta1, theta2 = rng.uniform(-3.0, 3.0, 2)
                g1 = synthesize_gate(ham, theta1)
                g2 = synthesize_gate(ham, theta2)
                g12 = synthesize_gate(ham, theta1 + theta2)
                assert unitarity_residual(g1.matrix) <= 1e-10 * n
                assert np.linalg.norm(g1.matrix @ g2.matrix - g12.matrix) <= 1e-9 * n

        h = build_heisenberg(HalfInteger(1))
        assert np.linalg.norm(2.0 * h.matrix + np.eye(4) / 2.0 - SWAP) <= 1e-12

        full_turn = synthesize_gate(h, 2.0 * np.pi)
        # the fidelity |tr(U^H I)| / 4 is 1 for a gate equal to I up to phase
        assert abs(np.trace(full_turn.matrix.conj().T @ np.eye(4))) / 4 >= 1.0 - 1e-9
        assert np.linalg.norm(full_turn.matrix - np.exp(-0.5j * np.pi) * np.eye(4)) <= 1e-9

        for twice, build, theta in ((1, build_heisenberg, 2.0), (2, build_cyclic, 0.5)):
            ham = build(HalfInteger(twice))
            assert theta * frobenius_norm(ham.matrix) <= 2.0
            gate = synthesize_gate(ham, theta)
            series = np.eye(ham.dimension, dtype=complex)
            term = np.eye(ham.dimension, dtype=complex)
            for order in range(1, 60):
                term = term @ (-1j * theta * ham.matrix) / order
                series = series + term
            assert np.linalg.norm(gate.matrix - series) <= 1e-9


def test_criterion_09_eigensolver_contract(spin_cache):
    with criterion(9, "eigensolver contract on exchange operators and 100 randoms"):
        for twice in range(1, 9):
            entry = spin_cache(twice)
            for ham, dec in ((entry.h, entry.dec_h), (entry.k, entry.dec_k)):
                n = ham.dimension
                scale = max(1.0, frobenius_norm(ham.matrix))
                rebuilt = (dec.vectors * dec.values[np.newaxis, :]) @ dec.vectors.conj().T
                assert np.linalg.norm(rebuilt - ham.matrix) <= 1e-9 * n * scale
                gram = dec.vectors.conj().T @ dec.vectors
                assert frobenius_norm(gram - np.eye(n)) <= 1e-10 * n
                assert dec.residual <= 1e-10 * n * scale

        rng = np.random.default_rng(20260815)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = (r + r.conj().T) / 2.0
            dec = hermitian_eig(m)
            scale = max(1.0, frobenius_norm(m))
            np.testing.assert_allclose(
                dec.values, np.linalg.eigvalsh(m), atol=1e-10 * n * scale
            )
            rebuilt = (dec.vectors * dec.values[np.newaxis, :]) @ dec.vectors.conj().T
            assert np.linalg.norm(rebuilt - m) <= 1e-9 * n * scale
            gram = dec.vectors.conj().T @ dec.vectors
            assert frobenius_norm(gram - np.eye(n)) <= 1e-10 * n


def test_criterion_10_cli_contract(tmp_path, capsys):
    with criterion(10, "CLI: table exits 0 with schema-valid JSON; bad files fail"):
        schema = json.loads(
            (Path(cli.__file__).parent / "report_schema.json").read_text(encoding="utf-8")
        )
        result = subprocess.run(
            [sys.executable, "-m", "spintool.cli", "table", "--max-spin", "2", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)
        assert len(doc["rows"]) == 4
        assert doc["verdict"] is True

        for command in (
            ["spectrum", "--spin", "1", "--format", "json"],
            ["verify", "--spin", "1/2", "--format", "json"],
            ["gate", "--spin", "1/2", "--theta", "0.5", "--check", "--format", "json"],
        ):
            code = cli.main(command)
            out = capsys.readouterr().out
            assert code == 0
            jsonschema.validate(json.loads(out), schema)

        corrupted = tmp_path / "corrupted.txt"
        corrupted.write_text("1 0\n0 what\n")
        code = cli.main(["spectrum", "--hamiltonian", "file", "--file", str(corrupted)])
        capsys.readouterr()
        assert code == 2

        lopsided = tmp_path / "lopsided.txt"
        lopsided.write_text("0 1\n0 0\n")
        code = cli.main(["spectrum", "--hamiltonian", "file", "--file", str(lopsided)])
        capsys.readouterr()
        assert code == 3
