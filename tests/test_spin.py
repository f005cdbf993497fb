import time

import numpy as np
import pytest

from spintool.eig import hermitian_eig
from spintool.linalg import frobenius_norm
from spintool.spin import (
    MAX_TWICE_SPIN,
    HalfInteger,
    SpinTriple,
    make_spin_triple,
    verify_su2,
)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


@pytest.mark.parametrize(
    "text, twice, rendered",
    [
        ("1/2", 1, "1/2"),
        ("1", 2, "1"),
        ("3/2", 3, "3/2"),
        ("1.5", 3, "3/2"),
        ("2", 4, "2"),
        ("4/2", 4, "2"),
        (" 5/2 ", 5, "5/2"),
        ("12", 24, "12"),
        ("6/4", 3, "3/2"),
        ("0.5e1", 10, "5"),
        (" 2 ", 4, "2"),
        ("25e-1", 5, "5/2"),
    ],
)
def test_parse_accepts_half_integers(text, twice, rendered):
    s = HalfInteger.parse(text)
    assert s.twice == twice
    assert str(s) == rendered
    assert s.dimension == twice + 1
    assert s.value == twice / 2


@pytest.mark.parametrize("text", ["0", "0/2", "-1/2", "1/3", "abc", "", "2.25"])
def test_parse_rejects_bad_spins(text):
    with pytest.raises(ValueError):
        HalfInteger.parse(text)


@pytest.mark.parametrize(
    "text", ["1e100000000", "1e10000000", "1e100000", "1e400", "1e309", "1e-309",
             "1e-100000000", "1E+400", " 1e1_000 "]
)
def test_parse_refuses_an_exponent_beyond_a_floats_before_reading_it(text):
    # Fraction("1e10000000") alone builds 10^10000000, about 10 s
    start = time.perf_counter()
    with pytest.raises(ValueError) as error:
        HalfInteger.parse(text)
    assert time.perf_counter() - start < 1.0
    assert str(error.value) == f"spin exponent beyond +-308 in {text!r}"
    # the edge itself is read
    assert HalfInteger.parse("5E+308").twice == 10**309


def test_half_integer_validation():
    with pytest.raises(ValueError):
        HalfInteger(0)
    with pytest.raises(TypeError):
        HalfInteger(1.5)


def test_spin_half_matrices_exact():
    t = make_spin_triple(HalfInteger(1))
    np.testing.assert_array_equal(t.s1, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    np.testing.assert_array_equal(t.s2, np.array([[0, -0.5j], [0.5j, 0]], dtype=complex))
    np.testing.assert_array_equal(t.s3, np.diag([0.5, -0.5]).astype(complex))


def test_spin_one_matrices():
    t = make_spin_triple(HalfInteger(2))
    np.testing.assert_allclose(
        t.s1, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQ2, atol=1e-15
    )
    np.testing.assert_allclose(
        t.s2, np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQ2, atol=1e-15
    )
    np.testing.assert_array_equal(t.s3, np.diag([1.0, 0.0, -1.0]).astype(complex))


def test_spin_three_half_ladder_entries():
    # raising operator S1 + i S2 has superdiagonal (sqrt(3), 2, sqrt(3))
    t = make_spin_triple(HalfInteger(3))
    raising = t.s1 + 1j * t.s2
    np.testing.assert_allclose(np.diag(raising, 1), [SQ3, 2.0, SQ3], atol=1e-15)
    assert np.count_nonzero(raising) == 3


def test_s3_descending_diagonal():
    t = make_spin_triple(HalfInteger(4))
    np.testing.assert_array_equal(np.diagonal(t.s3).real, [2.0, 1.0, 0.0, -1.0, -2.0])


def test_operators_read_only():
    t = make_spin_triple(HalfInteger(1))
    with pytest.raises(ValueError):
        t.s1[0, 0] = 1.0


def test_spin_cap_enforced():
    make_spin_triple(HalfInteger(MAX_TWICE_SPIN))
    with pytest.raises(ValueError):
        make_spin_triple(HalfInteger(MAX_TWICE_SPIN + 1))


@pytest.mark.parametrize("twice", range(1, 13))
def test_su2_relations_hold(twice):
    report = verify_su2(make_spin_triple(HalfInteger(twice)))
    assert report.passed
    assert report.max_residual <= report.tol * report.dimension
    assert report.dimension == twice + 1


def test_su2_report_contents():
    report = verify_su2(make_spin_triple(HalfInteger(2)))
    # tr(Sj^2) = s(s+1)(2s+1)/3 = 2 for spin 1; identity keys are explicit
    assert "[S1,S2]-iS3" in report.residuals
    assert "tr(S1^2)" in report.residuals
    assert "tr(S3^7)" in report.residuals
    assert report.residuals["tr(S1S2)"] <= 1e-14


def test_su2_detects_broken_triple():
    t = make_spin_triple(HalfInteger(1))
    broken = SpinTriple(s=t.s, s1=t.s1, s2=np.zeros_like(t.s2), s3=t.s3)
    report = verify_su2(broken)
    assert not report.passed
    # [S1, 0] - iS3 leaves the full norm of S3
    assert report.residuals["[S1,S2]-iS3"] == pytest.approx(frobenius_norm(t.s3))


@pytest.mark.parametrize("twice", range(1, 9))
def test_each_operator_has_magnetic_spectrum(twice):
    t = make_spin_triple(HalfInteger(twice))
    expected = (twice - 2.0 * np.arange(twice + 1)[::-1]) / 2.0
    for op in t.operators:
        dec = hermitian_eig(op)
        np.testing.assert_allclose(dec.values, expected, atol=1e-10)


def test_even_power_trace_formula_fails_at_four():
    # tr(Sj^2) = s(s+1)(2s+1)/3 does not extend to n = 4: spin 3/2 gives 41/4
    t = make_spin_triple(HalfInteger(3))
    formula = 3.75 * 4 / 3.0
    for op in t.operators:
        fourth = float(np.trace(np.linalg.matrix_power(op, 4)).real)
        assert fourth == pytest.approx(41.0 / 4.0, abs=1e-12)
        assert abs(fourth - formula) > 5.0


def test_cross_product_kron_traces_vanish():
    # tr((Sj Sk) x (Sl Sm)) factorizes and each factor with j != k is traceless
    t = make_spin_triple(HalfInteger(3))
    ops = t.operators
    for j, k in ((0, 1), (1, 2), (2, 0)):
        left = float(abs(np.trace(ops[j] @ ops[k])))
        assert left <= 1e-12
        cross = np.kron(ops[j] @ ops[k], ops[k] @ ops[j])
        assert abs(np.trace(cross)) <= 1e-12
