import numpy as np
import pytest

from spintool.eig import hermitian_eig
from spintool.hamiltonians import build_bilinear, build_cyclic, build_heisenberg
from spintool.linalg import frobenius_distance, frobenius_norm, hermiticity_defect, kron
from spintool.spectral import cluster_spectrum, default_cluster_tol
from spintool.spin import HalfInteger, make_spin_triple

H_HALF = 0.25 * np.array(
    [
        [1, 0, 0, 0],
        [0, -1, 2, 0],
        [0, 2, -1, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

K_HALF = 0.25 * np.array(
    [
        [0, 1, -1j, -1j],
        [1, 0, 1j, 1j],
        [1j, -1j, 0, -1],
        [1j, -1j, -1, 0],
    ],
    dtype=complex,
)


def test_spin_half_heisenberg_matrix_exact():
    h = build_heisenberg(HalfInteger(1))
    assert h.kind.label == "H"
    assert h.dimension == 4
    assert h.hermitian
    np.testing.assert_allclose(h.matrix, H_HALF, atol=1e-14)


def test_spin_half_cyclic_matrix_exact():
    k = build_cyclic(HalfInteger(1))
    assert k.kind.label == "K"
    assert k.hermitian
    np.testing.assert_allclose(k.matrix, K_HALF, atol=1e-14)


@pytest.mark.parametrize("twice", range(1, 13))
@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic])
def test_built_operators_traceless_and_hermitian(build, twice):
    h = build(HalfInteger(twice))
    n = h.dimension
    assert n == (twice + 1) ** 2
    assert abs(np.trace(h.matrix)) <= 1e-12 * n
    assert hermiticity_defect(h.matrix) <= 1e-12 * n
    assert h.hermitian


def test_spin_one_heisenberg_spectrum():
    h = build_heisenberg(HalfInteger(2))
    dec = hermitian_eig(h.matrix)
    spectrum = cluster_spectrum(dec.values, default_cluster_tol(h.matrix))
    np.testing.assert_allclose(spectrum.values, [-2.0, -1.0, 1.0], atol=1e-10)
    assert spectrum.multiplicities == (1, 3, 5)


def test_spin_half_cyclic_spectrum():
    k = build_cyclic(HalfInteger(1))
    dec = hermitian_eig(k.matrix)
    spectrum = cluster_spectrum(dec.values, default_cluster_tol(k.matrix))
    np.testing.assert_allclose(spectrum.values, [-0.75, 0.25], atol=1e-12)
    assert spectrum.multiplicities == (1, 3)


def test_bilinear_identity_pattern_matches_heisenberg():
    s = HalfInteger(3)
    general = build_bilinear(s, np.eye(3))
    assert general.kind.label == "bilinear"
    assert general.hermitian
    assert frobenius_distance(general.matrix, build_heisenberg(s).matrix) == 0.0


def test_bilinear_shift_pattern_matches_cyclic():
    s = HalfInteger(2)
    shift = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    general = build_bilinear(s, shift)
    assert frobenius_distance(general.matrix, build_cyclic(s).matrix) == 0.0
    assert general.kind.coeffs == ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


_FRACTIONAL = ((0.5, -1.25, 0.0), (2.0, 0.0, -0.375), (0.0, -1.0, 3.0))


@pytest.mark.parametrize("twice", [*range(1, 9), 24])
@pytest.mark.parametrize(
    "build, pattern, charge",
    [
        (build_heisenberg, np.eye(3), lambda t: (t.s3, t.s3)),
        (build_cyclic, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], lambda t: (t.s3, t.s1)),
        (lambda s: build_bilinear(s, _FRACTIONAL), _FRACTIONAL, lambda t: None),
    ],
    ids=["H", "K", "fractional"],
)
def test_built_operators_equal_their_kronecker_sums(build, pattern, charge, twice):
    # the dense reference: sum_jk c_jk Sj x Sk, term by term in row order
    s = HalfInteger(twice)
    t = make_spin_triple(s)
    n = t.dimension
    ops = t.operators
    expected = np.zeros((n * n, n * n), dtype=complex)
    for j in range(3):
        for k in range(3):
            if float(pattern[j][k]) != 0.0:
                expected += float(pattern[j][k]) * np.kron(ops[j], ops[k])
    h = build(s)
    assert h.matrix.dtype == expected.dtype
    assert h.matrix.tobytes() == expected.tobytes()
    assert h.hermitian == (hermiticity_defect(expected) <= 1e-12 * n * n)
    if charge(t) is None:
        assert h.charge is None
    else:
        for got, want in zip(h.charge, charge(t), strict=True):
            assert got.tobytes() == want.tobytes()


def test_charge_factors_of_the_named_operators():
    s = HalfInteger(3)
    t = make_spin_triple(s)
    h_a, h_b = build_heisenberg(s).charge
    k_a, k_b = build_cyclic(s).charge
    np.testing.assert_array_equal(h_a, t.s3)
    np.testing.assert_array_equal(k_a, t.s3)
    np.testing.assert_array_equal(h_b, t.s3)
    np.testing.assert_array_equal(k_b, t.s1)


@pytest.mark.parametrize(
    "pattern",
    [
        np.diag([1.0, 1.0, -1.0]),  # orthogonal with det -1
        -np.eye(3),
        2.0 * np.eye(3),
        [[1, 2, 0], [0, 1, 0], [0, 0, 1]],
        np.eye(3) + 1e-9,
        np.zeros((3, 3)),
    ],
)
def test_charge_is_none_unless_pattern_is_a_rotation(pattern):
    assert build_bilinear(HalfInteger(2), pattern).charge is None


def test_bilinear_zero_pattern():
    out = build_bilinear(HalfInteger(1), np.zeros((3, 3)))
    assert frobenius_norm(out.matrix) == 0.0
    assert out.hermitian


def test_bilinear_rejects_bad_patterns():
    with pytest.raises(ValueError):
        build_bilinear(HalfInteger(1), np.eye(2))
    with pytest.raises(ValueError):
        build_bilinear(HalfInteger(1), [[0, 0, np.nan], [0, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("twice", range(1, 7))
def test_heisenberg_from_total_spin_casimir(twice):
    # H must equal ((S1+S2+S3 total)^2 - 2 s(s+1) I) / 2, an independent route
    s = HalfInteger(twice)
    t = make_spin_triple(s)
    n = t.dimension
    eye = np.eye(n, dtype=complex)
    total_sq = np.zeros((n * n, n * n), dtype=complex)
    for op in t.operators:
        tot = kron(op, eye) + kron(eye, op)
        total_sq += tot @ tot
    casimir = s.twice * (s.twice + 2) / 4.0
    expected = (total_sq - 2.0 * casimir * np.eye(n * n)) / 2.0
    h = build_heisenberg(s)
    assert frobenius_distance(h.matrix, expected) <= 1e-10 * h.dimension


def test_heisenberg_commutes_with_total_s3():
    s = HalfInteger(2)
    t = make_spin_triple(s)
    eye = np.eye(t.dimension, dtype=complex)
    total_s3 = kron(t.s3, eye) + kron(eye, t.s3)
    h = build_heisenberg(s)
    k = build_cyclic(s)
    assert frobenius_norm(h.matrix @ total_s3 - total_s3 @ h.matrix) <= 1e-12 * h.dimension
    # the shifted operator conserves a rotated axis instead; record, not assert
    k_comm = frobenius_norm(k.matrix @ total_s3 - total_s3 @ k.matrix)
    print(f"cyclic operator [K, total S3] norm: {k_comm!r}")
