import numpy as np
import pytest

from spintool.cli import _CLOSED_FORM_TOL
from spintool.eig import ConvergenceError, hermitian_eig, verify_eigenpair
from spintool.linalg import (
    DEFAULT_TOL,
    HermiticityError,
    NumericalError,
    ShapeError,
    frobenius_norm,
)
from spintool.hamiltonians import build_bilinear, build_cyclic, build_heisenberg
from spintool.spectral import (
    closed_form_spectrum,
    cluster_spectrum,
    default_cluster_tol,
    spectra_match,
)
from spintool.spin import HalfInteger, make_spin_triple

SQ2 = np.sqrt(2.0)

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


def _random_hermitian(rng, n):
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (r + r.conj().T) / 2.0


def test_diagonal_matrix_sorted_exactly():
    dec = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_array_equal(dec.values, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(dec.vectors, np.eye(3)[:, [1, 2, 0]])
    assert dec.sweeps == 0
    assert dec.residual == 0.0


def test_spin_half_exchange_values():
    for build in (build_heisenberg, build_cyclic):
        m = build(HalfInteger(1)).matrix
        dec = hermitian_eig(m)
        np.testing.assert_allclose(dec.values, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
        assert dec.residual <= 1e-12


@pytest.mark.parametrize("pairs, build", [(H_EIGENVECTORS, build_heisenberg), (K_EIGENVECTORS, build_cyclic)])
def test_known_eigenpairs(pairs, build):
    m = build(HalfInteger(1)).matrix
    for vector, value in pairs:
        assert verify_eigenpair(m, vector, value) <= 1e-12


def test_verify_eigenpair_guards():
    assert verify_eigenpair(np.eye(2, dtype=complex), np.array([1.0, 0.0]), 1.0) == 0.0
    with pytest.raises(ValueError):
        verify_eigenpair(np.eye(2, dtype=complex), np.zeros(2), 1.0)
    with pytest.raises(ShapeError):
        verify_eigenpair(np.eye(2, dtype=complex), np.ones(3), 1.0)


def test_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.eye(2) * np.nan)
    with pytest.raises(ValueError):
        hermitian_eig(np.eye(2, dtype=complex), tol=0.0)
    with pytest.raises(ValueError):
        hermitian_eig(np.eye(2, dtype=complex), max_sweeps=-1)


def test_sweep_budget_exhaustion():
    h = build_heisenberg(HalfInteger(1))
    with pytest.raises(ConvergenceError):
        hermitian_eig(h.matrix, max_sweeps=0)
    # on the sector route the budget applies to each sector
    with pytest.raises(ConvergenceError):
        hermitian_eig(h.matrix, max_sweeps=0, charge=h.charge)


def test_deterministic_repeat():
    rng = np.random.default_rng(42)
    m = _random_hermitian(rng, 12)
    a = hermitian_eig(m)
    b = hermitian_eig(m)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert a.sweeps == b.sweeps


def test_phase_convention_largest_component_real_positive():
    rng = np.random.default_rng(5)
    m = _random_hermitian(rng, 9)
    dec = hermitian_eig(m)
    for k in range(9):
        col = dec.vectors[:, k]
        lead = col[int(np.argmax(np.abs(col)))]
        assert abs(lead.imag) <= 1e-14
        assert lead.real > 0.0


@pytest.mark.parametrize("seed", range(8))
def test_matches_lapack_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 33))
    m = _random_hermitian(rng, n)
    dec = hermitian_eig(m)
    scale = max(1.0, frobenius_norm(m))
    np.testing.assert_allclose(dec.values, np.linalg.eigvalsh(m), atol=1e-10 * n * scale)
    # reconstruction and orthonormality
    rebuilt = (dec.vectors * dec.values[np.newaxis, :]) @ dec.vectors.conj().T
    assert frobenius_norm(rebuilt - m) <= 1e-9 * n * scale
    gram = dec.vectors.conj().T @ dec.vectors
    assert frobenius_norm(gram - np.eye(n)) <= 1e-10 * n
    assert abs(float(np.sum(dec.values)) - float(np.trace(m).real)) <= 1e-10 * n * scale


@pytest.mark.parametrize("twice", [1, 2, 3, 4])
def test_exchange_operator_contract(twice, spin_cache):
    entry = spin_cache(twice)
    for ham, dec in ((entry.h, entry.dec_h), (entry.k, entry.dec_k)):
        n = ham.dimension
        scale = max(1.0, frobenius_norm(ham.matrix))
        assert dec.residual <= 1e-10 * n * scale
        rebuilt = (dec.vectors * dec.values[np.newaxis, :]) @ dec.vectors.conj().T
        assert frobenius_norm(rebuilt - ham.matrix) <= 1e-9 * n * scale
        gram = dec.vectors.conj().T @ dec.vectors
        assert frobenius_norm(gram - np.eye(n)) <= 1e-10 * n


def test_degenerate_subspace_projectors_match_lapack():
    # per-cluster spectral projectors are basis independent, so the two
    # routes must agree even where individual eigenvectors are arbitrary
    m = build_heisenberg(HalfInteger(2)).matrix
    dec = hermitian_eig(m)
    lap_values, lap_vectors = np.linalg.eigh(m)
    np.testing.assert_allclose(dec.values, lap_values, atol=1e-10)
    for target in (-2.0, -1.0, 1.0):
        ours = np.isclose(dec.values, target, atol=1e-6)
        theirs = np.isclose(lap_values, target, atol=1e-6)
        p_ours = dec.vectors[:, ours] @ dec.vectors[:, ours].conj().T
        p_lap = lap_vectors[:, theirs] @ lap_vectors[:, theirs].conj().T
        assert frobenius_norm(p_ours - p_lap) <= 1e-9


def _random_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))[np.newaxis, :]
    return q if np.linalg.det(q) > 0.0 else -q


def _sector_case(spin_cache, twice, label):
    if label == "H":
        entry = spin_cache(twice)
        return entry.h, entry.dec_h
    if label == "K":
        entry = spin_cache(twice)
        return entry.k, entry.dec_k
    ham = build_bilinear(HalfInteger(twice), _random_rotation(700 + twice))
    return ham, hermitian_eig(ham.matrix)


@pytest.mark.parametrize("label", ["H", "K", "rotated"])
@pytest.mark.parametrize("twice", range(1, 9))
def test_sector_route_matches_full_jacobi(twice, label, spin_cache):
    ham, full = _sector_case(spin_cache, twice, label)
    assert ham.charge is not None
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    n = ham.dimension
    scale = max(1.0, frobenius_norm(ham.matrix))
    np.testing.assert_allclose(dec.values, full.values, atol=1e-10 * n * scale)
    np.testing.assert_allclose(
        dec.values, np.linalg.eigvalsh(ham.matrix), atol=1e-10 * n * scale
    )
    assert dec.residual <= 1e-10 * n * scale
    gram = dec.vectors.conj().T @ dec.vectors
    assert frobenius_norm(gram - np.eye(n)) <= 1e-10 * n
    stop = DEFAULT_TOL * frobenius_norm(ham.matrix)
    assert dec.leak <= stop
    assert dec.commutator <= stop
    assert full.leak == 0.0 and full.commutator == 0.0


def test_sector_route_rejects_a_charge_that_does_not_commute():
    s = HalfInteger(2)
    t = make_spin_triple(s)
    k = build_cyclic(s)
    with pytest.raises(NumericalError, match="off-sector norm"):
        hermitian_eig(k.matrix, charge=(t.s1, t.s1))
    with pytest.raises(ShapeError):
        hermitian_eig(k.matrix, charge=(t.s3, np.eye(2)))


def test_sector_route_at_the_cap():
    s = HalfInteger(24)
    k = build_cyclic(s)
    dec = hermitian_eig(k.matrix, charge=k.charge)
    n = k.dimension
    scale = max(1.0, frobenius_norm(k.matrix))
    assert dec.residual <= 1e-10 * n * scale
    assert dec.leak <= DEFAULT_TOL * frobenius_norm(k.matrix)
    spectrum = cluster_spectrum(dec.values, default_cluster_tol(k.matrix))
    assert spectra_match(
        spectrum, closed_form_spectrum(s), value_tol=_CLOSED_FORM_TOL
    )
