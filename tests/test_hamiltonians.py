import itertools
import warnings

import numpy as np
import pytest

from spintool.eig import hermitian_eig
from spintool.hamiltonians import build_bilinear, build_cyclic, build_heisenberg
from spintool.linalg import frobenius_norm, hermiticity_defect
from spintool.spectral import closed_form_spectrum, cluster_spectrum, default_cluster_tol
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
    assert hermiticity_defect(h.matrix) == 0.0
    np.testing.assert_allclose(h.matrix, H_HALF, atol=1e-14)


def test_spin_half_cyclic_matrix_exact():
    k = build_cyclic(HalfInteger(1))
    assert k.kind.label == "K"
    assert hermiticity_defect(k.matrix) == 0.0
    np.testing.assert_allclose(k.matrix, K_HALF, atol=1e-14)


def _assert_exactly_hermitian(m):
    # the defect squares its entries, so one below 1e-154 would read 0.0:
    # each entry is compared with its mirror as well
    assert hermiticity_defect(m) == 0.0
    assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("twice", range(1, 25))
@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic])
def test_built_operators_traceless_and_hermitian(build, twice):
    h = build(HalfInteger(twice))
    n = h.dimension
    assert n == (twice + 1) ** 2
    assert abs(np.trace(h.matrix)) <= 1e-12 * n
    _assert_exactly_hermitian(h.matrix)


# the 48 signed permutation patterns: every row and column holds one +-1
_SIGNED_PERMUTATIONS = [
    np.diag(signs)[list(order)]
    for order in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
]


def _random_patterns():
    rng = np.random.default_rng(2015)
    for scale in (1.0, 1.0, 1e-3, 1e150):
        yield scale * rng.standard_normal((3, 3))
    # sparse, with exact zeros, and integer-valued
    yield np.where(rng.random((3, 3)) < 0.5, 0.0, rng.standard_normal((3, 3)))
    yield rng.integers(-3, 4, (3, 3)).astype(float)


@pytest.mark.parametrize(
    "twice, patterns",
    [
        *(pytest.param(t, _SIGNED_PERMUTATIONS, id=f"signed-{t}") for t in (3, 12)),
        *(
            pytest.param(t, list(_random_patterns()), id=f"random-{t}")
            for t in (1, 2, 5, 8, 12, 17, 24)
        ),
    ],
)
def test_built_operators_are_exactly_hermitian(twice, patterns):
    # Hermitian bit for bit by construction, so no build measures it
    s = HalfInteger(twice)
    for pattern in patterns:
        h = build_bilinear(s, pattern)
        assert np.isfinite(h.matrix).all()
        _assert_exactly_hermitian(h.matrix)


@pytest.mark.parametrize(
    "build", [make_spin_triple, build_heisenberg, build_cyclic, closed_form_spectrum]
)
def test_a_spin_that_is_no_half_integer_is_a_type_error(build):
    # the int 2 once ended in "'int' object has no attribute 'twice'"
    with pytest.raises(TypeError, match="^the spin must be a HalfInteger, got int$"):
        build(2)


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
    assert hermiticity_defect(general.matrix) == 0.0
    assert np.linalg.norm(general.matrix - build_heisenberg(s).matrix) == 0.0


def test_bilinear_shift_pattern_matches_cyclic():
    s = HalfInteger(2)
    shift = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    general = build_bilinear(s, shift)
    assert np.linalg.norm(general.matrix - build_cyclic(s).matrix) == 0.0
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
    assert hermiticity_defect(h.matrix) == 0.0
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
        [[1, 2, 0], [0, 1, 0], [0, 0, 1]],  # det 1, not orthogonal
        np.diag([1.0, 2.0, 4.0]),  # det 8, not twice a rotation
        np.eye(3) + 1e-9,
        np.zeros((3, 3)),
        np.diag([1.0, 1.0, 0.0]),  # singular
    ],
)
def test_charge_is_none_unless_pattern_is_a_multiple_of_a_rotation(pattern):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_bilinear(HalfInteger(2), pattern).charge is None


_SHIFTED = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "pattern, rotation",
    [
        (np.diag([1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])),  # orthogonal, det -1
        (-np.eye(3), np.eye(3)),
        (2.0 * np.eye(3), np.eye(3)),
        (-_SHIFTED, _SHIFTED),  # -K
        (2.0 * _SHIFTED, _SHIFTED),
        (-3.0 * _SHIFTED, _SHIFTED),
    ],
    ids=["diag(1,1,-1)", "-I", "2I", "-cK", "2cK", "-3cK"],
)
def test_a_multiple_of_a_rotation_takes_that_rotations_charge(pattern, rotation):
    # the form is linear in its pattern, so lambda c commutes with the charge
    # of c: an improper pattern is -1 times a proper one.  Each of these
    # once had no charge
    s = HalfInteger(2)
    got = build_bilinear(s, pattern).charge
    want = build_bilinear(s, rotation).charge
    assert got is not None
    for a, b in zip(got, want, strict=True):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("twice", [2, 3, 8])
def test_minus_k_is_solved_by_the_sectors_of_ks_charge(twice):
    # -K takes K's charge (S3, S1): its values are -1 times K's, and the
    # sector route's leak and commutator bound the charge as they do K's
    s = HalfInteger(twice)
    k, minus = build_cyclic(s), build_bilinear(s, -_SHIFTED)
    for a, b in zip(minus.charge, k.charge, strict=True):
        assert a.tobytes() == b.tobytes()
    dec = hermitian_eig(minus.matrix, charge=minus.charge)
    ref = hermitian_eig(k.matrix, charge=k.charge)
    stop = 1e-12 * frobenius_norm(minus.matrix)
    assert 0.0 < dec.leak <= stop and dec.commutator <= stop
    np.testing.assert_allclose(dec.values, -ref.values[::-1], rtol=0.0, atol=1e-11)
    assert dec.residual <= 1e-8 * max(1.0, np.abs(dec.values).max())


def test_bilinear_zero_pattern():
    out = build_bilinear(HalfInteger(1), np.zeros((3, 3)))
    assert frobenius_norm(out.matrix) == 0.0
    assert hermiticity_defect(out.matrix) == 0.0


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
        tot = np.kron(op, eye) + np.kron(eye, op)
        total_sq += tot @ tot
    casimir = s.twice * (s.twice + 2) / 4.0
    expected = (total_sq - 2.0 * casimir * np.eye(n * n)) / 2.0
    h = build_heisenberg(s)
    assert np.linalg.norm(h.matrix - expected) <= 1e-10 * h.dimension


def test_heisenberg_commutes_with_total_s3():
    s = HalfInteger(2)
    t = make_spin_triple(s)
    eye = np.eye(t.dimension, dtype=complex)
    total_s3 = np.kron(t.s3, eye) + np.kron(eye, t.s3)
    h = build_heisenberg(s)
    k = build_cyclic(s)
    assert frobenius_norm(h.matrix @ total_s3 - total_s3 @ h.matrix) <= 1e-12 * h.dimension
    # the shifted operator conserves a rotated axis instead; record, not assert
    k_comm = frobenius_norm(k.matrix @ total_s3 - total_s3 @ k.matrix)
    print(f"cyclic operator [K, total S3] norm: {k_comm!r}")
