import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spintool import eig, gates
from spintool.eig import EigDecomposition, hermitian_eig
from spintool.gates import gate_eigenphases, synthesize_gate, unitarity_residual
from spintool.hamiltonians import (
    Hamiltonian,
    HamiltonianKind,
    build_bilinear,
    build_cyclic,
    build_heisenberg,
)
from spintool.linalg import (
    BlockStack,
    HermiticityError,
    NumericalError,
    ShapeError,
    frobenius_norm,
    gauge,
)
from spintool.spectral import moments
from spintool.spin import HalfInteger

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def _taylor_exp(m, terms=60):
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_theta_zero_is_identity():
    gate = synthesize_gate(build_heisenberg(HalfInteger(1)), 0.0)
    assert np.linalg.norm(gate.matrix - np.eye(4)) <= 1e-12


def test_full_turn_is_global_phase():
    # exp(-2 pi i H) acts as exp(-i pi / 2) on every total-spin sector
    gate = synthesize_gate(build_heisenberg(HalfInteger(1)), 2.0 * np.pi)
    # the fidelity |tr(U^H I)| / 4 is 1 for a gate equal to I up to phase
    assert abs(np.trace(gate.matrix.conj().T @ np.eye(4))) / 4 >= 1.0 - 1e-9
    assert np.linalg.norm(gate.matrix + 1j * np.eye(4)) <= 1e-9
    phases = gate_eigenphases(gate)
    np.testing.assert_allclose(phases, 1.5 * np.pi, atol=1e-9)


def test_swap_identity_and_eigenbasis_map():
    h = build_heisenberg(HalfInteger(1))
    assert np.linalg.norm(2.0 * h.matrix + np.eye(4) / 2.0 - SWAP) <= 1e-12
    # mapping eigenvalues through f(x) = 2x + 1/2 sends the singlet to -1
    # and the triplet to +1, which is exactly the swap operator
    dec = hermitian_eig(h.matrix)
    mapped = (dec.vectors * (2.0 * dec.values + 0.5)[np.newaxis, :]) @ dec.vectors.conj().T
    assert np.linalg.norm(mapped - SWAP) <= 1e-10


@pytest.mark.parametrize("twice", [1, 2, 3])
@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic])
def test_unitarity_and_group_law(build, twice):
    rng = np.random.default_rng(40 + twice)
    ham = build(HalfInteger(twice))
    n = ham.dimension
    theta1, theta2 = rng.uniform(-3.0, 3.0, 2)
    g1 = synthesize_gate(ham, theta1)
    g2 = synthesize_gate(ham, theta2)
    g12 = synthesize_gate(ham, theta1 + theta2)
    assert unitarity_residual(g1.matrix) <= 1e-10 * n
    assert np.linalg.norm(g1.matrix @ g2.matrix - g12.matrix) <= 1e-9 * n


def test_inverse_via_negative_angle():
    ham = build_cyclic(HalfInteger(2))
    g = synthesize_gate(ham, 0.9)
    ginv = synthesize_gate(ham, -0.9)
    assert np.linalg.norm(g.matrix @ ginv.matrix - np.eye(ham.dimension)) <= 1e-10


@pytest.mark.parametrize(
    "twice, build, theta",
    [(1, build_heisenberg, 2.0), (2, build_cyclic, 0.5), (1, build_cyclic, 1.5)],
)
def test_matches_taylor_series_oracle(twice, build, theta):
    ham = build(HalfInteger(twice))
    assert theta * frobenius_norm(ham.matrix) <= 2.0
    gate = synthesize_gate(ham, theta)
    oracle = _taylor_exp(-1j * theta * ham.matrix)
    assert np.linalg.norm(gate.matrix - oracle) <= 1e-9


def test_singlet_picks_up_pure_phase():
    theta = 0.7
    gate = synthesize_gate(build_heisenberg(HalfInteger(1)), theta)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    out = gate.matrix @ singlet
    np.testing.assert_allclose(out, np.exp(0.75j * theta) * singlet, atol=1e-12)


def test_apply_gate_preserves_norm():
    rng = np.random.default_rng(77)
    gate = synthesize_gate(build_cyclic(HalfInteger(3)), 1.3)
    state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    out = gate.matrix @ state
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(state))


def test_eigenphases_of_a_tiny_angle_stay_below_two_pi():
    # for lambda > 0, -theta * lambda is a tiny negative number that mod 2 pi
    # rounds up to 2 pi itself
    phases = gate_eigenphases(synthesize_gate(build_heisenberg(HalfInteger(1)), 1e-127))
    assert phases[:3].tolist() == [0.0, 0.0, 0.0]
    assert phases[3] == pytest.approx(7.5e-128, rel=1e-12)


def test_eigenphases_sorted_in_range():
    gate = synthesize_gate(build_heisenberg(HalfInteger(3)), 0.37)
    phases = gate_eigenphases(gate)
    assert (np.diff(phases) >= 0.0).all()
    assert (phases >= 0.0).all() and (phases < 2.0 * np.pi).all()


def test_isospectral_generators_share_eigenphases():
    theta = 0.37
    ph_h = gate_eigenphases(synthesize_gate(build_heisenberg(HalfInteger(2)), theta))
    ph_k = gate_eigenphases(synthesize_gate(build_cyclic(HalfInteger(2)), theta))
    np.testing.assert_allclose(ph_h, ph_k, atol=1e-9)


def test_rejects_non_hermitian_generator():
    bad = Hamiltonian(
        kind=HamiltonianKind(label="bilinear", coeffs=((0.0,) * 3,) * 3),
        s=HalfInteger(1),
        matrix=np.array([[0, 1], [0, 0]], dtype=complex),
    )
    # the eigensolver's check, the one check of a generator, gives the defect
    with pytest.raises(HermiticityError, match="defect 1.414e"):
        synthesize_gate(bad, 1.0)


def test_a_generator_that_is_no_hamiltonian_is_a_type_error():
    # a bare matrix carries no charge, spin or kind; it once ended in
    # "'numpy.ndarray' object has no attribute 'matrix'"
    m = build_heisenberg(HalfInteger(1)).matrix
    with pytest.raises(TypeError, match="^the generator must be a Hamiltonian, got ndarray$"):
        synthesize_gate(m, 0.3)


def test_an_overflowing_pattern_is_a_non_finite_generator():
    # 1e308 * 6 * 6 overflows at 2s = 12: the matrix is not finite, which the
    # eigensolver rejects before its hermiticity check, and moments reject
    # its NaN defect
    with np.errstate(over="ignore", invalid="ignore"):
        ham = build_bilinear(HalfInteger(12), 1e308 * np.eye(3))
    assert not np.isfinite(ham.matrix).all()
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        synthesize_gate(ham, 1.0)
    with pytest.raises(HermiticityError):
        moments(ham.matrix, 3)


def test_rejects_bad_theta():
    # NaN and +-inf, and complex, text and Decimal, which are no numbers.Real
    ham = build_heisenberg(HalfInteger(1))
    bad = (np.nan, np.inf, -np.inf, np.float32("inf"), 1 + 0j, np.complex128(1), "1",
           Decimal("0.5"))
    # and real numbers whose float overflows
    bad += (10**400, -(10**400), Fraction(10**400))
    for theta in bad:
        message = f"^theta must be a finite real number, got {re.escape(repr(theta))}$"
        with pytest.raises(ValueError, match=message):
            synthesize_gate(ham, theta)


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic])
def test_any_finite_real_theta_gives_the_gate_of_its_float(build):
    # NumPy's real scalars and a Fraction are real numbers: each gives the
    # gate of float(theta) bit for bit, with theta kept as that float, as
    # does a bool
    ham = build(HalfInteger(3))
    for theta in (np.float32(0.5), np.int64(1), Fraction(1, 3), np.float64(0.7), True):
        gate, alone = synthesize_gate(ham, theta), synthesize_gate(ham, float(theta))
        assert type(gate.theta) is float and gate.theta == alone.theta
        assert gate.matrix.tobytes() == alone.matrix.tobytes()
        assert gate.unitarity_residual == alone.unitarity_residual


def test_overflowing_phases_fail_the_unitarity_bound():
    # theta is finite, but theta * lambda overflows and the gate comes out NaN
    ham = build_heisenberg(HalfInteger(4))
    # H's gate is built block by block, and its NaN blocks fail all the same
    rows = hermitian_eig(ham.matrix, charge=ham.charge).vector_blocks.rows
    assert rows.members.shape[0] == 9
    with pytest.raises(NumericalError, match="unitarity bound: nan"):
        synthesize_gate(ham, 1e308)


def test_gate_keeps_its_unitarity_residual():
    # taken on the stack that built the gate, it is the residual of the
    # gate's own blocks, bit for bit; the dense residual of a hand-built
    # matrix is the same product for K's one block, and within rounding of
    # it for H's blocks
    for twice in [*range(1, 9), 24]:
        for build in (build_heisenberg, build_cyclic):
            ham = build(HalfInteger(twice))
            gate = synthesize_gate(ham, 0.7)
            rows = hermitian_eig(ham.matrix, charge=ham.charge).vector_blocks.rows
            assert gate.unitarity_residual == gates._gram_residual(rows.stack(gate.matrix), rows)
            dense = unitarity_residual(gate.matrix)
            if build is build_cyclic:
                assert gate.unitarity_residual == dense
            assert abs(gate.unitarity_residual - dense) <= gate.dimension * np.finfo(float).eps
    gate = synthesize_gate(build_cyclic(HalfInteger(3)), 0.8)
    assert gate.unitarity_residual == unitarity_residual(gate.matrix)


@pytest.mark.parametrize("tol", [1e-12, 1e-3])
def test_gate_keeps_its_generators_eigenpair_residual(tol, monkeypatch):
    # the residual of the decomposition that built the gate, bit for bit,
    # also where a loose stop leaves the gate unitary but its pairs far off;
    # every eigensolve reads its stop, DEFAULT_TOL, from eig when called
    monkeypatch.setattr(eig, "DEFAULT_TOL", tol)
    ham = build_heisenberg(HalfInteger(2))
    gate = synthesize_gate(ham, 0.3)
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    assert gate.source_residual == dec.residual
    assert gate.unitarity_residual <= 1e-10 * gate.dimension
    assert (gate.source_residual > 1e-8 * 2.0) == (tol == 1e-3)


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
def test_synthesis_never_walks_the_gate_pattern(build, monkeypatch):
    # the one walk is the eigensolver's, of the generator; neither the
    # gate's products nor the residual of a hand-built matrix walk U
    walked = []
    walk = eig.gauge

    def spy(m):
        walked.append(m)
        return walk(m)

    monkeypatch.setattr(eig, "gauge", spy)
    ham = build(HalfInteger(8))
    gate = synthesize_gate(ham, 0.7)
    assert gate.unitarity_residual <= 1e-10 * gate.dimension
    assert unitarity_residual(gate.matrix) <= 1e-10 * gate.dimension
    assert len(walked) == 1 and walked[0] is ham.matrix


def test_unitarity_residual_values():
    assert unitarity_residual(np.eye(3)) == 0.0
    assert unitarity_residual(2.0 * np.eye(2)) == pytest.approx(np.sqrt(18.0))
    with pytest.raises(ShapeError):
        unitarity_residual(np.ones((2, 3)))


def _dense_gate(ham, theta):
    """V diag(exp(-i theta lambda)) V^H as one dense product."""
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    return (dec.vectors * np.exp(-1j * theta * dec.values)) @ dec.vectors.conj().T


@pytest.mark.parametrize("twice", [3, 8, 24])
def test_blockwise_gate_matches_the_dense_product(twice, assert_kept_blocks):
    ham = build_heisenberg(HalfInteger(twice))
    n = ham.dimension
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    label = gauge(ham.matrix)[0]
    # H conserves total S3: 4s+1 components, and its eigenvectors keep to
    # them, as the decomposition records
    assert label.max() + 1 == 2 * twice + 1
    for blocks in (dec.vector_blocks.rows, dec.vector_blocks.columns):
        assert blocks.members.shape[0] == 2 * twice + 1
    assert_kept_blocks(dec)
    for theta in (0.7, -2.3):
        gate = synthesize_gate(ham, theta)
        dense = _dense_gate(ham, theta)
        assert np.max(np.abs(gate.matrix - dense)) <= 1e-14 * n
        # outside the blocks every entry is +0.0, bit for bit
        outside = gate.matrix[label[:, None] != label[None, :]]
        assert not outside.view(np.uint64).any()
        assert gate.unitarity_residual <= 1e-10 * n


def test_k_takes_the_dense_product():
    ham = build_cyclic(HalfInteger(8))
    # K's pattern is one component: one block of every index, whose gate
    # is the dense product
    assert not gauge(ham.matrix)[0].any()
    held = hermitian_eig(ham.matrix, charge=ham.charge).vector_blocks
    for blocks in (held.rows, held.columns):
        np.testing.assert_array_equal(blocks.members, np.arange(ham.dimension)[np.newaxis])
    gate = synthesize_gate(ham, 0.7)
    np.testing.assert_array_equal(gate.matrix, _dense_gate(ham, 0.7))
    # read as a view of the one block, with no copy
    assert np.shares_memory(gate.matrix, gate.matrix_blocks.stack)


def test_k_gate_at_the_cap_peaks_no_higher_than_its_eigensolve():
    # measured 18.2 MiB, the eigensolve's own peak; the products then hold
    # three stacks at a time.  With the vectors, their scaled copy, the
    # adjoint and the product alive together, and the operands kept through
    # the Gram residual, it read 23.9
    ham = build_cyclic(HalfInteger(24))
    tracemalloc.start()
    try:
        synthesize_gate(ham, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19.5 * 2**20


def test_h_gate_at_the_cap_builds_no_dense_array():
    # measured 1.58 MiB, most of it the blocks of the vectors and of U,
    # 0.47 MiB each; when the vectors and U were scattered into n x n
    # complex arrays it read 6.82, and when the eigensolve took its norm on
    # a copy of H's strided real form 2.99, each above the bound, which is
    # the size of one n x n float64 array
    ham = build_heisenberg(HalfInteger(24))
    tracemalloc.start()
    try:
        gate = synthesize_gate(ham, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ham.dimension**2 * np.dtype(np.float64).itemsize
    # the dense gate is built when it is read, once, read-only
    assert gate.matrix is gate.matrix and not gate.matrix.flags.writeable


def test_a_stray_nonzero_in_the_eigenvectors_takes_the_dense_product(monkeypatch):
    # the gate follows the blocks that the decomposition holds: vectors
    # with a stray nonzero outside H's blocks, given by hand as the one
    # block of every index, give the dense product
    ham = build_heisenberg(HalfInteger(4))
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    label = gauge(ham.matrix)[0]
    vectors = dec.vectors.copy()
    column = vectors[:, 3]
    column[np.flatnonzero(label != label[np.flatnonzero(column)[0]])[0]] = 1e-300
    stray = EigDecomposition(dec.values, BlockStack.of(vectors), dec.residual, dec.sweeps)
    for blocks in (stray.vector_blocks.rows, stray.vector_blocks.columns):
        np.testing.assert_array_equal(blocks.members, np.arange(ham.dimension)[np.newaxis])
    monkeypatch.setattr(gates, "hermitian_eig", lambda *args, **kwargs: stray)
    gate = synthesize_gate(ham, 0.7)
    phases = np.exp(-0.7j * dec.values)
    np.testing.assert_array_equal(gate.matrix, (vectors * phases) @ vectors.conj().T)


def test_unitarity_residual_matches_the_dense_formula():
    rng = np.random.default_rng(91)
    widths = [4, 1, 3, 5, 2, 5]
    n = sum(widths)
    u = np.zeros((n, n), dtype=complex)
    start = 0
    for width in widths:
        r = rng.standard_normal((width, width)) + 1j * rng.standard_normal((width, width))
        # unitary up to a perturbation, so that the residual is not all rounding
        u[start : start + width, start : start + width] = np.linalg.qr(r)[0] + 1e-6 * r
        start += width
    order = rng.permutation(n)
    u = u[np.ix_(order, order)]
    assert gauge(u)[0].max() + 1 == len(widths)
    dense = np.linalg.norm(u.conj().T @ u - np.eye(n))
    assert unitarity_residual(u) == pytest.approx(dense, rel=1e-12)
    # a NaN entry joins the pattern, and the residual is NaN
    u[order[0], order[1]] = np.nan
    assert np.isnan(unitarity_residual(u))


@pytest.mark.parametrize("twice", [8, 24])
def test_blockwise_gates_keep_the_group_law_and_eigenphases(twice):
    ham = build_heisenberg(HalfInteger(twice))
    n = ham.dimension
    g1 = synthesize_gate(ham, 0.4)
    g2 = synthesize_gate(ham, 1.1)
    g12 = synthesize_gate(ham, 1.5)
    assert np.linalg.norm(g1.matrix @ g2.matrix - g12.matrix) <= 1e-9 * n
    # the eigenvalues of the gate are the exponentials of its eigenphases
    phases = gate_eigenphases(g12)
    values = np.linalg.eigvals(g12.matrix)
    found = np.sort(np.mod(np.angle(values), 2.0 * np.pi))
    gap = np.abs(found - phases)
    assert np.all(np.minimum(gap, 2.0 * np.pi - gap) <= 1e-9)
