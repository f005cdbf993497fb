import contextlib
import csv
import ctypes
import hashlib
import io
import itertools
import json
import platform
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from spintool import eig, spectral
from spintool.cli import _CLOSED_FORM_TOL
from spintool.eig import (
    MAX_SWEEPS,
    ConvergenceError,
    EigDecomposition,
    _charge_factors,
    _jacobi_stack,
    _pins,
    _split_sectors,
    _symmetrized,
    hermitian_eig,
)
from spintool.linalg import (
    _ROWS,
    DEFAULT_TOL,
    HermiticityError,
    NumericalError,
    ShapeError,
    frobenius_norm,
    gauge,
)
from spintool.hamiltonians import build_bilinear, build_cyclic, build_heisenberg
from spintool.spectral import (
    certify_isospectral,
    closed_form_spectrum,
    cluster_spectrum,
    default_cluster_tol,
    moments,
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


# S1 x S3 - S2 x S2 + S3 x S1, a proper rotation of H whose charge (S3, S1)
# is not diagonal: its pattern is one component, which the charge splits.
# The operator, its charge factors and their eigenvectors are exactly real.
_REAL_ROTATION = ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (1.0, 0.0, 0.0))


def _within(sweeps, m, charge=None):
    """hermitian_eig with ``sweeps`` for each block, by the private seam
    that alone takes a budget; the charge factors keep MAX_SWEEPS."""
    (dec,) = eig._eigensolves([(m, charge)], sweeps)
    return dec


def _random_hermitian(rng, n):
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (r + r.conj().T) / 2.0


def test_diagonal_matrix_sorted_exactly():
    dec = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_array_equal(dec.values, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(dec.vectors, np.eye(3)[:, [1, 2, 0]])
    assert dec.sweeps == 0
    assert dec.residual == 0.0
    assert dec.dimension == 3


@pytest.mark.parametrize(
    "build, mib",
    [
        (build_heisenberg, 2.0),
        (build_cyclic, 19.5),
        (lambda s: build_bilinear(s, _REAL_ROTATION), 16.5),
    ],
    ids=["H", "K", "rotated"],
)
def test_sector_route_at_the_cap_frees_its_basis_before_the_residual(build, mib):
    # H's split pattern leaves its charge unused: measured 1.15 MiB on the
    # component route, its vectors kept as the stack of their blocks; with
    # its norm taken on a copy of its strided real form (2.98) it read 2.99,
    # with the vectors scattered into an n x n complex array after the
    # residual 6.8, and finished through dense float64 copies that ended in
    # a complex cast, 9.1.  K and
    # the rotation take the sector route: measured 18.2 and 15.0 MiB, the
    # complex vectors, M V and V Lambda for the residual; with W and the
    # rotated matrix kept alive to the end of the solve they read 30.0 and
    # 23.9, and with each superseded copy of the vectors kept until the
    # residual, 24.0 and 17.9
    ham = build(HalfInteger(24))
    tracemalloc.start()
    try:
        hermitian_eig(ham.matrix, charge=ham.charge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_certificate_at_the_cap_holds_one_copy_of_the_vectors_at_a_time():
    # measured 21.7 MiB, 3.6 above K's own eigensolve (18.1): K's dense
    # vectors, H's as the stack of its blocks, and K's powers for the
    # moments.  With H's vectors also scattered into an n x n complex array,
    # 5.96 MiB, which nothing in the certificate reads, it read 27.2; with
    # both real forms kept from the eigensolve for the moments, 30.2, and
    # with each superseded copy of the vectors also kept until the
    # residual, 36.0
    h, k = build_heisenberg(HalfInteger(24)), build_cyclic(HalfInteger(24))
    peaks = []
    for solve in (
        lambda: hermitian_eig(k.matrix, charge=k.charge),
        lambda: certify_isospectral(
            h.matrix, k.matrix, kmax=49, prefix=25, charges=(h.charge, k.charge)
        ),
    ):
        tracemalloc.start()
        try:
            solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    alone, peak = peaks
    assert peak < 23.0 * 2**20
    # beyond K's eigensolve, less than one n x n complex array
    assert peak - alone < h.dimension**2 * np.dtype(np.complex128).itemsize


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
def test_vectors_are_made_dense_only_when_read(build, assert_kept_blocks):
    # the decomposition holds the stack of the vectors' blocks, which the
    # dense array, scattered from it on the first read, gives back bit for
    # bit, padding as +0.0 included; the array is read-only, and kept, and
    # for K's one block it is a view of the stack, with no copy
    ham = build(HalfInteger(8))
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    held = dec.vector_blocks
    assert "dense" not in vars(held) and not held.stack.flags.writeable
    vectors = dec.vectors
    assert vectors is dec.vectors and not vectors.flags.writeable
    rows, columns = held.rows, held.columns
    gathered = vectors[rows.members[:, :, None], columns.members[:, None, :]]
    gathered[~rows.inside(columns)] = 0
    assert gathered.tobytes() == held.stack.tobytes()
    assert np.shares_memory(vectors, held.stack) == (build is build_cyclic)
    assert_kept_blocks(dec)


def test_empty_matrix_gives_an_empty_decomposition():
    dec = hermitian_eig(np.zeros((0, 0)))
    assert dec.values.shape == (0,)
    assert dec.vectors.shape == (0, 0)
    assert dec.residual == 0.0
    assert dec.sweeps == 0
    assert dec.dimension == 0


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
        # the scale-free residual ||M v - value v|| / ||v||
        residual = np.linalg.norm(m @ vector - value * vector) / np.linalg.norm(vector)
        assert residual <= 1e-12


def test_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.eye(2) * np.nan)


def test_a_sweep_budget_is_no_argument():
    # the budget is the constant MAX_SWEEPS, and the charge is keyword-only,
    # so a call that passed a budget before the charge fails at once
    m, charge = np.eye(4), (np.eye(2), np.eye(2))
    with pytest.raises(TypeError):
        hermitian_eig(m, DEFAULT_TOL, 100)
    with pytest.raises(TypeError):
        hermitian_eig(m, DEFAULT_TOL, charge)
    with pytest.raises(TypeError):
        hermitian_eig(m, max_sweeps=100)
    with pytest.raises(TypeError):
        certify_isospectral(m, m, 4, 2, 100)
    with pytest.raises(TypeError):
        certify_isospectral(m, m, 4, 2, (charge, charge))


def test_sweep_budget_exhaustion():
    h = build_heisenberg(HalfInteger(1))
    with pytest.raises(ConvergenceError):
        _within(0, h.matrix)
    # H's pattern splits, so its charge goes unused and the budget applies
    # to each component; on the sector route it applies to each sector
    with pytest.raises(ConvergenceError, match=r"^component "):
        _within(0, h.matrix, h.charge)
    r = build_bilinear(HalfInteger(1), _REAL_ROTATION)
    with pytest.raises(ConvergenceError, match=r"^sector of charge "):
        _within(0, r.matrix, r.charge)
    k = build_cyclic(HalfInteger(4))
    with pytest.raises(
        ConvergenceError,
        match=r"^sector of charge 2\(qa\+qb\) = -?\d+ \(width \d+\): "
        r"off-diagonal norm \S+ still above \S+ after 0 sweeps$",
    ):
        _within(0, k.matrix, k.charge)


def test_overflowing_norm_is_a_numerical_error():
    # the norm 1e308 of diag(1e308, 1) is finite, but the sum of squares
    # behind the stop threshold and the sweeps' off-diagonal norms is not
    message = "the squares of the matrix's entries sum beyond double precision"
    with pytest.raises(NumericalError, match=message):
        hermitian_eig(np.diag([1e308, 1.0]).astype(complex))
    with pytest.raises(NumericalError, match=message):
        hermitian_eig(np.diag([1e308, 1e308]).astype(complex))
    # entries near 1e200 are finite, but their squares are not
    with pytest.raises(NumericalError, match=message):
        hermitian_eig(np.full((2, 2), 1e200, dtype=complex))


def _stack_cases(case):
    if case == "real":
        # real symmetric blocks run the float64 stack: widths in scrambled
        # order, a diagonal block and a 5 x 5 block padded with zeros to 9 x 9
        rng = np.random.default_rng(2025)
        blocks = [_random_hermitian(rng, n).real for n in (4, 9, 1, 6, 3)]
        blocks.append(np.diag(rng.standard_normal(5)))
        padded = np.zeros((9, 9))
        padded[:5, :5] = _random_hermitian(rng, 5).real
        blocks.append(padded)
        return blocks, [DEFAULT_TOL * frobenius_norm(b) for b in blocks]
    if case == "random":
        # widths 1..9 in scrambled order, a block that is already diagonal,
        # and a 5 x 5 block padded with zeros to 9 x 9 like the stack pads it
        rng = np.random.default_rng(2024)
        blocks = [_random_hermitian(rng, n) for n in (5, 1, 9, 3, 7, 2, 8, 4, 6)]
        blocks.append(np.diag(rng.standard_normal(6)).astype(complex))
        padded = np.zeros((9, 9), dtype=complex)
        padded[:5, :5] = _random_hermitian(rng, 5)
        blocks.append(padded)
        return blocks, [DEFAULT_TOL * frobenius_norm(b) for b in blocks]
    # stop 0.5 gives the 4 x 4 block a skip threshold of 0.0125: its pivot
    # 0.02 is rotated, though it would not be at twice that threshold.  The
    # 2 x 2 block starts below its stop, so its pivot 0.1 (above its skip
    # threshold 0.025) must never be rotated while the other block sweeps.
    # The 3 x 3 block's threshold is 0.5 / 30, not 0.5 / 40 from the stack's
    # width: rotating pivot (0, 1) splits its 0.016 into 0.0136 and 0.0084,
    # which stay put, so it ends with off-diagonal norm 0.016 * sqrt(2).
    wide = np.array(
        [[1.0, 1.0, 0, 0], [1.0, 2.0, 0, 0], [0, 0, 3.0, 0.02], [0, 0, 0.02, 5.0]]
    )
    narrow = np.array([[1.0, 0.1], [0.1, 2.0]])
    odd = np.array([[1.0, 1.0, 0.016], [1.0, 2.0, 0], [0.016, 0, 3.0]])
    blocks = [wide.astype(complex), narrow.astype(complex), odd.astype(complex)]
    return blocks, [0.5, 0.5, 0.5]


def _owner(x):
    """The array that owns the memory ``x`` views."""
    while x.base is not None:
        x = x.base
    return x


@pytest.mark.parametrize("case", ["random", "thresholds", "real"])
def test_stack_solves_each_block(case):
    blocks, stops = _stack_cases(case)
    blocks = [_symmetrized(block) for block in blocks]
    before = [block.copy() for block in blocks]
    solved = _jacobi_stack(blocks, stops, 100)
    assert len(solved) == len(blocks)
    # every diagonal and rotation is a copy of its own, so none keeps a stack
    # alive: no two lie in the memory of one array
    owners = [_owner(x) for diagonal, v, _, _ in solved for x in (diagonal, v)]
    assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(owners, 2))
    for block, kept, stop, (diagonal, v, sweeps, off) in zip(
        blocks, before, stops, solved
    ):
        np.testing.assert_array_equal(block, kept)
        n = block.shape[0]
        assert diagonal.shape == (n,) and v.shape == (n, n)
        # the stack runs in the blocks' dtype: real blocks get real rotations
        assert v.dtype == (np.float64 if case == "real" else np.complex128)
        assert off <= stop
        # by Weyl's bound the values and the residual are within the
        # off-diagonal mass left over, plus rounding
        scale = max(1.0, frobenius_norm(block))
        np.testing.assert_allclose(
            np.sort(diagonal),
            np.linalg.eigvalsh(block),
            rtol=0,
            atol=off + 1e-10 * n * scale,
        )
        residual = np.linalg.norm(block @ v - v * diagonal, axis=0).max()
        assert residual <= off + 1e-10 * n * scale
        # zero rows and columns, as in the stack's padding, are never touched
        zero = ~block.any(axis=0)
        if zero.any():
            np.testing.assert_array_equal(diagonal[zero], 0.0)
            np.testing.assert_array_equal(v[zero][:, zero], np.eye(zero.sum()))
            assert not v[zero][:, ~zero].any() and not v[~zero][:, zero].any()
        if frobenius_norm(block - np.diag(np.diagonal(block))) <= stop:
            # a block that starts converged is returned as it is
            assert sweeps == 0
            np.testing.assert_array_equal(diagonal, np.diagonal(block).real)
            np.testing.assert_array_equal(v, np.eye(n))
    if case == "thresholds":
        assert [sweeps for _, _, sweeps, _ in solved] == [1, 0, 1]
        # the pivot 0.02 was rotated away, the split 0.016 was not
        np.testing.assert_allclose(
            solved[0][0][2:], np.linalg.eigvalsh(blocks[0][2:, 2:].real), atol=1e-15
        )
        assert solved[2][3] == pytest.approx(0.016 * np.sqrt(2.0), rel=1e-12)


def test_stack_reports_blocks_that_run_out_of_sweeps():
    rng = np.random.default_rng(7)
    block = _symmetrized(_random_hermitian(rng, 6))
    blocks = [block, np.ones((1, 1), dtype=complex)]
    stops = [DEFAULT_TOL * frobenius_norm(block), DEFAULT_TOL]
    solved = _jacobi_stack(blocks, stops, 2)
    assert [sweeps for _, _, sweeps, _ in solved] == [2, 0]
    assert solved[0][3] > stops[0] and solved[1][3] <= stops[1]


def _routed(route, twice):
    """The operator and the charge of a route case.

    "sectors" is H with its charge, which its split pattern leaves unused;
    "rotated-sectors" is the exactly real rotation with its charge, which
    splits its one-component pattern on the sector route; "full" is H alone.
    """
    if route == "rotated-sectors":
        ham = build_bilinear(HalfInteger(twice), _REAL_ROTATION)
        assert not gauge(ham.matrix)[0].any()
    else:
        ham = build_heisenberg(HalfInteger(twice))
    return ham, None if route == "full" else ham.charge


@pytest.fixture
def stack_dtypes(monkeypatch):
    """The dtype of every stack the Jacobi kernel runs, in call order."""
    seen = []
    kernel = eig._jacobi_stack

    def spy(blocks, stops, max_sweeps):
        seen.append(np.result_type(*blocks))
        return kernel(blocks, stops, max_sweeps)

    monkeypatch.setattr(eig, "_jacobi_stack", spy)
    return seen


@pytest.mark.parametrize("route", ["sectors", "full", "scalar-sectors"])
def test_subnormal_tol_stays_finite_and_silent(route, stack_dtypes, monkeypatch):
    # stop near 1e-308 leaves subnormal pivots above the skip threshold;
    # tau = d / (2 b) and pivot / b once overflowed there.  H and the
    # rotation are exactly real, so this runs the float64 stack.  The
    # sector route's leak bound tol ||M||_F lies below the rounding of any
    # basis but an exact one, so it runs here with the scalar charge I x I,
    # whose basis is I and whose one sector is the whole matrix (at 2s = 4,
    # 25 wide: at 2s = 2 its 9 x 9 block stalls near 1e-37, above that stop)
    if route == "scalar-sectors":
        ham, _ = _routed("rotated-sectors", 4)
        charge = (np.eye(5), np.eye(5))
    else:
        ham, charge = _routed(route, 6)
    monkeypatch.setattr(eig, "DEFAULT_TOL", 1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = hermitian_eig(ham.matrix, charge=charge)
    assert set(stack_dtypes) == {np.dtype(np.float64)}
    n = ham.dimension
    scale = max(1.0, frobenius_norm(ham.matrix))
    np.testing.assert_allclose(
        dec.values, np.linalg.eigvalsh(ham.matrix), atol=1e-10 * n * scale
    )
    assert dec.residual <= 1e-10 * n * scale


def test_stack_rotates_a_subnormal_pivot_silently():
    # |pivot| = 5e-310 in rows 0 and 1: tau = d / (2 b) and 1 / b would both
    # overflow.  Its square underflows, so the pivot 1e-100 in rows 2 and 3
    # is what keeps the block running.
    block = np.diag([1.0, 2.0, 3.0, 5.0]).astype(complex)
    block[0, 1], block[1, 0] = 3e-310 + 4e-310j, 3e-310 - 4e-310j
    block[2, 3] = block[3, 2] = 1e-100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((diagonal, v, sweeps, off),) = _jacobi_stack([block], [0.0], 100)
    assert (sweeps, off) == (1, 0.0)
    np.testing.assert_array_equal(diagonal, [1.0, 2.0, 3.0, 5.0])
    np.testing.assert_allclose(
        v, np.diag([1.0, 0.6 - 0.8j, 1.0, 1.0]), rtol=0, atol=1e-15
    )


def test_stack_rotates_a_real_subnormal_pivot_silently():
    # the float64 stack divides the pivot by b once, for e = sign(pivot)
    block = np.diag([1.0, 2.0, 3.0, 5.0])
    block[0, 1] = block[1, 0] = -5e-310
    block[2, 3] = block[3, 2] = 1e-100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((diagonal, v, sweeps, off),) = _jacobi_stack([block], [0.0], 100)
    assert (sweeps, off) == (1, 0.0)
    assert v.dtype == np.float64
    np.testing.assert_array_equal(diagonal, [1.0, 2.0, 3.0, 5.0])
    np.testing.assert_allclose(v, np.diag([1.0, -1.0, 1.0, 1.0]), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "twice, route",
    [
        (3, "sectors"),
        (8, "sectors"),
        (24, "sectors"),
        (4, "full"),
        (3, "rotated-sectors"),
        (8, "rotated-sectors"),
        (24, "rotated-sectors"),
    ],
)
def test_exactly_real_input_runs_real_arithmetic(twice, route, stack_dtypes):
    # H and the rotation, their charge factors and the sector route's basis
    # are exactly real, so every stack is float64; the decomposition keeps
    # its complex128 contract
    ham, charge = _routed(route, twice)
    assert not ham.matrix.imag.any() and ham.matrix.dtype == np.complex128
    dec = hermitian_eig(ham.matrix, charge=charge)
    assert stack_dtypes and set(stack_dtypes) == {np.dtype(np.float64)}
    assert dec.vectors.dtype == np.complex128 and not dec.vectors.imag.any()
    assert dec.values.dtype == np.float64
    n = ham.dimension
    scale = max(1.0, frobenius_norm(ham.matrix))
    np.testing.assert_allclose(
        dec.values, np.linalg.eigvalsh(ham.matrix), atol=1e-10 * n * scale
    )
    # the residual is taken against the complex input, column by column
    rebuilt = ham.matrix @ dec.vectors - dec.vectors * dec.values
    measured = np.linalg.norm(rebuilt, axis=0).max()
    assert dec.residual == pytest.approx(measured, rel=0, abs=1e-13 * scale)
    assert dec.residual <= 1e-10 * n * scale
    gram = dec.vectors.conj().T @ dec.vectors
    assert frobenius_norm(gram - np.eye(n)) <= 1e-10 * n
    # phases: each column's first largest-magnitude entry is real and positive
    lead = dec.vectors[np.argmax(np.abs(dec.vectors), axis=0), np.arange(n)]
    assert (lead.real > 0.0).all() and not lead.imag.any()
    if twice == 24:
        assert dec.sweeps <= 8


@pytest.mark.parametrize("route", ["sectors", "full", "K-sectors"])
def test_a_tiny_imaginary_part_takes_the_complex_path(route, stack_dtypes):
    # the arithmetic is chosen by an exact test, not a tolerance.  A
    # Hermitian pair of 1e-300j entries on a nonzero real entry leaves no
    # real form and sends the solve down the complex stack.  On an exact
    # zero between two components of H, or two colours of K, the same pair
    # is an imaginary link, which an exact gauge D makes real, so that the
    # solve still runs the float64 stack and its vectors come back through
    # D.  K's pattern is one component, so its charge takes the sector route
    if route == "K-sectors":
        ham = build_cyclic(HalfInteger(8))
        assert not gauge(ham.matrix)[0].any()
    else:
        ham = build_heisenberg(HalfInteger(8))
    charge = None if route == "full" else ham.charge
    real = hermitian_eig(ham.matrix, charge=charge)
    assert set(stack_dtypes) == {np.dtype(np.float64)}
    i, j = np.argwhere(np.triu(ham.matrix.real, 1))[0]
    label, colour = gauge(ham.matrix)[:2]
    apart = (label[:, None] != label) | (colour[:, None] != colour)
    zero = np.argwhere(np.triu((ham.matrix == 0) & apart, 1))[0]
    n = ham.dimension
    scale = max(1.0, frobenius_norm(ham.matrix))
    for (p, q), form in [((i, j), False), (zero, True)]:
        del stack_dtypes[:]
        m = ham.matrix.copy()
        m[p, q] += 1e-300j
        m[q, p] -= 1e-300j
        _, colour, swept, _ = gauge(m)
        assert swept.dtype == (np.float64 if form else np.complex128)
        dec = hermitian_eig(m, charge=charge)
        if form:
            assert colour.any()
            assert set(stack_dtypes) == {np.dtype(np.float64)}
        else:
            assert np.dtype(np.complex128) in stack_dtypes
        np.testing.assert_allclose(
            dec.values, real.values, rtol=0, atol=1e-10 * n * scale
        )
        np.testing.assert_allclose(
            dec.values, np.linalg.eigvalsh(ham.matrix), atol=1e-10 * n * scale
        )
        assert dec.residual <= 1e-10 * n * scale
        rebuilt = m @ dec.vectors - dec.vectors * dec.values
        assert np.linalg.norm(rebuilt, axis=0).max() <= 1e-10 * n * scale


def test_complex_input_keeps_the_complex_stack(stack_dtypes):
    # K is complex, but a diagonal D of ones and i's that keeps its charge
    # (S3, S1) makes D^H K D real: both routes run the float64 stack
    # throughout.  A random Hermitian matrix has no real form and keeps
    # the complex stack.
    ham = build_cyclic(HalfInteger(4))
    scale = max(1.0, frobenius_norm(ham.matrix))
    for charge in (ham.charge, None):
        dec = hermitian_eig(ham.matrix, charge=charge)
        # the vectors D V are complex, and the residual is K's own
        assert dec.vectors.imag.any()
        rebuilt = ham.matrix @ dec.vectors - dec.vectors * dec.values
        measured = np.linalg.norm(rebuilt, axis=0).max()
        assert dec.residual == pytest.approx(measured, rel=0, abs=1e-13 * scale)
        assert dec.residual <= 1e-10 * ham.dimension * scale
    assert set(stack_dtypes) == {np.dtype(np.float64)}
    del stack_dtypes[:]
    m = _random_hermitian(np.random.default_rng(7), 12)
    assert gauge(m)[2].dtype == np.complex128
    hermitian_eig(m)
    assert stack_dtypes == [np.dtype(np.complex128)]


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
@pytest.mark.parametrize("twice", [2, 3, 5])
def test_single_precision_input_is_swept_in_double_precision(build, twice):
    # the real form of complex64 input is float64, as for complex128 input,
    # so the decomposition is that of the same entries widened, bit for bit
    single = build(HalfInteger(twice)).matrix.astype(np.complex64)
    wide = single.astype(np.complex128)
    assert gauge(single)[2].dtype == np.float64
    dec = hermitian_eig(single)
    assert _bits(dec) == _bits(hermitian_eig(wide))
    assert dec.residual <= 1e-12 * max(1.0, frobenius_norm(wide))


def test_finish_pins_the_first_largest_component():
    # column 0 ties between rows 0 and 1, and the first wins; column 2 is zero
    vectors = np.array([[1j, 0.5, 0.0], [-1j, 2j, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(
        vectors * _pins(vectors), [[1.0, -0.5j, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
    )
    # the array expression against the per-column loop it replaced
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    ref = vectors.copy()
    for k in range(7):
        col = ref[:, k]
        lead = col[int(np.argmax(np.abs(col)))]
        ref[:, k] = col * (lead.conjugate() / abs(lead))
    eps = np.finfo(np.float64).eps
    np.testing.assert_allclose(
        vectors * _pins(vectors), ref, rtol=0, atol=8 * eps * np.abs(vectors).max()
    )


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


@pytest.mark.parametrize("label", ["H", "K", "rotated"])
@pytest.mark.parametrize("twice", [*range(1, 9), 24])
def test_sector_blocks_are_exactly_hermitian(twice, label):
    # _jacobi_stack updates rows and columns in separate batches and keeps
    # no copy of either half, so a block must start exactly Hermitian: the
    # rotated matrix is symmetrized once, before the split
    s = HalfInteger(twice)
    builds = {"H": build_heisenberg, "K": build_cyclic}
    if label in builds:
        ham = builds[label](s)
    else:
        ham = build_bilinear(s, _random_rotation(700 + twice))
    stop = DEFAULT_TOL * frobenius_norm(ham.matrix)
    factors = _charge_factors(ham.charge, ham.dimension)
    # the matrix as given and, where there is one, its real form, which is
    # what the solver sweeps
    form = gauge(ham.matrix)[2]
    for m in [ham.matrix] + ([form] if form.dtype == np.float64 else []):
        # every sector is a principal block of the rotated matrix
        rotated = _split_sectors(m, factors, stop, m.dtype)[1]
        assert np.array_equal(rotated, rotated.conj().T)


def _signed_permutations():
    """The 24 signed permutation matrices with determinant +1."""
    patterns = []
    for order in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            q = np.eye(3)[list(order)] * np.array(signs)[:, np.newaxis]
            if np.linalg.det(q) > 0.0:
                patterns.append(q)
    assert len(patterns) == 24
    return patterns


@pytest.mark.parametrize(
    "pattern",
    _signed_permutations(),
    ids=lambda q: ";".join(",".join(f"{int(c):+d}" for c in row) for row in q),
)
def test_the_gauge_takes_the_sectors_only_where_it_keeps_the_charge(
    pattern, stack_dtypes
):
    # the charge is (S3, sum_k c_3k Sk).  Every pattern leaves a real form;
    # where B = +-S2, whose nonzeros link indices of different colour, D does
    # not commute with the charge, so the sectors of D^H m D are not those
    # of m and the solve stays complex; gauging anyway leaks.  The factors
    # are swept as given: complex128 where B = +-S2 has an imaginary part
    ham = build_bilinear(HalfInteger(3), pattern)
    assert ham.charge is not None and gauge(ham.matrix)[2].dtype == np.float64
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    if pattern[2, 1] != 0.0:
        assert stack_dtypes == [np.dtype(np.complex128), np.dtype(np.complex128)]
    else:
        assert set(stack_dtypes) == {np.dtype(np.float64)}
    n = ham.dimension
    scale = max(1.0, frobenius_norm(ham.matrix))
    np.testing.assert_allclose(
        dec.values, np.linalg.eigvalsh(ham.matrix), atol=1e-10 * n * scale
    )
    assert dec.residual <= 1e-10 * n * scale
    assert dec.leak <= DEFAULT_TOL * frobenius_norm(ham.matrix)


def _assert_same_bits(a, b):
    """Two decompositions agree bit for bit, their blocks included."""
    assert a.values.tobytes() == b.values.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()
    for name in ("residual", "sweeps", "leak", "commutator"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("rows", "columns"):
        kept, plain = getattr(a.vector_blocks, name), getattr(b.vector_blocks, name)
        np.testing.assert_array_equal(kept.members, plain.members)
        np.testing.assert_array_equal(kept.filled, plain.filled)


@pytest.mark.parametrize("twice", range(1, 25))
def test_h_takes_the_component_route_with_its_charge(twice):
    # H conserves total S3, so its pattern is already split into the
    # sectors of its charge (S3, S3): the charge is checked, then unused
    ham = build_heisenberg(HalfInteger(twice))
    assert gauge(ham.matrix)[0].max() == 2 * twice
    given = hermitian_eig(ham.matrix, charge=ham.charge)
    _assert_same_bits(given, hermitian_eig(ham.matrix))
    assert given.leak == 0.0 and given.commutator == 0.0


def test_a_charge_splits_only_a_pattern_that_is_one_component():
    # the charge of a proper signed permutation is (S3, +-Sk).  At 2s = 3 a
    # diagonal factor, k = 3, goes with a pattern of 7 components, its
    # sectors, and any other with a pattern of one component, which alone
    # takes the sector route: with no sweeps, it names a sector
    counts, routed = [], []
    for pattern in _signed_permutations():
        ham = build_bilinear(HalfInteger(3), pattern)
        factor = ham.charge[1]
        diagonal = not (factor - np.diag(np.diagonal(factor))).any()
        counts.append(gauge(ham.matrix)[0].max() + 1)
        assert counts[-1] == (7 if diagonal else 1)
        with pytest.raises(ConvergenceError, match="^(sector|component) ") as error:
            _within(0, ham.matrix, ham.charge)
        if str(error.value).startswith("sector"):
            routed.append(counts[-1])
    assert counts.count(1) == 16
    assert routed == [1] * 16


def test_a_charge_given_with_h_is_checked_but_not_used():
    s = HalfInteger(4)
    t = make_spin_triple(s)
    ham = build_heisenberg(s)
    for charge in [(np.zeros((5, 4)), t.s3), (t.s3, np.eye(4))]:
        with pytest.raises(ShapeError, match="charge factors"):
            hermitian_eig(ham.matrix, charge=charge)
    blank = t.s3.copy()
    blank[0, 0] = np.nan
    with pytest.raises(ValueError, match="charge factor entries must be finite"):
        hermitian_eig(ham.matrix, charge=(t.s3, blank))
    with pytest.raises(HermiticityError):
        hermitian_eig(ham.matrix, charge=(t.s3 + np.triu(np.ones((5, 5)), 1), t.s3))
    # a well-formed charge, right or wrong, leaves the solve as it is
    plain = hermitian_eig(ham.matrix)
    for charge in [ham.charge, (t.s1, t.s1), (t.s3, np.eye(5))]:
        _assert_same_bits(hermitian_eig(ham.matrix, charge=charge), plain)


def test_sector_route_rejects_a_charge_that_does_not_commute(monkeypatch):
    s = HalfInteger(2)
    t = make_spin_triple(s)
    k = build_cyclic(s)
    with pytest.raises(NumericalError, match="off-sector norm"):
        hermitian_eig(k.matrix, charge=(t.s1, t.s1))
    # far below the rounding of the basis, the wrong charge is still blamed
    monkeypatch.setattr(eig, "DEFAULT_TOL", 1e-100)
    with pytest.raises(NumericalError, match="^charge does not split the operator: "):
        hermitian_eig(k.matrix, charge=(t.s1, t.s1))
    with pytest.raises(ShapeError):
        hermitian_eig(k.matrix, charge=(t.s3, np.eye(2)))


@pytest.mark.parametrize("factor", [np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(5)])
def test_sector_route_rejects_empty_and_non_square_factors(factor):
    s = HalfInteger(4)
    t = make_spin_triple(s)
    k = build_cyclic(s)
    for charge in [(factor, t.s3), (t.s3, factor)]:
        with pytest.raises(ShapeError, match="charge factors"):
            hermitian_eig(k.matrix, charge=charge)


@pytest.mark.parametrize("label", ["H", "K", "rotated"])
def test_sector_sweeps_and_values_at_the_cap(label):
    s = HalfInteger(24)
    builds = {"H": build_heisenberg, "K": build_cyclic}
    if label in builds:
        ham = builds[label](s)
    else:
        ham = build_bilinear(s, _random_rotation(724))
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    # measured: 6 sweeps for each of the three
    assert dec.sweeps <= 8
    n = ham.dimension
    scale = max(1.0, frobenius_norm(ham.matrix))
    np.testing.assert_allclose(
        dec.values, np.linalg.eigvalsh(ham.matrix), atol=1e-10 * n * scale
    )


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
def test_sector_route_at_the_cap(build):
    s = HalfInteger(24)
    ham = build(s)
    dec = hermitian_eig(ham.matrix, charge=ham.charge)
    n = ham.dimension
    scale = max(1.0, frobenius_norm(ham.matrix))
    assert dec.residual <= 1e-10 * n * scale
    assert dec.leak <= DEFAULT_TOL * frobenius_norm(ham.matrix)
    spectrum = cluster_spectrum(dec.values, default_cluster_tol(ham.matrix))
    assert spectra_match(
        spectrum, closed_form_spectrum(s), value_tol=_CLOSED_FORM_TOL
    )


def _banded_with_charge():
    """A complex Hermitian matrix of half-bandwidth 3 and one component, 42
    wide, with the charge (I, 0), whose one sector is the whole matrix."""
    rng = np.random.default_rng(97)
    n = 42
    m = np.diag(rng.standard_normal(n)).astype(complex)
    for d in (1, 2, 3):
        z = rng.standard_normal(n - d) + 1j * rng.standard_normal(n - d)
        m += np.diag(z, d) + np.diag(z.conj(), -d)
    return m, (np.eye(6), np.zeros((7, 7)))


_RESIDUAL_SPINS = (*range(1, 9), 12, 24)


@pytest.mark.parametrize("twice", [*_RESIDUAL_SPINS, None],
                         ids=[*(f"K-2s{twice}" for twice in _RESIDUAL_SPINS), "banded"])
def test_the_banded_residual_matches_a_dense_one(twice):
    # finish takes m v within the half-bandwidth of m, _ROWS rows at a time:
    # one block of rows up to 2s = 4 and several beyond, here and for the
    # banded matrix, whose complex copy is its own sector
    if twice is None:
        m, charge = _banded_with_charge()
        assert gauge(m)[3] == 3 and m.shape[0] > _ROWS
    else:
        k = build_cyclic(HalfInteger(twice))
        m, charge = k.matrix, k.charge
    dec = hermitian_eig(m, charge=charge)
    assert dec.vector_blocks.rows.members.shape[0] == 1
    deltas = m @ dec.vectors - dec.vectors * dec.values
    dense = float(np.max(np.linalg.norm(deltas, axis=0)))
    assert abs(dec.residual - dense) <= 1e-12 * frobenius_norm(m)


@pytest.mark.parametrize("twice", [1, 2, 3, 8, 12, 24])
def test_leak_and_commutator_keep_the_bits_of_the_mode_products(twice, monkeypatch):
    # K's S3 has no off-diagonal nonzero, so it is taken elementwise in the
    # commutator, and its basis, exactly I, is skipped in the rotation; both
    # keep the bits of the mode products with every factor, taken here
    sites = []
    solved = eig._solved

    def spy(routes, max_sweeps):
        results = solved(routes, max_sweeps)
        sites.append(results[0])
        return results

    monkeypatch.setattr(eig, "_solved", spy)
    k = build_cyclic(HalfInteger(twice))
    dec = hermitian_eig(k.matrix, charge=k.charge)
    (qa, va, _, _), (qb, vb, _, _) = sites[0]
    assert np.array_equal(va, np.eye(twice + 1))
    a_site, b_site = (np.array(f.real, dtype=np.float64) for f in k.charge)
    form = gauge(k.matrix)[2]
    assert form.dtype == np.float64

    def mode(t, f, axis):
        return np.moveaxis(np.tensordot(t, f, axes=(axis, 0)), -1, axis)

    t = form.reshape((twice + 1,) * 4)
    commutator = np.linalg.norm(
        (mode(t, a_site, 2) - mode(t, a_site.T, 0))
        + (mode(t, b_site, 3) - mode(t, b_site.T, 1))
    )
    rotated = mode(mode(mode(mode(t, va, 2), vb, 3), va.conj(), 0), vb.conj(), 1)
    rotated = _symmetrized(rotated.reshape(form.shape))
    labels = np.rint(2.0 * (qa[:, np.newaxis] + qb[np.newaxis, :])).ravel()
    leak = np.linalg.norm(rotated[labels[:, np.newaxis] != labels])
    assert dec.leak.hex() == float(leak).hex()
    assert dec.commutator.hex() == float(commutator).hex()
    assert twice == 1 or dec.leak > 0.0


def _permuted_block_hermitian(seed, widths):
    """A random complex Hermitian matrix, block diagonal over ``widths`` up
    to a permutation of its indices."""
    rng = np.random.default_rng(seed)
    n = sum(widths)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for width in widths:
        m[start : start + width, start : start + width] = _random_hermitian(rng, width)
        start += width
    order = rng.permutation(n)
    return m[np.ix_(order, order)]


@pytest.mark.parametrize(
    "case", ["H-8", "permuted-blocks"], ids=["H-without-charge", "permuted-blocks"]
)
def test_full_route_sweeps_the_components_as_blocks(
    case, stack_dtypes, assert_kept_blocks
):
    if case == "H-8":
        m = build_heisenberg(HalfInteger(8)).matrix
        count, width = 17, 9
    else:
        m = _permuted_block_hermitian(83, [5, 1, 7, 3, 3, 11])
        count, width = 6, 11
    n = m.shape[0]
    label = gauge(m)[0]
    assert label.max() + 1 == count and np.bincount(label).max() == width
    dec = hermitian_eig(m)
    # blocks up to 16 wide share one stack, padded to an even width
    assert len(stack_dtypes) == 1
    scale = max(1.0, frobenius_norm(m))
    np.testing.assert_allclose(dec.values, np.linalg.eigvalsh(m), atol=1e-10 * n * scale)
    # the vectors keep to the blocks, the residual is taken on them, and the
    # decomposition keeps them
    for blocks in (dec.vector_blocks.rows, dec.vector_blocks.columns):
        assert blocks.members.shape == (count, width)
    assert_kept_blocks(dec)
    dense = np.max(np.linalg.norm(m @ dec.vectors - dec.vectors * dec.values, axis=0))
    assert dec.residual == pytest.approx(dense, rel=1e-6, abs=1e-14 * scale)
    assert dec.residual <= 1e-10 * n * scale
    gram = dec.vectors.conj().T @ dec.vectors
    assert frobenius_norm(gram - np.eye(n)) <= 1e-10 * n
    # the total off-diagonal stop is still tol * ||m||_F
    rotated = dec.vectors.conj().T @ m @ dec.vectors
    off = rotated - np.diag(np.diagonal(rotated))
    assert frobenius_norm(off) <= DEFAULT_TOL * frobenius_norm(m)


def test_full_route_names_the_component_that_runs_out():
    m = _permuted_block_hermitian(89, [2, 4, 3])
    with pytest.raises(
        ConvergenceError,
        match=r"^component \d \(width [234]\): off-diagonal norm \S+ still above "
        r"\S+ after 0 sweeps$",
    ):
        _within(0, m)
    # K's pattern is one component, named like any other
    with pytest.raises(
        ConvergenceError, match=r"^component 0 \(width 16\): off-diagonal norm "
    ):
        _within(0, build_cyclic(HalfInteger(3)).matrix)



@pytest.mark.parametrize("twice, tol", [(2, 1e-100), (4, 1e-30), (24, 1e-17)])
def test_a_tol_below_rounding_is_named_not_the_charge(twice, tol, monkeypatch):
    # (S3, S1) commutes with K, but no rounded basis W keeps K's mass in the
    # sectors to tol * ||K||_F below about eps * ||K||_F: the bound stands,
    # and the error names the rounding, with the same off-sector norm
    k = build_cyclic(HalfInteger(twice))
    rounding = k.dimension * np.finfo(np.float64).eps * frobenius_norm(k.matrix)
    assert hermitian_eig(k.matrix, charge=k.charge).leak <= 0.1 * rounding
    monkeypatch.setattr(eig, "DEFAULT_TOL", tol)
    with pytest.raises(NumericalError) as error:
        hermitian_eig(k.matrix, charge=k.charge)
    assert str(error.value).startswith(
        f"the leak lies within the rounding of the sector basis, {rounding:.3e}: "
        "off-sector norm "
    )


def test_single_precision_rounding_is_named_not_the_charge(monkeypatch):
    # (S3, S1) commutes with K, but not with K rounded to complex64: the leak
    # lies within the input's own rounding, n * eps(float32) * ||K||_F, and
    # the error says so instead of blaming the charge
    k = build_cyclic(HalfInteger(2))
    single = k.matrix.astype(np.complex64)
    eps = np.finfo(np.float32).eps
    rounding = k.dimension * eps * frobenius_norm(gauge(single)[2])
    with pytest.raises(NumericalError) as error:
        hermitian_eig(single, charge=k.charge)
    assert type(error.value) is NumericalError
    assert str(error.value).startswith(
        f"the leak lies within the rounding of the complex64 input, {rounding:.3e}: "
        "off-sector norm "
    )
    # a wrong charge is still blamed, and a stop above that rounding passes
    t = make_spin_triple(HalfInteger(2))
    with pytest.raises(NumericalError, match="^charge does not split the operator: "):
        hermitian_eig(single, charge=(t.s1, t.s1))
    monkeypatch.setattr(eig, "DEFAULT_TOL", 10 * rounding)
    assert hermitian_eig(single, charge=k.charge).leak <= rounding


@pytest.mark.parametrize("twice", [2, 3, 24])
def test_no_charge_factor_is_walked(twice, monkeypatch):
    # the charge factors are swept as given, real as K's S3 and S1 or with
    # an imaginary part as B = +S2: only the operator takes a walk.  A
    # certificate walks each operator twice, once to admit it and once for
    # its moments.  The bits are pinned in tests/golden/eig-bits.json.
    walked = []

    def spy_on(module):
        walk = module.gauge

        def spy(m):
            walked.append(m.shape[0])
            return walk(m)

        monkeypatch.setattr(module, "gauge", spy)

    spy_on(eig)
    s = HalfInteger(twice)
    k = build_cyclic(s)
    hermitian_eig(k.matrix, charge=k.charge)
    assert walked == [k.dimension]
    del walked[:]
    pattern = next(q for q in _signed_permutations() if q[2, 1] == 1.0)
    p = build_bilinear(s, pattern)
    hermitian_eig(p.matrix, charge=p.charge)
    assert walked == [p.dimension]
    del walked[:]
    spy_on(spectral)
    h = build_heisenberg(s)
    spectral.certify_isospectral(
        h.matrix, k.matrix, kmax=2 * twice + 1, charges=(h.charge, k.charge)
    )
    assert walked == [k.dimension] * 4


def _kernel_spy(monkeypatch):
    """The blocks of every stack that the Jacobi kernel runs, in call order."""
    stacks = []
    kernel = eig._jacobi_stack

    def spy(blocks, stops, max_sweeps):
        stacks.append(list(blocks))
        return kernel(blocks, stops, max_sweeps)

    monkeypatch.setattr(eig, "_jacobi_stack", spy)
    return stacks


def _certified(monkeypatch, a, b, **kwargs):
    """The decompositions that certify_isospectral takes of a and b."""
    taken = []
    batched = spectral._eigensolves

    def spy(*args, **kw):
        solved = batched(*args, **kw)
        taken.extend(solved)
        return solved

    monkeypatch.setattr(spectral, "_eigensolves", spy)
    spectral.certify_isospectral(a, b, **kwargs)
    return taken


def _one_dtype(stacks) -> set:
    """The dtypes of the stacks, each of whose blocks must share one."""
    dtypes = [{block.dtype for block in blocks} for blocks in stacks]
    assert all(len(d) == 1 for d in dtypes), dtypes
    return set().union(*dtypes)


@pytest.mark.parametrize("twice", [*range(1, 9), 12, 16, 24])
def test_a_certificate_decomposes_each_operator_as_alone(twice, monkeypatch):
    # H's blocks and K's sectors share the kernel's stacks, each block padded
    # to the width that its own route gives it: the decompositions are bit
    # for bit those of separate solves, in two kernel calls up to 2s = 15
    # (K's factors, then every block) and three beyond, where the blocks
    # wider than 16 take a stack of their own
    s = HalfInteger(twice)
    h, k = build_heisenberg(s), build_cyclic(s)
    stacks = _kernel_spy(monkeypatch)
    taken = _certified(
        monkeypatch, h.matrix, k.matrix, kmax=2 * twice + 1, charges=(h.charge, k.charge)
    )
    classes = 1 if twice <= 15 else 2
    assert len(stacks) == 1 + classes
    assert _one_dtype(stacks) == {np.dtype(np.float64)}
    del stacks[:]
    for dec, ham in zip(taken, (h, k), strict=True):
        _assert_same_bits(dec, hermitian_eig(ham.matrix, charge=ham.charge))
    # alone, H takes a call per width class and K one more for its factors
    assert len(stacks) == 2 * classes + 1


def test_a_complex_sector_route_keeps_its_own_stack_beside_h(monkeypatch):
    # with B = +-S2 the charge keeps the sectors only in complex arithmetic,
    # as its factors run, while H runs real: the sectors take a stack of
    # their own, of H's padded width, and each decomposition keeps its bits
    s = HalfInteger(3)
    pattern = next(q for q in _signed_permutations() if q[2, 1] != 0.0)
    h, p = build_heisenberg(s), build_bilinear(s, pattern)
    stacks = _kernel_spy(monkeypatch)
    taken = _certified(
        monkeypatch, h.matrix, p.matrix, kmax=s.dimension**2, charges=(h.charge, p.charge)
    )
    assert len(stacks) == 3
    assert [b.shape[0] for b in stacks[0]] == [4, 4]
    assert _one_dtype(stacks) == {np.dtype(np.float64), np.dtype(np.complex128)}
    for dec, ham in zip(taken, (h, p), strict=True):
        _assert_same_bits(dec, hermitian_eig(ham.matrix, charge=ham.charge))


def test_blocks_padded_apart_are_stacked_apart(monkeypatch):
    # the routes of these operators pad their blocks to 4, 6, 8 and 10
    # within the class of blocks up to 16 wide, real and complex: every
    # decomposition is bit for bit its own, so no block is padded wider
    # than its own route pads it, and no stack mixes a real and a complex
    # block
    pattern = next(q for q in _signed_permutations() if q[2, 1] != 0.0)
    operators = [
        build_heisenberg(HalfInteger(3)),
        build_bilinear(HalfInteger(3), pattern),
        build_cyclic(HalfInteger(5)),
        build_heisenberg(HalfInteger(7)),
    ]
    pairs = [(ham.matrix, ham.charge) for ham in operators]
    pairs += [
        (build_cyclic(HalfInteger(2)).matrix, None),
        (_permuted_block_hermitian(97, [5, 1, 7, 3]), None),
    ]
    stacks = _kernel_spy(monkeypatch)
    batched = eig._eigensolves(pairs)
    assert _one_dtype(stacks) == {np.dtype(np.float64), np.dtype(np.complex128)}
    padded = [
        (2 * -(-max(b.shape[0] for b in blocks) // 2), blocks[0].dtype.name)
        for blocks in stacks
    ]
    # the factors of the rotation, complex as B = +-S2 is, and of K at
    # 2s = 5, then the blocks
    assert padded[:2] == [(4, "complex128"), (6, "float64")]
    assert sorted(padded[2:]) == [
        (4, "complex128"), (4, "float64"), (6, "float64"),
        (8, "complex128"), (8, "float64"), (10, "float64"),
    ]
    for dec, (m, charge) in zip(batched, pairs, strict=True):
        assert isinstance(dec, EigDecomposition)
        _assert_same_bits(dec, hermitian_eig(m, charge=charge))


def test_sector_routes_sweep_their_own_factors_then_batch_their_blocks(monkeypatch):
    # K and a rotation whose B is +-S2 both take the sector route at 2s = 3,
    # with factors 4 wide, K's real and the rotation's complex: each
    # operator sweeps its own two factors in a call of its own, in operator
    # order, before one stage of blocks
    s = HalfInteger(3)
    pattern = next(q for q in _signed_permutations() if q[2, 1] != 0.0)
    operators = [build_cyclic(s), build_bilinear(s, pattern)]
    assert not any(gauge(ham.matrix)[0].any() for ham in operators)
    pairs = [(ham.matrix, ham.charge) for ham in operators]
    stacks = _kernel_spy(monkeypatch)
    batched = eig._eigensolves(pairs)
    dtypes = ("float64", "complex128")
    for factors, ham, dtype in zip(stacks[:2], operators, dtypes, strict=True):
        given = _charge_factors(ham.charge, ham.dimension)
        swept = [_symmetrized(f) for f in given]
        assert [b.dtype.name for b in factors] == [dtype, dtype]
        assert all(np.array_equal(b, f) for b, f in zip(factors, swept, strict=True))
    # the sectors: K's real and the rotation's complex, in a stack each
    assert _one_dtype(stacks[2:]) == {np.dtype(np.float64), np.dtype(np.complex128)}
    assert len(stacks) == 4
    for dec, (m, charge) in zip(batched, pairs, strict=True):
        assert isinstance(dec, EigDecomposition)
        _assert_same_bits(dec, hermitian_eig(m, charge=charge))


def _every_member_solved(routes, max_sweeps):
    """``eig._solved`` with every member of a stack given to the kernel, twins
    too: the reference that a shared solve must match bit for bit.  It
    checks no convergence of its own: every case it serves converges, as
    the checked solve that it is compared with shows."""
    stacks = {}
    for r, (blocks, *_) in enumerate(routes):
        classes = [max((block.shape[0] - 1).bit_length(), 4) for block in blocks]
        for k in dict.fromkeys(classes):
            members = [j for j, c in enumerate(classes) if c == k]
            widest = max(blocks[j].shape[0] for j in members)
            dtype = np.result_type(np.float64, *(blocks[j] for j in members))
            key = max(widest + widest % 2, 2), dtype
            stacks.setdefault(key, []).extend((r, j) for j in members)
    solved = [[None] * len(blocks) for blocks, *_ in routes]
    for members in stacks.values():
        stacked = _jacobi_stack(
            [routes[r][0][j] for r, j in members],
            [routes[r][1][j] for r, j in members],
            max_sweeps,
        )
        for (r, j), result in zip(members, stacked):
            solved[r][j] = result
    return solved


def _assert_same_results(a, b):
    """Two lists of kernel results per route agree bit for bit."""
    for route_a, route_b in zip(a, b, strict=True):
        for (da, va, sa, oa), (db, vb, sb, ob) in zip(route_a, route_b, strict=True):
            assert da.tobytes() == db.tobytes() and va.tobytes() == vb.tobytes()
            assert (sa, oa) == (sb, ob)


def _kernel_keys(monkeypatch):
    """The (width, stop, bytes) of every block that the Jacobi kernel
    sweeps, one list per call, in call order."""
    calls = []
    kernel = eig._jacobi_stack

    def spy(blocks, stops, max_sweeps):
        calls.append([(b.shape[0], s, b.tobytes()) for b, s in zip(blocks, stops)])
        return kernel(blocks, stops, max_sweeps)

    monkeypatch.setattr(eig, "_jacobi_stack", spy)
    return calls


@pytest.mark.parametrize("twice", range(1, 25))
def test_h_sweeps_each_pair_of_twin_components_once(twice, monkeypatch):
    # (m1, m2) -> (-m2, -m1) takes H's component at total M onto the one at
    # -M in index order, so they are bit for bit one block: of the 4s + 1
    # components, 2s + 1 reach the kernel, 25 of 49 at the cap
    h = build_heisenberg(HalfInteger(twice))
    calls = _kernel_keys(monkeypatch)
    dec = hermitian_eig(h.matrix, charge=h.charge)
    assert sum(len(keys) for keys in calls) == twice + 1
    assert len(calls) == (1 if twice <= 15 else 2)
    assert len(set().union(*calls)) == twice + 1
    monkeypatch.setattr(eig, "_solved", _every_member_solved)
    _assert_same_bits(dec, hermitian_eig(h.matrix, charge=h.charge))


def test_certificates_send_no_twin_to_the_kernel(monkeypatch, run_cli):
    # the 2s = 12 certificate sweeps K's factors, then 13 of H's 25
    # components and K's 25 sectors; a table to the cap keeps its 57 calls,
    # two per spin up to 2s = 15 and three beyond, and no call holds a twin
    calls = _kernel_keys(monkeypatch)
    assert run_cli("verify", "--spin", "6", "--format", "json")[0] == 0
    assert [len(keys) for keys in calls] == [2, 38]
    del calls[:]
    code, out, err = run_cli("table", "--max-spin", "12", "--format", "csv")
    assert len(calls) == 57
    assert all(len(set(keys)) == len(keys) for keys in calls)
    # and every spin up to the cap passes, its moments too
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["spin"] for row in rows] == [str(HalfInteger(t)) for t in range(1, 25)]
    assert all(row["moments_passed"] == row["verdict"] == "True" for row in rows)


def test_twins_take_the_results_of_sweeping_every_member(monkeypatch):
    # operators whose blocks repeat, within one operator and across them:
    # every decomposition, charge factors included, is bit for bit the one
    # that sweeping every member of every stack gives
    pairs = [
        (ham.matrix, ham.charge)
        for twice in (1, 2, 3, 6, 24)
        for ham in (build_heisenberg(HalfInteger(twice)), build_cyclic(HalfInteger(twice)))
    ]
    rotations = [build_bilinear(HalfInteger(3), q) for q in _signed_permutations()]
    pairs += [(ham.matrix, ham.charge) for ham in rotations]
    twin = _permuted_block_hermitian(101, [3])
    pairs += [(np.kron(np.eye(3), twin), None), (np.kron(np.eye(2), twin.real), None)]
    batched = eig._eigensolves(pairs)
    monkeypatch.setattr(eig, "_solved", _every_member_solved)
    reference = eig._eigensolves(pairs)
    for dec, ref in zip(batched, reference, strict=True):
        _assert_same_bits(dec, ref)


def test_blocks_equal_but_for_a_signed_zero_or_a_stop_are_swept_apart(monkeypatch):
    # the kernel's rotation takes the sign of a[q, q] - a[p, p], so a -0.0
    # on the diagonal turns it the other way: equal values are not one block.
    # Nor are equal bytes under different stops.  Only the true twin, the
    # third block's copy in the second route, shares a solve
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = a.copy()
    b[1, 1] = -0.0
    assert np.array_equal(a, b) and a.tobytes() != b.tobytes()
    c = _symmetrized(np.random.default_rng(7).standard_normal((3, 3)))
    stop = DEFAULT_TOL * frobenius_norm(c)
    loose = 1e-3 * frobenius_norm(c)
    routes = [
        ([a, b, c, c], [DEFAULT_TOL, DEFAULT_TOL, stop, loose], [""] * 4),
        ([c], [stop], [""]),
    ]
    calls = _kernel_keys(monkeypatch)
    solved = eig._solved(routes, MAX_SWEEPS)
    assert [key[:2] for key in calls[0]] == [
        (2, DEFAULT_TOL), (2, DEFAULT_TOL), (3, stop), (3, loose)
    ]
    assert len(calls) == 1
    _assert_same_results(solved, _every_member_solved(routes, MAX_SWEEPS))
    # the signed zero and the looser stop each change the result's bits
    assert solved[0][0][1].tobytes() != solved[0][1][1].tobytes()
    assert solved[0][2][2] > solved[0][3][2]
    assert solved[1][0] is solved[0][2]


def test_one_operator_given_twice_shares_one_solve(monkeypatch):
    h = build_heisenberg(HalfInteger(6))
    calls = _kernel_keys(monkeypatch)
    batched = eig._eigensolves([(h.matrix, h.charge)] * 2)
    assert [len(keys) for keys in calls] == [7]
    alone = hermitian_eig(h.matrix, charge=h.charge)
    for dec in batched:
        _assert_same_bits(dec, alone)


def test_a_twin_that_runs_out_is_named_by_the_first(run_cli, sweep_budget):
    # at 2s = 3, H's components 2 and 4 are both 3 wide and one block; one
    # sweep leaves it off-diagonal mass, and the error names component 2
    h = build_heisenberg(HalfInteger(3))
    blocks, *_ = eig._Eigensolve(h.matrix, None).route
    assert blocks[2].shape == (3, 3) and blocks[2].tobytes() == blocks[4].tobytes()
    with pytest.raises(ConvergenceError, match=r"^component 2 \(width 3\): "):
        _within(1, h.matrix)
    sweep_budget(1)
    code, out, err = run_cli("verify", "--spin", "3/2")
    assert (code, out) == (3, "")
    assert err.startswith("error: component 2 (width 3): ")


def test_a_certificate_raises_what_separate_solves_raise_first(sweep_budget):
    # the first operator's first error wins, of any kind and at any stage,
    # then the second's
    s = HalfInteger(3)
    h, k = build_heisenberg(s), build_cyclic(s)
    charges = h.charge, k.charge

    def raised(a, b, charges=charges, max_sweeps=MAX_SWEEPS):
        sweep_budget(max_sweeps)
        with pytest.raises(Exception) as error:
            certify_isospectral(a, b, kmax=8, charges=charges)
        return type(error.value), str(error.value)

    def alone(m, charge, max_sweeps=MAX_SWEEPS):
        sweep_budget(max_sweeps)
        with pytest.raises(Exception) as error:
            hermitian_eig(m, charge=charge)
        return type(error.value), str(error.value)

    # both run out of one sweep: H's component is named, before K's sectors
    first = raised(h.matrix, k.matrix, max_sweeps=1)
    assert first == alone(h.matrix, h.charge, max_sweeps=1)
    assert first[1].startswith("component 2 (width 3): ")
    assert alone(k.matrix, k.charge, max_sweeps=1)[1].startswith("sector of charge ")
    # a wrong charge on K, with H fine, gives K's leak
    t = make_spin_triple(s)
    wrong = raised(h.matrix, k.matrix, charges=(h.charge, (t.s1, t.s1)))
    assert wrong == alone(k.matrix, (t.s1, t.s1))
    assert wrong[1].startswith("charge does not split the operator: ")
    # one held error, K's leak at admission, loses to H's blocks running out
    assert raised(h.matrix, k.matrix, charges=(h.charge, (t.s1, t.s1)), max_sweeps=1) == first
    # a non-finite operator second loses to a first that runs out of sweeps,
    # and first wins over a second that does
    bad = k.matrix.copy()
    bad[0, 1] = np.nan
    assert raised(h.matrix, bad, max_sweeps=1) == first
    assert raised(h.matrix, bad) == (ValueError, "matrix entries must be finite")
    assert raised(bad, h.matrix, max_sweeps=1) == (ValueError, "matrix entries must be finite")
    # a second K whose sectors run out loses to a first whose factors leak
    assert raised(k.matrix, k.matrix, charges=((t.s1, t.s1), k.charge), max_sweeps=1) == wrong


def _finish_calls(monkeypatch):
    """The operators' dimensions, one per call of ``_Eigensolve.finish``."""
    calls = []
    finish = eig._Eigensolve.finish

    def spy(solve, solved):
        calls.append(solve.m.shape[0])
        return finish(solve, solved)

    monkeypatch.setattr(eig._Eigensolve, "finish", spy)
    return calls


def test_a_block_that_runs_out_fails_the_certificate_before_any_finish(
    monkeypatch, sweep_budget
):
    # H's component 2 runs out of one sweep: no operator is finished, so no
    # residual is taken for a certificate that fails
    s = HalfInteger(3)
    h, k = build_heisenberg(s), build_cyclic(s)
    calls = _finish_calls(monkeypatch)
    sweep_budget(1)
    with pytest.raises(ConvergenceError, match=r"^component 2 \(width 3\): "):
        certify_isospectral(h.matrix, k.matrix, kmax=8, charges=(h.charge, k.charge))
    assert calls == []


def test_a_held_admission_error_is_raised_before_any_finish(monkeypatch):
    # H converges, K's wrong charge leaks at admission: the held leak is
    # raised, and H, whose blocks were solved, is not finished
    s = HalfInteger(3)
    h, k = build_heisenberg(s), build_cyclic(s)
    t = make_spin_triple(s)
    calls = _finish_calls(monkeypatch)
    with pytest.raises(NumericalError, match="^charge does not split the operator: "):
        certify_isospectral(h.matrix, k.matrix, kmax=8, charges=(h.charge, (t.s1, t.s1)))
    assert calls == []
    # the spy passes a finish through: a certificate that passes finishes both
    certify_isospectral(h.matrix, k.matrix, kmax=8, charges=(h.charge, k.charge))
    assert calls == [s.dimension**2] * 2


def test_table_raises_the_first_failing_spins_error(run_cli, sweep_budget, cli_tol):
    # one sweep solves every block at 2s = 1, none wider than 2, and runs out
    # at 2s = 2 on H's component 2, before any sector of K
    sweep_budget(1)
    assert run_cli("table", "--max-spin", "1/2")[0] == 0
    code, out, err = run_cli("table", "--max-spin", "3")
    assert (code, out) == (3, "")
    assert err.startswith("error: component 2 (width 3): ")
    assert run_cli("verify", "--spin", "1") == (3, "", err)
    # so too at the cap, where K's sectors are 25 wide
    code, out, err = run_cli("verify", "--spin", "12")
    assert (code, out) == (3, "")
    assert err.startswith("error: component 2 (width 3): ")
    # at a stop of 1e-100, which only a test sets, K fails at admission,
    # its stop below the rounding of the sector basis, and H's component
    # that runs out is still the error
    cli_tol(1e-100)
    for spin in ("3", "12"):
        code, out, err = run_cli("verify", "--spin", spin)
        assert (code, out) == (3, "")
        assert err.startswith("error: component 2 (width 3): ")


_NOT_FINITE = ValueError, "matrix entries must be finite"


def _defect(value: str, bound: str) -> tuple:
    return HermiticityError, f"matrix is not Hermitian: defect {value} exceeds {bound}"


# an input, and the error class and message of hermitian_eig and of moments
_BAD_INPUT = {
    "non-square": (
        np.zeros((2, 3)),
        (ShapeError, "eigensolver needs a square matrix, got shape (2, 3)"),
        (ShapeError, "moments need a square matrix, got shape (2, 3)"),
    ),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), _NOT_FINITE, _defect("nan", "2.000e-10")),
    "nan-imaginary": (
        np.array([[1.0, complex(0.0, np.nan)], [1j, 1.0]]),
        _NOT_FINITE,
        _defect("nan", "2.000e-10"),
    ),
    "inf-diagonal": (
        np.array([[np.inf, 1j], [-1j, 1.0]]),
        _NOT_FINITE,
        _defect("nan", "2.000e-10"),
    ),
    "inf": (np.array([[1.0, np.inf], [1.0, 1.0]]), _NOT_FINITE, _defect("inf", "2.000e-10")),
    "inf-no-real-form": (
        np.array([[1.0, complex(1.0, np.inf)], [1 + 1j, 1.0]]),
        _NOT_FINITE,
        _defect("inf", "2.000e-10"),
    ),
    **{
        name: (m, _defect("2.828e+00", "2.000e-12"), _defect("2.828e+00", "2.000e-10"))
        for name, m in [
            ("real", np.array([[1.0, 2.0], [0.0, 1.0]])),
            ("real-form", np.array([[1.0, 2j], [0.0, 1.0]])),
            ("no-real-form", np.array([[1.0, 1 + 1j], [1 + 1j, 1.0]])),
        ]
    },
}


@pytest.mark.parametrize("name", list(_BAD_INPUT))
def test_input_errors_keep_their_class_and_message(name):
    # the solver and the moments check what linalg.gauge hands back: a real
    # form, or a copy of input that has none
    m, *errors = _BAD_INPUT[name]
    for call, (error, message) in zip([hermitian_eig, lambda m: moments(m, 3)], errors):
        with pytest.raises(error) as raised:
            call(m)
        assert type(raised.value) is error and str(raised.value) == message


_BITS = Path(__file__).parent / "golden" / "eig-bits.json"


def _platform() -> dict:
    """What the bits of a decomposition rest on besides the source: numpy,
    its BLAS and the CPU features that both dispatch on."""
    core = getattr(np, "_core", None)
    if core is None:  # numpy 1, on which no bits were pinned
        return {"numpy": np.__version__}
    features = core._multiarray_umath.__cpu_features__
    enabled = ",".join(sorted(name for name, on in features.items() if on))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": hashlib.sha256(enabled.encode()).hexdigest()[:16],
    }


def _bits(dec) -> dict:
    """A decomposition's arrays as digests of their bytes, its floats in hex."""
    return {
        "values": hashlib.sha256(dec.values.tobytes()).hexdigest(),
        "vectors": hashlib.sha256(dec.vectors.tobytes()).hexdigest(),
        "residual": dec.residual.hex(),
        "sweeps": dec.sweeps,
        "leak": dec.leak.hex(),
        "commutator": dec.commutator.hex(),
    }


def _pinned_operators() -> dict:
    """H and K at every 2s = 1..24 and the proper signed permutations of H at
    2s = 3, each with its charge."""
    operators = {
        f"{name}-2s{twice}": lambda twice=twice, build=build: build(HalfInteger(twice))
        for name, build in (("H", build_heisenberg), ("K", build_cyclic))
        for twice in range(1, 25)
    }
    for pattern in _signed_permutations():
        name = ";".join(",".join(f"{int(c):+d}" for c in row) for row in pattern)
        operators[name] = lambda q=pattern: build_bilinear(HalfInteger(3), q)
    return operators


_PINNED = _pinned_operators()


def _openblas_threads():
    """The get and set functions of the thread count of the OpenBLAS that
    numpy loaded, by the symbols of numpy's own build and of a system one,
    or None where no loaded library exports them."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                       "openblas_{}_num_threads"):
            get = getattr(lib, symbol.format("get"), None)
            put = getattr(lib, symbol.format("set"), None)
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the body with OpenBLAS on ``count`` threads, and restore the count."""
    functions = _openblas_threads()
    if functions is None:
        pytest.skip("no OpenBLAS thread-count symbol, so the pinned count cannot be set")
    get, put = functions
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)


def _pinned(table: str, name: str) -> tuple[dict | str, int | None]:
    """The entry ``name`` of the pinned ``table`` and the BLAS thread count
    it was pinned at; skips off the platform that it was pinned on."""
    pinned = json.loads(_BITS.read_text(encoding="utf-8"))
    where = dict(pinned["platform"])
    threads = where.pop("blas_threads")
    if where != _platform():
        pytest.skip(f"bits pinned on {pinned['platform']}")
    return pinned[table][name], threads


@pytest.mark.parametrize("name", list(_PINNED))
def test_decompositions_keep_their_pinned_bits(name):
    # a change that keeps the solver's arithmetic keeps these bits; they hold
    # only on the platform that they were pinned on, since a BLAS product on
    # another may round differently, and at the BLAS thread count they were
    # pinned at, since a product split over more threads may round
    # differently too
    bits, threads = _pinned("bits", name)
    ham = _PINNED[name]()
    with _blas_threads(threads):
        dec = hermitian_eig(ham.matrix, charge=ham.charge)
    assert _bits(dec) == bits


def _digest(traces: np.ndarray) -> str:
    return hashlib.sha256(traces.tobytes()).hexdigest()


def _pinned_moments() -> dict:
    """moments(M, 2s + 1) of H and K at every 2s = 1..24, the range that
    verify takes beyond 2s = 12, and moments(M, (2s + 1)^2), the range it
    takes up to there, at every 2s <= 12."""
    return {
        f"{name}-2s{twice}-k{kmax}": lambda twice=twice, build=build, kmax=kmax: moments(
            build(HalfInteger(twice)).matrix, kmax
        )
        for name, build in (("H", build_heisenberg), ("K", build_cyclic))
        for twice in range(1, 25)
        for kmax in [twice + 1] + ([(twice + 1) ** 2] if twice <= 12 else [])
    }


_PINNED_MOMENTS = _pinned_moments()


@pytest.mark.parametrize("name", list(_PINNED_MOMENTS))
def test_moments_keep_their_pinned_bits(name):
    # the moment route's traces, pinned as the decompositions are, on one
    # platform at one BLAS thread count
    digest, threads = _pinned("moments", name)
    with _blas_threads(threads):
        traces = _PINNED_MOMENTS[name]()
    assert _digest(traces) == digest


if __name__ == "__main__":
    # regenerate the pinned bits: PYTHONPATH=src python tests/test_eig.py,
    # which prints the name of each entry whose bits it changed
    before = json.loads(_BITS.read_text(encoding="utf-8"))
    bits = {}
    for name, make in _PINNED.items():
        ham = make()
        bits[name] = _bits(hermitian_eig(ham.matrix, charge=ham.charge))
    traces = {name: _digest(call()) for name, call in _PINNED_MOMENTS.items()}
    tables = {"bits": bits, "moments": traces}
    threads = _openblas_threads()
    pinned = {**_platform(), "blas_threads": None if threads is None else threads[0]()}
    text = json.dumps({"platform": pinned, **tables}, indent=1)
    _BITS.write_text(text + "\n", encoding="utf-8")
    for table, entries in tables.items():
        for name, entry in entries.items():
            if before.get(table, {}).get(name) != entry:
                print(name)
