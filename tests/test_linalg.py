import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spintool import linalg
from spintool.eig import hermitian_eig
from spintool.gates import unitarity_residual
from spintool.hamiltonians import build_cyclic
from spintool.linalg import (
    Blocks,
    HermiticityError,
    ShapeError,
    adjoint,
    as_cmatrix,
    commutator,
    components,
    frobenius_distance,
    frobenius_norm,
    gauge,
    hermiticity_defect,
    identity,
    kron,
    matmul,
    require_hermitian,
    trace,
)
from spintool.spectral import moments
from spintool.spin import HalfInteger


def _random_pair(rng, n):
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return a, b


def test_as_cmatrix_basic():
    m = as_cmatrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.flags.c_contiguous
    assert not m.flags.writeable


def test_as_cmatrix_rejects_non_2d():
    with pytest.raises(ShapeError):
        as_cmatrix([1, 2, 3])
    with pytest.raises(ShapeError):
        as_cmatrix([[[1]]])


def test_as_cmatrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_cmatrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_cmatrix([[0, complex(0, np.nan)], [0, 1]])


def test_matmul_pauli_product():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    np.testing.assert_allclose(matmul(x, y), [[1j, 0], [0, -1j]], atol=0)


def test_matmul_rejects_mismatched_inner_dims():
    with pytest.raises(ShapeError):
        matmul(identity(2), identity(3))


def test_identity_size_check():
    with pytest.raises(ShapeError):
        identity(0)
    # a constructor's result is read-only, as as_cmatrix's is
    assert not identity(3).flags.writeable


def test_kron_block_order():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 5], [6, 7]], dtype=complex)
    out = kron(a, b)
    assert out.shape == (4, 4)
    np.testing.assert_allclose(out[:2, 2:], 2 * b, atol=0)
    np.testing.assert_allclose(out[2:, :2], 3 * b, atol=0)


def test_kron_spin_half_cross_entry():
    s1 = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
    s2 = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
    assert kron(s1, s2)[0, 3] == -0.25j


@pytest.mark.parametrize("n", [2, 3])
def test_kron_mixed_product(n):
    rng = np.random.default_rng(100 + n)
    a, b = _random_pair(rng, n)
    c, d = _random_pair(rng, n)
    left = matmul(kron(a, b), kron(c, d))
    right = kron(matmul(a, c), matmul(b, d))
    assert frobenius_distance(left, right) <= 1e-12 * n * n


@pytest.mark.parametrize("n", [2, 3])
def test_kron_trace_multiplicative(n):
    rng = np.random.default_rng(200 + n)
    a, b = _random_pair(rng, n)
    assert abs(trace(kron(a, b)) - trace(a) * trace(b)) <= 1e-12 * n * n


def test_adjoint_involution_and_product_reversal():
    rng = np.random.default_rng(17)
    a, b = _random_pair(rng, 3)
    np.testing.assert_allclose(adjoint(adjoint(a)), a, atol=0)
    np.testing.assert_allclose(adjoint(matmul(a, b)), matmul(adjoint(b), adjoint(a)), atol=1e-15)


def test_trace_and_shape_guard():
    assert trace(identity(4)) == 4
    assert trace(np.diag([2.0, -5.0]).astype(complex)) == -3
    with pytest.raises(ShapeError):
        trace(np.ones((2, 3)))


def test_trace_cyclic():
    rng = np.random.default_rng(23)
    a, b = _random_pair(rng, 4)
    assert abs(trace(matmul(a, b)) - trace(matmul(b, a))) <= 1e-12


def test_commutator_antisymmetric():
    rng = np.random.default_rng(29)
    a, b = _random_pair(rng, 3)
    np.testing.assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-15)
    with pytest.raises(ShapeError):
        commutator(a, np.ones((2, 2)))


def test_frobenius_distance_cases():
    assert frobenius_distance(identity(2), identity(2)) == 0.0
    assert frobenius_distance(identity(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ShapeError):
        frobenius_distance(identity(2), identity(3))


def test_frobenius_norm_value():
    assert frobenius_norm(np.array([[3, 4]])) == pytest.approx(5.0)


def test_hermiticity_defect_and_require():
    h = np.array([[1, 1j], [-1j, 2]], dtype=complex)
    assert hermiticity_defect(h) == 0.0
    require_hermitian(h)
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    assert hermiticity_defect(skew) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(HermiticityError):
        require_hermitian(skew)


def test_require_hermitian_rejects_nan():
    # the defect is NaN, which compares False against any bound
    with pytest.raises(HermiticityError):
        require_hermitian([[1.0, np.nan], [2.0, 1.0]])


@pytest.mark.parametrize("dtype", [complex, float])
def test_hermiticity_defect_matches_the_complex_difference(dtype):
    # the defect is taken from the real and imaginary parts; it must equal
    # the norm of the complex difference a - a^H up to rounding
    rng = np.random.default_rng(5)
    # from n = 200 the sum runs over several blocks of rows, the last partial
    for n in (1, 2, 7, 30, 200, 625):
        a, _ = _random_pair(rng, n)
        a = a.astype(dtype) if dtype is complex else a.real.copy()
        expected = np.linalg.norm(a - a.conj().T)
        assert hermiticity_defect(a) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "entry, where",
    [
        (np.nan, (0, 1)),
        (complex(0.0, np.nan), (0, 1)),
        (complex(0.0, np.nan), (1, 1)),
        (np.inf, (0, 0)),
        (complex(1.0, np.inf), (1, 0)),
        (complex(-np.inf, 0.0), (1, 1)),
    ],
    ids=["nan-real", "nan-imag", "nan-imag-diagonal", "inf-real", "inf-imag", "-inf-diagonal"],
)
def test_require_hermitian_rejects_non_finite_entries(entry, where):
    # silently: inf - inf is NaN, and the defect then fails every bound
    m = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
    m[where] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiticityError):
            require_hermitian(m)
        # also when the mirrored entry holds the conjugate
        m[where[::-1]] = np.conj(entry)
        with pytest.raises(HermiticityError):
            require_hermitian(m)


@pytest.mark.parametrize("dtype", [complex, float])
def test_hermiticity_defect_builds_no_square_temporary(dtype):
    # rows are taken in blocks of about 2^14 entries, so at n = 625 the
    # peak stays below half of one 625 x 625 float64 array of 3.1 MB; a NaN or
    # an infinity in any block, inside it or right of its diagonal part,
    # still gives a NaN or infinite defect
    m = build_cyclic(HalfInteger(24)).matrix
    m = m if dtype is complex else m.real.copy()
    tracemalloc.start()
    try:
        hermiticity_defect(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 625 * 625 * 8 / 2
    for (i, j), entry, expected in [
        ((0, 624), np.nan, math.isnan),
        ((300, 310), np.inf, math.isinf),
        ((624, 3), -np.inf, math.isinf),
        ((400, 400), np.inf, math.isnan),
    ]:
        bad = m.copy()
        bad[i, j] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected(hermiticity_defect(bad)), (i, j, entry)


@pytest.mark.parametrize("part", [1.0, 1j], ids=["real", "imaginary"])
def test_require_hermitian_keeps_its_tol_times_dim_bound(part):
    # an asymmetry of 1e-12 in one entry gives the defect sqrt(2) * 1e-12,
    # inside the bound 1e-12 * 2; 2e-12 gives 2.83e-12, outside it
    m = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
    near = m.copy()
    near[0, 1] += 1e-12 * part
    assert hermiticity_defect(near) == pytest.approx(np.sqrt(2.0) * 1e-12, rel=1e-3)
    require_hermitian(near)
    require_hermitian(near.real if part == 1.0 else near, 1e-12)
    far = m.copy()
    far[0, 1] += 2e-12 * part
    with pytest.raises(HermiticityError):
        require_hermitian(far)
    # moments checks at 1e-10, so a 1e-11 asymmetry there passes
    far[0, 1] += 1e-11 * part
    require_hermitian(far, 1e-10)


def _reference_labels(m):
    """Breadth-first component labels, one link at a time."""
    n = m.shape[0]
    linked = (m != 0) | (m != 0).T
    label = [-1] * n
    count = 0
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = count
        reached = [root]
        for i in reached:
            for j in np.flatnonzero(linked[i]).tolist():
                if label[j] < 0:
                    label[j] = count
                    reached.append(j)
        count += 1
    return np.array(label, dtype=np.intp)


@pytest.mark.parametrize("density", [0.0, 0.05, 0.15, 0.4, 1.0])
def test_components_match_a_breadth_first_walk(density):
    rng = np.random.default_rng(int(density * 100) + 5)
    for n in (1, 2, 3, 7, 30, 61):
        m = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        if n > 2:
            # a one-sided link and a link through a NaN
            m[0, n - 1], m[n - 1, 0] = 0.0, 1e-300
            m[1, 2] = m[2, 1] = np.nan
        expected = _reference_labels(m)
        label, parity, reach = components(m)
        np.testing.assert_array_equal(label, expected)
        assert not parity.any()
        i, j = np.nonzero((m != 0) | (m.T != 0))
        assert reach == np.abs(i - j).max(initial=0)
        # links between indices of unlike colour are odd: every path from a
        # component's lowest index then has the parity of the colour change
        colour = rng.integers(0, 2, n)
        label, parity, _ = components(m, lambda i, j: colour[i] != colour[j])
        np.testing.assert_array_equal(label, expected)
        lowest = np.array([np.flatnonzero(expected == b)[0] for b in expected])
        np.testing.assert_array_equal(parity, colour ^ colour[lowest])


def test_components_of_the_empty_and_the_diagonal_matrix():
    label, parity, reach = components(np.zeros((0, 0)))
    assert label.shape == parity.shape == (0,) and reach == 0
    label, parity, reach = components(np.diag([1.0, 0.0, 2.0, 0.0]))
    np.testing.assert_array_equal(label, [0, 1, 2, 3])
    assert not parity.any() and reach == 0


def test_gauge_of_input_with_no_imaginary_part_is_its_real_part(monkeypatch):
    # the walk labels the components but is given no parity test, so the
    # colour is 0; the real form is a new float64 copy, never a view
    tests = []
    walk = linalg.components

    def spy(m, odd=None):
        tests.append(odd)
        return walk(m, odd)

    monkeypatch.setattr(linalg, "components", spy)
    rng = np.random.default_rng(67)
    r = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.3)
    m = r + r.T
    for a in (m, m.astype(complex), np.rint(4.0 * m).astype(int)):
        label, colour, form, _ = gauge(a)
        np.testing.assert_array_equal(label, walk(a)[0])
        assert colour.dtype == np.int8 and not colour.any()
        assert form.dtype == np.float64 and not np.shares_memory(form, a)
        np.testing.assert_array_equal(form, a.real)
    assert tests == [None, None, None]
    # one imaginary entry is enough for the parity test to run
    a = m.astype(complex)
    a[0, 1] += 1j
    a[1, 0] -= 1j
    gauge(a)
    assert tests[-1] is not None


def test_gauge_of_input_with_no_real_form_is_a_complex_copy():
    # the imaginary link 0-1 gives index 1 the walk's parity 1, but the link
    # 1-2 has both parts nonzero, so there is no real form; i on every edge
    # of a triangle leaves none either.  The matrix handed back is then a
    # complex128 copy of m with colour 0, even where m is complex128 and
    # read-only
    both = np.array([[0.0, 1j, 0.0], [-1j, 0.0, 1 + 1j], [0.0, 1 - 1j, 0.0]])

    def odd(i, j):
        return (both.real[i, j] == 0) & (both.real[j, i] == 0)

    np.testing.assert_array_equal(components(both, odd)[1], [0, 1, 1])
    cycle = 1j * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    for m in (both, as_cmatrix(both), both.astype(np.complex64), cycle):
        label, colour, form, reach = gauge(m)
        np.testing.assert_array_equal(label, components(m)[0])
        assert colour.dtype == np.int8 and not colour.any()
        assert form.dtype == np.complex128 and not np.shares_memory(form, m)
        np.testing.assert_array_equal(form, m)
        assert reach == components(m)[2]


def _permuted_block_diagonal(rng, widths):
    """A random complex matrix, block diagonal over ``widths`` up to a
    permutation of its indices."""
    n = sum(widths)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for width in widths:
        r = rng.standard_normal((width, width)) + 1j * rng.standard_normal((width, width))
        m[start : start + width, start : start + width] = r
        start += width
    order = rng.permutation(n)
    return m[np.ix_(order, order)]


def test_blocks_stack_and_scatter_are_inverse():
    rng = np.random.default_rng(61)
    m = _permuted_block_diagonal(rng, [3, 1, 4, 1, 5])
    label = components(m)[0]
    blocks = Blocks.of(label)
    stack = blocks.stack(m)
    assert stack.shape == (5, 5, 5)
    # the padding is 0 and the blocks are m's own
    assert np.count_nonzero(stack) == np.count_nonzero(m)
    np.testing.assert_array_equal(blocks.scatter(stack), m)
    for b, members in enumerate(blocks.members):
        idx = members[blocks.filled[b]]
        assert np.all(label[idx] == b) and np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(stack[b, : idx.size, : idx.size], m[np.ix_(idx, idx)])


def _assert_one_block(blocks, n):
    """``blocks`` is the one block of every index 0..n-1, in order."""
    np.testing.assert_array_equal(blocks.members, np.arange(n)[np.newaxis])
    assert blocks.filled.shape == (1, n) and blocks.filled.all()


def test_blocks_decline_what_cannot_pay():
    # one label, and widths 4 and 1, whose stack of 2 * 16 entries would
    # outgrow the 25 of the matrix: one block of every index instead
    _assert_one_block(Blocks.of(np.zeros(5, dtype=np.intp)), 5)
    _assert_one_block(Blocks.of(np.array([0, 0, 0, 0, 1])), 5)
    _assert_one_block(Blocks.of(np.zeros(0, dtype=np.intp)), 0)
    assert Blocks.of(np.array([0, 1, 0, 2])).members.shape == (3, 2)
    # its stack and scatter are views, which copy nothing
    m = np.arange(25.0).reshape(5, 5)
    one = Blocks.of(np.array([0, 0, 0, 0, 1]))
    stack = one.stack(m)
    assert stack.shape == (1, 5, 5) and np.shares_memory(stack, m)
    np.testing.assert_array_equal(stack[0], m)
    assert np.shares_memory(one.scatter(stack), m)
    np.testing.assert_array_equal(one.scatter(stack), m)
    assert one.stack(np.zeros((0, 0))).shape == (1, 0, 0)


@pytest.mark.parametrize("widths", [[5], [4, 1]], ids=["one-component", "cannot-pay"])
def test_the_one_block_view_never_leaks_a_write(widths):
    # one component, or widths 4 and 1, whose stack would outgrow the
    # matrix: every stack of these inputs is the one-block view of them
    r = _permuted_block_diagonal(np.random.default_rng(71), widths)
    m = (r + r.conj().T) / 2
    assert m.dtype == np.complex128 and m.flags.writeable
    _assert_one_block(Blocks.of(components(m)[0]), 5)
    before = m.copy()
    moments(m, 9)
    hermitian_eig(m)
    unitarity_residual(m)
    assert m.tobytes() == before.tobytes()
