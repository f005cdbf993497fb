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
    components,
    frobenius_norm,
    gauge,
    hermiticity_defect,
    require_hermitian,
)
from spintool.spectral import moments
from spintool.spin import HalfInteger


def _random_pair(rng, n):
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return a, b


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
    "m, expected",
    [
        # the squares underflow: the sum once read 0, and sqrt(2) * 1e-300 passed
        # a subnormal tol
        ([[0.0, 1e-300], [0.0, 0.0]], math.sqrt(2.0) * 1e-300),
        ([[1.0, 1j * 1e-300], [0.0, 1.0]], math.sqrt(2.0) * 1e-300),
        ([[0.0, 5e-324], [0.0, 0.0]], 5e-324),
        ([[0.0, 1e-200], [1e-300, 0.0]], math.sqrt(2.0) * 1e-200),
        # the squares overflow: the sum is inf, but not the defect
        ([[0.0, 1e308], [0.0, 0.0]], math.sqrt(2.0) * 1e308),
        ([[1e200, 1e200], [-1e200, 1e200]], math.sqrt(8.0) * 1e200),
        # the defect itself overflows
        ([[0.0, 1.5e308], [0.0, 0.0]], math.inf),
        ([[0.0, 1e308], [-1e308, 0.0]], math.inf),
        # signed zeros leave it 0
        ([[-0.0, 0.0], [-0.0, complex(0.0, -0.0)]], 0.0),
    ],
)
def test_hermiticity_defect_outside_the_range_of_its_squares(m, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermiticity_defect(np.array(m)) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("entry", [1e-300, 1e308])
def test_hermiticity_defect_outside_the_range_of_its_squares_walks_once(monkeypatch, entry):
    # each block is scaled as it is walked, so a defect whose squares
    # underflow or overflow takes no second walk over the matrix
    walks = []
    real = linalg._difference_blocks

    def spy(a):
        walks.append(None)
        return real(a)

    monkeypatch.setattr(linalg, "_difference_blocks", spy)
    defect = hermiticity_defect(np.array([[0.0, entry], [0.0, 0.0]]))
    assert defect == pytest.approx(math.sqrt(2.0) * entry, rel=1e-15, abs=0.0)
    assert len(walks) == 1


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
    frozen = np.array(both, dtype=complex)
    frozen.flags.writeable = False
    for m in (both, frozen, both.astype(np.complex64), cycle):
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
    block, slot = blocks.places()
    np.testing.assert_array_equal(block, label)
    np.testing.assert_array_equal(blocks.members[block, slot], np.arange(label.size))
    # columns from the blocks of the same labels in another order, as an
    # eigenbasis sorted by value takes them, scattered into an array that
    # keeps its entries off the blocks
    order = rng.permutation(label.size)
    columns = Blocks.of(label[order])
    stack = blocks.stack(m[:, order], columns)
    out = np.full(m.shape, -1.0 + 0j)
    assert blocks.scatter(stack, columns, out=out) is out
    on = label[:, np.newaxis] == label[order]
    np.testing.assert_array_equal(out, np.where(on, m[:, order], -1.0))


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
