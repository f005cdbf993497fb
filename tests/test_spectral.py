import dataclasses
import itertools
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintool.eig import hermitian_eig
from spintool.hamiltonians import build_bilinear, build_cyclic, build_heisenberg
from spintool import spectral
from spintool.linalg import (
    Blocks,
    HermiticityError,
    NumericalError,
    ShapeError,
    gauge,
    hermiticity_defect,
)
from spintool.spectral import (
    _POWER_BYTES,
    _ROWS,
    _baby_steps,
    _products,
    _scaled_differences,
    certify_isospectral,
    closed_form_spectrum,
    cluster_spectrum,
    default_cluster_tol,
    moments,
    newton_check,
    spectra_match,
)
from spintool.spin import HalfInteger


def _stacked(a, component):
    """a's block stack, as moments takes it."""
    return Blocks.of(component).stack(a)


def _assert_whole(stack, a):
    """``stack`` is the one block a[np.newaxis], a view of a."""
    assert stack.shape == (1, *a.shape) and np.shares_memory(stack, a)
    np.testing.assert_array_equal(stack[0], a)


def test_moments_spin_half_golden():
    # eigenvalues (-3/4, 1/4 x3) give power sums 0, 3/4, -3/8, 21/64
    h = build_heisenberg(HalfInteger(1)).matrix
    np.testing.assert_allclose(
        moments(h, 4), [0.0, 0.75, -0.375, 0.328125], atol=1e-15
    )


def test_moments_match_matrix_power_oracle():
    rng = np.random.default_rng(31)
    r = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = (r + r.conj().T) / 2.0
    got = moments(m, 5)
    expected = [float(np.trace(np.linalg.matrix_power(m, k)).real) for k in range(1, 6)]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_moments_identity():
    np.testing.assert_array_equal(moments(np.eye(3, dtype=complex), 3), [3.0, 3.0, 3.0])


def test_moments_guards():
    with pytest.raises(HermiticityError):
        moments(np.array([[0, 1], [0, 0]], dtype=complex), 2)
    with pytest.raises(ValueError):
        moments(np.eye(2, dtype=complex), 0)
    with pytest.raises(ShapeError):
        moments(np.ones((2, 3)), 2)


def test_moments_reject_nan_as_not_hermitian():
    with pytest.raises(HermiticityError):
        moments(np.array([[1.0, np.nan], [2.0, 1.0]]), 3)


def test_moments_scale_by_exact_powers_of_two():
    # ||m||_F^40 = 2^1040 overflows, yet every trace (3 + (-1)^k) 2^(25k) is a
    # double, and power-of-two rescaling must reproduce it bit for bit
    m = np.diag([1.0, 1.0, 1.0, -1.0]) * 2.0**25
    expected = [(3.0 + (-1.0) ** k) * 2.0 ** (25 * k) for k in range(1, 41)]
    np.testing.assert_array_equal(moments(m, 40), expected)


def test_moments_overflowing_trace_is_a_numerical_error():
    assert moments(np.eye(2) * 1e300, 1)[0] == 2e300
    with pytest.raises(NumericalError, match="trace of power 2 overflowed"):
        moments(np.eye(2) * 1e300, 2)


def test_moments_of_an_empty_matrix_are_zero():
    np.testing.assert_array_equal(moments(np.zeros((0, 0)), 3), [0.0, 0.0, 0.0])


def _assert_matches_matrix_powers(m, kmax):
    # every kmax up to the given one, since where the traces come from (baby
    # steps, the first giant step, a partly used last giant group) turns on it
    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(m)))))
    powers = range(1, kmax + 1)
    expected = [np.trace(np.linalg.matrix_power(m, k)).real for k in powers]
    for top in powers:
        got = moments(m, top)
        for k in range(1, top + 1):
            assert abs(got[k - 1] - expected[k - 1]) <= 1e-12 * m.shape[0] * scale**k


_WIDTHS = (5, 3, 2, 1, 1)


def _permuted_blocks(seed, imaginary):
    """Hermitian blocks of widths 5, 3, 2 and 1 plus an isolated zero index,
    under a seeded permutation, with each index's block label; blocks with
    complex entries leave no exact real form."""
    rng = np.random.default_rng(seed)
    m = np.zeros((12, 12), dtype=complex)
    start = 0
    for width in _WIDTHS[:-1]:
        r = rng.standard_normal((width, width))
        if imaginary:
            r = r + 1j * rng.standard_normal((width, width))
        m[start : start + width, start : start + width] = (r + r.conj().T) / 2.0
        start += width
    order = rng.permutation(12)
    label = np.repeat(np.arange(len(_WIDTHS)), _WIDTHS)
    return m[np.ix_(order, order)], label[order]


@pytest.mark.parametrize("imaginary", [False, True], ids=["real-form", "complex"])
def test_moments_split_permuted_blocks(imaginary):
    m, label = _permuted_blocks(53, imaginary)
    component, _, form, _ = gauge(m)
    assert form.dtype == (np.complex128 if imaginary else np.float64)
    same = component[:, None] == component[None, :]
    np.testing.assert_array_equal(same, label[:, None] == label[None, :])
    # labels count up in the order of each component's lowest index
    values, first = np.unique(component, return_index=True)
    np.testing.assert_array_equal(values, np.arange(len(_WIDTHS)))
    assert np.all(np.diff(first) > 0)
    assert _stacked(m, component).shape == (5, 5, 5)
    _assert_matches_matrix_powers(m, 15)


def test_components_follow_one_sided_entries():
    # Hermitian within tolerance, but only m[1, 0] is nonzero: the link
    # still joins indices 0 and 1, so no nonzero falls outside a block
    m = np.diag([1.0, 2.0, 3.0])
    m[1, 0] = 1e-12
    np.testing.assert_array_equal(gauge(m)[0], [0, 0, 1])
    assert _stacked(m, gauge(m)[0]).shape == (2, 2, 2)


def test_moments_of_a_diagonal_matrix():
    values = np.array([0.5, -2.0, 0.0, 1.25, -2.0, 3.0])
    m = np.diag(values)
    assert _stacked(m, gauge(m)[0]).shape == (6, 1, 1)
    expected = [np.sum(values**k) for k in range(1, 13)]
    np.testing.assert_allclose(moments(m, 12), expected, rtol=1e-15, atol=0.0)


def test_stack_layout_holds_no_more_entries_than_the_matrix():
    h = build_heisenberg(HalfInteger(24)).matrix
    component = gauge(h)[0]
    stack = _stacked(h, component)
    assert stack.shape == (49, 25, 25)
    assert stack.size <= h.size
    # one block of n - 1 plus a singleton: a stack of 2 (n-1)^2 entries
    # would outgrow the matrix, so the matrix is powered as it is, one block
    m = np.eye(6)
    m[:5, :5] += 1.0
    component = gauge(m)[0]
    np.testing.assert_array_equal(component, [0, 0, 0, 0, 0, 1])
    _assert_whole(_stacked(m, component), m)
    # widths 3, 1, 1, 1: the stack holds exactly n^2 entries, and is taken
    m = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    m[:3, :3] += 1.0
    assert _stacked(m, gauge(m)[0]).shape == (4, 3, 3)
    _assert_matches_matrix_powers(m, 9)
    # one component, K's case, keeps the matrix itself too
    k = build_cyclic(HalfInteger(4)).matrix
    component = gauge(k)[0]
    assert not component.any()
    _assert_whole(_stacked(k, component), k)


def _gauged(m):
    """D^H m D with D = i^colour, computed in complex arithmetic."""
    d = np.where(gauge(m)[1] == 1, 1j, 1.0)
    return d.conj()[:, None] * m * d[None, :]


def _cube_rotation(seed):
    """A seeded signed permutation matrix with determinant +1."""
    rng = np.random.default_rng(seed)
    q = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
    return q if np.linalg.det(q) > 0.0 else -q


def _generic_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))[np.newaxis, :]
    return q if np.linalg.det(q) > 0.0 else -q


def _assert_exact_real_form(m):
    real = gauge(m)[2]
    assert real.dtype == np.float64
    gauged = _gauged(m)
    assert not gauged.imag.any()
    np.testing.assert_array_equal(real, gauged.real)


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
@pytest.mark.parametrize("twice", [1, 2, 3, 4, 5, 6, 7, 8, 24])
def test_exchange_operators_have_an_exact_real_form(build, twice):
    _assert_exact_real_form(build(HalfInteger(twice)).matrix)


@pytest.mark.parametrize("seed", [800, 803, 804, 805, 809])
def test_signed_permutation_rotations_have_an_exact_real_form(seed):
    pattern = _cube_rotation(seed)
    ham = build_bilinear(HalfInteger(3), pattern)
    assert ham.charge is not None
    _assert_exact_real_form(ham.matrix)


def _frustrated_cycle():
    # i on every edge of a triangle: no colouring of the 3-cycle alternates
    return 1j * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def _random_hermitian():
    rng = np.random.default_rng(47)
    r = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    return (r + r.conj().T) / 2.0


def _generic_rotation_operator():
    # a generic rotation mixes S1 and S2 on site 2, so entries are complex
    return build_bilinear(HalfInteger(3), _generic_rotation(703)).matrix


@pytest.mark.parametrize(
    "make, kmax",
    [(_frustrated_cycle, 7), (_random_hermitian, 40), (_generic_rotation_operator, 16)],
    ids=["frustrated-cycle", "random-hermitian", "generic-rotation"],
)
def test_complex_path_matches_matrix_powers(make, kmax):
    m = make()
    assert gauge(m)[2].dtype == np.complex128
    _assert_matches_matrix_powers(m, kmax)


@pytest.mark.parametrize(
    "build, shape",
    [(build_heisenberg, (7, 4, 4)), (build_cyclic, (1, 16, 16))],
    ids=["H-stacked", "K-dense"],
)
def test_real_forms_match_matrix_powers(build, shape):
    m = build(HalfInteger(3)).matrix
    assert _stacked(m, gauge(m)[0]).shape == shape
    _assert_matches_matrix_powers(m, 40)


def _k_at_2s_12():
    return build_cyclic(HalfInteger(12)).matrix


def _complex_banded():
    # entries with both parts nonzero within 7 of the diagonal: no real form
    rng = np.random.default_rng(71)
    n, band = 301, 7
    m = np.zeros((n, n), dtype=complex)
    for d in range(band + 1):
        z = rng.standard_normal(n - d) + 1j * rng.standard_normal(n - d)
        m[np.arange(n - d), np.arange(d, n)] = z
    return m + m.conj().T


def _dense_symmetric():
    r = np.random.default_rng(73).standard_normal((259, 259))
    return r + r.T


def _interleaved_components():
    # two components of widths 150 and 140, each banded in its own order,
    # their indices drawn at random: the band in stack coordinates is at
    # most the band of the whole matrix, since members ascend
    rng = np.random.default_rng(79)
    label = rng.permutation(np.repeat([0, 1], [150, 140]))
    m = np.zeros((290, 290))
    for b in (0, 1):
        members = np.flatnonzero(label == b)
        for d in range(4):
            v = rng.standard_normal(members.size - d)
            m[members[: members.size - d], members[d:]] = v
            m[members[d:], members[: members.size - d]] = v
    return m


@pytest.mark.parametrize(
    "make, shape, reach, row_blocks, kmax",
    [
        (_k_at_2s_12, (1, 169, 169), 14, 6, 40),
        (_complex_banded, (1, 301, 301), 7, 10, 20),
        (_dense_symmetric, (1, 259, 259), 258, 9, 16),
        (_interleaved_components, (2, 150, 150), None, 5, 16),
    ],
    ids=["K-2s-12", "complex-banded", "dense", "interleaved-components"],
)
def test_products_inside_the_band_match_matrix_powers(make, shape, reach, row_blocks, kmax):
    # the products take each row block's upper part within the band and
    # mirror the rest: these inputs need the band, the conjugate in the
    # mirror, a partial last row block and blocks of several row blocks
    m = make()
    component, _, form, found = gauge(m)
    assert form.dtype == (np.complex128 if make is _complex_banded else np.float64)
    stack = _stacked(m, component)
    assert stack.shape == shape
    assert reach is None or found == reach
    assert -(-shape[-1] // _ROWS) == row_blocks and shape[-1] % _ROWS
    _assert_matches_matrix_powers(m, kmax)


def _spy_products(monkeypatch):
    """The (bx, by, band) of every product that moments takes, each checked
    to hold exact zeros beyond its band when it returns."""
    products = []
    product = spectral._product

    def spy(x, y, bx, by, band=None, out=None):
        result = product(x, y, bx, by, band, out)
        band = bx + by if band is None else band
        i = np.arange(result.shape[-1])
        assert not result[..., np.abs(i[:, None] - i[None, :]) > band].any()
        products.append((bx, by, band))
        return result

    monkeypatch.setattr(spectral, "_product", spy)
    return products


def test_giant_powers_are_built_only_within_the_band_that_traces_read(monkeypatch):
    # tr(m^(t + j)) reads m^t within j * w of the diagonal and the next giant
    # m^(t + 4) within 4 * w more, so m^t is needed within min(t, kmax - t) * w;
    # the first three products build m^2, m^3 and m^4, then come the giants
    m = build_cyclic(HalfInteger(24)).matrix
    w = gauge(m)[3]
    assert w == 26
    products = _spy_products(monkeypatch)
    moments(m, 25)
    assert [band for _, _, band in products[3:]] == [208, 312, 234, 130, 26]
    for kmax in [*range(9, 18), *range(24, 31)]:
        products.clear()
        moments(m, kmax)
        giants = products[3:]
        assert len(giants) == -(-(kmax - 8) // 4)
        for g, (bx, by, band) in enumerate(giants):
            t = 8 + 4 * g
            assert by == 4 * w and band <= min(t, kmax - t) * w
            # an in-place step reads the giant within the band it was built to
            assert g == 0 or bx == giants[g - 1][2]


def _dense_traces(m, kmax):
    """tr(a^k) for k = 1..kmax from a chain of dense float64 products on m's
    real form a, and a scale per power: sum |lambda|^k, which is tr(a^k) for
    even k, and its bound sqrt(tr(a^(k - 1)) tr(a^(k + 1))) for odd k."""
    a = gauge(m)[2]
    assert a.dtype == np.float64
    power, traces = np.eye(a.shape[0]), [float(a.shape[0])]
    for _ in range(kmax + 1):
        power = power @ a
        traces.append(float(np.trace(power)))
    traces = np.array(traces)
    assert np.isfinite(traces).all()
    odd = np.sqrt(np.abs(traces[:-2])) * np.sqrt(np.abs(traces[2:]))
    scale = np.where(np.arange(1, kmax + 1) % 2 == 0, traces[1:-1], odd)
    return traces[1:-1], scale


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
@pytest.mark.parametrize("twice", [*range(1, 9), *range(20, 25)])
def test_traces_at_the_giant_boundaries_match_a_dense_chain(build, twice):
    # kmax = 9, 13, 17 and 25, 29 open a giant that one trace reads, 12, 16
    # and 26 end a group of four; below 2s = 9 every power up to n is read
    m = build(HalfInteger(twice)).matrix
    tops = (m.shape[0],) if twice <= 8 else (9, 12, 13, 16, 17, 25, 26, 29)
    expected, scale = _dense_traces(m, max(tops))
    for kmax in tops:
        error = np.abs(moments(m, kmax) - expected[:kmax])
        assert np.all(error <= 1e-13 * scale[:kmax]), kmax


def test_moments_at_the_cap_keep_few_powers_and_name_the_overflow():
    # J = 4 stored powers plus the giant one, however high kmax reaches
    m = build_cyclic(HalfInteger(24)).matrix
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="trace of power 141 overflowed"):
            moments(m, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes + 6 * 625 * 625 * 8


def test_baby_steps_are_the_fewest_products_within_the_byte_budget():
    # against every J that the budget allows, up to kmax, beyond which none
    # takes fewer products; the search itself stops at 2 isqrt(kmax)
    for nbytes in (8, 5000, 169 * 169 * 8, 529 * 529 * 8, 625 * 625 * 8, 625 * 625 * 16):
        most = max(4, _POWER_BYTES // nbytes - 1)
        for kmax in [*range(1, 80), 169, 625, 1000, 10000]:
            allowed = range(4, max(4, min(most, kmax)) + 1)
            fewest = min(allowed, key=lambda j: _products(kmax, j))
            assert _baby_steps(kmax, nbytes) == fewest, (nbytes, kmax)
    # K's real form at 2s = 22, 23 and 24 keeps J = 4: at 2s = 22 J = 5
    # fits, but ties at 7 products, and the tie goes to the smaller J
    for twice in (22, 23, 24):
        n = (twice + 1) ** 2
        assert _baby_steps(twice + 1, n * n * 8) == 4
    assert _products(23, 4) == _products(23, 5) == 7
    # at the cap only J = 4 fits, whatever kmax
    assert _baby_steps(1000, 625 * 625 * 8) == 4
    # a wide kmax: J from the count at 2s = 4, J capped by the budget at 2s = 12
    assert _baby_steps(10000, 25 * 25 * 8) == 100
    assert _baby_steps(100000, 169 * 169 * 8) == _POWER_BYTES // (169 * 169 * 8) - 1 == 67


@pytest.mark.parametrize(
    "build, twice, kmax, steps, count",
    [
        (build_cyclic, 6, 49, 7, 11),
        (build_cyclic, 7, 64, 8, 13),
        (build_cyclic, 8, 81, 9, 15),
        (build_cyclic, 12, 169, 13, 23),
        (build_heisenberg, 24, 25, 5, 7),
    ],
    ids=["K-2s6", "K-2s7", "K-2s8", "K-2s12", "H-2s24"],
)
def test_baby_steps_are_sized_by_kmax(build, twice, kmax, steps, count, monkeypatch):
    # J = 4 took 14, 17, 22, 44 and 8 products.  Products 2 .. J build the
    # baby steps m^2 .. m^J and the next one the giant m^2J from m^J m^J;
    # the traces at 2J, 2J + 1 and over the first and last giant groups
    # match a dense chain
    m = build(HalfInteger(twice)).matrix
    w = gauge(m)[3]
    products = _spy_products(monkeypatch)
    traces = moments(m, kmax)
    assert len(products) == count == _products(kmax, steps)
    assert [bx for bx, _, _ in products[: steps - 1]] == [j * w for j in range(1, steps)]
    assert products[steps - 1][:2] == (steps * w, steps * w)
    last = kmax - 1 - (kmax - 2 * steps - 1) % steps
    read = {2 * steps, *range(2 * steps + 1, 3 * steps + 1), *range(last, kmax + 1)}
    k = np.array(sorted(read))
    expected, scale = _dense_traces(m, kmax)
    assert np.all(np.abs(traces[k - 1] - expected[k - 1]) <= 1e-13 * scale[k - 1])


def test_moments_at_2s_12_keep_their_powers_within_the_byte_budget():
    # J = 13 baby steps and the giant, 14 powers of 169 x 169 float64
    m = build_cyclic(HalfInteger(12)).matrix
    tracemalloc.start()
    try:
        moments(m, 169)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _POWER_BYTES


def test_moments_of_h_at_the_cap_hold_little_beside_its_blocks():
    # H's real form is its input's real part, stacked straight into 49
    # blocks of width at most 25.  Measured 1.65 MiB; a copy of the real
    # part and a second n x n mask took it to 3.36
    m = build_heisenberg(HalfInteger(24)).matrix
    tracemalloc.start()
    try:
        moments(m, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


@pytest.mark.parametrize("n", [25, 81, 169])
def test_moments_and_the_eigensolver_do_not_depend_on_the_input_layout(n):
    # a dense real symmetric m, one component whose form is m's own memory,
    # in C and F order, transposed and as complex128, and a complex
    # Hermitian c in C and F order and as c^H: each gives the same bytes.
    # The eigensolver, whose one block of 169 takes about 0.5 s a layout,
    # is checked at n = 25 and 81
    rng = np.random.default_rng(n)
    r = rng.standard_normal((n, n))
    m = r + r.T
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = z + z.T.conj()
    fortran = np.asfortranarray(m)
    for twins in (
        [m, fortran, m.T, m.astype(complex), fortran.astype(complex)],
        [c, np.asfortranarray(c), c.T.conj()],
    ):
        assert len({moments(x, 9).tobytes() for x in twins}) == 1
        if n < 169:
            decompositions = map(hermitian_eig, twins)
            bits = {(d.values.tobytes(), d.vectors.tobytes(), d.residual) for d in decompositions}
            assert len(bits) == 1


def test_moments_never_write_into_their_input():
    # the form that gauge hands back may be the input's own memory, which
    # the moments, scaling their powers in place, copy before they write;
    # for one component and for three, writable or read-only, an input
    # keeps its bytes and gives the traces of a private copy
    rng = np.random.default_rng(73)
    split = np.kron(np.eye(3), np.ones((4, 4)))
    r = rng.standard_normal((12, 12))
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for one in (r + r.T, (r + r.T).astype(complex), z + z.T.conj()):
        for m in (one, one * split):
            expected = moments(m.copy(), 7).tobytes()
            for writeable in (True, False):
                x = m.copy()
                x.flags.writeable = writeable
                assert moments(x, 7).tobytes() == expected
                assert x.tobytes() == m.tobytes()


def _spy_band_reads(monkeypatch):
    """The band of every read that moments takes within its band, as a list
    that the reads fill; a read of the whole stack adds nothing."""
    reads = []
    band = spectral._band

    def spy(x, width):
        parts = band(x, width)
        if parts is not None:
            reads.append(width)
        return parts

    monkeypatch.setattr(spectral, "_band", spy)
    return reads


@pytest.mark.parametrize(
    "build, twice, kmax",
    [
        (build_cyclic, 6, 49),
        (build_cyclic, 12, 169),
        (build_cyclic, 18, 19),
        (build_heisenberg, 24, 25),
        (build_heisenberg, 12, 169),
    ],
    ids=["K-2s6", "K-2s12", "K-2s18", "H-2s24", "H-2s12"],
)
def test_below_the_band_read_boundary_traces_keep_the_full_reads(build, twice, kmax, monkeypatch):
    # K's stack at 2s = 18 holds 361^2 = 130,321 entries, just under
    # _BAND_READS, and H's is 49 blocks of width at most 25: every trace and
    # norm reads the whole stack, with the full vdot, as before band reads
    m = build(HalfInteger(twice)).matrix
    reads = _spy_band_reads(monkeypatch)
    traces = moments(m, kmax)
    assert reads == []
    monkeypatch.setattr(spectral, "_band", lambda x, width: None)
    assert [t.hex() for t in traces] == [t.hex() for t in moments(m, kmax)]


@pytest.mark.parametrize("twice", [19, 22, 24])
def test_band_reads_from_2s_19_match_a_dense_chain(twice, monkeypatch):
    # K's stack at 2s = 19 holds 400^2 = 160,000 entries: every trace from
    # power 2 on reads the narrower power's band, j * w for j = 1..4, and so
    # do the baby steps' norms; a giant's norm reads its band where that is
    # under a quarter of n, as the last but one at 2s = 24 (130 of 625)
    m = build_cyclic(HalfInteger(twice)).matrix
    w, kmax = gauge(m)[3], twice + 1
    reads = _spy_band_reads(monkeypatch)
    traces = moments(m, kmax)
    assert {j * w for j in range(1, 5)} <= set(reads)
    assert all(band % w == 0 and 4 * band < m.shape[0] for band in reads)
    assert len(reads) >= kmax - 1
    expected, scale = _dense_traces(m, kmax)
    assert np.all(np.abs(traces - expected) <= 1e-13 * scale)
    monkeypatch.setattr(spectral, "_band", lambda x, width: None)
    whole = moments(m, kmax)
    assert np.all(np.abs(traces - whole) <= 1e-14 * scale)


def test_band_views_hold_each_entry_of_the_band_once():
    # the corners and the sheared middle are disjoint and cover the band,
    # for bands from 0 to just under a quarter of n; the corners hold some
    # entries beyond it too, which are zero in the narrower power.  Wider
    # bands, complex stacks and small ones are read whole
    n = 400
    x = np.zeros((1, n, n))
    offsets = np.abs(np.arange(n)[:, None] - np.arange(n))
    for band in (0, 1, 21, 99):
        x[...] = 0.0
        for part in spectral._band(x, band):
            part += 1.0
        assert x.max() == 1.0 and (x[0][offsets <= band] == 1.0).all(), band
        assert not x[0][offsets > 2 * band].any(), band
    assert spectral._band(x, 100) is None
    assert spectral._band(x.astype(complex), 21) is None
    assert spectral._band(x[:, :361, :361].copy(), 21) is None


def _imaginary_cases():
    for twice in (1, 2, 3, 12, 24):
        yield f"H-{twice}", build_heisenberg(HalfInteger(twice)).matrix
        yield f"K-{twice}", build_cyclic(HalfInteger(twice)).matrix
    # the 24 signed permutations with determinant +1, as bilinear patterns
    for order in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            q = np.eye(3)[list(order)] * np.array(signs)[:, np.newaxis]
            if np.linalg.det(q) > 0.0:
                name = ";".join(",".join(f"{int(c):+d}" for c in row) for row in q)
                yield f"bilinear-{name}", build_bilinear(HalfInteger(3), q).matrix
    r = np.random.default_rng(31).standard_normal((6, 6))
    r = np.where(np.abs(r) < 0.5, 0.0, r + r.T)
    zeros = r.astype(complex)
    zeros[0, 1] = complex(zeros[0, 1].real, -0.0)
    i, j = np.argwhere(r == 0)[0]
    zeros[i, j] = complex(-0.0, -0.0)
    yield "minus-zero-only", zeros
    diagonal = r.astype(complex)
    diagonal[2, 2] += 1j
    yield "diagonal-only", diagonal
    yield "real-diagonal-zero-imaginary", np.diag([1.0, complex(0.0, -0.0), 0.0])


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in _imaginary_cases()])
def test_the_imaginary_test_on_the_links_agrees_with_a_full_scan(m):
    # gauge reads imaginary parts on its links alone, the diagonal among
    # them; an entry off them is zero in both parts.  An imaginary part
    # shows as a complex copy or as a colour: on a link it needs unlike
    # colours for a real form, and on the diagonal it leaves none
    _, colour, form, _ = gauge(m)
    found = form.dtype == np.complex128 or bool(colour.any())
    assert found == bool(np.iscomplexobj(m) and m.imag.any())


def test_the_first_trace_beyond_doubles_is_named():
    # a range past the overflow point raises at its first infinite trace,
    # at every scale, also where ||m||_F^2 overflows
    message = "trace of power {} overflowed double precision; lower kmax"
    with pytest.raises(NumericalError, match=message.format(190)):
        moments(build_cyclic(HalfInteger(12)).matrix, 100000)
    small = build_cyclic(HalfInteger(4)).matrix
    for factor, power in [(1.0, 397), (1e10, 29), (1e100, 4), (1e300, 2)]:
        with pytest.raises(NumericalError, match=message.format(power)):
            moments(small * factor, 100000)


def test_newton_power_sums_are_a_running_product_within_k_ulps():
    # each power x^k is the running product over k, not one pow per entry
    # and power; the sums agree with the pow sums within k ulps of the sum
    # of |x|^k, for values of both signs and at the cap's closed form
    rng = np.random.default_rng(29)
    closed = closed_form_spectrum(HalfInteger(24))
    cap = np.repeat(closed.values, closed.multiplicities)
    k = np.arange(1, 626)
    for x in (rng.uniform(-1, 1, 625), cap / np.max(np.abs(cap)), rng.uniform(0.9, 1, 50)):
        sums = spectral._power_sums(x, k.size)
        exact = np.sum(x ** k[:, None], axis=1)
        bound = k * np.finfo(float).eps * np.sum(np.abs(x) ** k[:, None], axis=1)
        assert np.all(np.abs(sums - exact) <= bound)


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
@pytest.mark.parametrize("twice, kmax", [(11, 144), (12, 169), (24, 25)])
def test_moments_match_closed_form_power_sums(build, twice, kmax):
    s = HalfInteger(twice)
    traces = moments(build(s).matrix, kmax)
    closed = closed_form_spectrum(s)
    radius = Fraction(max(abs(v) for v in closed.values))
    for k in range(1, kmax + 1):
        exact = sum(Fraction(v) ** k * mult for v, mult in closed.clusters)
        assert float(abs(Fraction(traces[k - 1]) - exact) / radius**k) <= 1e-12


def test_newton_check_accepts_true_pairs():
    assert newton_check([1.0, 1.0], [2.0, 2.0, 2.0])
    assert newton_check([-0.75, 0.25, 0.25, 0.25], [0.0, 0.75, -0.375, 0.328125])


def test_newton_check_rejects_false_pairs():
    assert not newton_check([1.0, 2.0], [3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not newton_check([1.0, 2.0], [3.0, np.nan])
        assert not newton_check([1.0, 2.0], [3.0, np.inf])
        assert not newton_check([np.nan, 2.0], [3.0, 5.0])


def test_newton_check_survives_radius_powers_beyond_doubles():
    # 1000^103 passes 1e308 while every trace, 0 at odd powers, is a double
    values = [1000.0, -1000.0]
    traces = moments(np.diag(values), 103)
    wrong = traces.copy()
    wrong[-1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert newton_check(values, traces)
        assert not newton_check(values, wrong)


def test_newton_check_guards():
    with pytest.raises(ValueError):
        newton_check([], [1.0])
    with pytest.raises(ShapeError):
        newton_check([[1.0]], [1.0])


def test_cluster_spectrum_groups_degeneracies():
    spectrum = cluster_spectrum([1.0, 1.0, 1.0, 2.0], 0.5)
    assert spectrum.clusters == ((1.0, 3), (2.0, 1))
    assert spectrum.dimension == 4
    assert spectrum.values == (1.0, 2.0)
    assert spectrum.multiplicities == (3, 1)


def test_cluster_spectrum_running_mean():
    spectrum = cluster_spectrum([0.0, 1e-10, 1.0], 1e-9)
    assert spectrum.clusters[0] == (pytest.approx(5e-11), 2)
    assert spectrum.clusters[1] == (1.0, 1)


def test_cluster_spectrum_singleton_and_guards():
    assert cluster_spectrum([4.0], 1e-9).clusters == ((4.0, 1),)
    with pytest.raises(ValueError):
        cluster_spectrum([2.0, 1.0], 1e-9)
    with pytest.raises(ValueError):
        cluster_spectrum([1.0], 0.0)
    with pytest.raises(ShapeError):
        cluster_spectrum([], 1e-9)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^values must be finite$"):
            cluster_spectrum([0.0, bad, 1.0], 1e-9)


_TOLERANCES = {
    # the number of clusters of [1, 2, 5], and whether [1] and [5] match
    "cluster_tol": lambda tol: len(cluster_spectrum([1.0, 2.0, 5.0], tol).clusters),
    "value_tol": lambda tol: spectra_match(
        cluster_spectrum([1.0], 1e-9), cluster_spectrum([5.0], 1e-9), tol
    ),
}


@pytest.mark.parametrize("name", list(_TOLERANCES))
@pytest.mark.parametrize(
    "tol, outcome",
    [
        (5e-324, {"cluster_tol": 3, "value_tol": False}),
        (1.0, {"cluster_tol": 2, "value_tol": False}),
        (1e308, {"cluster_tol": 1, "value_tol": True}),
        (True, {"cluster_tol": 2, "value_tol": False}),
        (10**400, {"cluster_tol": 1, "value_tol": True}),
        (np.inf, (ValueError, "must be finite, got inf")),
        (np.nan, (ValueError, "must be positive, got nan")),
        (0, (ValueError, "must be positive, got 0")),
        (-1, (ValueError, "must be positive, got -1")),
        (-np.inf, (ValueError, "must be positive, got -inf")),
        ("1e-3", (TypeError, "must be a real number, got '1e-3'")),
        (None, (TypeError, "must be a real number, got None")),
    ],
    ids=[
        "subnormal", "one", "1e308", "True", "int-1e400", "inf", "nan", "zero",
        "negative", "minus-inf", "str", "None",
    ],
)
def test_a_value_tol_that_is_no_positive_finite_real_number_is_refused(name, tol, outcome):
    # one rule holds both tolerances.  inf once merged [1, 2, 5] into one
    # cluster, inf and nan held [1] and [5] equal, since abs(1 - 5) > nan is
    # False, and a str ended in "'>' not supported between instances of
    # 'str' and 'float'", and an int beyond double range in an
    # OverflowError; a bool is the int it equals
    call = _TOLERANCES[name]
    if isinstance(outcome, dict):
        assert call(tol) == outcome[name]
        return
    error, message = outcome
    with pytest.raises(error, match=f"^{name} {re.escape(message)}$"):
        call(tol)


def test_cluster_separation_invariant():
    spectrum = cluster_spectrum([0.0, 0.3, 0.7, 1.2], 0.5)
    gaps = np.diff(spectrum.values)
    assert (gaps > spectrum.cluster_tol).all()
    assert sum(spectrum.multiplicities) == spectrum.dimension


# steps between neighbours, in units of cluster_tol: repeats, steps just
# inside and just outside the tolerance, and clear gaps
STEPS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0]),
    st.floats(0.0, 3.0),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    base=st.floats(-100.0, 100.0),
    tol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.5]),
    steps=st.lists(STEPS, min_size=1, max_size=60),
)
def test_cluster_spectrum_on_near_degenerate_chains(base, tol, steps):
    # chains of steps just under the tolerance let the running mean drift,
    # so a cluster can span more than cluster_tol
    values = base + tol * np.cumsum([0.0] + steps)
    spectrum = cluster_spectrum(values, tol)
    counts = spectrum.multiplicities
    assert sum(counts) == spectrum.dimension == values.size
    # the clusters take consecutive runs of the values; their ranges are
    # disjoint, so every value lies in exactly one cluster
    ends = np.cumsum(counts)
    spans = [(values[end - count], values[end - 1]) for end, count in zip(ends, counts)]
    assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    assert all(lo <= mean <= hi for (lo, hi), mean in zip(spans, spectrum.values))
    assert (np.diff(spectrum.values) > tol).all()
    # each cluster value is the mean of its run, up to the running sum's rounding
    for end, count, mean in zip(ends, counts, spectrum.values):
        run_mean = float(np.mean(values[end - count : end]))
        assert abs(mean - run_mean) <= 1e-14 * count * max(1.0, abs(run_mean))


@pytest.mark.parametrize(
    "twice, expected",
    [
        (1, ((-0.75, 1), (0.25, 3))),
        (2, ((-2.0, 1), (-1.0, 3), (1.0, 5))),
        (3, ((-3.75, 1), (-2.75, 3), (-0.75, 5), (2.25, 7))),
        (4, ((-6.0, 1), (-5.0, 3), (-3.0, 5), (0.0, 7), (4.0, 9))),
    ],
)
def test_closed_form_tables(twice, expected):
    spectrum = closed_form_spectrum(HalfInteger(twice))
    assert spectrum.clusters == expected
    assert spectrum.dimension == (twice + 1) ** 2
    assert sum(spectrum.multiplicities) == spectrum.dimension


def test_default_cluster_tol_floor():
    h = build_heisenberg(HalfInteger(1)).matrix
    # ||H|| < 1 for spin 1/2, so the floor of the scale applies
    assert default_cluster_tol(h) == 1e-9


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
def test_default_cluster_tol_refuses_a_norm_that_is_not_finite(entry):
    # max(1, nan) is 1, so a NaN once gave the floor's 1e-9; an infinite
    # entry, or entries whose squares overflow, gave an infinite tolerance
    with pytest.raises(ValueError, match="Frobenius norm must be finite"):
        default_cluster_tol(np.array([[entry]]))


def test_spectra_match_cases():
    a = cluster_spectrum([0.0, 1.0], 1e-9)
    b = cluster_spectrum([1e-11, 1.0], 1e-9)
    assert spectra_match(a, b, 1e-9)
    assert not spectra_match(a, b, 1e-12)
    c = cluster_spectrum([0.0, 1.0, 1.0], 1e-9)
    assert not spectra_match(a, c, 1e-9)
    assert not spectra_match(a, cluster_spectrum([0.5, 1.0], 1e-9), 1e-9)


def test_certify_spin_half_golden():
    h = build_heisenberg(HalfInteger(1)).matrix
    k = build_cyclic(HalfInteger(1)).matrix
    report = certify_isospectral(h, k, kmax=4, prefix=2)
    assert report.spectra_equal
    assert report.verdict
    assert report.moments.passed
    assert report.moments.prefix_len == 2
    assert report.moments.prefix_passed
    assert report.moments.powers == (1, 2, 3, 4)
    np.testing.assert_allclose(report.moments.traces_a, [0.0, 0.75, -0.375, 0.328125], atol=1e-15)
    np.testing.assert_allclose(report.moments.traces_b, [0.0, 0.75, -0.375, 0.328125], atol=1e-15)
    assert report.spectrum_a.multiplicities == (1, 3)
    assert spectra_match(report.spectrum_a, closed_form_spectrum(HalfInteger(1)), value_tol=1e-9)


def test_certify_detects_different_spectra():
    a = np.diag([1.0, -1.0]).astype(complex)
    b = np.diag([1.0, 1.0]).astype(complex)
    report = certify_isospectral(a, b)
    assert not report.spectra_equal
    assert not report.moments.passed
    assert not report.verdict
    assert report.moments.traces_a[0] == 0.0
    assert report.moments.traces_b[0] == 2.0


@pytest.mark.parametrize("twice", [*range(1, 9), 12, 24])
def test_certificate_traces_are_the_moments_of_each_operator(twice):
    # the moment route gauges each operator itself: its traces are bit for
    # bit those that moments takes of H and K alone, over the CLI's range:
    # the full dimension up to 2s = 12, else the 2s + 1 prefix
    s = HalfInteger(twice)
    h, k = build_heisenberg(s), build_cyclic(s)
    kmax = s.dimension**2 if twice <= 12 else s.dimension
    report = certify_isospectral(h.matrix, k.matrix, kmax=kmax, charges=(h.charge, k.charge))
    for traces, ham in zip((report.moments.traces_a, report.moments.traces_b), (h, k)):
        assert np.array(traces).tobytes() == moments(ham.matrix, kmax).tobytes()


def test_certificate_powers_the_operators_it_was_given(monkeypatch):
    # no form passes from the eigensolve to the moments: the moment route is
    # handed a and b themselves, after both decompositions are done
    s = HalfInteger(3)
    h, k = build_heisenberg(s), build_cyclic(s)
    seen = []
    real = spectral.moments

    def spy(m, kmax):
        seen.append((m, kmax))
        return real(m, kmax)

    monkeypatch.setattr(spectral, "moments", spy)
    certify_isospectral(h.matrix, k.matrix, kmax=7, charges=(h.charge, k.charge))
    assert len(seen) == 2
    assert seen[0][0] is h.matrix and seen[1][0] is k.matrix
    assert [kmax for _, kmax in seen] == [7, 7]


@pytest.mark.parametrize("twice", [3, 8])
def test_det_minus_one_pattern_is_rejected_against_h(twice):
    # S2 x S1 + S1 x S2 + S3 x S3: an improper rotation of H's pattern, -1
    # times the proper one whose charge, (S3, -S3), it takes, and its
    # spectrum is that of -H
    s = HalfInteger(twice)
    h = build_heisenberg(s)
    impostor = build_bilinear(s, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    proper = build_bilinear(s, [[0, -1, 0], [-1, 0, 0], [0, 0, -1]])
    for a, b in zip(impostor.charge, proper.charge, strict=True):
        assert a.tobytes() == b.tobytes()
    np.testing.assert_allclose(
        np.linalg.eigvalsh(impostor.matrix),
        np.sort(-np.linalg.eigvalsh(h.matrix)),
        rtol=0.0,
        atol=1e-12,
    )
    report = certify_isospectral(
        h.matrix, impostor.matrix, charges=(h.charge, impostor.charge)
    )
    assert not report.spectra_equal
    assert not report.verdict


@pytest.mark.parametrize("twice", [1, 2, 3, 8])
def test_a_kernel_that_loses_similarity_fails_the_verdict_on_its_residuals(
    twice, lossy_rotations
):
    # transposed rotations leave the values, the rotated diagonal, as they
    # are, so the spectra and the moments, which read no vector, still pass:
    # only the eigenpair residuals, taken against the input, show the loss
    s = HalfInteger(twice)
    h, k = build_heisenberg(s), build_cyclic(s)

    def certified():
        return certify_isospectral(h.matrix, k.matrix, charges=(h.charge, k.charge))

    honest = certified()
    lossy_rotations()
    report = certified()
    assert honest.verdict and report.spectra_equal and report.moments.passed
    assert report.spectrum_a == honest.spectrum_a and report.moments == honest.moments
    bound = spectral.EIGENPAIR_RESIDUAL_LIMIT * report.moments.scale
    assert max(honest.residual_a, honest.residual_b) <= 1e-3 * bound
    assert report.residual_a > bound and report.residual_b > bound
    assert not report.verdict


@pytest.mark.parametrize("field", ["residual_a", "residual_b"])
def test_the_verdict_holds_each_residual_to_its_bound(field, spin_cache):
    # the bound is EIGENPAIR_RESIDUAL_LIMIT times the moments' scale,
    # max(1, max |lambda|) over both spectra: s(s + 1) = 3.75 at 2s = 3
    cert = spin_cache(3).cert
    bound = spectral.EIGENPAIR_RESIDUAL_LIMIT * cert.moments.scale
    assert cert.moments.scale == pytest.approx(3.75) and cert.verdict
    assert dataclasses.replace(cert, **{field: bound}).verdict
    for beyond in (np.nextafter(bound, np.inf), np.nan):
        assert not dataclasses.replace(cert, **{field: beyond}).verdict


def _signed_permutations(det):
    """The 24 signed permutation matrices with determinant ``det``, 1 or -1."""
    patterns = []
    for order in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            q = np.eye(3)[list(order)] * np.array(signs)[:, np.newaxis]
            if np.linalg.det(q) * det > 0.0:
                patterns.append(q)
    assert len(patterns) == 24
    return patterns


def _signed_permutation_cases(det, spins):
    """(2s, pattern) for every signed permutation of determinant ``det`` at
    each 2s of ``spins``, where a certificate takes milliseconds, and at the
    cap, where one takes 0.1-0.3 s, the three that stand for the three
    routes: det I by H's components, det c_K by K's real sectors, and the
    first whose charge is (S3, +-S2) by complex sectors."""
    patterns = _signed_permutations(det)
    c_k = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    cap = [next(q for q in patterns if np.array_equal(q, det * r)) for r in (np.eye(3), c_k)]
    cap.append(next(q for q in patterns if q[2, 1] != 0.0))
    return [(t, q) for t in spins for q in patterns] + [(24, q) for q in cap]


def _case_id(x):
    if isinstance(x, np.ndarray):
        return ";".join(",".join(f"{int(c):+d}" for c in row) for row in x)
    return str(x)


@pytest.mark.parametrize(
    "twice, pattern", _signed_permutation_cases(1, (1, 2, 8)), ids=_case_id
)
def test_every_proper_signed_permutation_certifies_isospectral_to_h(twice, pattern):
    # a proper pattern is a rotation R, and its operator is H with one site
    # rotated by R's unitary, so its spectrum is H's closed form.  It takes
    # R's charge, and H's components, K's real sectors or complex sectors,
    # as the gauge keeps that charge; 2s = 3 runs all 24 in test_eig.py
    s = HalfInteger(twice)
    h, rotated = build_heisenberg(s), build_bilinear(s, pattern)
    kmax = s.dimension**2 if twice <= 8 else s.dimension
    report = certify_isospectral(
        h.matrix, rotated.matrix, kmax=kmax, charges=(h.charge, rotated.charge)
    )
    assert report.verdict
    assert spectra_match(report.spectrum_b, closed_form_spectrum(s), 1e-9)


@pytest.mark.parametrize(
    "twice, pattern", _signed_permutation_cases(-1, (1, 2, 3, 8)), ids=_case_id
)
def test_every_improper_signed_permutation_is_rejected_against_h(twice, pattern):
    # an improper pattern is -1 times a proper rotation R, so it takes R's
    # charge and the sector route at every spin, and its spectrum is -spec H,
    # which is not spec H: its top value is s(s + 1), H's s^2.  The direct
    # route rejects it and the odd moments flip sign
    s = HalfInteger(twice)
    h, impostor = build_heisenberg(s), build_bilinear(s, pattern)
    proper = build_bilinear(s, -pattern)
    for a, b in zip(impostor.charge, proper.charge, strict=True):
        assert a.tobytes() == b.tobytes()
    kmax = s.dimension**2 if twice <= 8 else s.dimension
    report = certify_isospectral(
        h.matrix, impostor.matrix, kmax=kmax, charges=(h.charge, impostor.charge)
    )
    assert not report.spectra_equal
    assert not report.verdict
    assert report.spectrum_b.values[-1] == pytest.approx(-report.spectrum_a.values[0])
    # tr(m) is 0 for both, and tr(m^3) flips sign
    assert not report.moments.passed


def _k_impostor(twice, change):
    """H, and K with its eigenvalues changed in place by ``change``, at 2s = twice.

    The impostor is V diag(values) V^H for the sector route's eigenvectors V
    of K.  Each lies in one sector of K's charge, so the impostor keeps the
    charge, which is returned with it, and takes the sector route as well.
    """
    s = HalfInteger(twice)
    k = build_cyclic(s)
    dec = hermitian_eig(k.matrix, charge=k.charge)
    values = dec.values.copy()
    change(values)
    m = (dec.vectors * values) @ dec.vectors.conj().T
    return build_heisenberg(s), (m + m.conj().T) / 2, k.charge


def _shifted_report():
    """H against K at 2s = 8 with one eigenvalue of its lowest triplet moved by 1e-6."""

    def shift(values):
        values[1] += 1e-6  # one of the triplet

    h, impostor, charge = _k_impostor(8, shift)
    return certify_isospectral(h.matrix, impostor, charges=(h.charge, charge))


def test_k_with_one_eigenvalue_shifted_is_rejected_by_the_direct_route():
    report = _shifted_report()
    assert not report.spectra_equal
    assert report.spectrum_b.multiplicities[:3] == (1, 2, 1)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the raw moments over all 81 powers miss a 1e-6 shift of one eigenvalue "
    "of K at 2s = 8: max_abs_diff 3.77e-7 against the tolerance 8.1e-7",
)
def test_raw_moments_reject_one_eigenvalue_shifted_at_2s_8():
    assert not _shifted_report().moments.passed


def _split_cluster_report(delta):
    """H against K at 2s = 12 with its middle cluster split by -delta and +delta.

    6 of the 13 eigenvalues at -21 move down and 6 up, so the first moment
    is kept.
    """

    def split(values):
        middle = np.flatnonzero(np.abs(values + 21.0) < 1e-6)
        assert middle.size == 13
        values[middle[:6]] -= delta
        values[middle[7:]] += delta

    h, impostor, charge = _k_impostor(12, split)
    return certify_isospectral(h.matrix, impostor, charges=(h.charge, charge))


def test_a_split_cluster_at_2s_12_is_rejected_by_the_direct_route():
    report = _split_cluster_report(0.01)
    assert not report.spectra_equal
    assert report.spectrum_b.multiplicities[6:9] == (6, 1, 6)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the raw moments over all 169 powers miss a +-0.01 split of K's middle "
    "cluster at 2s = 12: max_abs_diff 1.02e-6 against the tolerance 1.69e-6",
)
def test_raw_moments_reject_a_split_cluster_at_2s_12():
    assert not _split_cluster_report(0.01).moments.passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the direct route clusters and compares at cluster_tol, 1.04e-7, 3.15e-7 "
    "and 2.25e-6 at 2s = 8, 12 and 24, so it misses a smaller shift of K's top "
    "eigenvalue, and the raw moments over 2s + 1 powers miss it too",
)
@pytest.mark.parametrize("twice, shift", [(8, 1e-7), (12, 1e-7), (24, 1e-6)])
def test_direct_route_rejects_k_with_its_top_eigenvalue_shifted(twice, shift):
    # kmax = 2s + 1: the default kmax = n overflows the raw traces at the cap
    def move(values):
        values[-1] += shift

    h, impostor, charge = _k_impostor(twice, move)
    report = certify_isospectral(
        h.matrix, impostor, kmax=twice + 1, charges=(h.charge, charge)
    )
    assert not report.spectra_equal


@pytest.mark.parametrize("twice", [3, 8, 12])
def test_a_multiplicity_moved_between_neighbouring_clusters_is_rejected(twice):
    # one eigenvalue of K's second-highest cluster, j = 2s - 1, moved onto the
    # highest, j = 2s: the values stay those of the closed form, only two
    # multiplicities change
    (second, _), (top, _) = closed_form_spectrum(HalfInteger(twice)).clusters[-2:]

    def move(values):
        values[np.flatnonzero(np.abs(values - second) < 1e-6)[-1]] = top

    h, impostor, charge = _k_impostor(twice, move)
    assert hermitian_eig(impostor, charge=charge).leak <= 1e-12
    report = certify_isospectral(h.matrix, impostor, charges=(h.charge, charge))
    assert not report.spectra_equal
    assert report.spectrum_b.multiplicities[-2:] == (2 * twice - 2, 2 * twice + 2)
    # the raw moments over all n powers miss it by far more than their
    # tolerance: 0.80, 0.48 and 0.44 against 1.6e-7, 8.1e-7 and 1.69e-6
    assert not report.moments.passed
    assert report.moments.max_abs_diff > 1e5 * report.moments.tol
    assert not report.verdict


def test_certify_reflexive():
    m = build_cyclic(HalfInteger(2)).matrix
    report = certify_isospectral(m, m)
    assert report.verdict
    assert report.moments.max_abs_diff == 0.0


def test_certify_survives_radius_powers_beyond_doubles():
    # 1000^103 passes 1e308 while every trace, 0 at odd powers, is a double
    m = np.diag([1000.0, -1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = certify_isospectral(m, m, kmax=103).moments
    assert report.passed
    assert report.max_abs_diff == 0.0


@pytest.mark.parametrize(
    "twice, kmax",
    [
        (2, 600),
        # at the cap 26 reads two traces of its last giant power, 29 takes a
        # sixth giant, and 120 takes giant steps far past them
        (24, 26),
        (24, 29),
        (24, 120),
        # n = 576 fills 18 blocks of a product's 32 rows, where n = 625
        # leaves a partial last one; the trace of power 143 overflows here
        (23, 120),
    ],
)
def test_ranges_past_the_cli_range_pass(twice, kmax):
    s = HalfInteger(twice)
    h, k = build_heisenberg(s), build_cyclic(s)
    report = certify_isospectral(
        h.matrix, k.matrix, kmax=kmax, prefix=s.dimension, charges=(h.charge, k.charge)
    )
    assert report.verdict and report.moments.prefix_passed
    assert report.moments.powers == tuple(range(1, kmax + 1))
    assert np.isfinite(report.moments.traces_a).all() and np.isfinite(report.moments.traces_b).all()


def test_traces_beyond_doubles_are_a_numerical_error():
    # H's and K's traces pass double precision at the same power: 397 at
    # 2s = 4, 141 at the cap
    for twice, kmax, power in [(4, 10000, 397), (24, 1000, 141)]:
        s = HalfInteger(twice)
        h, k = build_heisenberg(s), build_cyclic(s)
        message = f"^trace of power {power} overflowed double precision; lower kmax$"
        with pytest.raises(NumericalError, match=message):
            certify_isospectral(
                h.matrix, k.matrix, kmax=kmax, prefix=s.dimension, charges=(h.charge, k.charge)
            )


def test_scaled_differences_stay_finite():
    # |a - b| overflows at the first power, radius^4 at the last
    a = np.array([1.5e308, 0.0, 1e300, 3.0])
    b = np.array([-1.5e308, 0.0, -1e300, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = _scaled_differences(a, b, 1e154)
    np.testing.assert_allclose(scaled, [3e154, 0.0, 2e-162, 0.0], rtol=1e-13)
    assert _scaled_differences(a[:1], b[:1], 1.5e308)[0] == pytest.approx(2.0, rel=1e-13)
    # without overflow the quotient is the plain one, bit for bit
    a, b = np.array([0.5, 7.0, -3.25]), np.array([0.25, 1.0, 2.0])
    expected = np.abs(a - b) / 1.7 ** np.arange(1.0, 4.0)
    np.testing.assert_array_equal(_scaled_differences(a, b, 1.7), expected)


def test_certify_guards():
    eye2 = np.eye(2, dtype=complex)
    with pytest.raises(ShapeError):
        certify_isospectral(eye2, np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        certify_isospectral(eye2, eye2, kmax=0)
    with pytest.raises(ValueError):
        certify_isospectral(eye2, eye2, kmax=2, prefix=3)
    # empty operators are refused by their shape, not by a kmax the caller
    # never gave nor by the clustering of no values
    empty = np.zeros((0, 0))
    for kwargs in ({}, {"kmax": 3}):
        with pytest.raises(ShapeError, match=r"^operators of shape \(0, 0\) have no"):
            certify_isospectral(empty, empty, **kwargs)


def test_a_non_integer_kmax_or_prefix_fails_before_any_work(monkeypatch):
    # numpy once raised its own TypeError for a float kmax, and a float
    # prefix failed only after both eigensolves and both moment runs
    eye2 = np.eye(2)
    with pytest.raises(TypeError, match=r"^kmax must be an integer, got 2\.5$"):
        moments(eye2, 2.5)

    def refuse(*args, **kwargs):
        raise AssertionError("no work before the arguments are checked")

    monkeypatch.setattr(spectral, "_eigensolves", refuse)
    monkeypatch.setattr(spectral, "moments", refuse)
    with pytest.raises(TypeError, match=r"^kmax must be an integer, got 2\.5$"):
        certify_isospectral(eye2, eye2, kmax=2.5)
    with pytest.raises(TypeError, match=r"^prefix must be an integer, got 1\.0$"):
        certify_isospectral(eye2, eye2, kmax=2, prefix=1.0)
    monkeypatch.undo()
    # NumPy integers are integers
    np.testing.assert_array_equal(moments(eye2, np.int64(3)), [2.0, 2.0, 2.0])
    report = certify_isospectral(eye2, eye2, kmax=np.int64(2), prefix=np.int32(1))
    assert report.moments.powers == (1, 2)
    assert report.moments.prefix_len == 1 and report.moments.passed


@pytest.mark.parametrize("charges", [(None,), (None, None, None), None, ()])
def test_charges_that_are_not_a_pair_fail_before_any_work(charges, monkeypatch):
    # a 1-tuple once ended in "IndexError: tuple index out of range"
    def refuse(*args, **kwargs):
        raise AssertionError("no work before the arguments are checked")

    monkeypatch.setattr(spectral, "_eigensolves", refuse)
    h = build_heisenberg(HalfInteger(1))
    with pytest.raises(ValueError, match="^charges must be a pair: "):
        certify_isospectral(h.matrix, h.matrix, charges=charges)


@pytest.mark.parametrize("twice", [1, 2, 3, 5])
def test_exchange_pair_certificates(twice, spin_cache):
    entry = spin_cache(twice)
    cert = entry.cert
    dim = (twice + 1) ** 2
    assert cert.dimension == dim
    assert cert.spectra_equal
    assert cert.verdict
    assert cert.moments.prefix_len == twice + 1
    assert cert.moments.prefix_passed
    assert len(cert.moments.powers) == dim
    assert spectra_match(
        cert.spectrum_a, closed_form_spectrum(entry.s), value_tol=1e-9
    )


@pytest.mark.parametrize("twice", [1, 2, 3, 6])
def test_newton_identities_on_computed_spectra(twice, spin_cache):
    entry = spin_cache(twice)
    for dec, traces in (
        (entry.dec_h, entry.cert.moments.traces_a),
        (entry.dec_k, entry.cert.moments.traces_b),
    ):
        assert newton_check(dec.values, traces)


def test_moment_report_pass_iff_bound():
    h = build_heisenberg(HalfInteger(2)).matrix
    k = build_cyclic(HalfInteger(2)).matrix
    report = certify_isospectral(h, k, kmax=9).moments
    assert report.passed == (report.max_abs_diff <= report.tol)
    assert report.scale >= 1.0
    assert len(report.traces_a) == len(report.traces_b) == len(report.powers)


def test_moments_raise_on_imaginary_drift_of_a_matrix_within_the_defect_bound():
    # 1.4e-10 of asymmetry is inside the bound of 2e-10 (1e-10 per
    # dimension) and leaves no real form, so the traces are complex, and
    # their imaginary part outgrows 1e-8 * dim * ||m||_F^k at a high power:
    # 1593 on one host and one BLAS thread, which passes at 1592
    m = np.array([[1.0, 0.1], [0.1 + 1.4e-10j, 0.0]])
    assert 1.9e-10 < hermiticity_defect(m) <= 2e-10
    assert gauge(m)[2].dtype == np.complex128
    assert np.isfinite(moments(m, 1000)).all()
    with pytest.raises(NumericalError) as info:
        moments(m, 2500)
    found = re.fullmatch(
        r"trace of power (\d+) has imaginary part \d\.\d{3}e[-+]\d\d "
        r"beyond the hermiticity drift bound",
        str(info.value),
    )
    assert found and 1000 < int(found[1]) <= 2500
