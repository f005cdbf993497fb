import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spintool import linalg
from spintool.eig import hermitian_eig
from spintool.gates import unitarity_residual
from spintool.hamiltonians import build_bilinear, build_cyclic, build_heisenberg
from spintool.linalg import (
    Blocks,
    BlockStack,
    HermiticityError,
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


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64])
def test_frobenius_norm_sums_single_precision_in_double(dtype):
    # squares of 1e4 in float16, and of 1e20 in float32, once overflowed,
    # so the norm read inf, and default_cluster_tol refused the matrix
    big = 1e4 if dtype is np.float16 else 1e20
    m = np.full((2, 2), big, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = frobenius_norm(m)
    assert norm == pytest.approx(2.0 * float(m[0, 0].real), rel=1e-15)


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


def _walked_reaches(monkeypatch):
    """The (n, reach) of every defect walk, as a list that the walks fill."""
    walks = []
    real = linalg._difference_blocks

    def spy(a, reach):
        walks.append((a.shape[0], reach))
        return real(a, reach)

    monkeypatch.setattr(linalg, "_difference_blocks", spy)
    return walks


@pytest.mark.parametrize("entry", [1e-300, 1e308])
def test_hermiticity_defect_outside_the_range_of_its_squares_walks_once(monkeypatch, entry):
    # each block is scaled as it is walked, so a defect whose squares
    # underflow or overflow takes no second walk over the matrix
    walks = _walked_reaches(monkeypatch)
    defect = hermiticity_defect(np.array([[0.0, entry], [0.0, 0.0]]))
    assert defect == pytest.approx(math.sqrt(2.0) * entry, rel=1e-15, abs=0.0)
    assert walks == [(2, 1)]


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
    require_hermitian(near.real if part == 1.0 else near)
    far = m.copy()
    far[0, 1] += 2e-12 * part
    with pytest.raises(HermiticityError):
        require_hermitian(far)
    # moments checks at 1e-10, so a 1e-11 asymmetry there passes
    far[0, 1] += 1e-11 * part
    moments(far, 2)


def _banded(rng, n, w, dtype):
    """A random matrix of half-bandwidth at most w, not Hermitian."""
    a = rng.uniform(-1, 1, (n, n))
    if dtype is complex:
        a = a + 1j * rng.uniform(-1, 1, (n, n))
    offsets = np.arange(n) - np.arange(n)[:, np.newaxis]
    a[np.abs(offsets) > w] = 0.0
    return a


@pytest.mark.parametrize("dtype", [complex, float])
def test_the_band_walk_gives_the_full_walks_defect(dtype):
    # the walk within w reads only the band, in blocks of rows sized by it,
    # and sums what the walk over every entry sums, up to rounding
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40, 200, 625):
        for w in sorted({0, 1, 3, 26, n // 3, n - 1}):
            if w >= n:
                continue
            a = _banded(rng, n, w, dtype)
            full = hermiticity_defect(a)
            assert full == pytest.approx(np.linalg.norm(a - a.conj().T), rel=1e-14, abs=0.0)
            band = linalg._defect(a, w)
            assert band == pytest.approx(full, rel=1e-14, abs=0.0), (n, w)
            h = a + a.conj().T
            assert linalg._defect(h, w) == hermiticity_defect(h) == 0.0


@pytest.mark.parametrize("w", [0, 3])
@pytest.mark.parametrize(
    "entry, offset, expected",
    [
        (1e-300, 3, math.sqrt(2.0) * 1e-300),
        (1j * 1e-300, 2, math.sqrt(2.0) * 1e-300),
        (1e308, 1, math.sqrt(2.0) * 1e308),
        (1.5e308, 3, math.inf),
        (np.nan, 2, math.nan),
        (np.inf, 1, math.inf),
        (-np.inf, 0, math.nan),
        (complex(0.0, np.nan), 0, math.nan),
        (complex(-0.0, -0.0), 3, 0.0),
        (-0.0, 0, 0.0),
    ],
)
def test_the_band_walk_keeps_the_scaling_and_the_non_finite_cases(w, entry, offset, expected):
    # one entry offset columns right of the diagonal of a 300 x 300 matrix
    # that is Hermitian but for it and its mirror, which is 0, of
    # half-bandwidth max(w, offset): its
    # squares underflow or overflow, it is NaN or infinite, or it is a
    # signed zero.  The band walk gives what the full walk gives
    rng = np.random.default_rng(13)
    band = max(w, offset)
    h = _banded(rng, 300, w, complex)
    h = h + h.conj().T
    h[np.diag_indices(300)] = h.diagonal().real
    h[150 + offset, 150] = 0.0
    h[150, 150 + offset] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full, walked = hermiticity_defect(h), linalg._defect(h, band)
    if math.isnan(expected):
        assert math.isnan(full) and math.isnan(walked)
    elif expected == 0.0:
        assert full == walked == 0.0
    else:
        assert full == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert walked == pytest.approx(full, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "build, reach", [(build_heisenberg, 24), (build_cyclic, 26)], ids=["H", "K"]
)
def test_moments_and_the_eigensolver_walk_the_defect_within_the_reach(monkeypatch, build, reach):
    # the form that gauge hands back is zero beyond its reach, so both
    # check it there alone; K's charge factors are checked whole, 25 x 25
    operator = build(HalfInteger(24))
    assert gauge(operator.matrix)[3] == reach
    walks = _walked_reaches(monkeypatch)
    moments(operator.matrix, 2)
    assert walks == [(625, reach)]
    walks.clear()
    hermitian_eig(operator.matrix, charge=operator.charge)
    factors = [] if operator.charge is None else [(25, 24), (25, 24)]
    assert walks == [(625, reach)] + factors


def test_a_dense_matrix_file_is_walked_whole(monkeypatch, run_cli, tmp_path):
    # a dense pattern has reach n - 1, which is the full walk
    rng = np.random.default_rng(17)
    a = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
    a = a + a.conj().T
    path = tmp_path / "dense.txt"
    rows = (" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in a)
    path.write_text("".join(row + "\n" for row in rows))
    walks = _walked_reaches(monkeypatch)
    code, _, _ = run_cli("spectrum", "--hamiltonian", "file", "--file", str(path))
    assert code == 0
    assert walks == [(6, 5)]


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


def _colour_links(m, colour):
    """m with every entry that links unlike colours made purely imaginary."""
    unlike = colour[:, None] != colour[None, :]
    c = np.where(unlike, 0.0, m).astype(complex)
    c.imag = np.where(unlike, m, 0.0)  # not 1j * m, which makes 1j * NaN NaN + NaN i
    return c


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
        label, colour, _, reach = gauge(m)
        np.testing.assert_array_equal(label, expected)
        assert not colour.any()
        i, j = np.nonzero((m != 0) | (m.T != 0))
        assert reach == np.abs(i - j).max(initial=0)
        # links between indices of unlike colour are purely imaginary, and
        # flip the colour: every path from a component's lowest index then
        # has the parity of the colour change, and the form is exact
        marks = rng.integers(0, 2, n)
        label, colour, form, reach = gauge(_colour_links(m, marks))
        np.testing.assert_array_equal(label, expected)
        lowest = np.array([np.flatnonzero(expected == b)[0] for b in expected])
        np.testing.assert_array_equal(colour, marks ^ marks[lowest])
        assert form.dtype == np.float64 and reach == np.abs(i - j).max(initial=0)


def test_components_of_the_empty_and_the_diagonal_matrix():
    label, colour, form, reach = gauge(np.zeros((0, 0)))
    assert label.shape == colour.shape == (0,) and form.shape == (0, 0) and reach == 0
    label, colour, _, reach = gauge(np.diag([1.0, 0.0, 2.0, 0.0]))
    np.testing.assert_array_equal(label, [0, 1, 2, 3])
    assert not colour.any() and reach == 0


def test_gauge_of_input_with_no_imaginary_part_is_its_real_part():
    # no link flips the colour, which is 0; the real form is the real part,
    # with its signed zeros: -0.0 off the pattern too.  For float64 and
    # complex128 input it is the input's own memory, else a new float64 array
    rng = np.random.default_rng(67)
    r = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.3)
    m = r + r.T
    m[m == 0] = -0.0
    assert np.signbit(m[m == 0]).all() and (m == 0).any()
    for a in (m, m.astype(complex), np.rint(4.0 * m).astype(int)):
        label, colour, form, _ = gauge(a)
        np.testing.assert_array_equal(label, _reference_labels(a))
        assert colour.dtype == np.int8 and not colour.any()
        assert form.dtype == np.float64
        assert np.shares_memory(form, a) == (a.dtype != int)
        assert form.tobytes() == np.array(a.real, dtype=np.float64).tobytes()
    # one imaginary link is enough to flip the colour
    a = np.diag([1.0, 2.0]).astype(complex)
    a[0, 1], a[1, 0] = 1j, -1j
    label, colour, form, _ = gauge(a)
    np.testing.assert_array_equal(colour, [0, 1])
    np.testing.assert_array_equal(form, [[1.0, -1.0], [-1.0, 2.0]])


def test_gauge_of_input_with_no_real_form_is_the_input_as_complex128():
    # the imaginary link 0-1 gives index 1 colour 1, and so would a real
    # link 1-2 to index 2, but the link 1-2 has both parts nonzero, so there
    # is no real form; i on every edge of a triangle leaves none either.
    # The matrix handed back is then m as complex128 with colour 0: m's own
    # memory where m is complex128, read-only too, else a new array
    both = np.array([[0.0, 1j, 0.0], [-1j, 0.0, 1 + 1j], [0.0, 1 - 1j, 0.0]])
    real_link = both.real + 1j * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(gauge(real_link)[1], [0, 1, 1])
    cycle = 1j * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    frozen = np.array(both, dtype=complex)
    frozen.flags.writeable = False
    for m in (both, frozen, both.astype(np.complex64), cycle):
        label, colour, form, reach = gauge(m)
        np.testing.assert_array_equal(label, _reference_labels(m))
        assert colour.dtype == np.int8 and not colour.any()
        assert form.dtype == np.complex128
        assert np.shares_memory(form, m) == (m.dtype == np.complex128)
        assert form.tobytes() == np.array(m, dtype=np.complex128).tobytes()
        assert reach == 1 + (m is cycle)


def _dense_gauge(m):
    """The gauge of m by the n x n formula that the walk's links replaced.

    Labels and colours are taken breadth first, one link at a time, a link
    flipping the colour when both its entries have zero real part.  Where a
    cycle flips it an odd number of times some link fails the test below,
    whatever the colours, so they need not agree with the walk's there.
    Exactness is tested over every entry, through an n x n shift, and the
    form is shift * imag + real over every entry.
    """
    n = m.shape[0]
    linked = (m != 0) | (m != 0).T
    label, colour = np.full(n, -1), np.zeros(n, dtype=np.int8)
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
                    flip = m.real[i, j] == 0 and m.real[j, i] == 0
                    colour[j] = colour[i] ^ flip
                    reached.append(j)
        count += 1
    i, j = np.nonzero(linked)
    reach = int(np.abs(i - j).max(initial=0))
    if not (np.iscomplexobj(m) and m.imag.any()):
        return label, np.zeros_like(colour), np.array(m.real, dtype=np.float64), reach
    shift = colour[:, None] - colour[None, :]
    if np.any(m.imag, where=shift == 0) or np.any(m.real, where=shift != 0):
        return label, np.zeros_like(colour), np.array(m, dtype=np.complex128), reach
    form = np.multiply(shift, m.imag, dtype=np.float64)
    form += m.real
    return label, colour, form, reach


def _gauged(rng, n, density):
    """D r D^H for a random real symmetric r of this density and a random
    D of ones and i's: purely imaginary entries link unlike colours."""
    r = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return _colour_links(r + r.T, rng.integers(0, 2, n))


def _gauge_cases():
    """Every matrix that the walk's gauge must take as the dense formula
    did, each with whether it has a real form."""
    rng = np.random.default_rng(83)
    for twice in range(1, 25):
        yield f"H-{twice}", build_heisenberg(HalfInteger(twice)).matrix, True
        yield f"K-{twice}", build_cyclic(HalfInteger(twice)).matrix, True
    # the 24 signed permutations with determinant +1, as bilinear patterns
    for order in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            q = np.eye(3)[list(order)] * np.array(signs)[:, np.newaxis]
            if np.linalg.det(q) > 0.0:
                name = ";".join(",".join(f"{int(c):+d}" for c in row) for row in q)
                yield f"bilinear-{name}", build_bilinear(HalfInteger(3), q).matrix, True
    for density in (0.05, 0.3, 1.0):
        r = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < density)
        c = r + 1j * rng.standard_normal((40, 40)) * (rng.random((40, 40)) < density)
        yield f"real-{density}", r + r.T, True
        yield f"complex-{density}", c + c.conj().T, False
        yield f"gauged-{density}", _gauged(rng, 40, density), True
    yield "odd-cycle", 1j * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]), False
    # each link purely real or purely imaginary at random: where a cycle
    # holds an odd number of imaginary links, the walk may leave the odd
    # colour on a real link, whose real part is then what leaves no form
    for k in range(8):
        r = np.triu(rng.integers(-2, 3, (6, 6)) * (rng.random((6, 6)) < 0.5), 1)
        imaginary = rng.random((6, 6)) < 0.5
        links = np.where(imaginary, 0, r) + 1j * np.where(imaginary, r, 0)
        links += links.conj().T
        yield f"random-links-{k}", links, None
    yield "mixed", np.array([[0.0, 1j, 0.0], [-1j, 0.0, 1 + 1j], [0.0, 1 - 1j, 0.0]]), False
    nan = _gauged(rng, 9, 0.4)
    nan[0, 0] = np.nan
    yield "nan-diagonal", nan, True
    nan = _gauged(rng, 9, 0.4)
    i, j = np.argwhere(nan.imag != 0)[0]
    nan[i, j] = complex(0.0, np.nan)
    yield "nan-imaginary", nan, True
    yield "nan-mixed", nan + np.eye(9) * complex(0.0, np.nan), False
    # -0.0 on the diagonal and where its mirror is nonzero, which are links
    zeros = _gauged(rng, 9, 0.5)
    zeros[np.diag_indices(9)] = complex(-0.0, -0.0)
    for i, j in np.argwhere(zeros != 0)[:4]:
        zeros[i, j] = complex(-0.0, -0.0) if (i + j) % 2 else -0.0
    yield "signed-zeros-on-links", zeros, True
    real = _gauged(rng, 9, 0.5).real
    real[real == 0] = -0.0
    yield "signed-zeros-real", real, True
    yield "signed-zeros-complex-real", real + complex(-0.0, -0.0), True


@pytest.mark.parametrize(
    "m, real_form", [pytest.param(m, real, id=name) for name, m, real in _gauge_cases()]
)
def test_gauge_matches_the_dense_formula_bit_for_bit(m, real_form):
    expected = _dense_gauge(m)
    found = gauge(m)
    for mine, theirs in zip(found[:3], expected[:3]):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    assert found[3] == expected[3]
    assert real_form is None or (found[2].dtype == np.float64) == real_form


def test_gauge_form_is_plus_zero_off_the_links():
    # off the pattern both entries are zero and the form is +0.0; the dense
    # formula gave -0.0 where the real part was -0.0 and the shifted
    # imaginary part -0.0 too.  Everything else is bit for bit the same
    m = np.array([[0.0, 1j, -0.0], [-1j, 0.0, 1.0], [-0.0, 1.0, 0.0]])
    label, colour, form, reach = gauge(m)
    expected = _dense_gauge(m)
    np.testing.assert_array_equal(colour, expected[1])
    np.testing.assert_array_equal(colour, [0, 1, 1])
    assert np.signbit(expected[2][0, 2]) and not np.signbit(form[form == 0]).any()
    np.testing.assert_array_equal(form, expected[2])


@pytest.mark.parametrize(
    "build, bound", [(build_heisenberg, 1.0), (build_cyclic, 3.4)], ids=["H", "K"]
)
def test_gauge_at_the_cap_holds_little_beside_its_form(build, bound):
    # H's form is its real part, no copy, and K's a new 2.98 MiB array at
    # 2s = 24; the pattern's one mask goes before K's form is made.
    # Measured 0.44 MiB for H and 3.25 for K.  A copy of H's real part and
    # a second mask for the transpose read 3.03; the dense formula's n x n
    # shift and masks read 2.99 and 3.42, and keeping the mask beside the
    # form 3.43 and 3.66
    m = build(HalfInteger(24)).matrix
    tracemalloc.start()
    try:
        gauge(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2**20


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


def test_blocks_stack_and_the_dense_read_are_inverse():
    rng = np.random.default_rng(61)
    m = _permuted_block_diagonal(rng, [3, 1, 4, 1, 5])
    label = gauge(m)[0]
    blocks = Blocks.of(label)
    stack = blocks.stack(m)
    assert stack.shape == (5, 5, 5)
    # the padding is 0 and the blocks are m's own
    assert np.count_nonzero(stack) == np.count_nonzero(m)
    held = BlockStack(stack, blocks, blocks)
    np.testing.assert_array_equal(held.dense, m)
    assert held.dense is held.dense and not held.dense.flags.writeable
    for b, members in enumerate(blocks.members):
        idx = members[blocks.filled[b]]
        assert np.all(label[idx] == b) and np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(stack[b, : idx.size, : idx.size], m[np.ix_(idx, idx)])
    block, slot = blocks.places()
    np.testing.assert_array_equal(block, label)
    np.testing.assert_array_equal(blocks.members[block, slot], np.arange(label.size))
    # columns from the blocks of the same labels in another order, as an
    # eigenbasis sorted by value takes them, read over a fill that holds
    # each column's entries off the blocks; the padding, NaN here, is not read
    order = rng.permutation(label.size)
    columns = Blocks.of(label[order])
    stack = m[:, order][blocks.members[:, :, None], columns.members[:, None, :]]
    stack[~blocks.inside(columns)] = np.nan
    fill = -1.0 - np.arange(label.size)
    on = label[:, np.newaxis] == label[order]
    dense = BlockStack(stack, blocks, columns, fill).dense
    np.testing.assert_array_equal(dense, np.where(on, m[:, order], fill))


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
    # its stack and the dense read of it are views, which copy nothing, and
    # so is the one block that BlockStack.of makes of a complex128 array
    m = np.arange(25.0).reshape(5, 5)
    one = Blocks.of(np.array([0, 0, 0, 0, 1]))
    stack = one.stack(m)
    assert stack.shape == (1, 5, 5) and np.shares_memory(stack, m)
    np.testing.assert_array_equal(stack[0], m)
    dense = BlockStack(stack, one, one).dense
    assert np.shares_memory(dense, m) and m.flags.writeable
    np.testing.assert_array_equal(dense, m)
    z = m + 1j
    assert np.shares_memory(BlockStack.of(z).dense, z)
    assert one.stack(np.zeros((0, 0))).shape == (1, 0, 0)


@pytest.mark.parametrize("widths", [[5], [4, 1]], ids=["one-component", "cannot-pay"])
def test_the_one_block_view_never_leaks_a_write(widths):
    # one component, or widths 4 and 1, whose stack would outgrow the
    # matrix: every stack of these inputs is the one-block view of them
    r = _permuted_block_diagonal(np.random.default_rng(71), widths)
    m = (r + r.conj().T) / 2
    assert m.dtype == np.complex128 and m.flags.writeable
    _assert_one_block(Blocks.of(gauge(m)[0]), 5)
    before = m.copy()
    moments(m, 9)
    hermitian_eig(m)
    unitarity_residual(m)
    assert m.tobytes() == before.tobytes()
