import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintool.hamiltonians import build_bilinear, build_cyclic, build_heisenberg
from spintool.linalg import HermiticityError, NumericalError, ShapeError
from spintool.spectral import (
    _gauge_colours,
    _real_form,
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


def _gauged(m):
    """D^H m D with D = i^colour, computed in complex arithmetic."""
    d = np.where(_gauge_colours(m) == 1, 1j, 1.0)
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
    real = _real_form(m)
    assert real is not None and real.dtype == np.float64
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
    [(_frustrated_cycle, 7), (_random_hermitian, 12), (_generic_rotation_operator, 16)],
    ids=["frustrated-cycle", "random-hermitian", "generic-rotation"],
)
def test_complex_path_matches_matrix_powers(make, kmax):
    m = make()
    assert _real_form(m) is None
    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(m)))))
    got = moments(m, kmax)
    for k in range(1, kmax + 1):
        expected = np.trace(np.linalg.matrix_power(m, k)).real
        assert abs(got[k - 1] - expected) <= 1e-12 * m.shape[0] * scale**k


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


def test_spectra_match_cases():
    a = cluster_spectrum([0.0, 1.0], 1e-9)
    b = cluster_spectrum([1e-11, 1.0], 1e-9)
    assert spectra_match(a, b)
    c = cluster_spectrum([0.0, 1.0, 1.0], 1e-9)
    assert not spectra_match(a, c)
    assert not spectra_match(a, cluster_spectrum([0.5, 1.0], 1e-9))


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
