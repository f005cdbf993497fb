"""Property tests of the library's numeric contract.

Hypothesis draws arrays of every dtype the library meets, numeric ones
and object and str, of shapes 0 x 0 up to 6 x 6, non-square and 3-D, with
NaN, +-inf, subnormal and 1e200 entries among ordinary ones, Hermitian or
not.  Each draw, with warnings as errors, must end in the postcondition of
``frobenius_norm``, ``default_cluster_tol``, ``hermitian_eig`` and
``moments(m, 3)``, or in the exception that their docstrings name for it.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintool.eig import DEFAULT_TOL, hermitian_eig
from spintool.linalg import (
    HermiticityError,
    NumericalError,
    ShapeError,
    frobenius_norm,
    hermiticity_defect,
)
from spintool.spectral import default_cluster_tol, moments

NUMERIC = ["bool", "int8", "uint8", "int64", "float16", "float32", "float64",
           "complex64", "complex128"]
EDGES = [math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e200, -1e200,
         0.0, -0.0]
REALS = st.one_of(st.sampled_from(EDGES), st.floats(-10.0, 10.0))
SHAPES = st.one_of(
    st.integers(0, 6).map(lambda n: (n, n)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(1, 2), st.integers(0, 3), st.integers(0, 3)),
)


@st.composite
def _matrices(draw):
    """An array of a drawn dtype and shape; a square numeric one is made
    Hermitian half the time, its upper triangle mirrored and its diagonal
    real."""
    dtype = np.dtype(draw(st.sampled_from(NUMERIC + ["object", "str"])))
    shape = draw(SHAPES)
    size = math.prod(shape)
    if dtype.kind == "b":
        values = st.booleans()
    elif dtype.kind in "iu":
        info = np.iinfo(dtype)
        values = st.one_of(
            st.sampled_from([info.min, info.max]), st.integers(max(info.min, -3), 3)
        )
    elif dtype.kind == "c":
        values = st.builds(complex, REALS, REALS)
    else:
        values = REALS
    entries = draw(st.lists(values, min_size=size, max_size=size))
    with np.errstate(over="ignore"):
        # 1e200 is inf in float16 and float32, and a subnormal 0
        m = np.array(entries, dtype=dtype if dtype.kind != "U" else float).reshape(shape)
    if dtype.kind == "U":
        m = m.astype(str)
    square = m.ndim == 2 and m.shape[0] == m.shape[1]
    if square and dtype.kind in "biufc" and draw(st.booleans()):
        m = np.where(np.triu(np.ones(shape, dtype=bool), 1), m, m.conj().T)
        m[np.diag_indices(shape[0])] = m.diagonal().real
    return m


def _expected_norm(m: np.ndarray) -> float:
    """sqrt(sum |m_ij|^2) taken over the real and imaginary parts scaled by
    the power of two of the largest, so that it neither overflows nor
    underflows, or inf where the squares sum beyond double precision."""
    wide = m.astype(np.result_type(m, np.float64)).ravel()
    parts = np.concatenate([wide.real, wide.imag])
    if np.isnan(parts).any():
        return math.nan
    if np.isinf(parts).any():
        return math.inf
    exponent = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]
    norm = math.ldexp(float(np.linalg.norm(np.ldexp(parts, -exponent))), exponent)
    return norm if math.isfinite(norm * norm) else math.inf


def _exact_traces(m: np.ndarray, kmax: int) -> list[float]:
    """tr(h^k) for k = 1..kmax, h = (m + m^H) / 2, from the exact rationals
    of m's entries: LAPACK's eigvalsh misplaces eigenvalues of some
    matrices with subnormal entries by parts in 1e5."""
    n = m.shape[0]
    parts = [
        [(Fraction(float(z.real)), Fraction(float(z.imag))) for z in row]
        for row in m.astype(complex)
    ]
    h = [
        [((parts[i][j][0] + parts[j][i][0]) / 2, (parts[i][j][1] - parts[j][i][1]) / 2)
         for j in range(n)]
        for i in range(n)
    ]
    power, traces = h, []
    for _ in range(kmax):
        traces.append(float(sum(power[i][i][0] for i in range(n))))
        power = [
            [
                (sum(p[0] * q[0] - p[1] * q[1] for p, q in zip(row, col)),
                 sum(p[0] * q[1] + p[1] * q[0] for p, q in zip(row, col)))
                for col in zip(*h)
            ]
            for row in power
        ]
    return traces


def _check_norm(m: np.ndarray, numeric: bool) -> None:
    if not numeric:
        with pytest.raises(TypeError, match="a matrix must be numeric"):
            frobenius_norm(m)
        return
    norm, expected = frobenius_norm(m), _expected_norm(m)
    assert type(norm) is float
    if math.isnan(expected) or math.isinf(expected):
        assert norm == expected or math.isnan(norm) and math.isnan(expected)
    else:
        # a square below the subnormals is lost, which moves the norm by
        # less than the square root of their sum, 1e-160 for 36 entries
        assert abs(norm - expected) <= 1e-12 * expected + 1e-160


def _check_cluster_tol(m: np.ndarray, numeric: bool) -> None:
    if not numeric:
        with pytest.raises(TypeError, match="a matrix must be numeric"):
            default_cluster_tol(m)
        return
    norm = frobenius_norm(m)
    if not math.isfinite(norm):
        with pytest.raises(ValueError, match="Frobenius norm must be finite"):
            default_cluster_tol(m)
        return
    assert default_cluster_tol(m) == 1e-9 * max(1.0, norm)


def _check_eig(m: np.ndarray, numeric: bool, kept_blocks) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        with pytest.raises(ShapeError, match="eigensolver needs a square matrix"):
            hermitian_eig(m)
        return
    if not numeric:
        with pytest.raises(TypeError, match="a matrix must be numeric"):
            hermitian_eig(m)
        return
    if not np.isfinite(m).all():
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            hermitian_eig(m)
        return
    n, norm, defect = m.shape[0], frobenius_norm(m), hermiticity_defect(m)
    if not defect <= DEFAULT_TOL * n:
        with pytest.raises(HermiticityError):
            hermitian_eig(m)
        return
    if math.isinf(norm):
        with pytest.raises(NumericalError, match="sum beyond double precision"):
            hermitian_eig(m)
        return
    dec = hermitian_eig(m)
    assert dec.values.dtype == np.float64 and dec.values.shape == (n,)
    assert np.isfinite(dec.values).all() and np.all(np.diff(dec.values) >= 0)
    assert dec.vectors.dtype == np.complex128 and dec.vectors.shape == (n, n)
    gram = dec.vectors.conj().T @ dec.vectors - np.eye(n)
    assert frobenius_norm(gram) <= 1e-12 * n
    # the residual within n DEFAULT_TOL ||m||, plus what is measured against
    # m of its symmetrized copy, which is swept, and the spacing of the
    # subnormals, below which no pair is resolved
    assert dec.residual <= n * DEFAULT_TOL * norm + defect + n * 5e-324
    kept_blocks(dec.vector_blocks)


def _check_moments(m: np.ndarray, numeric: bool) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        with pytest.raises(ShapeError, match="moments need a square matrix"):
            moments(m, 3)
        return
    if not numeric:
        with pytest.raises(TypeError, match="a matrix must be numeric"):
            moments(m, 3)
        return
    # a NaN or an infinity leaves a NaN or infinite defect
    defect = hermiticity_defect(m)
    if not defect <= 1e-10 * m.shape[0]:
        with pytest.raises(HermiticityError):
            moments(m, 3)
        return
    norm = frobenius_norm(m)
    try:
        traces = moments(m, 3)
    except NumericalError as exc:
        assert "overflowed double precision" in str(exc)
        assert not math.isfinite(norm * norm * norm)
        return
    n = m.shape[0]
    assert traces.dtype == np.float64 and traces.shape == (3,)
    # the traces of the powers of m's Hermitian part, in exact arithmetic,
    # which a defect d within the bound moves by at most k d ||m||^(k-1)
    for k, (trace, expected) in enumerate(zip(traces, _exact_traces(m, 3)), start=1):
        bound = 1e-9 * max(n, 1) * norm**k + k * defect * (norm + defect) ** (k - 1)
        assert abs(trace - expected) <= bound + 1e-300


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(m=_matrices())
def test_every_drawn_matrix_ends_in_the_postcondition_or_a_documented_error(
    m, assert_kept_blocks
):
    numeric = m.dtype.kind in "biufc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_norm(m, numeric)
        _check_cluster_tol(m, numeric)
        _check_eig(m, numeric, assert_kept_blocks)
        _check_moments(m, numeric)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the squares of entries below about 1e-162 underflow, so ||m||_F, the "
    "stop and every off-diagonal norm read 0: no block is swept, the values are "
    "m's diagonal and the residual, whose squares underflow too, reads 0",
)
def test_a_matrix_whose_squares_underflow_keeps_its_eigenvalues():
    m = np.array([[0.0, 1e-170], [1e-170, 0.0]])
    dec = hermitian_eig(m)
    np.testing.assert_allclose(dec.values, [-1e-170, 1e-170], rtol=1e-12, atol=0.0)
