"""Spectral analysis: power-trace moments, clustering, and isospectrality.

Two independent routes feed the isospectrality certificate.  The direct
route diagonalizes both operators and compares clustered spectra; that
comparison is the verdict of record.  The moment route compares traces of
matrix powers, which corroborates the verdict without any diagonalization.
Each route gauges the operator it is given, by :func:`linalg.gauge`, so
neither reads an array that the other made; in :func:`certify_isospectral`
the two eigensolves share their Jacobi stacks, bit for bit as each alone.
Only the cluster comparisons take a tolerance: :func:`cluster_spectrum` its
resolution and :func:`spectra_match` the distance within which two values
agree, both held to one rule, positive, finite real numbers
(:func:`_require_tol`).  Everything else runs at module constants.

Trace magnitudes grow like ||M||^k, so every moment comparison is scaled
per power by max(1, r)^k with r the spectral radius; a fixed absolute
tolerance would be unsatisfiable at high powers, where double-precision
rounding alone produces absolute errors far above any fixed bound.

The traces themselves come from powers kept at unit scale by exact
power-of-two factors: J stored and one giant power, J sized by kmax within
a fixed byte budget (see :func:`moments`).
H and K, like any matrix that :func:`linalg.gauge` finds a real form of,
are powered in that real form, the one the eigensolver sweeps, and every
power is taken block by block over the components of the nonzero pattern,
read from the matrix's exact zeros: 4s+1 blocks for H, one for K.  The
same walk measures the pattern's half-bandwidth w, 2s + 2 for K, so m^j
has no nonzero beyond j * w off the diagonal.  Each product is of two
powers, so it is Hermitian: it is taken only inside its band and in the
upper block triangle, one block of rows at a time, and its lower part is
mirrored.  A giant power is taken only within the band that later traces
read of it.  Around the products the moments read bands too: the
Hermitian check reads the form within w, and on a large real stack, K's
from 2s = 19, each trace reads the narrower power's band and each
rescaling its power's own band, so they cost O(n w), not O(n^2).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .eig import _eigensolves
from .linalg import (
    _ROWS,
    Blocks,
    NumericalError,
    ShapeError,
    _require_hermitian,
    _require_kind,
    frobenius_norm,
    gauge,
    require_square,
)
from .spin import HalfInteger, _require_spin

__all__ = [
    "Spectrum",
    "MomentReport",
    "IsospectralReport",
    "moments",
    "newton_check",
    "cluster_spectrum",
    "closed_form_spectrum",
    "default_cluster_tol",
    "spectra_match",
    "certify_isospectral",
]

MOMENT_TOL = 1e-8
# per unit of max(1, max |lambda|): an eigenpair residual ||M v - lambda v||,
# taken against the input, is the one check that the rotations were a
# similarity, so every verdict that rests on an eigensolve reads it
EIGENPAIR_RESIDUAL_LIMIT = 1e-8

# the fewest baby steps m^1..m^J that moments keeps
_BABY_STEPS = 4
# the bytes that its J + 1 stored powers may take: five 625 x 625 float64
# arrays, which K's real form at 2s = 24 fills with J = 4
_POWER_BYTES = 5 * 625 * 625 * 8
# a real stack of at least this many entries is read only within the band
# where a power can be nonzero: K's from 2s = 19, whose n = 400.  Below
# it, a read of the whole stack costs too little to pay for the views
_BAND_READS = 1 << 17


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues grouped into degenerate clusters.

    ``clusters`` holds (value, multiplicity) pairs with values ascending and
    consecutive values separated by more than ``cluster_tol``; multiplicities
    sum to ``dimension``.
    """

    clusters: tuple[tuple[float, int], ...]
    cluster_tol: float
    dimension: int

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(value for value, _ in self.clusters)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.clusters)


@dataclass(frozen=True)
class MomentReport:
    """Power-trace comparison between two operators.

    ``max_abs_diff`` is the largest per-power difference after dividing
    power k by scale^k, so ``passed`` holds exactly when
    ``max_abs_diff <= tol``; the raw trace sequences are kept alongside.
    The prefix fields repeat the comparison over the first ``prefix_len``
    powers when a prefix was requested.
    """

    powers: tuple[int, ...]
    traces_a: tuple[float, ...]
    traces_b: tuple[float, ...]
    scale: float
    max_abs_diff: float
    tol: float
    passed: bool
    prefix_len: int | None = None
    prefix_max_abs_diff: float | None = None
    prefix_passed: bool | None = None


@dataclass(frozen=True)
class IsospectralReport:
    """Combined direct and moment evidence for two operators.

    ``spectra_equal`` comes from the clustered spectra alone and is the
    verdict of record; the moment report corroborates it.  ``verdict``
    also requires both eigenpair residuals to lie within
    ``EIGENPAIR_RESIDUAL_LIMIT`` times the moments' scale, max(1, max
    |lambda|) over both spectra, since clustered values cannot show that
    the rotations behind them were a similarity.
    """

    dimension: int
    spectrum_a: Spectrum
    spectrum_b: Spectrum
    spectra_equal: bool
    moments: MomentReport
    residual_a: float
    residual_b: float

    @property
    def verdict(self) -> bool:
        bound = EIGENPAIR_RESIDUAL_LIMIT * self.moments.scale
        residuals = self.residual_a <= bound and self.residual_b <= bound
        return self.spectra_equal and self.moments.passed and residuals


def _integer(value, name: str) -> int:
    """``value`` as an int, NumPy integers included; else a TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def moments(m: np.ndarray, kmax: int) -> np.ndarray:
    """Traces of m^k for k = 1..kmax, from about 2 sqrt(kmax) products.

    The input must be Hermitian within 1e-10 per dimension, checked on the
    matrix that :func:`linalg.gauge` hands back here, within the
    half-bandwidth w below, beyond which that matrix is zero.  It is the
    form that the eigensolver sweeps too, whose powers are taken: a real
    form D^H m D, which has m's defect and traces since D is unitary, or
    else m as complex128, whose imaginary residue of each trace read
    from two different powers is checked against
    1e-8 * dim * max(1, ||m||_F)^k, in log space, raising
    :class:`NumericalError` beyond it.

    Every power keeps the split of m's nonzero pattern into connected
    components, which the same walk labels, so the powers are taken on the
    :class:`linalg.Blocks` stack of the components' blocks, 49 of width at
    most 25 for H at 2s = 24 and one for K, which is then a view of the
    matrix, and tr(m^k) is the sum of the blocks' traces.  The walk also
    gives the pattern's half-bandwidth w, the largest |i - j| of a nonzero,
    26 for K at 2s = 24; a block's members ascend, so w bounds its band in
    the stack too.  So m^j has no nonzero beyond min(width - 1, j * w) off
    the diagonal, and every product, of two commuting powers of one
    Hermitian matrix, is Hermitian: it is taken only inside its band, or
    the narrower band that later traces read, and in the upper block
    triangle, _ROWS rows at a time, and its lower part is mirrored (see
    :func:`_product`).  A dense m (w = n - 1) still skips most of the lower
    triangle; H's stack is one block of rows, taken whole.

    Every trace is one inner product of two stored powers, by the
    baby-step/giant-step split of Paterson & Stockmeyer (SIAM J. Comput.
    2(1), 1973).  The baby steps B_j = m^j for j = 1..J give
    tr(m^k) = <B_i, B_j> with i + j = k for k <= 2J; beyond that one giant
    power G = m^t, t = 2J, 3J, ..., advanced in place by G <- G B_J, gives
    tr(m^(t + j)) = <G, B_j>.  That trace reads G only within j * w of the
    diagonal, where B_j has its nonzeros, and the next giant reads G within
    J * w beyond where it is read itself, so no trace reads G beyond
    min(t, kmax - t) * w, and G is built only that wide: 208, 312, 234, 130
    and 26 for K at 2s = 24 and kmax = 25, whose full bands reach 624.

    For kmax <= 2J that is ceil(kmax/2) - 1 products, else one per J powers
    more, J - 1 + ceil((kmax - 2J)/J) in all.  J is the smallest J >= 4 of
    the fewest products whose J + 1 stored powers, each of the stack's
    bytes, fit in those of five 625 x 625 float64 arrays, or 4 where none
    does.  So at most J + 1 powers within the budget, or five for a stack
    too large for it, and one block of rows of a product are held whatever
    kmax is.  Each power is kept as m^j * 2^(-e) with its Frobenius norm
    near 1, so no intermediate overflows and every rescaling is exact.  The
    traces are read in ascending k, and the first whose value lies beyond
    double precision raises :class:`NumericalError`.

    Where :func:`_band` gives views, for a real stack of at least 2^17
    entries, K's from 2s = 19, each trace <B_i, B_j> or <G, B_j> is read
    only within i * w or j * w of the diagonal, where the narrower power
    can be nonzero, and each power's norm is read and its rescaling applied
    within its own band; so are the first power's peak and scaling.  Bands
    of a quarter of n or more, and smaller or complex stacks, are read
    whole, with the bits that a whole read gives.
    """
    m = require_square(m, "moments need a square matrix")
    kmax = _integer(kmax, "kmax")
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    component, _, a, reach = gauge(m)
    # D is unitary, so a real form has m's defect: it is checked in its
    # dtype, within the reach beyond which the form is zero
    _require_hermitian(a, 1e-10, reach)
    drift = None
    if np.iscomplexobj(a):
        # log2 of the bound 1e-8 * dim * max(1, ||m||_F)^k is drift + k * growth
        drift = math.log2(1e-8 * a.shape[0])
        growth = math.log2(max(1.0, frobenius_norm(a)))
    # the stack is scaled in place.  Of blocks, as H's, it is a new array;
    # of one block, as K's, a view of the form, copied once, C-ordered,
    # where that is m's own memory or not C-ordered: so m is never written,
    # and the traces' bits do not depend on m's layout
    a = Blocks.of(component).stack(a)
    if np.may_share_memory(a, m) or not a.flags.c_contiguous:
        a = a.copy()
    parts = _band(a, reach) or (a,)
    top = max(float(np.max(np.abs(part), initial=0.0)) for part in parts)
    g = max(math.frexp(top)[1], -1000)  # 2^-g stays finite for subnormal entries
    for part in parts:
        part *= math.ldexp(1.0, -g)
    traces = np.empty(kmax, dtype=np.float64)

    def put(k: int, mantissa: complex, exponent: int) -> None:
        if drift is not None and mantissa.imag != 0.0:
            if math.log2(abs(mantissa.imag)) + exponent > drift + k * growth:
                raise NumericalError(
                    f"trace of power {k} has imaginary part "
                    f"{_power_of_two(abs(mantissa.imag), exponent):.3e} "
                    "beyond the hermiticity drift bound"
                )
        traces[k - 1] = _power_of_two(mantissa.real, exponent)
        if not math.isfinite(traces[k - 1]):
            raise NumericalError(
                f"trace of power {k} overflowed double precision; lower kmax"
            )

    put(1, complex(np.trace(a, axis1=-2, axis2=-1).sum()), g)
    steps = _baby_steps(kmax, a.nbytes)
    babies, exps = [a], [g]  # m^j = babies[j - 1] * 2^exps[j - 1]
    for k in range(2, min(kmax, 2 * steps) + 1):
        i, j = k // 2, k - k // 2
        if j > len(babies):
            product = _product(babies[-1], a, (j - 1) * reach, reach)
            exps.append(exps[-1] + g + _normalize(product, j * reach))
            babies.append(product)
        # the narrower power, m^i, has no nonzero beyond i * reach
        put(k, _inner(babies[i - 1], babies[j - 1], i * reach), exps[i - 1] + exps[j - 1])
    if kmax > 2 * steps:
        band = steps * reach

        def read(t: int) -> int:
            """The band of m^t that the traces of powers t + 1 .. kmax read."""
            return min(t, kmax - t) * reach

        t = 2 * steps
        giant = _product(babies[-1], babies[-1], band, band, read(t))  # m^t = giant * 2^e
        e = 2 * exps[-1] + _normalize(giant, read(t))
        for k in range(t + 1, kmax + 1):
            if k - t > steps:
                _product(giant, babies[-1], read(t), band, read(t + steps), out=giant)
                t, e = t + steps, e + exps[-1] + _normalize(giant, read(t + steps))
            put(k, _inner(giant, babies[k - t - 1], (k - t) * reach), e + exps[k - t - 1])
    traces.flags.writeable = False
    return traces


def _products(kmax: int, steps: int) -> int:
    """The products that :func:`moments` takes for kmax with J = ``steps``."""
    if kmax <= 2 * steps:
        return (kmax + 1) // 2 - 1
    return steps - 1 + -(-(kmax - 2 * steps) // steps)


def _baby_steps(kmax: int, nbytes: int) -> int:
    """The smallest J >= 4 of the fewest products for kmax whose J + 1
    powers of ``nbytes`` each fit in _POWER_BYTES, or 4 where none does.

    No J above ceil(kmax/2) takes fewer products than that one, nor does any
    J >= 2 isqrt(kmax): for kmax > 2J, J takes at least J products, and
    J = isqrt(kmax) + 1 fewer than 2 isqrt(kmax).  So the search stops there.
    """
    most = min(_POWER_BYTES // max(nbytes, 1) - 1, (kmax + 1) // 2, 2 * math.isqrt(kmax))
    steps = range(_BABY_STEPS, max(most, _BABY_STEPS) + 1)
    return min(steps, key=lambda j: _products(kmax, j))


def _band(x: np.ndarray, band: int) -> tuple[np.ndarray, ...] | None:
    """Disjoint views of the stack x that hold every entry within ``band``
    of the diagonal, or None where a read of the whole stack costs less.

    Rows band .. n - band - 1 are one sheared view, each of whose rows holds
    the 2 band + 1 entries about the diagonal; the first and the last
    ``band`` rows are their corners, 2 band columns wide.  The views are
    taken only of a real stack of at least _BAND_READS entries whose band is
    narrower than a quarter of its width, where the sum over them, which
    numpy takes in place, beats BLAS over the whole: for K at 2s = 24,
    whose bands there reach 26 to 104 of 625 columns.
    """
    n = x.shape[-1]
    if np.iscomplexobj(x) or x.size < _BAND_READS or 4 * band >= n:
        return None
    s0, s1, s2 = x.strides
    middle = np.lib.stride_tricks.as_strided(
        x[..., band:, :], (x.shape[0], n - 2 * band, 2 * band + 1), (s0, s1 + s2, s2)
    )
    return x[..., :band, : 2 * band], middle, x[..., n - band :, n - 2 * band :]


def _inner(x: np.ndarray, y: np.ndarray, band: int) -> complex:
    """tr(x y) for Hermitian y, read as the inner product <y, x>; real if x is y.

    One of x and y has no nonzero beyond ``band``, so the sum is read there
    alone where :func:`_band` gives views.
    """
    parts = _band(x, band)
    if parts is None:
        inner = np.vdot(y, x)
        return complex(inner.real if x is y else inner)
    return complex(sum(float(np.einsum("hij,hij->", u, v)) for u, v in zip(parts, _band(y, band))))


def _normalize(x: np.ndarray, band: int) -> int:
    """Scale x in place by 2^-f, which brings ||x||_F near 1, and return f.

    x has no nonzero beyond ``band``, so only its band is read and scaled
    where :func:`_band` gives views.
    """
    f = math.frexp(_inner(x, x, band).real)[1] // 2
    for part in _band(x, band) or (x,):
        part *= math.ldexp(1.0, -f)
    return f


def _product(
    x: np.ndarray,
    y: np.ndarray,
    bx: int,
    by: int,
    band: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """x @ y within ``band`` of the diagonal, for two powers of one Hermitian matrix.

    x and y are stacks with no nonzero more than bx and by off the
    diagonal, so x @ y, which is Hermitian, has none more than bx + by off
    it, the default band; a narrower band leaves out entries that no later
    trace reads.  The rows are taken _ROWS at a time, across the whole
    stack.  A block of rows [i0, i1) takes only its columns i0 .. i1 + band,
    from the columns of x that meet them within both bands, clears the two
    corners of that rectangle that lie beyond the band, and then fills its
    columns left of i0 within the band from the rows above it, which are
    final, transposed and conjugated.  The product lands in ``out``, new
    zeros by default, with exact zeros beyond the band.  A block of x's
    rows is read by that block alone, so ``out`` may be x; it must not be
    y.  The block then also clears what x held beyond the band, a
    rectangle on either side, so a giant power narrows in place.  The first
    block has nothing left of it, so a stack narrower than _ROWS, such as
    H's, is one plain product.
    """
    n = x.shape[-1]
    full = min(bx + by, n - 1)  # x @ y has no nonzero beyond it
    band = full if band is None else min(band, full)
    if out is None:
        out = np.zeros(x.shape, x.dtype)
    if band < full:
        # the entries of a block's rectangle that lie beyond the band
        offsets = np.arange(_ROWS + band) - np.arange(_ROWS)[:, np.newaxis]
        beyond = np.abs(offsets) > band
    for i0 in range(0, n, _ROWS):
        i1 = min(i0 + _ROWS, n)
        # y's rows below i0 - by meet no column from i0 on
        lo, hi, end = max(0, i0 - min(bx, by)), i1 + bx, i1 + band
        block = out[..., i0:i1, i0:end]
        # where x is out, numpy multiplies a copy of x's block
        np.matmul(x[..., i0:i1, lo:hi], y[..., lo:hi, i0:end], out=block)
        if band < full:
            np.copyto(block, 0.0, where=beyond[: i1 - i0, : block.shape[-1]])
        left = max(0, i0 - band)
        if out is x:
            out[..., i0:i1, end : i1 + bx] = 0.0
            out[..., i0:i1, max(0, i0 - bx) : left] = 0.0
        if i0:
            upper = out[..., left:i0, i0:i1].swapaxes(-1, -2)
            np.conjugate(upper, out=out[..., i0:i1, left:i0])
    return out


def _power_of_two(mantissa: float, exponent: int) -> float:
    """mantissa * 2^exponent, inf when that lies beyond double precision."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def newton_check(values, traces) -> bool:
    """Check sum_i values_i^k == traces[k-1] for every provided power.

    With r = max(1, max |value|), both sides are divided by r^k, the traces
    through the overflow-safe quotient of the moment certificate, and must
    agree within MOMENT_TOL * len(values), matching how trace magnitudes
    grow.  The sums of (values_i / r)^k are taken as a running product over
    k, each power within k ulps of its ``pow``, and every term lies in
    [-1, 1], so none overflows.  A NaN on either side fails the comparison.
    Either list of a dtype that is not bool, integer or float, as str or
    complex, raises TypeError (see :func:`_real_values`).
    """
    values, traces = _real_values(values), _real_values(traces)
    if values.ndim != 1 or traces.ndim != 1:
        raise ShapeError("values and traces must be 1-D")
    if values.size == 0 or traces.size == 0:
        raise ValueError("values and traces must be non-empty")
    radius = max(1.0, float(np.max(np.abs(values))))
    scaled = np.abs(_power_sums(values / radius, traces.size) - _over_powers(traces, radius))
    return bool(np.all(scaled <= MOMENT_TOL * values.size))


def _real_values(values) -> np.ndarray:
    """A value list as float64, once its dtype is checked bool, integer or
    float: TypeError for any other, as str, which the cast would read as
    numbers, or complex, whose imaginary parts it would drop."""
    values = _require_kind(np.asarray(values), "biuf", "values must be real numbers")
    return values.astype(np.float64, copy=False)


def _power_sums(x: np.ndarray, kmax: int) -> np.ndarray:
    """sum_i x_i^k for k = 1..kmax, the powers as a running product over k."""
    return np.cumprod(np.broadcast_to(x, (kmax, x.size)), axis=0).sum(axis=1)


def _require_tol(tol, name: str) -> None:
    """The one rule for a tolerance, named ``name`` in the message: TypeError
    for one that is no :class:`numbers.Real`, as a str or None, and
    ValueError for one that is not positive, as 0 or NaN, or infinite, under
    which any two values would be one.  A bool is the int it equals, as
    ``numbers.Real`` has it, and an int beyond double range is finite."""
    if not isinstance(tol, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {tol!r}")
    if not tol > 0.0:
        raise ValueError(f"{name} must be positive, got {tol}")
    if not tol < math.inf:
        raise ValueError(f"{name} must be finite, got {tol}")


def cluster_spectrum(values, cluster_tol: float) -> Spectrum:
    """Group an ascending eigenvalue list into degeneracy clusters.

    A value joins the current cluster when it sits within ``cluster_tol``
    of the cluster's running mean; otherwise it opens a new cluster.  For
    well-separated spectra this reproduces exact multiplicities.
    ``cluster_tol`` must be a positive, finite real number: one that is no
    :class:`numbers.Real` raises TypeError, and one that is not positive or
    is infinite, which would merge every spectrum into one cluster,
    ValueError.  Values of a dtype that is not bool, integer or float raise
    TypeError (see :func:`_real_values`).
    """
    values = _real_values(values)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError("expected a non-empty 1-D value list")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    _require_tol(cluster_tol, "cluster_tol")
    if np.any(np.diff(values) < 0.0):
        raise ValueError("values must be ascending")
    clusters: list[tuple[float, int]] = []
    mean = float(values[0])
    count = 1
    for v in values[1:]:
        v = float(v)
        if v - mean <= cluster_tol:
            count += 1
            mean += (v - mean) / count
        else:
            clusters.append((mean, count))
            mean = v
            count = 1
    clusters.append((mean, count))
    return Spectrum(
        clusters=tuple(clusters),
        cluster_tol=cluster_tol,
        dimension=int(values.size),
    )


def closed_form_spectrum(s: HalfInteger) -> Spectrum:
    """Exact spectrum of the aligned exchange operator for spin s.

    Coupling two spin-s sites gives total-spin sectors j = 0..2s, and on
    each sector the operator equals (j(j+1) - 2s(s+1)) / 2 with
    multiplicity 2j+1.  All values are dyadic rationals, hence exact.  An
    ``s`` that is no :class:`HalfInteger` raises TypeError.
    """
    _require_spin(s)
    casimir = s.twice * (s.twice + 2) / 4.0
    clusters = tuple(
        (j * (j + 1) / 2.0 - casimir, 2 * j + 1) for j in range(s.twice + 1)
    )
    return Spectrum(clusters=clusters, cluster_tol=0.0, dimension=s.dimension**2)


def default_cluster_tol(m: np.ndarray) -> float:
    """Degeneracy resolution used when none is given: 1e-9 * max(1, ||m||_F).

    Raises ValueError when ||m||_F is not finite: an entry that is NaN or
    infinite, or entries whose squares sum beyond double precision; and
    TypeError for a dtype that is not numeric, as :func:`frobenius_norm`.
    """
    with np.errstate(over="ignore"):
        norm = frobenius_norm(m)
    if not math.isfinite(norm):
        raise ValueError(f"the matrix's Frobenius norm must be finite, got {norm}")
    return 1e-9 * max(1.0, norm)


def spectra_match(a: Spectrum, b: Spectrum, value_tol: float) -> bool:
    """True when cluster counts, multiplicities, and values all agree.

    Values compare within ``value_tol``, which must be a positive, finite
    real number, as ``cluster_spectrum``'s ``cluster_tol``: TypeError for
    one that is no :class:`numbers.Real`, ValueError for one that is not
    positive, NaN among them, or infinite, either of which would hold any
    two values equal.  ``a`` and ``b`` must be :class:`Spectrum` values;
    anything else raises TypeError.
    """
    for spectrum in (a, b):
        if not isinstance(spectrum, Spectrum):
            raise TypeError(f"a spectrum must be a Spectrum, got {type(spectrum).__name__}")
    _require_tol(value_tol, "value_tol")
    if a.dimension != b.dimension or len(a.clusters) != len(b.clusters):
        return False
    for (va, ma), (vb, mb) in zip(a.clusters, b.clusters):
        if ma != mb or abs(va - vb) > value_tol:
            return False
    return True


def _over_powers(x: np.ndarray, radius: float) -> np.ndarray:
    """x[k-1] / radius^k for k = 1, 2, ...

    Where radius^k passes double precision, the quotient of a finite x is
    taken in log2, so it stays finite for radius >= 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = radius ** np.arange(1, x.size + 1, dtype=np.float64)
        scaled = x / scale
    for i in np.flatnonzero(np.isinf(scale) & np.isfinite(x) & (x != 0.0)):
        log2 = math.log2(abs(x[i])) - (i + 1) * math.log2(radius)
        scaled[i] = math.copysign(2.0**log2, x[i])
    return scaled


def _scaled_differences(
    traces_a: np.ndarray, traces_b: np.ndarray, radius: float
) -> np.ndarray:
    """|traces_a[k-1] - traces_b[k-1]| / radius^k for k = 1, 2, ...

    Where the difference of two finite traces passes double precision, the
    traces are halved, which is exact, and the quotient doubled.
    """
    with np.errstate(over="ignore"):
        diff = np.abs(traces_a - traces_b)
    wide = np.isinf(diff)
    diff[wide] = np.abs(traces_a[wide] / 2.0 - traces_b[wide] / 2.0)
    scaled = _over_powers(diff, radius)
    scaled[wide] *= 2.0
    return scaled


def certify_isospectral(
    a: np.ndarray,
    b: np.ndarray,
    kmax: int | None = None,
    prefix: int | None = None,
    *,
    charges: tuple = (None, None),
) -> IsospectralReport:
    """Certify that two Hermitian operators share a spectrum.

    Diagonalizes both operators, compares clustered spectra (values within
    the larger :func:`default_cluster_tol` of the two, multiplicities
    exactly), and independently compares trace moments for k = 1..kmax
    (default: the full dimension) within MOMENT_TOL * n.
    ``prefix`` additionally reports the comparison restricted to the first
    so-many powers; the verdict never rests on the prefix alone.
    ``charges`` passes each operator's conserved-charge factors (or None)
    to the eigensolver, which then diagonalizes sector by sector; one that
    is not a pair raises ValueError.  Both operators are solved at the
    eigensolver's constant ``eig.DEFAULT_TOL``: the certificate takes no
    tolerance, so every certificate is made at the constants that
    tests/test_margins.py audits.  Empty operators have no spectrum and
    raise :class:`ShapeError`; a ``kmax`` or ``prefix`` that is not an
    integer raises TypeError before any work.

    Both eigensolves are one batched solve: an operator on the sector route
    sweeps its own charge factors, and then the blocks of both operators
    share stacks keyed by the width that each operator's own route pads a
    block to and by dtype, so each decomposition is bit for bit that of
    :func:`hermitian_eig` alone.  That is two Jacobi kernel calls for H and
    K up to 2s = 15 and three beyond.  An error is the one that
    hermitian_eig on a and then on b raises first.  The traces are
    :func:`moments` of a and of b themselves, taken after the eigensolve has
    freed its own forms: each route gauges the operator it is given, so the
    moments read nothing that the eigensolve made.
    """
    a = require_square(a, "expected square matrices")
    b = require_square(b, "expected square matrices")
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n == 0:
        raise ShapeError(f"operators of shape {a.shape} have no spectrum to certify")
    kmax = n if kmax is None else _integer(kmax, "kmax")
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    if prefix is not None:
        prefix = _integer(prefix, "prefix")
        if not 1 <= prefix <= kmax:
            raise ValueError(f"prefix must lie in 1..kmax, got {prefix}")
    try:
        charge_a, charge_b = charges
    except (TypeError, ValueError):
        raise ValueError("charges must be a pair: a charge or None for a, then for b") from None

    dec_a, dec_b = _eigensolves([(a, charge_a), (b, charge_b)])
    cluster_tol = max(default_cluster_tol(a), default_cluster_tol(b))
    spectrum_a = cluster_spectrum(dec_a.values, cluster_tol)
    spectrum_b = cluster_spectrum(dec_b.values, cluster_tol)
    equal = spectra_match(spectrum_a, spectrum_b, value_tol=cluster_tol)

    traces_a = moments(a, kmax)
    traces_b = moments(b, kmax)
    radius = max(
        1.0,
        float(np.max(np.abs(dec_a.values))),
        float(np.max(np.abs(dec_b.values))),
    )
    scaled = _scaled_differences(traces_a, traces_b, radius)
    max_abs_diff = float(np.max(scaled))
    threshold = MOMENT_TOL * n
    prefix_diff = float(np.max(scaled[:prefix])) if prefix is not None else None
    report = MomentReport(
        powers=tuple(range(1, kmax + 1)),
        traces_a=tuple(float(t) for t in traces_a),
        traces_b=tuple(float(t) for t in traces_b),
        scale=radius,
        max_abs_diff=max_abs_diff,
        tol=threshold,
        passed=max_abs_diff <= threshold,
        prefix_len=prefix,
        prefix_max_abs_diff=prefix_diff,
        prefix_passed=None if prefix_diff is None else prefix_diff <= threshold,
    )
    return IsospectralReport(
        dimension=n,
        spectrum_a=spectrum_a,
        spectrum_b=spectrum_b,
        spectra_equal=equal,
        moments=report,
        residual_a=dec_a.residual,
        residual_b=dec_b.residual,
    )
