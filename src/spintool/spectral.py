"""Spectral analysis: power-trace moments, clustering, and isospectrality.

Two independent routes feed the isospectrality certificate.  The direct
route diagonalizes both operators and compares clustered spectra; that
comparison is the verdict of record.  The moment route compares traces of
matrix powers, which corroborates the verdict without any diagonalization.

Trace magnitudes grow like ||M||^k, so every moment comparison is scaled
per power by max(1, r)^k with r the spectral radius; a fixed absolute
tolerance would be unsatisfiable at high powers, where double-precision
rounding alone produces absolute errors far above any fixed bound.

The traces themselves come from powers kept at unit scale by exact
power-of-two factors, two traces per matrix product.  Operators whose
entries are each purely real or purely imaginary, H and K among them, are
first conjugated by a diagonal of ones and i's into an exactly real
matrix with the same traces, so their powers are real matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eig import DEFAULT_MAX_SWEEPS, hermitian_eig
from .linalg import (
    DEFAULT_TOL,
    NumericalError,
    ShapeError,
    frobenius_norm,
    require_hermitian,
)
from .spin import HalfInteger

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
    verdict of record; the moment report corroborates it.
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
        return self.spectra_equal and self.moments.passed


def moments(m: np.ndarray, kmax: int) -> np.ndarray:
    """Traces of m^k for k = 1..kmax, from ceil(kmax/2) - 1 matrix products.

    The input must be Hermitian within 1e-10 per dimension.  When a diagonal
    D with entries in {1, i} makes D^H m D exactly real (see
    :func:`_real_form`), the powers are taken of that real matrix, which has
    the same traces; otherwise they are complex, and the imaginary residue
    of each odd trace is checked against 1e-8 * dim * max(1, ||m||_F)^k, in
    log space, raising :class:`NumericalError` beyond it.

    The running power is kept as P_j = m^j * 2^(-e_j) with ||P_j||_F near 1,
    so no intermediate overflows and every rescaling is exact.  Each product
    yields two traces: tr(m^2j) = ||P_j||_F^2 * 2^(2 e_j) and
    tr(m^(2j+1)) = <P_j, P_(j+1)> * 2^(e_j + e_(j+1)).  A trace whose value
    lies beyond double precision raises :class:`NumericalError`.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"moments need a square matrix, got shape {m.shape}")
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    require_hermitian(m, 1e-10)
    a, drift = _real_form(m), None
    if a is None:
        a = m.astype(np.complex128)
        # log2 of the bound 1e-8 * dim * max(1, ||m||_F)^k is drift + k * growth
        drift = math.log2(1e-8 * m.shape[0])
        growth = math.log2(max(1.0, frobenius_norm(m)))
    top = float(np.max(np.abs(a), initial=0.0))
    g = max(math.frexp(top)[1], -1000)  # 2^-g stays finite for subnormal entries
    a *= math.ldexp(1.0, -g)
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

    put(1, complex(np.trace(a)), g)
    power, e = a, g  # m^j = power * 2^e, starting at j = 1
    square = np.vdot(a, a).real
    for k in range(2, kmax + 1, 2):
        put(k, square, 2 * e)
        if k == kmax:
            break
        product = power @ a  # m^(j+1) * 2^-(e + g)
        put(k + 1, np.vdot(product, power), 2 * e + g)
        square = np.vdot(product, product).real
        f = math.frexp(square)[1] // 2
        product *= math.ldexp(1.0, -f)
        power, e, square = product, e + g + f, math.ldexp(square, -2 * f)
    traces.flags.writeable = False
    return traces


def _power_of_two(mantissa: float, exponent: int) -> float:
    """mantissa * 2^exponent, inf when that lies beyond double precision."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _real_form(m: np.ndarray) -> np.ndarray | None:
    """The exactly real matrix D^H m D for a diagonal D in {1, i}, or None.

    The result is a new float64 array.  An input with no imaginary part
    gives a copy of its real part.  Otherwise D = i^colour with the colours
    of :func:`_gauge_colours`, and the purely imaginary entries must link
    indices of opposite colour, the purely real ones indices of equal
    colour.  Conjugating by D then only moves signs and swaps real and
    imaginary parts, so the result is exact.  None when some entry breaks
    that rule, for instance an entry with both parts nonzero or a
    frustrated cycle of imaginary entries.
    """
    if not (np.iscomplexobj(m) and m.imag.any()):
        return np.array(m.real, dtype=np.float64)
    colour = _gauge_colours(m)
    shift = colour[:, None] - colour[None, :]
    if np.any(m.imag, where=shift == 0) or np.any(m.real, where=shift != 0):
        return None
    real = shift * m.imag
    real += m.real
    return real


def _gauge_colours(m: np.ndarray) -> np.ndarray:
    """A 0/1 colour per index, flipping across purely imaginary entries.

    Breadth-first over the nonzero pattern of m: a neighbour linked by an
    entry with zero real part takes the opposite colour, any other neighbour
    the same colour.  The colouring is consistent only when no cycle holds
    an odd number of imaginary links; :func:`_real_form` checks that.
    """
    n = m.shape[0]
    linked = m != 0
    flips = (m.real == 0).view(np.int8)
    colour = np.full(n, -1, dtype=np.int8)
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        frontier = np.array([root])
        while frontier.size:
            reach = linked[frontier] & (colour < 0)
            fresh = np.flatnonzero(reach.any(axis=0))
            source = frontier[reach[:, fresh].argmax(axis=0)]
            colour[fresh] = colour[source] ^ flips[source, fresh]
            frontier = fresh
    return colour


def newton_check(values, traces, tol: float = MOMENT_TOL) -> bool:
    """Check sum_i values_i^k == traces[k-1] for every provided power.

    With r = max(1, max |value|), both sides are divided by r^k, the traces
    through the overflow-safe quotient of the moment certificate, and must
    agree within tol * len(values), matching how trace magnitudes grow.  A
    NaN on either side fails the comparison.
    """
    values = np.asarray(values, dtype=np.float64)
    traces = np.asarray(traces, dtype=np.float64)
    if values.ndim != 1 or traces.ndim != 1:
        raise ShapeError("values and traces must be 1-D")
    if values.size == 0 or traces.size == 0:
        raise ValueError("values and traces must be non-empty")
    radius = max(1.0, float(np.max(np.abs(values))))
    powers = np.arange(1, traces.size + 1)[:, None]
    sums = np.sum((values / radius) ** powers, axis=1)
    scaled = np.abs(sums - _over_powers(traces, radius))
    return bool(np.all(scaled <= tol * values.size))


def cluster_spectrum(values, cluster_tol: float) -> Spectrum:
    """Group an ascending eigenvalue list into degeneracy clusters.

    A value joins the current cluster when it sits within ``cluster_tol``
    of the cluster's running mean; otherwise it opens a new cluster.  For
    well-separated spectra this reproduces exact multiplicities.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError("expected a non-empty 1-D value list")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    if not cluster_tol > 0.0:
        raise ValueError(f"cluster_tol must be positive, got {cluster_tol}")
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
    multiplicity 2j+1.  All values are dyadic rationals, hence exact.
    """
    casimir = s.twice * (s.twice + 2) / 4.0
    clusters = tuple(
        (j * (j + 1) / 2.0 - casimir, 2 * j + 1) for j in range(s.twice + 1)
    )
    return Spectrum(clusters=clusters, cluster_tol=0.0, dimension=s.dimension**2)


def default_cluster_tol(m: np.ndarray) -> float:
    """Degeneracy resolution used when none is given: 1e-9 * max(1, ||m||_F)."""
    return 1e-9 * max(1.0, frobenius_norm(m))


def spectra_match(a: Spectrum, b: Spectrum, value_tol: float | None = None) -> bool:
    """True when cluster counts, multiplicities, and values all agree.

    Values compare within ``value_tol``; when omitted, the looser of the
    two cluster tolerances is used.
    """
    if value_tol is None:
        value_tol = max(a.cluster_tol, b.cluster_tol)
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
    tol: float = MOMENT_TOL,
    cluster_tol: float | None = None,
    prefix: int | None = None,
    eig_tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    charges: tuple = (None, None),
) -> IsospectralReport:
    """Certify that two Hermitian operators share a spectrum.

    Diagonalizes both operators, compares clustered spectra (values within
    the cluster tolerance, multiplicities exactly), and independently
    compares trace moments for k = 1..kmax (default: the full dimension).
    ``prefix`` additionally reports the comparison restricted to the first
    so-many powers; the verdict never rests on the prefix alone.
    ``charges`` passes each operator's conserved-charge factors (or None)
    to :func:`hermitian_eig`, which then diagonalizes sector by sector.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrices, got shape {a.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if kmax is None:
        kmax = n
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    if prefix is not None and not 1 <= prefix <= kmax:
        raise ValueError(f"prefix must lie in 1..kmax, got {prefix}")

    dec_a = hermitian_eig(a, eig_tol, max_sweeps, charge=charges[0])
    dec_b = hermitian_eig(b, eig_tol, max_sweeps, charge=charges[1])
    if cluster_tol is None:
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
    threshold = tol * n
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
