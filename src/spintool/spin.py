"""Spin operator triples and their algebraic verification.

For a spin quantum number s (integer or half-integer) the three operators
S1, S2, S3 act on an n = 2s+1 dimensional space, ordered by descending
magnetic number m = s, s-1, ..., -s.  S3 is diagonal with those entries,
and S1, S2 come from the ladder operator with matrix elements
sqrt(s(s+1) - m'(m'+1)) on the first superdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .linalg import DEFAULT_TOL, frobenius_norm

__all__ = [
    "MAX_TWICE_SPIN",
    "HalfInteger",
    "SpinTriple",
    "AlgebraReport",
    "make_spin_triple",
    "verify_su2",
]

# caps the two-site problem at 625 x 625, desk scale for the O(n^3) solver
MAX_TWICE_SPIN = 24

# the decimal exponents that a float64 can hold; a Fraction of "1e100000000"
# builds 10^100000000 before it can be refused
_MAX_EXPONENT = 308


@dataclass(frozen=True)
class HalfInteger:
    """Exact spin label, stored as twice its value to avoid rounding."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int) or isinstance(self.twice, bool):
            raise TypeError(f"twice must be an int, got {type(self.twice).__name__}")
        if self.twice < 1:
            raise ValueError("spin must be at least 1/2")

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def dimension(self) -> int:
        """Dimension of the single-site space, 2s + 1."""
        return self.twice + 1

    @classmethod
    def parse(cls, text: str) -> "HalfInteger":
        """Parse "1/2", "3/2", "2", "1.5" and friends exactly.

        A decimal exponent beyond +-308, as in "1e400", is refused before
        the text is read as a fraction.
        """
        stripped = str(text).strip()
        exponent = stripped.lower().partition("e")[2]
        try:
            too_far = bool(exponent) and abs(int(exponent)) > _MAX_EXPONENT
            f = None if too_far else Fraction(stripped)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse spin value {text!r}") from exc
        if too_far:
            raise ValueError(f"spin exponent beyond +-{_MAX_EXPONENT} in {text!r}")
        if f <= 0 or f.denominator not in (1, 2):
            raise ValueError(
                f"spin must be a positive integer or half-integer, got {text!r}"
            )
        return cls(int(2 * f))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _require_spin(s) -> None:
    """Raise TypeError, naming :class:`HalfInteger`, unless s is one."""
    if not isinstance(s, HalfInteger):
        raise TypeError(f"the spin must be a HalfInteger, got {type(s).__name__}")


@dataclass(frozen=True)
class SpinTriple:
    """Carrier for (S1, S2, S3); construction does not validate the algebra.

    ``make_spin_triple`` guarantees the su(2) relations; ``verify_su2`` checks
    them for any carrier, including deliberately broken ones.
    """

    s: HalfInteger
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    @property
    def dimension(self) -> int:
        return self.s.dimension

    @property
    def operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.s1, self.s2, self.s3)


def make_spin_triple(s: HalfInteger) -> SpinTriple:
    """Build the spin-s operator triple.

    Magnetic numbers descend along the diagonal, so the raising operator has
    entries sqrt(s(s+1) - m'(m'+1)) with m' the target level's number.  For
    dyadic s both s(s+1) and every m are exact in floating point, which keeps
    small cases (notably s = 1/2) free of rounding.  An ``s`` that is no
    :class:`HalfInteger`, as the int 2, raises TypeError.
    """
    _require_spin(s)
    if s.twice > MAX_TWICE_SPIN:
        raise ValueError(
            f"spin {s} exceeds the supported cap 2s <= {MAX_TWICE_SPIN}"
        )
    n = s.dimension
    m = (s.twice - 2.0 * np.arange(n)) / 2.0
    casimir = s.twice * (s.twice + 2) / 4.0
    up = np.sqrt(casimir - m[1:] * (m[1:] + 1.0))
    splus = np.diag(up, 1).astype(np.complex128)
    sminus = splus.T.copy()
    s1 = (splus + sminus) / 2.0
    s2 = (splus - sminus) / 2.0j
    s3 = np.diag(m).astype(np.complex128)
    for arr in (s1, s2, s3):
        arr.flags.writeable = False
    return SpinTriple(s=s, s1=s1, s2=s2, s3=s3)


@dataclass(frozen=True)
class AlgebraReport:
    """Residuals of the defining su(2) identities for one triple.

    ``residuals`` maps identity labels to non-negative residual magnitudes;
    ``passed`` is True exactly when every residual is <= tol * dimension.
    """

    spin: HalfInteger
    dimension: int
    tol: float
    residuals: dict[str, float]
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def verify_su2(triple: SpinTriple) -> AlgebraReport:
    """Measure how well a triple satisfies the su(2) relations.

    Every residual is held to ``DEFAULT_TOL`` * dimension, the constant
    read from this module when called, which the report keeps as ``tol``.

    Checked identities: the cyclic commutators [Sj, Sk] = i Sl, the Casimir
    sum S1^2 + S2^2 + S3^2 = s(s+1) I, tr(Sj^2) = s(s+1)(2s+1)/3, the
    vanishing of tr(Sj Sk) for j != k, and tr(Sj^n) = 0 for odd n <= 7.
    The squared-trace formula is a strictly n = 2 statement; it already fails
    at n = 4 for s = 3/2, so no higher even power is asserted.
    ``triple`` must be a :class:`SpinTriple`; anything else raises TypeError.
    """
    if not isinstance(triple, SpinTriple):
        raise TypeError(f"the triple must be a SpinTriple, got {type(triple).__name__}")
    s = triple.s
    n = triple.dimension
    ops = triple.operators
    casimir = s.twice * (s.twice + 2) / 4.0
    sq_trace = casimir * n / 3.0  # s(s+1)(2s+1)/3
    residuals: dict[str, float] = {}

    for j in range(3):
        k = (j + 1) % 3
        l = (j + 2) % 3
        residuals[f"[S{j + 1},S{k + 1}]-iS{l + 1}"] = frobenius_norm(
            ops[j] @ ops[k] - ops[k] @ ops[j] - 1j * ops[l]
        )

    squares = [op @ op for op in ops]
    residuals["casimir"] = frobenius_norm(sum(squares) - casimir * np.eye(n))

    for j in range(3):
        residuals[f"tr(S{j + 1}^2)"] = abs(np.trace(squares[j]).item() - sq_trace)

    for j, k in permutations(range(3), 2):
        residuals[f"tr(S{j + 1}S{k + 1})"] = abs(np.trace(ops[j] @ ops[k]).item())

    for j in range(3):
        power = ops[j]
        for exponent in (1, 3, 5, 7):
            if exponent > 1:
                power = power @ squares[j]
            residuals[f"tr(S{j + 1}^{exponent})"] = abs(np.trace(power).item())

    passed = max(residuals.values()) <= DEFAULT_TOL * n
    return AlgebraReport(spin=s, dimension=n, tol=DEFAULT_TOL, residuals=residuals, passed=passed)
