"""Two-site exchange Hamiltonians built from spin operator triples.

Both named operators act on the (2s+1)^2 dimensional product space:

    H = S1 x S1 + S2 x S2 + S3 x S3      (aligned exchange)
    K = S1 x S2 + S2 x S3 + S3 x S1      (cyclically shifted exchange)

where x is the Kronecker product.  The general bilinear form
sum_jk c_jk Sj x Sk covers both as special cases, and is exactly
Hermitian for any real pattern c (see :class:`Hamiltonian`).

When the pattern c is a proper rotation (orthogonal, det +1), the operator
is H conjugated by a rotation of the second site that maps each Sj to
sum_k c_jk Sk, so it commutes with the charge S3 x I + I x sum_k c_3k Sk.
The form is linear in its pattern, so the operator of lambda c, for any
real lambda != 0, is lambda times that of c and commutes with the same
charge: an improper rotation is -1 times a proper one, and 2 c_K is 2
times K.  Such a pattern takes the charge of c = (lambda c) / lambda, with
lambda the real cube root of its determinant.  The single-site factors
are kept as ``Hamiltonian.charge`` for the eigensolver's sector route,
which measures the charge's split and refuses one that does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import HalfInteger, make_spin_triple

__all__ = [
    "HamiltonianKind",
    "Hamiltonian",
    "build_heisenberg",
    "build_cyclic",
    "build_bilinear",
]

_ALIGNED = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_SHIFTED = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
_ROTATION_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianKind:
    """Label plus the coefficient pattern c_jk that produced the operator."""

    label: str
    coeffs: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class Hamiltonian:
    """A built two-site operator, Hermitian by construction.

    A finite ``matrix`` is Hermitian bit for bit: S1 is real symmetric, S3
    real diagonal and S2's mirrored entries exact conjugates; a complex
    product, or a real scaling, of conjugate pairs is a conjugate pair; and
    both mirrored entries sum their terms in the same (j, k) order.
    ``charge`` holds the single-site factors (A, B) of a conserved charge
    A x I + I x B when the pattern is a real multiple lambda != 0 of a
    proper rotation within 1e-12, the charge of that rotation, and is None
    otherwise.
    """

    kind: HamiltonianKind
    s: HalfInteger
    matrix: np.ndarray
    charge: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _assemble(s: HalfInteger, label: str, coeffs) -> Hamiltonian:
    pattern = tuple(tuple(float(c) for c in row) for row in coeffs)
    if len(pattern) != 3 or any(len(row) != 3 for row in pattern):
        raise ValueError("coefficient pattern must be 3 x 3")
    if not all(np.isfinite(c) for row in pattern for c in row):
        raise ValueError("coefficients must be finite")
    triple = make_spin_triple(s)
    ops = triple.operators
    n = triple.dimension
    total = np.zeros((n * n, n * n), dtype=np.complex128)
    nonzeros = [np.nonzero(op) for op in ops]
    for j in range(3):
        for k in range(3):
            if pattern[j][k] != 0.0:
                # Sj x Sk holds Sj[a, b] * Sk[c, d] at (a n + c, b n + d); its
                # exact zeros would add nothing, so the sum is np.kron's bit
                # for bit
                (a, b), (c, d) = nonzeros[j], nonzeros[k]
                term = np.multiply.outer(ops[j][a, b], ops[k][c, d])
                total[np.add.outer(a * n, c), np.add.outer(b * n, d)] += (
                    pattern[j][k] * term
                )
    total.flags.writeable = False
    return Hamiltonian(
        kind=HamiltonianKind(label=label, coeffs=pattern),
        s=s,
        matrix=total,
        charge=_rotation_charge(pattern, ops),
    )


def _rotation_charge(pattern, ops) -> tuple[np.ndarray, np.ndarray] | None:
    """The charge of c / lambda, lambda = cbrt(det c), where that is
    orthogonal within _ROTATION_TOL; a c whose determinant is 1 within it
    is taken as it is, so a proper rotation keeps its own charge to the
    bit.  A singular c has none, nor has one whose determinant or
    c / lambda lies beyond double precision."""
    c = np.array(pattern)
    with np.errstate(all="ignore"):
        det = np.linalg.det(c)
        if not abs(det - 1.0) <= _ROTATION_TOL:
            c = c / np.cbrt(det)
        if not np.abs(c @ c.T - np.eye(3)).max() <= _ROTATION_TOL:
            return None
    second = sum(c[2, k] * ops[k] for k in range(3))
    second.flags.writeable = False
    return ops[2], second


def build_heisenberg(s: HalfInteger) -> Hamiltonian:
    """H = S1 x S1 + S2 x S2 + S3 x S3 for spin s."""
    return _assemble(s, "H", _ALIGNED)


def build_cyclic(s: HalfInteger) -> Hamiltonian:
    """K = S1 x S2 + S2 x S3 + S3 x S1 for spin s."""
    return _assemble(s, "K", _SHIFTED)


def build_bilinear(s: HalfInteger, coeffs) -> Hamiltonian:
    """General bilinear operator sum_jk c_jk Sj x Sk from a 3 x 3 pattern."""
    return _assemble(s, "bilinear", coeffs)
