"""Hermitian eigensolver built on cyclic complex Jacobi rotations.

The solver repeatedly annihilates off-diagonal pivots a[p, q] with 2 x 2
unitary rotations until the off-diagonal Frobenius mass falls below a
relative threshold.  It is deliberately self-contained: diagonalization is
the load-bearing step of the isospectrality certificates, so it must not
rest on an opaque library call.

Rotation construction for pivot (p, q), p < q
---------------------------------------------
Write the pivot entry as a[p, q] = b * exp(i*phi) with b > 0.  The principal
2 x 2 submatrix is unitarily similar to a real symmetric one, so the real
Jacobi angle formulas apply after stripping the phase:

    tau = (a[q, q] - a[p, p]) / (2 b)          (both diagonals are real)
    t   = sign(tau) / (|tau| + sqrt(1 + tau^2))    (tan of the angle,
          the root with |angle| <= pi/4; tau = 0 gives t = 1)
    c   = 1 / sqrt(1 + t^2),   s = t * c

and the applied rotation, J = [[c, s], [-s*e, c*e]] with e = exp(-i*phi),
zeroes a[p, q] exactly in the update A <- J^H A J while preserving
hermiticity and the eigenvalues.  Each rotation removes 2 b^2 from the
squared off-diagonal mass, which forces convergence; cyclic row-major
pivot order makes runs deterministic.

Sector route
------------
When the caller knows single-site Hermitian factors (A, B) of a charge
Q = A x I + I x B that commutes with M, the solver diagonalizes A and B
(size at most 2s + 1), rotates M into the product basis W = Va x Vb and
labels each basis vector by its rounded charge 2(qa + qb).  M' = W^H M W is
then block diagonal over equal labels, so each sector (size at most 2s + 1
for the exchange operators) is diagonalized on its own and its vectors are
mapped back through W.  Nothing about the charge is assumed: the
commutator ||[M, Q]||_F and the leak, the norm of M' outside the sectors,
are measured and reported, and a leak above the full route's stop
threshold tol * ||M||_F is an error.  Both routes end in the same sorting,
phase pinning and residual check against the original M.  The cost drops
from Jacobi sweeps over the whole matrix to a few dense products plus
Jacobi on blocks of width about sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NumericalError,
    ShapeError,
    frobenius_norm,
    require_hermitian,
)

__all__ = [
    "ConvergenceError",
    "EigDecomposition",
    "hermitian_eig",
    "verify_eigenpair",
]

DEFAULT_MAX_SWEEPS = 100

# Charge factors are solved to rounding level whatever the caller's tol:
# an eigenvector error d in them shows up as off-sector mass of about
# d * ||m||, which would otherwise compete with the leak bound itself.
_SITE_TOL = float(np.finfo(np.float64).eps)


class ConvergenceError(NumericalError):
    """The sweep budget ran out before the off-diagonal mass fell below tol."""


@dataclass(frozen=True)
class EigDecomposition:
    """Result of a Hermitian diagonalization.

    ``values`` are real and ascending; column k of ``vectors`` is the
    eigenvector for ``values[k]``, normalized with its largest-magnitude
    component made real and positive (first such index on ties), so repeat
    runs return bit-identical output.  ``residual`` is the largest
    euclidean norm of M v - lambda v over all returned pairs, measured
    against the original input.  ``sweeps`` counts completed Jacobi sweeps
    (on the sector route, the most any one sector needed).  ``leak`` and
    ``commutator`` are the sector route's measured charge certificate (see
    :func:`hermitian_eig`); both are 0.0 on the full route.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    sweeps: int
    leak: float = 0.0
    commutator: float = 0.0

    @property
    def dimension(self) -> int:
        return self.values.shape[0]


def _offdiag_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diagonal(a))))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    a = np.array(m, dtype=np.complex128)
    return (a + a.conj().T) / 2.0


def _jacobi(
    a: np.ndarray, stop: float, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Cyclic Jacobi sweeps on the Hermitian array ``a``, in place.

    Returns the unsorted diagonal, the accumulated rotations and the number
    of completed sweeps once the off-diagonal norm is <= ``stop``.
    """
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    skip = stop / (10.0 * n)
    sweeps = 0

    while _offdiag_norm(a) > stop:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"off-diagonal norm {_offdiag_norm(a):.3e} still above "
                f"{stop:.3e} after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                pivot = a[p, q]
                b = abs(pivot)
                if b <= skip:
                    continue
                tau = (a[q, q].real - a[p, p].real) / (2.0 * b)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                e = pivot.conjugate() / b
                rot = np.array([[c, s], [-s * e, c * e]], dtype=np.complex128)
                a[[p, q], :] = rot.conj().T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                v[:, [p, q]] = v[:, [p, q]] @ rot
        sweeps += 1

    return np.diagonal(a).real.copy(), v, sweeps


def _site_eig(
    f: np.ndarray, tol: float, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray]:
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] == 0:
        raise ShapeError(f"charge factors must be square, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("charge factor entries must be finite")
    require_hermitian(f, tol)
    stop = _SITE_TOL * frobenius_norm(f)
    values, vectors, _ = _jacobi(_symmetrized(f), stop, max_sweeps)
    return values, vectors


def _sector_jacobi(
    m: np.ndarray, charge, tol: float, stop: float, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray, int, float, float]:
    """Jacobi on each sector of ``m`` in the eigenbasis of A x I + I x B."""
    a_site, b_site = (np.asarray(f) for f in charge)
    qa, va = _site_eig(a_site, tol, max_sweeps)
    qb, vb = _site_eig(b_site, tol, max_sweeps)
    n = m.shape[0]
    if qa.size * qb.size != n:
        raise ShapeError(
            f"charge factors of sizes {qa.size} and {qb.size} do not "
            f"factor the dimension {n}"
        )
    q = np.kron(a_site, np.eye(qb.size)) + np.kron(np.eye(qa.size), b_site)
    commutator = float(np.linalg.norm(m @ q - q @ m))
    del q

    w = np.kron(va, vb)
    rotated = w.conj().T @ _symmetrized(m) @ w
    labels = np.rint(2.0 * (qa[:, np.newaxis] + qb[np.newaxis, :])).ravel()
    order = np.argsort(labels, kind="stable")
    sectors = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)

    outside = rotated.copy()
    for idx in sectors:
        outside[np.ix_(idx, idx)] = 0.0
    leak = float(np.linalg.norm(outside))
    del outside
    if leak > stop:
        raise NumericalError(
            f"charge does not split the operator: off-sector norm {leak:.3e} "
            f"exceeds {stop:.3e} (commutator norm {commutator:.3e})"
        )

    values = np.empty(n)
    vectors = np.empty((n, n), dtype=np.complex128)
    sweeps = 0
    for idx in sectors:
        block = _symmetrized(rotated[np.ix_(idx, idx)])
        block_values, block_vectors, block_sweeps = _jacobi(
            block, tol * frobenius_norm(block), max_sweeps
        )
        values[idx] = block_values
        vectors[:, idx] = w[:, idx] @ block_vectors
        sweeps = max(sweeps, block_sweeps)
    return values, vectors, sweeps, leak, commutator


def _finish(
    m: np.ndarray,
    values: np.ndarray,
    vectors: np.ndarray,
    sweeps: int,
    leak: float = 0.0,
    commutator: float = 0.0,
) -> EigDecomposition:
    """Sort ascending, pin phases and measure residuals against ``m``."""
    n = m.shape[0]
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = vectors[:, order].copy()
    for k in range(n):
        col = vectors[:, k]
        lead = int(np.argmax(np.abs(col)))
        mag = abs(col[lead])
        if mag > 0.0:
            vectors[:, k] = col * (col[lead].conjugate() / mag)
    if n:
        deltas = m @ vectors - vectors * values[np.newaxis, :]
        residual = float(np.max(np.linalg.norm(deltas, axis=0)))
    else:
        residual = 0.0
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigDecomposition(
        values=values,
        vectors=vectors,
        residual=residual,
        sweeps=sweeps,
        leak=leak,
        commutator=commutator,
    )


def hermitian_eig(
    m: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    charge: tuple[np.ndarray, np.ndarray] | None = None,
) -> EigDecomposition:
    """Diagonalize a Hermitian matrix with cyclic complex Jacobi sweeps.

    Stops once the off-diagonal Frobenius norm is <= tol * ||m||_F; raises
    :class:`ConvergenceError` if that does not happen within ``max_sweeps``
    full sweeps.  Pivots already below the stop threshold scaled by 1/(10 n)
    are skipped; the convergence check always measures the true remaining
    off-diagonal mass, so skipping never masks a miss.  Inputs within the
    hermiticity tolerance are symmetrized once on entry; the reported
    residual is still taken against the original matrix.

    ``charge = (A, B)`` selects the sector route: single-site Hermitian
    factors whose sum A x I + I x B should commute with ``m``.  Both factors
    are diagonalized first, ``m`` is rotated into the product of their
    eigenbases and split into sectors of equal rounded charge 2(qa + qb),
    and each sector is diagonalized on its own, to tol times its own norm
    and within ``max_sweeps`` sweeps.  The rotated mass outside the sectors
    is reported as ``leak`` and ``||[m, A x I + I x B]||_F`` as
    ``commutator``; a leak above tol * ||m||_F raises
    :class:`NumericalError`, so a wrong charge is never trusted.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"eigensolver needs a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be non-negative, got {max_sweeps}")
    require_hermitian(m, tol)

    stop = tol * frobenius_norm(m)
    if charge is None:
        return _finish(m, *_jacobi(_symmetrized(m), stop, max_sweeps))
    return _finish(m, *_sector_jacobi(m, charge, tol, stop, max_sweeps))


def verify_eigenpair(m: np.ndarray, vector: np.ndarray, value: float) -> float:
    """Scale-free residual ||M v - value * v|| / ||v|| of a claimed pair."""
    m = np.asarray(m)
    vector = np.asarray(vector, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if vector.ndim != 1 or vector.shape[0] != m.shape[0]:
        raise ShapeError(
            f"vector shape {vector.shape} does not match matrix {m.shape}"
        )
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("eigenvector must be non-zero")
    return float(np.linalg.norm(m @ vector - value * vector)) / norm
