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
Q = A x I + I x B that commutes with M, the solver diagonalizes A and B (size
at most 2s + 1), rotates M into the product basis W = Va x Vb and labels each
basis vector by its rounded charge 2(qa + qb).  M' = W^H M W, symmetrized
once, is then block diagonal over equal labels, so each sector (size at most
2s + 1 for the exchange operators) is an exactly Hermitian block,
diagonalized on its own, whose vectors are mapped back through W.  Nothing
about the charge is assumed: the commutator ||[M, Q]||_F and the leak, the
norm of M' outside the sectors, are measured and reported, and a leak above
the full route's stop threshold tol * ||M||_F is an error.  Both routes end
in the same sorting, phase pinning and residual check against the original M.

The sector blocks go to ``_jacobi_stack`` as a plain list, each with its
own stop.  It zero-pads them into one private stack and sweeps them
together: each pivot (p, q) is one vectorized update of every block that
still needs it, so a sweep costs one pass over the widest block's pivots
instead of one per block.  Every block still sees exactly the rotation
sequence the scalar solver would give it alone (pivot order, skip
threshold, stop test and sweep count), so only rounding differs.  The
scalar solver stays for the full route and the charge factors: on a single
block the stack's vectorized step costs more than the scalar one, and it
is the reference the stack is tested against.
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
    require_square,
)

__all__ = [
    "ConvergenceError",
    "EigDecomposition",
    "hermitian_eig",
    "verify_eigenpair",
]

DEFAULT_MAX_SWEEPS = 100

# Charge factors are solved to rounding level, within the default sweep
# budget, whatever the caller's tol and max_sweeps: an eigenvector error d
# in them shows up as off-sector mass of about d * ||m||, which would
# otherwise compete with the leak bound itself.
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
    a = np.asarray(m, dtype=np.complex128)
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
    skip = stop / (10.0 * max(n, 1))  # an empty matrix has no pivots
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


def _site_eig(f: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    if not np.isfinite(f).all():
        raise ValueError("charge factor entries must be finite")
    require_hermitian(f, tol)
    stop = _SITE_TOL * frobenius_norm(f)
    values, vectors, _ = _jacobi(_symmetrized(f), stop, DEFAULT_MAX_SWEEPS)
    return values, vectors


def _jacobi_stack(
    blocks: list[np.ndarray], stops: list[float], max_sweeps: int
) -> list[tuple[np.ndarray, np.ndarray, int, float]]:
    """Cyclic Jacobi sweeps on a list of exactly Hermitian blocks at once.

    Each block gets the rotations :func:`_jacobi` would apply to it alone
    with its stop: the same row-major pivot order, skip threshold and stop
    test at the start of every sweep, after which a converged block takes
    no further rotations.  Each pivot (p, q) is applied to every block that
    still needs it in one vectorized step; the others, and every block
    narrower than q + 1, are left untouched.

    Returns, per block and in input order, its unsorted diagonal, its
    accumulated rotations, its completed sweeps and its off-diagonal norm on
    exit; a norm still above its stop means that block ran out of
    ``max_sweeps``.  The blocks are not modified.
    """
    sizes = np.array([block.shape[0] for block in blocks])
    # widest blocks first, so those that reach column q are a leading slice
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    stops = np.asarray(stops)[order]
    skip = stops / (10.0 * sizes)
    count, width = sizes.size, int(sizes[0])
    wider_than = (sizes[:, np.newaxis] > np.arange(width)).sum(axis=0)
    # [A | V^H], zero-padded to the widest block: the row update A <- J^H A
    # also gives V^H <- J^H V^H, and the column update A <- A J copies the
    # conjugated rows by hermiticity
    aug = np.zeros((count, width, 2 * width), dtype=np.complex128)
    for j, k in enumerate(order):
        aug[j, : sizes[j], : sizes[j]] = blocks[k]
    aug[:, np.arange(width), width + np.arange(width)] = 1.0
    stack = aug[:, :, :width]
    off_mask = ~np.eye(width, dtype=bool)
    sweeps = np.zeros(count, dtype=int)

    for done in range(max_sweeps + 1):
        off = np.linalg.norm(stack * off_mask, axis=(1, 2))
        running = off > stops
        if done == max_sweeps or not running.any():
            break
        reach = int(sizes[running].max())
        for p in range(reach - 1):
            for q in range(p + 1, reach):
                k = wider_than[q]
                x = aug[:k]
                pivot = x[:, p, q]
                b = np.abs(pivot)
                act = running[:k] & (b > skip[:k])
                idle = ~act
                if idle.all():
                    continue
                b[idle] = 1.0
                app = x[:, p, p].real
                aqq = x[:, q, q].real
                tau = (aqq - app) / (2.0 * b)
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                e = pivot.conj() / b
                # idle blocks get the identity rotation c = 1, s = 0, e = 1
                t[idle] = 0.0
                e[idle] = 1.0
                # (J^H A J)[p, p] and [q, q] in closed form
                new_pp = app - t * b
                new_qq = aqq + t * b
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (t * c)[:, np.newaxis]
                c = c[:, np.newaxis]
                e = e[:, np.newaxis]
                row_p = x[:, p].copy()
                row_q = x[:, q]
                x[:, p] = c * row_p - (s * e).conj() * row_q
                x[:, q] = s * row_p + (c * e).conj() * row_q
                x[:, p, p] = new_pp
                x[:, q, q] = new_qq
                x[act, p, q] = 0.0
                x[:, :, p] = x[:, p, :width].conj()
                x[:, :, q] = x[:, q, :width].conj()
        sweeps[running] += 1

    diagonals = np.diagonal(stack, axis1=1, axis2=2).real
    vectors = aug[:, :, width:].conj().transpose(0, 2, 1)
    back = np.argsort(order)
    return [
        (diagonals[j, :n], vectors[j, :n, :n], int(sweeps[j]), float(off[j]))
        for j, n in zip(back, sizes[back])
    ]


def _mode(t: np.ndarray, f: np.ndarray, axis: int) -> np.ndarray:
    """Contract index ``axis`` of ``t`` with the rows of ``f``, in place of it."""
    return np.moveaxis(np.tensordot(t, f, axes=(axis, 0)), -1, axis)


def _split_sectors(
    m: np.ndarray, charge, tol: float, stop: float
) -> tuple[np.ndarray, dict[int, np.ndarray], list[np.ndarray], float, float]:
    """Rotate ``m`` into the eigenbasis W of A x I + I x B and split it.

    Returns W, the basis indices of each sector keyed by its charge label
    2(qa + qb) in ascending order, each sector's block of the rotated
    matrix, which is symmetrized once as a whole, the leak and the
    commutator norm.
    """
    a_site, b_site = (require_square(f, "charge factors must be square") for f in charge)
    n = m.shape[0]
    if a_site.shape[0] * b_site.shape[0] != n:
        raise ShapeError(
            f"charge factors of sizes {a_site.shape[0]} and {b_site.shape[0]} do "
            f"not factor the dimension {n}"
        )
    qa, va = _site_eig(a_site, tol)
    qb, vb = _site_eig(b_site, tol)
    # m as a 4-tensor (a, b, c, d), rows (a, b) and columns (c, d): a
    # product with A x I or I x B contracts one index with a single-site
    # factor, at a fraction of the cost of a dense n x n product
    shape = (qa.size, qb.size, qa.size, qb.size)
    t = m.reshape(shape)
    commutator = float(
        np.linalg.norm(
            (_mode(t, a_site, 2) - _mode(t, a_site.T, 0))
            + (_mode(t, b_site, 3) - _mode(t, b_site.T, 1))
        )
    )
    rotated = _mode(_mode(_mode(_mode(t, va, 2), vb, 3), va.conj(), 0), vb.conj(), 1)
    rotated = _symmetrized(rotated.reshape(n, n))
    w = np.kron(va, vb)
    labels = np.rint(2.0 * (qa[:, np.newaxis] + qb[np.newaxis, :])).ravel()
    order = np.argsort(labels, kind="stable")
    sectors = {
        int(labels[idx[0]]): idx
        for idx in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    }

    leak = float(np.linalg.norm(rotated[labels[:, np.newaxis] != labels]))
    if leak > stop:
        raise NumericalError(
            f"charge does not split the operator: off-sector norm {leak:.3e} "
            f"exceeds {stop:.3e} (commutator norm {commutator:.3e})"
        )
    blocks = [rotated[np.ix_(idx, idx)] for idx in sectors.values()]
    return w, sectors, blocks, leak, commutator


def _sector_jacobi(
    m: np.ndarray, charge, tol: float, stop: float, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray, int, float, float]:
    """Jacobi on all sectors of ``m`` at once, each to tol times its own norm."""
    w, sectors, blocks, leak, commutator = _split_sectors(m, charge, tol, stop)
    stops = [tol * frobenius_norm(block) for block in blocks]
    solved = _jacobi_stack(blocks, stops, max_sweeps)
    n = m.shape[0]
    values = np.empty(n)
    vectors = np.empty((n, n), dtype=np.complex128)
    for (label, idx), block_stop, (diagonal, rotations, _, off) in zip(
        sectors.items(), stops, solved
    ):
        if off > block_stop:
            raise ConvergenceError(
                f"sector of charge 2(qa+qb) = {label} (width {idx.size}): "
                f"off-diagonal norm {off:.3e} still above {block_stop:.3e} "
                f"after {max_sweeps} sweeps"
            )
        values[idx] = diagonal
        vectors[:, idx] = w[:, idx] @ rotations
    return values, vectors, max(sweeps for _, _, sweeps, _ in solved), leak, commutator


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
    hermiticity tolerance are symmetrized once, on entry (full route) or once
    rotated into the charge basis (sector route); the reported residual is
    still taken against the original matrix.

    ``charge = (A, B)`` selects the sector route: single-site Hermitian
    factors whose sum A x I + I x B should commute with ``m``.  Both factors
    are diagonalized first, ``m`` is rotated into the product of their
    eigenbases and split into sectors of equal rounded charge 2(qa + qb),
    and each sector is diagonalized on its own, to tol times its own norm
    and within ``max_sweeps`` sweeps; a sector that runs out is named by
    its charge label in the :class:`ConvergenceError`.  The rotated mass
    outside the sectors is reported as ``leak`` and
    ``||[m, A x I + I x B]||_F`` as ``commutator``; a leak above
    tol * ||m||_F raises :class:`NumericalError`, so a wrong charge is never
    trusted.  A matrix whose Frobenius norm overflows raises
    :class:`NumericalError` on either route, since no stop threshold can be
    derived from it.
    """
    m = require_square(m, "eigensolver needs a square matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be non-negative, got {max_sweeps}")
    require_hermitian(m, tol)

    with np.errstate(over="ignore"):
        norm = frobenius_norm(m)
    if not math.isfinite(norm):
        raise NumericalError(
            "the Frobenius norm of the matrix overflows; rescale its entries"
        )
    stop = tol * norm
    if charge is None:
        return _finish(m, *_jacobi(_symmetrized(m), stop, max_sweeps))
    return _finish(m, *_sector_jacobi(m, charge, tol, stop, max_sweeps))


def verify_eigenpair(m: np.ndarray, vector: np.ndarray, value: float) -> float:
    """Scale-free residual ||M v - value * v|| / ||v|| of a claimed pair."""
    m = require_square(m, "expected a square matrix")
    vector = np.asarray(vector, dtype=np.complex128)
    if vector.ndim != 1 or vector.shape[0] != m.shape[0]:
        raise ShapeError(
            f"vector shape {vector.shape} does not match matrix {m.shape}"
        )
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("eigenvector must be non-zero")
    return float(np.linalg.norm(m @ vector - value * vector)) / norm
