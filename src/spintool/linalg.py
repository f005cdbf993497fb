"""Dense complex matrix helpers shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype ``complex128`` in
row-major (C) element order; ``require_square`` is the package's one check
that a lone matrix argument is square.  Every function here is pure: inputs
are never mutated, and arrays returned by constructors are marked read-only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "ShapeError",
    "NumericalError",
    "HermiticityError",
    "as_cmatrix",
    "require_square",
    "identity",
    "matmul",
    "kron",
    "adjoint",
    "trace",
    "commutator",
    "frobenius_norm",
    "frobenius_distance",
    "hermiticity_defect",
    "require_hermitian",
]

DEFAULT_TOL = 1e-12


class ShapeError(ValueError):
    """Operands have missing, non-2-D, or incompatible dimensions."""


class NumericalError(ArithmeticError):
    """A numerical contract (hermiticity, convergence, unitarity) failed."""


class HermiticityError(NumericalError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


def as_cmatrix(entries) -> np.ndarray:
    """Validate *entries* as a finite 2-D complex matrix.

    Returns a fresh read-only ``complex128`` array in C order.  Raises
    :class:`ShapeError` for non-2-D input and :class:`ValueError` for
    non-finite entries.
    """
    m = np.array(entries, dtype=np.complex128, order="C")
    if m.ndim != 2 or 0 in m.shape:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not (np.isfinite(m.real).all() and np.isfinite(m.imag).all()):
        raise ValueError("matrix entries must be finite")
    m.flags.writeable = False
    return m


def require_square(a, what: str) -> np.ndarray:
    """``np.asarray(a)``, or :class:`ShapeError` "<what>, got shape <shape>"."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what}, got shape {a.shape}")
    return a


def identity(n: int) -> np.ndarray:
    """n-by-n complex identity matrix."""
    if n < 1:
        raise ShapeError(f"identity size must be positive, got {n}")
    return np.eye(n, dtype=np.complex128)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b with an explicit inner-dimension check."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; row blocks follow the first operand's indices.

    Entry ((i*p)+k, (j*q)+l) equals a[i, j] * b[k, l] for b of shape (p, q).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("kron operands must be 2-D")
    return np.kron(a, b)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError("adjoint operand must be 2-D")
    return a.conj().T


def trace(a: np.ndarray) -> complex:
    """Sum of the diagonal; defined for square matrices only."""
    return complex(np.trace(require_square(a, "trace needs a square matrix")))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b - b @ a for equal square shapes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"commutator needs equal square shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, sqrt(sum |a_ij|^2)."""
    return float(np.linalg.norm(np.asarray(a)))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b for equal shapes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(a: np.ndarray) -> float:
    """Frobenius norm of a - adjoint(a).

    Taken from the parts, sqrt(||Re a - Re a^T||^2 + ||Im a + Im a^T||^2),
    so no complex temporary is built; a real matrix has no second term.  A
    NaN or an infinity in ``a`` gives a NaN or infinite defect, silently.
    """
    a = require_square(a, "hermiticity is defined for square matrices")
    with np.errstate(invalid="ignore", over="ignore"):
        defect = float(np.linalg.norm(a.real - a.real.T))
        if np.iscomplexobj(a):
            defect = math.hypot(defect, float(np.linalg.norm(a.imag + a.imag.T)))
    return defect


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`HermiticityError` unless the defect is <= tol * dim.

    A matrix holding NaN has a NaN defect, which is not <= any bound.
    """
    defect = hermiticity_defect(a)
    bound = tol * np.asarray(a).shape[0]
    if not defect <= bound:
        raise HermiticityError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {bound:.3e}"
        )
