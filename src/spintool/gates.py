"""Unitary gates generated by Hermitian two-site operators.

A generator M with eigendecomposition M = V diag(lambda) V^H yields the
gate U(theta) = V diag(exp(-i theta lambda)) V^H.  Real eigenvalues make
U exactly unitary up to rounding, and the group law
U(theta1) U(theta2) = U(theta1 + theta2) holds because all factors share
one eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eig import DEFAULT_MAX_SWEEPS, hermitian_eig
from .hamiltonians import Hamiltonian, HamiltonianKind
from .linalg import (
    DEFAULT_TOL,
    HermiticityError,
    NumericalError,
    ShapeError,
    frobenius_norm,
    require_square,
)
from .spin import HalfInteger

__all__ = [
    "Gate",
    "synthesize_gate",
    "apply_gate",
    "gate_fidelity",
    "gate_eigenphases",
    "unitarity_residual",
]

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Gate:
    """A synthesized unitary with the data that produced it.

    ``source_values`` are the generator's eigenvalues (ascending); they
    determine the gate's eigenphases -theta * lambda modulo 2 pi.
    ``unitarity_residual`` is ||U^H U - I||_F as measured at synthesis, or
    None for a gate assembled by hand.
    """

    theta: float
    kind: HamiltonianKind
    spin: HalfInteger
    matrix: np.ndarray
    source_values: np.ndarray
    unitarity_residual: float | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def synthesize_gate(
    h: Hamiltonian,
    theta: float,
    eig_tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> Gate:
    """Build U(theta) = exp(-i theta M) from a Hermitian generator.

    Rejects carriers whose computed hermiticity flag is false.  A carrier
    with a conserved charge is diagonalized sector by sector.  The result
    is checked against ||U^H U - I|| <= 1e-10 * dim before being returned;
    a NaN gate, from theta * lambda overflowing, fails that check too.
    """
    if not isinstance(theta, (int, float)) or not np.isfinite(theta):
        raise ValueError(f"theta must be a finite real number, got {theta!r}")
    if not h.hermitian:
        raise HermiticityError(
            "gate synthesis needs a Hermitian generator; this carrier's "
            "hermiticity flag is false"
        )
    dec = hermitian_eig(h.matrix, eig_tol, max_sweeps, charge=h.charge)
    # theta * lambda can overflow; the gate is then NaN and fails the bound below
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * float(theta) * dec.values)
        u = (dec.vectors * phases[np.newaxis, :]) @ dec.vectors.conj().T
        residual = unitarity_residual(u)
    if not residual <= UNITARITY_TOL * u.shape[0]:
        raise NumericalError(
            f"synthesized gate failed the unitarity bound: {residual:.3e}"
        )
    u.flags.writeable = False
    return Gate(
        theta=float(theta),
        kind=h.kind,
        spin=h.s,
        matrix=u,
        source_values=dec.values,
        unitarity_residual=residual,
    )


def apply_gate(gate: Gate, state: np.ndarray) -> np.ndarray:
    """Apply the gate to a state vector; preserves the euclidean norm."""
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim != 1 or state.shape[0] != gate.dimension:
        raise ShapeError(
            f"state shape {state.shape} does not match gate dimension {gate.dimension}"
        )
    return gate.matrix @ state


def gate_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|tr(a^H b)| / dim; equals 1 exactly for unitaries equal up to phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected equal square shapes, got {a.shape} and {b.shape}")
    return float(abs(np.trace(a.conj().T @ b))) / a.shape[0]


def gate_eigenphases(gate: Gate) -> np.ndarray:
    """Eigenphases -theta * lambda reduced to [0, 2 pi), ascending."""
    phases = np.mod(-gate.theta * gate.source_values, 2.0 * np.pi)
    # mod rounds a tiny negative phase up to 2 pi itself, which is phase 0
    phases[phases == 2.0 * np.pi] = 0.0
    return np.sort(phases)


def unitarity_residual(u: np.ndarray) -> float:
    """||u^H u - I|| in the Frobenius norm."""
    u = require_square(u, "expected a square matrix")
    return frobenius_norm(u.conj().T @ u - np.eye(u.shape[0]))
