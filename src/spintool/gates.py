"""Unitary gates generated by Hermitian two-site operators.

A generator M with eigendecomposition M = V diag(lambda) V^H yields the
gate U(theta) = V diag(exp(-i theta lambda)) V^H.  Real eigenvalues make
U exactly unitary up to rounding, and the group law
U(theta1) U(theta2) = U(theta1 + theta2) holds because all factors share
one eigenbasis.  The generator's hermiticity is checked once, by
:func:`eig.hermitian_eig`.

Both products of a gate follow the blocks of the generator's nonzero
pattern (see :class:`linalg.Blocks`), the blocks of the eigendecomposition's
``vector_blocks``.  U is the direct sum of the blocks
V_b diag(exp(-i theta lambda_b)) V_b^H, taken on the zero-padded stack of
the vectors' blocks, and U^H U - I is taken on that same stack.  U stays a
stack too, the :class:`linalg.BlockStack` ``Gate.matrix_blocks``:
``Gate.matrix``, the dense array, is scattered only when it is first read,
and the command line writes U's rows from its blocks.  H, which conserves
total S3, splits into 4s+1 blocks, 49 of width at most 25 at 2s = 24, where
97% of its gate is exact zeros, so neither its vectors nor its gate is ever
an n x n array unless a caller reads one; K's pattern is one component, one
block whose stack is the matrix itself, so its gate costs the dense
products.  Each operand of the products is dropped once it is used, so K's
gate at the cap peaks no higher than its eigensolve.
:func:`unitarity_residual`, for a matrix built by hand, takes the dense
product, with no walk of its pattern.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .eig import hermitian_eig
from .hamiltonians import Hamiltonian, HamiltonianKind
from .linalg import (
    Blocks,
    BlockStack,
    NumericalError,
    frobenius_norm,
    require_square,
)
from .spin import HalfInteger

__all__ = [
    "Gate",
    "synthesize_gate",
    "gate_eigenphases",
    "unitarity_residual",
]

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Gate:
    """A synthesized unitary with the data that produced it.

    ``source_values`` are the generator's eigenvalues (ascending); they
    determine the gate's eigenphases -theta * lambda modulo 2 pi.
    ``unitarity_residual`` is ||U^H U - I||_F as measured at synthesis, and
    ``source_residual`` the generator's eigenpair residual, the decomposition's
    largest ||M v - lambda v||; each is None for a gate assembled by hand.
    ``matrix_blocks`` holds U as the :class:`linalg.BlockStack` of its
    blocks, rows and columns alike, and ``matrix`` reads the read-only
    complex128 dense array, built on its first read.  A gate assembled by
    hand gives ``BlockStack.of(matrix)``, one block.
    """

    theta: float
    kind: HamiltonianKind
    spin: HalfInteger
    matrix_blocks: BlockStack
    source_values: np.ndarray
    unitarity_residual: float | None = None
    source_residual: float | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self.matrix_blocks.dense

    @property
    def dimension(self) -> int:
        return self.matrix_blocks.shape[0]


def synthesize_gate(h: Hamiltonian, theta: float) -> Gate:
    """Build U(theta) = exp(-i theta M) from a Hermitian generator.

    :func:`eig.hermitian_eig`, given the carrier's charge, is the one check
    of the generator, at the eigensolver's constant ``eig.DEFAULT_TOL``: a
    matrix that is not Hermitian raises :class:`HermiticityError` and a
    non-finite one ValueError.  U is the direct sum of the gates of the
    blocks of the decomposition's ``vector_blocks``: the components of the
    generator's pattern, or the one block of every index, whose gate is the
    dense product; the gate holds U as that stack (see :class:`Gate`).
    ||U^H U - I||, taken on the same blocks, is checked against
    1e-10 * dim before U is returned; a NaN gate, from theta * lambda
    overflowing, fails that check too.  ``theta`` may be any finite
    :class:`numbers.Real`, NumPy's real scalars and ``Fraction`` included,
    whose float is finite too; the gate is that of ``float(theta)``, and
    ``Gate.theta`` that float.  ``h`` must be a :class:`Hamiltonian`, which
    carries the generator's charge, spin and kind; anything else raises
    TypeError.
    """
    if not isinstance(h, Hamiltonian):
        raise TypeError(f"the generator must be a Hamiltonian, got {type(h).__name__}")
    try:
        finite = isinstance(theta, numbers.Real) and math.isfinite(theta)
    except OverflowError:  # an int or a Fraction beyond double precision
        finite = False
    if not finite:
        raise ValueError(f"theta must be a finite real number, got {theta!r}")
    dec = hermitian_eig(h.matrix, charge=h.charge)
    values, source_residual, vectors = dec.values, dec.residual, dec.vector_blocks
    # the vectors' stack is all the gate needs, and no dense array of them
    # is built; it goes once it is used
    v, rows, columns = vectors.stack, vectors.rows, vectors.columns
    del dec, vectors
    # theta * lambda can overflow; the gate is then NaN and fails the bound below
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * float(theta) * values)
        # padding columns of v are 0 and take the phase of index 0; a NaN
        # phase there makes the blocks NaN, as it makes the dense product
        # NaN, and either fails the bound below.  Each operand goes as soon
        # as it is used, so that at most three stacks are alive at a time
        adjoints = _adjoints(v)
        scaled = v * phases[columns.members][:, np.newaxis, :]
        del v
        stack = scaled @ adjoints
        del scaled, adjoints
        residual = _gram_residual(stack, rows)
    if not residual <= UNITARITY_TOL * values.size:
        raise NumericalError(
            f"synthesized gate failed the unitarity bound: {residual:.3e}"
        )
    return Gate(
        theta=float(theta),
        kind=h.kind,
        spin=h.s,
        matrix_blocks=BlockStack(stack, rows, rows),
        source_values=values,
        unitarity_residual=residual,
        source_residual=source_residual,
    )


def gate_eigenphases(gate: Gate) -> np.ndarray:
    """Eigenphases -theta * lambda reduced to [0, 2 pi), ascending.

    ``gate`` must be a :class:`Gate`; anything else raises TypeError.
    """
    if not isinstance(gate, Gate):
        raise TypeError(f"the gate must be a Gate, got {type(gate).__name__}")
    phases = np.mod(-gate.theta * gate.source_values, 2.0 * np.pi)
    # mod rounds a tiny negative phase up to 2 pi itself, which is phase 0
    phases[phases == 2.0 * np.pi] = 0.0
    return np.sort(phases)


def unitarity_residual(u: np.ndarray) -> float:
    """||u^H u - I|| in the Frobenius norm, from the dense product.

    A NaN entry makes the residual NaN.
    """
    u = require_square(u, "expected a square matrix")
    return frobenius_norm(u.conj().T @ u - np.eye(u.shape[0]))


def _gram_residual(stack: np.ndarray, blocks: Blocks) -> float:
    """||U^H U - I||_F for U the direct sum of ``stack``, the diagonal
    blocks of U over ``blocks``, zero in their padding."""
    gram = _adjoints(stack) @ stack
    diagonal = np.arange(gram.shape[-1])
    # the identity of each block, not of its padding
    gram[:, diagonal, diagonal] -= blocks.filled
    return frobenius_norm(gram)


def _adjoints(stack: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix of a stack."""
    return stack.conj().transpose(0, 2, 1)
