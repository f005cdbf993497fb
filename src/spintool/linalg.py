"""Matrix checks, error types and block helpers shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` values.  ``require_square`` is
the package's one check that a lone matrix argument is square, and
:func:`hermiticity_defect` measures ||a - a^H||_F in one walk over blocks
of rows, each scaled by its own power of two, so that neither the squares
of tiny differences nor those of huge ones leave the range of a double.
No function here writes into its arguments, but for the ``out`` of
:meth:`Blocks.scatter`.

The block helpers at the end, which are not exported, are the package's one
home for a matrix's nonzero pattern.  :func:`components` labels the
connected components of the pattern, with no Python loop per link, and
measures its half-bandwidth, which bounds the band of a power.
:func:`gauge` takes the same walk with a parity per link and so decides,
for the moments and the eigensolver alike, the arithmetic of a Hermitian
matrix, and hands back the array that they power or sweep: its real form
D^H m D for a diagonal D of ones and i's where that is exact, as for H and
K, else a complex128 copy.  :class:`Blocks` gathers a matrix's diagonal
blocks, one per component, into a zero-padded stack of shape (count, width,
width) and scatters such a stack back into a dense array.
A product over a pattern that splits, such as that of H, which conserves
total S3, then costs count * width^3 instead of n^3: 49 blocks of width at
most 25 instead of one of 625 at 2s = 24.  A pattern that does not split,
such as K's, is one block, whose stack is a view of the matrix.
The eigensolver's vectors keep to the blocks of the pattern it splits by
construction, so products with them are taken blockwise too.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "ShapeError",
    "NumericalError",
    "HermiticityError",
    "require_square",
    "frobenius_norm",
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


def require_square(a, what: str) -> np.ndarray:
    """``np.asarray(a)``, or :class:`ShapeError` "<what>, got shape <shape>"."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what}, got shape {a.shape}")
    return a


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, sqrt(sum |a_ij|^2)."""
    return float(np.linalg.norm(np.asarray(a)))


def _difference_blocks(a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """a - a^H over the upper block triangle of a, as float64 views.

    Rows are taken in blocks of about 2^14 entries.  Each block gives the
    differences on its rows right of the diagonal, in one view, and that
    view's two parts: the block's diagonal part, which holds both entries of
    each mirrored pair, and the rest of its rows, whose entries stand for
    two.  All three are views of one buffer, which the next block overwrites.
    """
    n = a.shape[0]
    step = max(1, (1 << 14) // max(n, 1))
    buffer = np.empty(step * n, dtype=a.dtype)
    for i in range(0, n, step):
        j = min(i + step, n)
        whole = buffer[: (j - i) * (n - i)]
        inside = whole[: (j - i) ** 2].reshape(j - i, j - i)
        right = whole[(j - i) ** 2 :].reshape(j - i, n - j)
        np.subtract(a[i:j, i:j], a[i:j, i:j].T.conj(), out=inside)
        np.subtract(a[i:j, j:], a[j:, i:j].T.conj(), out=right)
        yield whole.view(np.float64), inside.view(np.float64), right.view(np.float64)


def hermiticity_defect(a: np.ndarray) -> float:
    """Frobenius norm of a - a^H, with no n x n temporary.

    The differences are taken blockwise (see ``_difference_blocks``), as
    real pairs.  A block whose differences are all +0.0, as every block of a
    Hermitian matrix built exactly is, is found by one reduction over its
    bits and adds nothing.  Any other block is scaled in its buffer by the
    power of two that takes its largest difference into [0.5, 1), which is
    exact but for differences too far below it to move the sum; its norm is
    taken at that scale and scaled back, and the blocks' norms are combined
    by ``math.hypot``.  So the squares neither underflow nor overflow, and a
    defect in the range of a double never reads 0 or inf.  A NaN or an
    infinity in ``a`` gives a NaN or infinite defect, silently.
    """
    a = require_square(a, "hermiticity is defined for square matrices")
    a = a.astype(np.result_type(a, np.float64), copy=False)  # no integer squares
    defect = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for whole, inside, right in _difference_blocks(a):
            if not whole.view(np.uint64).max():
                continue
            # the peak is NaN in a block that holds one: max and min both return it
            shift = math.frexp(max(whole.max(), -whole.min()))[1]
            np.ldexp(whole, -shift, out=whole)
            part = math.sqrt(np.vdot(inside, inside) + 2 * np.vdot(right, right))
            defect = math.hypot(defect, np.ldexp(part, shift))
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


def components(
    m: np.ndarray, odd: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """A connected-component label and a 0/1 parity per index of square m,
    and the pattern's half-bandwidth.

    i and j are linked when m[i, j] or m[j, i] is nonzero; a NaN counts as
    nonzero.  The half-bandwidth is the largest |i - j| of a link, 0 for
    none.  Components are labelled 0, 1, ... in the order of their lowest
    index.  ``odd(i, j)`` takes the two index arrays of the links (i != j)
    and marks some of them; the parity of an index is the number, mod 2, of
    marked links along some path to it from its component's lowest index.
    It is 0 everywhere without ``odd``, and the same for every path exactly
    when no cycle holds an odd number of marked links.

    The walk is label propagation with pointer jumping: in each round every
    index takes the least (label, parity) that it and its neighbours offer,
    labels starting as the indices themselves, and then jumps to its
    label's label.  After r rounds an index's label is at most the lowest
    index within r links of it, so the walk ends, when no label changes,
    after at most the widest component's diameter plus one rounds; jumping
    makes it far fewer (5 for H at 2s = 24, whose sectors are paths of up
    to 25 indices).  Each round is a few numpy calls over the links.
    """
    n = m.shape[0]
    linked = m != 0
    # not in place: |= with its own transpose takes numpy's slow overlap path
    linked = linked | linked.T
    # every index offers itself, so every row holds a link
    linked[np.diag_indices(n)] = True
    rows, cols = np.divmod(np.flatnonzero(linked), n)
    reach = int(np.abs(rows - cols).max(initial=0))
    first = np.searchsorted(rows, np.arange(n))
    flips = np.zeros(rows.size, dtype=np.intp)
    if odd is not None:
        other = rows != cols
        flips[other] = odd(rows[other], cols[other])
    # an index holds its (label, parity) as 2 label + parity, so that the
    # least code offered to it carries the least label
    code = 2 * np.arange(n)
    while n:
        offer = np.minimum.reduceat(code[cols] ^ flips, first)
        # jump to the label's label, through the label: 2 label[label] +
        # (parity of the step there ^ parity of the path to the label)
        jumped = offer[offer >> 1] ^ (offer & 1)
        done = np.array_equal(jumped >> 1, code >> 1)
        code = jumped
        if done:
            break
    label, parity = code >> 1, code & 1
    roots = np.flatnonzero(label == np.arange(n))
    return np.searchsorted(roots, label), parity, reach


def gauge(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """A component label and a 0/1 colour per index of m, the matrix to
    sweep or power and the half-bandwidth of its pattern, from one walk.

    The matrix is the real form D^H m D for D = i^colour as a new float64
    array where that is exact, else a new complex128 copy of m, with every
    colour 0.  A link of :func:`components` whose entries m[i, j] and
    m[j, i] both have zero real part flips the colour.  Conjugating by D
    only moves signs and swaps parts, so the form is exact when every purely
    imaginary entry links opposite colours and every purely real one equal
    colours; an entry with both parts nonzero, or a cycle of an odd number
    of imaginary links, leaves none.  Input with no imaginary part has
    colour 0, with no parity test, and its real part.
    """
    imaginary = np.iscomplexobj(m) and m.imag.any()
    real = m.real

    def odd(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return (real[i, j] == 0) & (real[j, i] == 0)

    label, colour, reach = components(m, odd if imaginary else None)
    colour = colour.astype(np.int8)  # so that the shifts below are one byte each
    if not imaginary:
        return label, colour, np.array(real, dtype=np.float64), reach
    shift = colour[:, None] - colour[None, :]
    if np.any(m.imag, where=shift == 0) or np.any(real, where=shift != 0):
        return label, np.zeros_like(colour), np.array(m, dtype=np.complex128), reach
    form = np.multiply(shift, m.imag, dtype=np.float64)
    form += real
    return label, colour, form, reach


@dataclass(frozen=True)
class Blocks:
    """Index sets labelled 0, 1, ..., count - 1, zero-padded to one width.

    Row b of ``members`` lists the indices labelled b in ascending order in
    its first slots, which ``filled`` marks; the other slots hold index 0
    and contribute only zeros.  Build it with :meth:`of`.
    """

    members: np.ndarray
    filled: np.ndarray

    @classmethod
    def of(cls, label: np.ndarray) -> Blocks:
        """The blocks of a label per index, or one block where stacking cannot pay.

        That is when there are fewer than two labels, or when the stack of
        shape (count, width, width) would hold more entries than the n x n
        matrix, width being the largest label count.  The one block holds
        every index in order, none for n = 0.
        """
        n = label.size
        sizes = np.bincount(label)
        count, width = sizes.size, int(sizes.max(initial=0))
        if count < 2 or count * width * width > n * n:
            return cls(np.arange(n)[np.newaxis], np.ones((1, n), dtype=bool))
        filled = np.arange(width) < sizes[:, None]
        members = np.zeros((count, width), dtype=np.intp)
        members[filled] = np.argsort(label, kind="stable")
        return cls(members, filled)

    def stack(self, a: np.ndarray, columns: Blocks | None = None) -> np.ndarray:
        """a's blocks, rows from these blocks and columns from ``columns``.

        ``columns`` defaults to these blocks, which gives a's diagonal
        blocks; it must have the same count and width.  The result has shape
        (count, width, width), zero in the padding.  For one block it is the
        view ``a[np.newaxis]``, so callers must not write into it unless a
        is their own; otherwise it is a new array.
        """
        if self.members.shape[0] == 1:
            return a[np.newaxis]
        if columns is None:
            columns = self
        stack = a[self.members[:, :, None], columns.members[:, None, :]]
        stack[~(self.filled[:, :, None] & columns.filled[:, None, :])] = 0
        return stack

    def places(self) -> np.ndarray:
        """Rows 0 and 1: the block of every index and its slot there."""
        block, slot = np.nonzero(self.filled)
        at = np.empty((2, block.size), dtype=np.intp)
        at[:, self.members[block, slot]] = block, slot
        return at

    def scatter(
        self,
        stack: np.ndarray,
        columns: Blocks | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The n x n array holding ``stack``'s blocks, zero elsewhere.

        Rows come from these blocks and columns from ``columns``, as
        :meth:`stack` takes them, so this is its inverse for a matrix with
        no nonzero outside the blocks; the padding of ``stack`` is not read.
        Given ``out``, the blocks are written into it and its other entries
        kept.  Else, for one block, it is the view ``stack[0]``.
        """
        if columns is None:
            columns = self
        if self.members.shape[0] == 1 and out is None:
            return stack[0]
        inside = self.filled[:, :, None] & columns.filled[:, None, :]
        rows = np.broadcast_to(self.members[:, :, None], inside.shape)[inside]
        cols = np.broadcast_to(columns.members[:, None, :], inside.shape)[inside]
        if out is None:
            n = int(np.count_nonzero(self.filled))
            out = np.zeros((n, n), dtype=stack.dtype)
        out[rows, cols] = stack[inside]
        return out
