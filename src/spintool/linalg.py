"""Matrix checks, error types and block helpers shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` values.  ``require_square`` is
the package's one check that a lone matrix argument is square and
numeric.  No function here takes a tolerance: :func:`require_hermitian`
holds a matrix to ``DEFAULT_TOL`` per dimension.  Its defect,
:func:`hermiticity_defect`, measures ||a - a^H||_F in one walk over
blocks of rows, each scaled by its own power of two, so that neither the
squares of tiny differences nor those of huge ones leave the range of a
double.
The same walk, kept within a half-bandwidth w and its blocks of rows
sized by w, checks the form that :func:`gauge` hands back, which is zero
beyond w, for the moments and the eigensolver.
No function here writes into its arguments, but a :class:`BlockStack`
makes the arrays it is given read-only; what :func:`gauge` and
:meth:`Blocks.stack` hand back may be the argument's own memory, which
callers must not write into.

The block helpers at the end, which are not exported, are the package's one
home for a matrix's nonzero pattern.  :func:`gauge` walks the pattern once,
with no Python loop per link: it labels the connected components, measures
the half-bandwidth, which bounds the band of a power, and keeps a parity
per link, and so decides, for the moments and the eigensolver alike, the
arithmetic of a Hermitian matrix.  It hands back the array that they power
or sweep: its real form D^H m D for a diagonal D of ones and i's where that
is exact, as for H and K, else m as complex128, and it tests and builds
that form on the links it walked.  Where that array holds m's own values,
as H's real part does, it is m's own memory, not a copy.  :class:`Blocks`
gathers a matrix's diagonal blocks, one per component, into a zero-padded
stack of shape (count, width, width).
A product over a pattern that splits, such as that of H, which conserves
total S3, then costs count * width^3 instead of n^3: 49 blocks of width at
most 25 instead of one of 625 at 2s = 24.  A pattern that does not split,
such as K's, is one block, whose stack is a view of the matrix.
The eigensolver's vectors keep to the blocks of the pattern it splits by
construction, so products with them are taken blockwise too.
A :class:`BlockStack` holds such a matrix as its stack and scatters the
dense array, +0.0 off the blocks, only when it is read.  It is the one type
in which a decomposition holds its eigenvectors and a gate its matrix; a
matrix given by hand is held as the one block that :meth:`BlockStack.of`
makes of it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
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

# rows per block of a banded product, taken across the whole stack: of a
# power in the moments and of m v in the eigensolver's residual.  A block
# takes a rectangle _ROWS + b columns wide for a product of band b, so the
# rows are few against K's bands at 2s = 24, 26 to 312: 20 blocks of a
# 625 x 625 matrix, and one block of H's stack, whose width is 2s + 1 <= 25
_ROWS = 32


class ShapeError(ValueError):
    """Operands have missing, non-2-D, or incompatible dimensions."""


class NumericalError(ArithmeticError):
    """A numerical contract (hermiticity, convergence, unitarity) failed."""


class HermiticityError(NumericalError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


def require_square(a, what: str) -> np.ndarray:
    """``np.asarray(a)``, or :class:`ShapeError` "<what>, got shape <shape>",
    or TypeError naming a dtype that is not bool, integer, float or complex,
    as str, bytes, object, datetime64 or timedelta64."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what}, got shape {a.shape}")
    return _require_kind(a, "biufc", "a matrix must be numeric")


def _require_kind(a: np.ndarray, kinds: str, what: str) -> np.ndarray:
    """a, or TypeError "<what>, got dtype <dtype>" where its dtype's kind is
    not one of ``kinds``: "biufc" for a matrix, "biuf" for real values."""
    if a.dtype.kind not in kinds:
        raise TypeError(f"{what}, got dtype {a.dtype}")
    return a


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, sqrt(sum |a_ij|^2), of an array of any shape, a stack
    of blocks too, summed in double precision at least, so that the squares
    of float32 entries do not overflow where the norm is finite.  Squares
    that sum beyond double precision, as 1e308 does alone, give inf, with
    no warning, and squares below the subnormals, as of 1e-170, are lost;
    TypeError for a dtype that :func:`require_square` refuses, as str."""
    a = _require_kind(np.asarray(a), "biufc", "a matrix must be numeric")
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(np.asarray(a, np.result_type(a, np.float64))))


def _difference_blocks(
    a: np.ndarray, reach: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """a - a^H within ``reach`` of the diagonal, over the upper block
    triangle of a, as float64 views; a must be zero beyond reach.

    Rows are taken in blocks of about 2^14 entries: s rows, for the most s
    whose s x min(n, s + reach) rectangle fits, at least one.  Each block
    gives the differences on its rows right of the diagonal and at most
    reach columns right of the block, in one view, and that view's two
    parts: the block's diagonal part, which holds both entries of each
    mirrored pair, and the rest of its rectangle, whose entries stand for
    two.  All three are views of one buffer, which the next block
    overwrites.  For reach = n - 1 the rectangles run to the last column.
    """
    n = a.shape[0]
    reach = max(0, reach)
    # s (s + reach) <= 2^14 below, else s n <= 2^14 where s + reach >= n
    step = max(1, (1 << 14) // max(n, 1), (math.isqrt(reach * reach + (1 << 16)) - reach) // 2)
    buffer = np.empty(step * min(n, step + reach), dtype=a.dtype)
    for i in range(0, n, step):
        j, end = min(i + step, n), min(i + step + reach, n)
        whole = buffer[: (j - i) * (end - i)]
        inside = whole[: (j - i) ** 2].reshape(j - i, j - i)
        right = whole[(j - i) ** 2 :].reshape(j - i, end - j)
        np.subtract(a[i:j, i:j], a[i:j, i:j].T.conj(), out=inside)
        np.subtract(a[i:j, j:end], a[j:end, i:j].T.conj(), out=right)
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

    This is the walk within w = n - 1 of the diagonal, every entry.  The
    moments and the eigensolver walk the form that :func:`gauge` hands
    back only within its half-bandwidth w, beyond which the form is zero,
    so for K at 2s = 24, whose w is 26, their check takes the differences
    of 83,575 pairs of entries, against 203,425 for the whole walk.
    """
    a = require_square(a, "hermiticity is defined for square matrices")
    return _defect(a, a.shape[0] - 1)


def _defect(a: np.ndarray, reach: int) -> float:
    """:func:`hermiticity_defect` of square a, which is zero beyond reach."""
    a = a.astype(np.result_type(a, np.float64), copy=False)  # no integer squares
    defect = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for whole, inside, right in _difference_blocks(a, reach):
            if not whole.view(np.uint64).max():
                continue
            # the peak is NaN in a block that holds one: max and min both return it
            shift = math.frexp(max(whole.max(), -whole.min()))[1]
            np.ldexp(whole, -shift, out=whole)
            part = math.sqrt(np.vdot(inside, inside) + 2 * np.vdot(right, right))
            defect = math.hypot(defect, np.ldexp(part, shift))
    return defect


def require_hermitian(a: np.ndarray) -> None:
    """Raise :class:`HermiticityError` unless the defect is <= DEFAULT_TOL * dim.

    A matrix holding NaN has a NaN defect, which is not <= any bound.
    """
    a = require_square(a, "hermiticity is defined for square matrices")
    _require_hermitian(a, DEFAULT_TOL, a.shape[0] - 1)


def _require_hermitian(a: np.ndarray, tol: float, reach: int) -> None:
    """:func:`require_hermitian` of square a, which is zero beyond reach."""
    defect = _defect(a, reach)
    bound = tol * a.shape[0]
    if not defect <= bound:
        raise HermiticityError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {bound:.3e}"
        )


def gauge(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """A component label and a 0/1 colour per index of square m, the matrix
    to sweep or power and the half-bandwidth of its pattern, from one walk.

    i and j are linked when m[i, j] or m[j, i] is nonzero; a NaN counts as
    nonzero.  The half-bandwidth is the largest |i - j| of a link, 0 for
    none.  Components are labelled 0, 1, ... in the order of their lowest
    index.  A link whose entries m[i, j] and m[j, i] both have zero real
    part flips the colour, which is the number, mod 2, of flips along some
    path to an index from its component's lowest index.

    The matrix is the real form D^H m D for D = i^colour, float64, where
    that is exact, else m as complex128, with every colour 0.  Conjugating
    by D only moves signs and swaps parts, so the form is exact when every
    purely imaginary entry links opposite colours and every purely real one
    equal colours; an entry with both parts nonzero, or a cycle of an odd
    number of imaginary links, leaves none.  Every entry that can fail that
    test lies on a link, so it is taken on the links alone, and the form is
    zero off them.  Input with no imaginary part has colour 0, with no
    flips, and its real part; that, too, is read on the links alone, the
    diagonal among them, since an entry off them is zero in both parts.

    Where the matrix holds m's own values it is m's own memory, not a copy,
    so callers must not write into it: the real part of float64 or
    complex128 input with no imaginary part, and complex128 input with no
    real form.  Other dtypes give a new array, as does a form that D moves.

    The walk is label propagation with pointer jumping: in each round every
    index takes the least (label, colour) that it and its neighbours offer,
    labels starting as the indices themselves, and then jumps to its
    label's label.  After r rounds an index's label is at most the lowest
    index within r links of it, so the walk ends, when no label changes,
    after at most the widest component's diameter plus one rounds; jumping
    makes it far fewer (5 for H at 2s = 24, whose sectors are paths of up
    to 25 indices).  Each round is a few numpy calls over the links.
    """
    n = m.shape[0]
    # the cast tests both parts of a complex entry, in one read, as m != 0
    # does in two; NaN is nonzero to both
    linked = m.astype(bool)
    # the symmetric closure, in place: each nonzero links its transpose too
    rows, cols = np.divmod(np.flatnonzero(linked), n)
    linked[cols, rows] = True
    # every index offers itself, so every row holds a link
    linked[np.diag_indices(n)] = True
    rows, cols = np.divmod(np.flatnonzero(linked), n)
    del linked  # before the form, which is as large
    reach = int(np.abs(rows - cols).max(initial=0))
    first = np.searchsorted(rows, np.arange(n))
    # an entry off the links is zero in both parts, so the links hold
    # every nonzero imaginary part, the diagonal's too
    imaginary = False
    if np.iscomplexobj(m):
        im = m.imag[rows, cols]
        imaginary = im.any()
    real = m.real
    flips = 0
    if imaginary:
        re = real[rows, cols]
        flips = (re == 0) & (real[cols, rows] == 0) & (rows != cols)
    # an index holds its (label, colour) as 2 label + colour, so that the
    # least code offered to it carries the least label
    code = 2 * np.arange(n)
    while n:
        offer = np.minimum.reduceat(code[cols] ^ flips, first)
        # jump to the label's label, through the label: 2 label[label] +
        # (colour of the step there ^ colour of the path to the label)
        jumped = offer[offer >> 1] ^ (offer & 1)
        done = np.array_equal(jumped >> 1, code >> 1)
        code = jumped
        if done:
            break
    roots = np.flatnonzero(code >> 1 == np.arange(n))
    label, colour = np.searchsorted(roots, code >> 1), (code & 1).astype(np.int8)
    if not imaginary:
        return label, colour, np.asarray(real, dtype=np.float64), reach
    shift = colour[rows] - colour[cols]
    if im[shift == 0].any() or re[shift != 0].any():
        return label, np.zeros_like(colour), np.asarray(m, dtype=np.complex128), reach
    form = np.zeros((n, n))
    form[rows, cols] = shift * im + re
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

    def stack(self, a: np.ndarray) -> np.ndarray:
        """a's diagonal blocks, of shape (count, width, width), zero in the
        padding.  For one block it is the view ``a[np.newaxis]``, so callers
        must not write into it unless a is their own; otherwise it is a new
        array.
        """
        if self.members.shape[0] == 1:
            return a[np.newaxis]
        stack = a[self.members[:, :, None], self.members[:, None, :]]
        stack[~self.inside(self)] = 0
        return stack

    def inside(self, columns: Blocks) -> np.ndarray:
        """The slots of a stack, rows from these blocks and columns from
        ``columns``, that hold entries: True but in the padding."""
        return self.filled[:, :, None] & columns.filled[:, None, :]

    def places(self) -> np.ndarray:
        """Rows 0 and 1: the block of every index and its slot there."""
        block, slot = np.nonzero(self.filled)
        at = np.empty((2, block.size), dtype=np.intp)
        at[:, self.members[block, slot]] = block, slot
        return at


@dataclass(frozen=True)
class BlockStack:
    """A complex matrix held as the stack of its blocks.

    ``stack[b]`` holds the entries of rows ``rows.members[b]`` and columns
    ``columns.members[b]`` in its filled slots, the two of the same count
    and width; its padding is not read, and every entry off the blocks is
    +0.0.  The stack is made read-only.  :attr:`dense` is the whole array,
    built on its first read and then kept.  The eigensolver holds its
    vectors so, the rows' blocks the components of m's pattern and the
    columns' the same labels in the order of the values, and a gate holds U
    so, rows and columns alike.
    """

    stack: np.ndarray
    rows: Blocks
    columns: Blocks

    def __post_init__(self) -> None:
        self.stack.flags.writeable = False

    @classmethod
    def of(cls, a) -> BlockStack:
        """The one block of the 2-D array a as C-contiguous complex128,
        which is a view of a if a is that."""
        a = np.ascontiguousarray(a, dtype=np.complex128)
        rows, columns = (Blocks.of(np.zeros(k, dtype=np.intp)) for k in a.shape)
        return cls(a[np.newaxis], rows, columns)

    @property
    def shape(self) -> tuple[int, int]:
        return int(self.rows.filled.sum()), int(self.columns.filled.sum())

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The read-only array: a view of the stack for one block, which
        holds every entry, else the blocks scattered onto +0.0."""
        if self.rows.members.shape[0] == 1:
            dense = self.stack[0]
        else:
            inside = self.rows.inside(self.columns)
            rows = np.broadcast_to(self.rows.members[:, :, None], inside.shape)[inside]
            cols = np.broadcast_to(self.columns.members[:, None, :], inside.shape)[inside]
            dense = np.zeros(self.shape, dtype=self.stack.dtype)
            dense[rows, cols] = self.stack[inside]
        dense.flags.writeable = False
        return dense
