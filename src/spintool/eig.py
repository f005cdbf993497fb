"""Hermitian eigensolver built on Jacobi rotations in round-robin order.

The solver repeatedly annihilates off-diagonal pivots a[p, q] with 2 x 2
unitary rotations until the off-diagonal Frobenius mass falls below a
relative threshold.  It is deliberately self-contained: diagonalization is
the load-bearing step of the isospectrality certificates, so it must not
rest on an opaque library call.

Rotation construction for pivot (p, q)
--------------------------------------
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
squared off-diagonal mass, which forces convergence.

Round-robin sweeps
------------------
A sweep over an even width w is w - 1 rounds of w / 2 disjoint pivots in
which every pair meets once, the circle ordering of Sameh (Math. Comp. 25,
1971) and Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985), so a round is
one batched row update and one batched column update.  One kernel,
``_jacobi_stack``, serves every route: it sweeps a zero-padded stack of
blocks, each to its own stop, as two planes, the blocks and their
accumulated V^H, and a round costs about the same numpy calls whatever the
count.  A sweep seats each round's pivots in halves, the p's first and
their q's second, so that the partner of every row and column is a
reversed view and each update is a pass over whole arrays; its products
and sums are those of pairs seated side by side, in the same order, so
the layout changes no bit.  A real round stores -s e, as s (-e), where
s e would be, and so adds the partners' products to both halves in one
sum, where a complex round subtracts on the p half: x - y is x + (-y) in
IEEE 754, and negating a real factor negates its product exactly, signed
zeros included, which a complex product need not.  As a round's cost
hardly depends on the count, the blocks of every operator of a
certificate, over the components of its nonzero pattern or over its charge
sectors, are solved together.  A block is padded to the width that its own
route gives it, the widest of its width class there made even, and the
blocks of every operator that share that width and a dtype share a stack.
So each block keeps its rounds and its arithmetic, and every decomposition
is bit for bit the one that its operator gets alone.  A stack sweeps each
distinct block once: members of the same width, stop and bytes share one
result, found by an exact test, never by an assumed symmetry.  H's
components at total M and -M are the same matrix, since (m1, m2) ->
(-m2, -m1) keeps their index order, so H sends 2s + 1 of its 4s + 1
blocks to the kernel.  An operator on the sector route first sweeps its
two charge factors in a call of their own; H's pattern splits at every
spin, so only K's do.  H and K together take two kernel calls up to
2s = 15 and three beyond, where blocks wider than 16 form a class of their
own.  Every block may take MAX_SWEEPS sweeps, a constant.  Convergence is
checked in one place, after the kernel calls, on the results of every
route: the first block still above its stop raises a
:class:`ConvergenceError` named by its route, label and width, so only
converged blocks go on to be sorted, pinned and measured.

Arithmetic
----------
The kernel runs in the dtype of the matrix that :func:`linalg.gauge`, the
moments' rule, hands back: where a diagonal D of ones and i's makes D^H M D
exactly real, that float64 real form, its rotation's phase e the sign of
the pivot and its vectors D V; else M as complex128, with D = I.
The test is exact, never a tolerance: 1e-300j on a nonzero real entry
leaves no real form.  H has D = I, and K's D is i on the odd indices of
the first site, so both run real throughout.  The charge factors are swept
as given, never walked: as float64 copies of their real parts where
neither has an imaginary part, as both of K's, else as complex128 copies
of both.  The residual is taken against M itself, in real arithmetic when
D = I, and the vectors are complex128 either way, pinned and measured as
below.

Sector route
------------
The blocks are the components of M's nonzero pattern unless it is one
component.  Then, when the caller knows single-site Hermitian factors (A, B)
of a charge Q = A x I + I x B that commutes with M, as K's (S3, S1), the
solver diagonalizes A and B (size at most 2s + 1), rotates M into the
product basis W = Va x Vb and labels each basis vector by its rounded charge
2(qa + qb).  M' = W^H M W, symmetrized once, is then block diagonal over
equal labels, so each sector (size at most 2s + 1 for the exchange
operators) is an exactly Hermitian block, diagonalized on its own, whose
vectors are mapped back through W.  A factor with no off-diagonal nonzero,
as K's S3, is its own eigenbasis, exactly I: its rotation is skipped, and
it is taken elementwise in the commutator, which gives the values of the
mode products, all but the sign of a zero.  Nothing about the charge is
assumed: the commutator ||[M, Q]||_F and the leak, the norm of M' outside
the sectors, are measured and reported, and a leak above the component
route's stop threshold DEFAULT_TOL * ||M||_F is an error.  The real form is
rotated instead of M only if D commutes with Q exactly, so that it has M's
sectors; else M is, in complex arithmetic.  A pattern of several components is split
already, as H's: its conserved S3 makes the charge (S3, S3) diagonal, and
the sectors of a diagonal charge hold whole components.  Its charge is
checked and then goes unused.  Both routes end in the same sorting, phase
pinning and residual check against the original M, taken on the stack of the
blocks of M's pattern: its components, to which the component route's
vectors keep by construction, or the one block of a pattern that is one
component.  M v is taken there only within the half-bandwidth w of M's
pattern, which bounds the band of every block of the stack, _ROWS rows at a
time: w = 2s + 2 for K, each of whose blocks of rows then reads about
2w + _ROWS of its n columns.  The vectors are kept as that stack, cast to
complex128 at the end; the dense n x n array is built only when read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _ROWS,
    DEFAULT_TOL,
    Blocks,
    BlockStack,
    NumericalError,
    ShapeError,
    _require_hermitian,
    frobenius_norm,
    gauge,
    require_square,
)

__all__ = [
    "ConvergenceError",
    "EigDecomposition",
    "hermitian_eig",
]

# the sweeps a block may take.  Cyclic Jacobi converges quadratically once
# its pivots are small (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4),
# 1992): at every spin, H and K by sectors stop within 6 sweeps at
# DEFAULT_TOL, and a dense 625 x 625 matrix within 10
MAX_SWEEPS = 100

# Charge factors are solved to rounding level, within MAX_SWEEPS, below
# DEFAULT_TOL: an eigenvector error d in them shows up as off-sector mass of
# about d * ||m||, which would otherwise compete with the leak bound itself.
_SITE_TOL = float(np.finfo(np.float64).eps)


class ConvergenceError(NumericalError):
    """The sweep budget ran out before the off-diagonal mass fell below its stop."""


@dataclass(frozen=True)
class EigDecomposition:
    """Result of a Hermitian diagonalization.

    ``values`` are real and ascending; column k of ``vectors`` is the
    eigenvector for ``values[k]``, normalized with its largest-magnitude
    component made real and positive (first such index on ties), so repeat
    runs return bit-identical output.  ``residual`` is the largest
    euclidean norm of M v - lambda v over all returned pairs, measured
    against the original input.  ``sweeps`` counts completed Jacobi sweeps,
    the most any one block needed.  ``leak`` and ``commutator`` are the
    sector route's measured charge certificate (see :func:`hermitian_eig`);
    both are 0.0 on the component route, also where a charge was given.

    ``vector_blocks`` holds the vectors as the :class:`linalg.BlockStack`
    of the blocks they keep to, for products with them on the blocks'
    stack: its rows' blocks are the components of M's pattern, and its
    columns' the same labels taken in the order of ``values``, each one
    block for a pattern of one component.  ``vectors`` reads the
    read-only complex128 n x n array, built on its first read.  A
    decomposition built by hand gives ``BlockStack.of(vectors)``.
    """

    values: np.ndarray
    vector_blocks: BlockStack
    residual: float
    sweeps: int
    leak: float = 0.0
    commutator: float = 0.0

    @property
    def dimension(self) -> int:
        return self.values.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        return self.vector_blocks.dense


def _symmetrized(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


@functools.lru_cache(maxsize=16)
def _round_robin(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The moves of a sweep of even width w, as gathers of the 2 w^2 entries
    of a block and its V^H, and where the entries of a round's pivots lie.

    A round pairs position k with half + k, seats k and w - 1 - k of the
    circle method: seat 0 keeps its index and the other seats pass theirs
    on, so every pair meets once in w - 1 rounds.  The first round seats
    index 2k at k and 2k + 1 at half + k, so that every round pairs the
    indices that seating each pair side by side, at 2k and 2k + 1, would.
    A round holds each plane as its four quarters, rows p | q by columns
    p | q, each half x half and contiguous: entry (i, j) lies in quarter
    (i // half, j // half), at row i % half and column j % half of it.

    Returns the gathers into the first round from natural order, from each
    round to the next and from the last round back to natural order, and
    the places of the entries (p, p), (q, q), (p, q) and (q, p) of the
    pivots, p = 0 .. half - 1 and q = half + p.  The last widths' gathers
    are kept, 48 w^2 bytes each, so read-only.
    """
    half, area = width // 2, width * width
    seat = np.concatenate((np.arange(half), width - 1 - np.arange(half)))
    previous = np.concatenate(([0, width - 1], np.arange(1, width - 1)))
    step = np.argsort(seat)[previous[seat]]
    into = np.concatenate((np.arange(0, width, 2), np.arange(1, width, 2)))
    out = step[np.argsort(into)]
    quarter, offset = np.divmod(np.arange(width), half)
    rows, cols = quarter * 2 * half**2 + offset * half, quarter * half**2 + offset
    place = rows[:, np.newaxis] + cols
    first, then = np.empty((2, area), dtype=np.intp)
    first[place] = into[:, np.newaxis] * width + into
    then[place] = place[np.ix_(step, step)]
    last = place[np.ix_(out, out)].ravel()
    p, q = np.arange(half), np.arange(half, width)
    pivots = np.concatenate((place[p, p], place[q, q], place[p, q], place[q, p]))
    first, then, last = (np.concatenate((g, area + g)) for g in (first, then, last))
    for gather in (first, then, last, pivots):
        gather.flags.writeable = False
    return first, then, last, pivots


def _quarters(x: np.ndarray) -> tuple[tuple, tuple]:
    """The views of a (count, 2, 2, 2, half, half) state that a round takes:
    the state and its rows' partners, and A's plane and its columns'
    partners.  Axis 2 holds the p and q halves of either."""
    a = x[:, 0]
    return (x, x[:, :, ::-1]), (a, a[:, :, ::-1])


def _add_partners(x: np.ndarray, other: np.ndarray, complex_stack: bool) -> None:
    """p <- p - other's p and q <- q + other's q, the halves on axis 2, in
    place.  A real stack's other holds its p half negated, so there it is
    one sum (see :func:`_jacobi_stack`)."""
    if complex_stack:
        np.subtract(x[:, :, 0], other[:, :, 0], out=x[:, :, 0])
        np.add(x[:, :, 1], other[:, :, 1], out=x[:, :, 1])
    else:
        np.add(x, other, out=x)


def _jacobi_stack(
    blocks: list[np.ndarray], stops: list[float], max_sweeps: int
) -> list[tuple[np.ndarray, np.ndarray, int, float]]:
    """Round-robin Jacobi sweeps on a list of exactly Hermitian blocks at once.

    The blocks are zero-padded to an even width w >= 2, each as a plane of
    A beside a plane of its accumulated V^H.  The stack takes the dtype of
    the blocks: float64 when every block is a real array, so its rotations
    and V are real, and complex128 otherwise; the callers pass the real
    forms that :func:`linalg.gauge` finds.  A block runs while its
    off-diagonal norm, taken in natural order at the start of each sweep, is
    above its stop.  A pivot at or below stop / (10 n), n the block's own
    width, is idle: its rotation is the identity.  So is every padding
    pivot, which is exactly 0.

    A sweep gathers the running blocks into the split layout of
    :func:`_round_robin`: each round's p's in the first half of the rows
    and of the columns, their q's in the second, each quarter contiguous.
    The partner of a half is then a reversed view, and every update is a
    pass over whole arrays.  The rows of both planes take one product with
    their partners' coefficients and one with their own, then a subtraction
    on the p half and an addition on the q half:
    p <- p c - q conj(s e) and q <- q conj(c e) + p s.  A's columns take the
    same with c | s e and c e | s.  A real stack holds -s e, taken as
    s (-e), where s e would be, and sums its halves in one addition over
    the whole state: in IEEE 754 x - y is x + (-y), and s (-e) = -(s e) and
    q (-y) = -(q y) hold to the bit, signed zeros included.  A complex
    product with a negated factor may differ from the negated product in
    the sign of a zero, so a complex stack subtracts.  Each product and sum
    is the one that rows and columns paired side by side would take, in the
    same order, so the bits do not depend on the layout.  A move between
    rounds is one gather of both planes, rows and columns alike, into the
    buffer that held the partners' products; the last goes back to natural
    order.
    Running blocks only ever stop, so the buffers are made once, and the
    blocks still running take their leading entries.

    Returns, per block and in input order, copies of its unsorted diagonal
    and of its accumulated rotations, so that no result keeps the stack
    alive, its completed sweeps and its off-diagonal norm on exit; a norm
    still above its stop means that block ran out of ``max_sweeps``.  The
    blocks are not modified.
    """
    sizes = np.array([block.shape[0] for block in blocks], dtype=np.intp)
    stops = np.asarray(stops, dtype=np.float64)
    skip = stops / (10.0 * np.maximum(sizes, 1))
    widest = int(sizes.max(initial=0))
    width = max(widest + widest % 2, 2)
    half, area = width // 2, width * width
    # [A, V^H]: the row update A <- J^H A also gives V^H <- J^H V^H
    dtype = np.result_type(np.float64, *blocks)
    planes = np.zeros((sizes.size, 2, width, width), dtype=dtype)
    for j, block in enumerate(blocks):
        planes[j, 0, : sizes[j], : sizes[j]] = block
    planes[:, 1, np.arange(width), np.arange(width)] = 1.0
    a = planes[:, 0]
    off_mask = ~np.eye(width, dtype=bool)
    sweeps = np.zeros(sizes.size, dtype=int)
    first, then, last, pivots = _round_robin(width)
    moves = [then] * (width - 2) + [last]
    complex_stack = np.issubdtype(dtype, np.complexfloating)
    conjugated = np.array([[False, True], [True, False]])[:, :, np.newaxis]
    count = 0

    for done in range(max_sweeps + 1):
        off = np.linalg.norm(a * off_mask, axis=(1, 2))
        running = np.flatnonzero(off > stops)
        if done == max_sweeps or running.size == 0:
            break
        if running.size != count:
            if not count:
                # per block of the first sweep: two states, the round's and
                # one for its partners' products and then its next layout;
                # [c | c e, s e | s] per pivot for the columns, -s e in a
                # real stack, and for the rows, which differ only in
                # conj(c e) and conj(s e); e and s's factor, -e in a real
                # stack; the coefficients of a quarter, the same as the
                # quarter's beside it; A's pivot entries as read and as
                # written
                buffers = np.empty((2, running.size, 2, 2, 2, half, half), dtype=dtype)
                stores = [
                    np.empty((running.size, 2, 2, 2, half), dtype=dtype),
                    np.empty((running.size, 2, half), dtype=dtype),
                    np.empty((running.size, 2, 2, half, half), dtype=dtype),
                    np.empty((running.size, 3 * half), dtype=dtype),
                    np.empty((running.size, 4 * half), dtype=dtype),
                ]
            count = running.size
            states = buffers[:, :count]
            flats = states.reshape(2, count, 2 * area)
            views = [_quarters(state) for state in states]
            cs, es, coefs, entries, fixed = (store[:count] for store in stores)
            cols_cs = cs[:, 0]
            rows_cs = cs[:, 1] if complex_stack else cols_cs
            # (c, s) on the diagonal of each 2 x 2, (c e, s e) off it
            slots = cols_cs.reshape(count, 4, half)
            c, s, cs_pair, ce_pair = slots[:, 0], slots[:, 3], slots[:, ::3], slots[:, 1:3]
            e = es[:, 0]
            by_row, by_col = rows_cs[..., np.newaxis], cols_cs[:, :, :, np.newaxis]
            own_rows = coefs[:, 0, np.newaxis, :, np.newaxis]
            other_rows = coefs[:, 1, np.newaxis, :, np.newaxis]
            own_cols, other_cols = coefs[:, 0, np.newaxis], coefs[:, 1, np.newaxis]
            app, aqq = entries[:, :half].real, entries[:, half : 2 * half].real
            pivot = entries[:, 2 * half :]
            kept = fixed[:, 2 * half :].reshape(count, 2, half)
            places = np.arange(count)[:, np.newaxis] * (2 * area) + pivots
        floor = skip[running, np.newaxis]
        # the running blocks into the first round's layout, by way of the
        # other state; mode "wrap", as every gather is in range, writes to
        # out directly
        np.take(planes.reshape(-1, 2 * area), running, axis=0, out=flats[1], mode="wrap")
        np.take(flats[1], first, axis=1, out=flats[0], mode="wrap")
        # numpy (2.4) copies operands whose contiguous runs are short next to
        # its ufunc buffer, 8192 entries by default, as the halves and
        # quarters are, through that buffer; read in place they take about a
        # third of the time.  The rounds hold no reduction, so no sum's
        # order, nor a bit, depends on the buffer's size
        bufsize = np.setbufsize(256)
        try:
            for r, move in enumerate(moves):
                flat = flats[r % 2]
                (x, rows_partner), (a_x, cols_partner) = views[r % 2]
                (other, _), (other_a, _) = views[1 - r % 2]
                np.take(flat, pivots[: 3 * half], axis=1, out=entries, mode="wrap")
                b = np.abs(pivot)
                idle = b <= floor
                b[idle] = 1.0
                # t = sign(tau) / (|tau| + hypot(1, tau)) with tau = d / (2 b),
                # and e = conj(pivot) / b by real quotients, one per real part
                d = aqq - app
                twice_b = 2.0 * b
                t = np.copysign(twice_b, d) / (np.abs(d) + np.hypot(twice_b, d))
                if complex_stack:
                    np.conjugate(pivot, out=e)
                    e.real /= b
                    e.imag /= b
                else:
                    np.divide(pivot, b, out=e)
                # idle pivots get the identity rotation c = 1, s = 0, e = 1
                t[idle] = 0.0
                e[idle] = 1.0
                # c and s in the stack's dtype keep the updates free of casts
                np.divide(1.0, np.hypot(1.0, t), out=c)
                np.multiply(t, c, out=s)
                # (c e, s e), or in a real stack (c e, -s e) as s (-e)
                if complex_stack:
                    es[:, 1] = e
                else:
                    np.negative(e, out=es[:, 1])
                np.multiply(cs_pair, es, out=ce_pair)
                if complex_stack:
                    rows_cs[...] = cols_cs
                    np.conjugate(cols_cs, out=rows_cs, where=conjugated)
                # p <- p c - q conj(s e) and q <- q conj(c e) + p s, both planes
                coefs[...] = by_row
                np.multiply(rows_partner, other_rows, out=other)
                np.multiply(x, own_rows, out=x)
                _add_partners(x, other, complex_stack)
                # p <- p c - q s e and q <- q c e + p s, on A's columns
                coefs[...] = by_col
                np.multiply(cols_partner, other_cols, out=other_a)
                np.multiply(a_x, own_cols, out=a_x)
                _add_partners(a_x, other_a, complex_stack)
                # (J^H A J)[p, p] and [q, q] in closed form; a rotated pivot
                # is exactly 0 and an idle one keeps its value, at (p, q)
                # and conjugated at (q, p)
                t *= b
                np.subtract(app, t, out=fixed[:, :half])
                np.add(aqq, t, out=fixed[:, half : 2 * half])
                np.multiply(pivot[:, np.newaxis], idle[:, np.newaxis], out=kept)
                if complex_stack:
                    np.conjugate(kept[:, 1], out=kept[:, 1])
                np.put(flat, places, fixed, mode="wrap")
                np.take(flat, move, axis=1, out=flats[1 - r % 2], mode="wrap")
        finally:
            np.setbufsize(bufsize)
        planes.reshape(-1, 2 * area)[running] = flats[(width - 1) % 2]
        sweeps[running] += 1

    diagonals = np.diagonal(a, axis1=1, axis2=2).real
    return [
        (
            diagonals[j, :n].copy(),
            np.conjugate(planes[j, 1, :n, :n]).T,
            int(sweeps[j]),
            float(off[j]),
        )
        for j, n in enumerate(sizes)
    ]


def _solved(
    routes: list[tuple[list[np.ndarray], list[float], list[str]]],
    max_sweeps: int,
) -> list[list[tuple[np.ndarray, np.ndarray, int, float]]]:
    """Run the kernel on the blocks of every route, one stack per width and
    dtype, each block for at most ``max_sweeps`` sweeps, and check that
    each converged.  The callers pass MAX_SWEEPS; tests pass less, to make
    a block run out.

    A route is one operator's blocks with their stops and names.  Within a
    route, blocks up to 16 wide form one class, as do blocks whose widths
    share an interval (2^(k-1), 2^k], so padding never doubles a wide
    block; a class is padded to its widest block, made even, in float64 if
    all its blocks are real.  Blocks of every route that are
    padded to the same width in the same dtype share one stack, so each
    keeps the rounds, the padding and the arithmetic that its own route
    alone would give it, bit for bit.  The kernel's arithmetic is per block,
    so a stack sweeps each block once: a member of the same width and stop
    as one before it, and the same bytes, signed zeros included, takes that
    member's result.  H's components at total M and -M are such twins.
    This is the one place where a solved block is checked: once every stack
    is swept, the first block still above its stop, in route order and then
    in block order, raises a :class:`ConvergenceError` that starts with its
    name.  Returns the kernel's results per route, in block order, every
    block converged; twins share theirs.
    """
    stacks: dict[tuple[int, np.dtype], list[tuple[int, int]]] = {}
    for r, (blocks, *_) in enumerate(routes):
        classes = [max((block.shape[0] - 1).bit_length(), 4) for block in blocks]
        for k in dict.fromkeys(classes):
            members = [j for j, c in enumerate(classes) if c == k]
            widest = max(blocks[j].shape[0] for j in members)
            dtype = np.result_type(np.float64, *(blocks[j] for j in members))
            key = max(widest + widest % 2, 2), dtype
            stacks.setdefault(key, []).extend((r, j) for j in members)
    solved: list[list] = [[None] * len(blocks) for blocks, *_ in routes]
    for members in stacks.values():
        keys = [
            (routes[r][0][j].shape[0], routes[r][1][j], routes[r][0][j].tobytes())
            for r, j in members
        ]
        firsts: dict[tuple, tuple[int, int]] = {}
        for key, member in zip(keys, members):
            firsts.setdefault(key, member)
        stacked = _jacobi_stack(
            [routes[r][0][j] for r, j in firsts.values()],
            [routes[r][1][j] for r, j in firsts.values()],
            max_sweeps,
        )
        results = dict(zip(firsts, stacked))
        for (r, j), key in zip(members, keys):
            solved[r][j] = results[key]
    for (_, stops, names), results in zip(routes, solved):
        for stop, name, (_, _, _, off) in zip(stops, names, results):
            if off > stop:
                raise ConvergenceError(
                    f"{name}off-diagonal norm {off:.3e} still above {stop:.3e} "
                    f"after {max_sweeps} sweeps"
                )
    return solved


def _mode(t: np.ndarray, f: np.ndarray, axis: int) -> np.ndarray:
    """Contract index ``axis`` of ``t`` with the rows of ``f``, in place of it.

    An f with no off-diagonal nonzero, as K's S3, scales that index by its
    diagonal instead, which gives the contraction's values, all but the sign
    of a zero; the identity, the exact eigenbasis of such a factor, leaves
    t as it is, in the dtype that the contraction would give.
    """
    diagonal = np.diagonal(f)
    if np.count_nonzero(f) > np.count_nonzero(diagonal):
        return np.moveaxis(np.tensordot(t, f, axes=(axis, 0)), -1, axis)
    if (diagonal == 1).all():
        return t.astype(np.result_type(t, f), copy=False)
    return t * np.expand_dims(diagonal, [i for i in range(t.ndim) if i != axis])


def _charge_factors(charge, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The factors (A, B) checked square, finite, Hermitian within
    ``DEFAULT_TOL`` per dimension and of product n, as the arrays to sweep:
    float64 copies of their real parts where neither has an imaginary part,
    as K's, else complex128 copies of both, so that the two share one
    kernel call.  No factor is walked.  A charge that is
    not iterable, as an int, raises TypeError, and one of other than two
    factors ValueError, each naming what it got."""
    expected = "a charge must be a pair (A, B) of single-site factors, got"
    try:
        factors = tuple(charge)
    except TypeError:
        raise TypeError(f"{expected} {type(charge).__name__}") from None
    if len(factors) != 2:
        raise ValueError(f"{expected} {type(charge).__name__} of length {len(factors)}")
    a_site, b_site = (require_square(f, "charge factors must be square") for f in factors)
    if a_site.shape[0] * b_site.shape[0] != n:
        raise ShapeError(
            f"charge factors of sizes {a_site.shape[0]} and {b_site.shape[0]} do "
            f"not factor the dimension {n}"
        )
    for f in (a_site, b_site):
        if not np.isfinite(f).all():
            raise ValueError("charge factor entries must be finite")
        _require_hermitian(f, DEFAULT_TOL, f.shape[0] - 1)
    if any(np.iscomplexobj(f) and f.imag.any() for f in (a_site, b_site)):
        return a_site.astype(np.complex128), b_site.astype(np.complex128)
    return np.array(a_site.real, dtype=np.float64), np.array(b_site.real, dtype=np.float64)


def _split_sectors(
    m: np.ndarray, factors: tuple, stop: float, precision: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Rotate ``m`` into the eigenbasis W of A x I + I x B and measure the split.

    ``factors`` are A and B as :func:`_charge_factors` gives them, swept as
    given, together in one kernel call, to ``_SITE_TOL`` within MAX_SWEEPS
    sweeps whatever budget the blocks are given, and taken as given in the
    commutator.  Returns W, the rotated matrix, symmetrized once, the charge
    label 2(qa + qb) of each basis index, the leak and the commutator norm.  A leak above ``stop`` is
    an error; ``precision``, the input's dtype, tells what rounding it may be.
    """
    stops = [_SITE_TOL * frobenius_norm(f) for f in factors]
    route = [_symmetrized(f) for f in factors], stops, ["", ""]
    (solved,) = _solved([route], MAX_SWEEPS)
    (qa, va, _, _), (qb, vb, _, _) = solved
    a_site, b_site = factors
    # m as a 4-tensor (a, b, c, d), rows (a, b) and columns (c, d): a
    # product with A x I or I x B contracts one index with a single-site
    # factor, at a fraction of the cost of a dense n x n product
    n = m.shape[0]
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
    leak = float(np.linalg.norm(rotated[labels[:, np.newaxis] != labels]))
    if leak > stop:
        # W is solved to _SITE_TOL and the input rounded to its own
        # precision: below n * eps * ||m||_F, eps the coarser of the two, a
        # leak may be rounding
        eps, source = _SITE_TOL, "the sector basis"
        if np.issubdtype(precision, np.inexact) and np.finfo(precision).eps > eps:
            eps, source = float(np.finfo(precision).eps), f"the {precision} input"
        rounding = n * eps * frobenius_norm(m)
        cause = "charge does not split the operator"
        if leak <= rounding:
            cause = f"the leak lies within the rounding of {source}, {rounding:.3e}"
        raise NumericalError(
            f"{cause}: off-sector norm {leak:.3e} exceeds {stop:.3e} "
            f"(commutator norm {commutator:.3e})"
        )
    return w, rotated, labels, leak, commutator


def _pins(vectors: np.ndarray) -> np.ndarray:
    """The factors, one per column of each matrix of a stack, that make the
    column's first largest-magnitude entry real and positive; 1 for a zero
    column.  ``vectors * _pins(vectors)`` is the pinned stack."""
    if not vectors.size:
        return np.ones_like(vectors[..., :1, :])
    top = np.argmax(np.abs(vectors), axis=-2)[..., np.newaxis, :]
    lead = np.take_along_axis(vectors, top, axis=-2)
    mag = np.abs(lead)
    return np.divide(lead.conj(), mag, out=np.ones_like(lead), where=mag > 0.0)


class _Eigensolve:
    """One operator's eigensolve, admitted before the kernel and finished after.

    Built, it has checked its input, as :func:`hermitian_eig` documents,
    chosen its route and cut ``route``, the blocks to sweep over equal
    labels with their stops and names: the components of m, each
    symmetrized once cut, or with a charge those of m rotated into the
    basis W by :func:`_split_sectors`, which symmetrizes the whole.  Each
    block is swept to ``DEFAULT_TOL``, read from this module when the solve
    is built, times its own norm, or :func:`_solved` names it by route,
    label and width in the :class:`ConvergenceError`.
    :meth:`finish` takes the blocks solved, every one converged, and returns
    the decomposition.
    """

    def __init__(self, m, charge) -> None:
        m = require_square(m, "eigensolver needs a square matrix")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        tol = DEFAULT_TOL
        component, colour, a, self.reach = gauge(m)
        # a real form's defect has m's entries up to sign: checked in its
        # dtype, within the reach beyond which the form is zero
        _require_hermitian(a, tol, self.reach)

        # the form's entries are m's up to sign, so its norm is taken on m,
        # of which a real form may be a strided view that the norm copies
        with np.errstate(over="ignore"):
            norm = frobenius_norm(m)
        if not math.isfinite(norm):
            raise NumericalError(
                "the squares of the matrix's entries sum beyond double precision; "
                "rescale its entries"
            )
        if charge is not None:
            charge = _charge_factors(charge, m.shape[0])
        self.leak = self.commutator = 0.0
        if component.any() or charge is None:
            # the walk has split the pattern already, as H's by its conserved
            # S3: a checked charge goes unused.  Each block is symmetrized
            # once cut, entry by entry as the whole of a would be
            w, swept, labels, name = None, a, component, "component"
        else:
            # D^H m D has m's sectors only if D commutes with A x I + I x B, that
            # is if no off-diagonal nonzero of A or B joins two colours
            grid = colour.reshape(charge[0].shape[0], charge[1].shape[0])
            (i, j), (k, l) = np.nonzero(charge[0]), np.nonzero(charge[1])
            if (grid[i] != grid[j]).any() or (grid[:, k] != grid[:, l]).any():
                colour, a = np.zeros_like(colour), m.astype(np.complex128, copy=False)
            w, swept, labels, self.leak, self.commutator = _split_sectors(
                a, charge, tol * norm, m.dtype
            )
            name = "sector of charge 2(qa+qb) ="
        order = np.argsort(labels, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
        # for n = 0 the split holds one empty group, which is no block
        self.groups = [idx for idx in groups if idx.size]
        blocks = [swept[idx[:, np.newaxis], idx] for idx in self.groups]
        if w is None:
            blocks = [_symmetrized(block) for block in blocks]
        names = [
            f"{name} {int(labels[idx[0]])} (width {idx.size}): " for idx in self.groups
        ]
        self.route = blocks, [tol * frobenius_norm(block) for block in blocks], names
        # the rotations take swept's dtype, also for n = 0, where there are none
        self.dtype = np.result_type(swept, *([] if w is None else [w]))
        self.m, self.a, self.colour, self.component = m, a, colour, component
        self.w = w

    def finish(self, solved: list) -> EigDecomposition:
        """Return the decomposition of the blocks solved, which
        :func:`_solved` has checked converged.

        The work is done on the stack of m's blocks, :class:`linalg.Blocks`
        of its components, with column k in the block of the label of the
        value that sorts to place k; a pattern of one component, or one
        whose stack cannot pay, is one block, the whole matrix.  The
        rotations R go straight to their sorted columns, in the slots of
        their component, or as W[:, idx] R.  The stack is mapped through D
        and pinned, and m v - lambda v is taken against m (the real form for
        D = I is m) on it, within m's half-bandwidth, _ROWS rows at a time.
        Only then, with m's real form gone, is the stack cast to complex128
        and its padding set to +0.0, as :meth:`Blocks.stack` sets it, which
        the decomposition keeps as its ``vector_blocks``.  Off the blocks,
        each column holds zero times its pin, the signed zeros that pinning
        dense columns gives, so the bits of the dense vectors, when they are
        built, do not depend on the layout.
        """
        n, colour, component = self.m.shape[0], self.colour, self.component
        a = self.m if colour.any() else self.a
        # the blocks and a real form not measured against go before any copy
        self.route = self.a = None
        values = np.empty(n)
        for idx, (diagonal, _, _, _) in zip(self.groups, solved):
            values[idx] = diagonal
        order = np.argsort(values, kind="stable")
        values = values[order]
        rows, columns = Blocks.of(component), Blocks.of(component[order])
        (block, row), places = rows.places(), columns.places()
        # the slot of each index's column, once sorted, in its block
        column = places[1, np.argsort(order)]
        v = np.zeros((*rows.members.shape, rows.members.shape[1]), dtype=self.dtype)
        for idx, (_, r, _, _) in zip(self.groups, solved):
            if self.w is None:
                v[block[idx[0]]][row[idx][:, np.newaxis], column[idx]] = r
            else:
                v[0][:, column[idx]] = self.w[:, idx] @ r
        self.w = None
        if colour.any():
            v = v * np.where(colour[rows.members], 1j, 1.0)[..., np.newaxis]
        pins = _pins(v)
        v = v * pins
        # m has no nonzero beyond reach off the diagonal, in the stack too,
        # so rows [i0, i1) of m v read v's rows only within reach of them
        stack, lam = rows.stack(a), values[columns.members][:, np.newaxis, :]
        deltas = np.empty(v.shape, np.result_type(stack, v))
        width = v.shape[-1]
        for i0 in range(0, width, _ROWS):
            i1 = min(i0 + _ROWS, width)
            lo, hi = max(0, i0 - self.reach), i1 + self.reach
            np.matmul(
                stack[..., i0:i1, lo:hi], v[..., lo:hi, :], out=deltas[..., i0:i1, :]
            )
            deltas[..., i0:i1, :] -= v[..., i0:i1, :] * lam
        residual = float(np.max(np.linalg.norm(deltas, axis=-2), initial=0.0))
        del a, stack, deltas
        vectors, fill = v.astype(np.complex128, copy=False), None
        if rows.members.shape[0] > 1:
            vectors[~rows.inside(columns)] = 0
            fill = (np.zeros((), dtype=v.dtype) * pins)[places[0], 0, places[1]]
        values.flags.writeable = False
        return EigDecomposition(
            values=values,
            vector_blocks=BlockStack(vectors, rows, columns, fill),
            residual=residual,
            sweeps=max((sweeps for _, _, sweeps, _ in solved), default=0),
            leak=self.leak,
            commutator=self.commutator,
        )


def _eigensolves(
    operators: list[tuple[np.ndarray, tuple | None]], max_sweeps: int = MAX_SWEEPS
) -> list[EigDecomposition]:
    """:func:`hermitian_eig` of each (m, charge), with one kernel call per stack
    for the blocks of all of them.

    Each operator is admitted in turn, its charge factors swept on its own
    (see :func:`_split_sectors`), until the first that fails, whose error is
    held.  A block is stacked by the width its own route pads it to and its
    dtype (see :func:`_solved`), so each decomposition is bit for bit the
    one that hermitian_eig gives alone.  :func:`_solved` raises the first
    block of the admitted operators that ran out, in their order; else the
    held error is raised, before any operator is finished, so a certificate
    that fails computes no residual.  So the error raised is the first that
    calling hermitian_eig on each in turn raises.  ``max_sweeps`` bounds
    the blocks, never the charge factors; only tests lower it.
    """
    solves, failure = [], None
    for m, charge in operators:
        try:
            solves.append(_Eigensolve(m, charge))
        except Exception as exc:  # held, never dropped: raised below
            failure = exc
            break
    solved = _solved([solve.route for solve in solves], max_sweeps)
    if failure is not None:
        raise failure
    return [solve.finish(s) for solve, s in zip(solves, solved)]


def hermitian_eig(
    m: np.ndarray, *, charge: tuple[np.ndarray, np.ndarray] | None = None
) -> EigDecomposition:
    """Diagonalize a Hermitian matrix with round-robin Jacobi sweeps.

    Stops once the off-diagonal Frobenius norm is <= tol * ||m||_F, for tol
    the constant ``DEFAULT_TOL`` = 1e-12, read from this module when called:
    no caller sets the stop, so every solve is made at the constant that
    tests/test_margins.py audits.  The blocks are swept each to tol times
    its own norm, which keeps the total there, within MAX_SWEEPS = 100
    sweeps, or a :class:`ConvergenceError` names the block that ran out by
    its label and width.  They are the connected components of ``m``'s
    nonzero pattern.  ``charge = (A, B)``, single-site Hermitian factors
    whose sum A x I + I x B should commute with ``m``, is always checked:
    square, finite, Hermitian and of product n.  It is used only where the
    pattern is one component, as K's, and then selects the sector route of
    the module docstring, whose blocks are the sectors of equal rounded
    charge 2(qa + qb).  Its rotated mass outside the sectors is reported as
    ``leak`` and ``||[m, A x I + I x B]||_F`` as ``commutator``; a leak
    above tol * ||m||_F raises :class:`NumericalError`, so a wrong charge is
    never trusted.  A leak within n * eps * ||m||_F, eps the coarser of
    float64's and the input's own precision, as for a complex64 K, is said
    to lie within the rounding of the basis or of the input instead.
    Pivots at or below the stop threshold scaled by 1/(10 n) are skipped;
    the convergence check always measures the true remaining off-diagonal
    mass, so skipping never masks a miss.  Inputs Hermitian within tol per
    dimension are symmetrized once, each block as it is cut (component
    route) or the whole matrix once rotated into the charge basis, where
    the leak is measured (sector route); the reported residual is still
    taken against the original matrix.  Where :func:`linalg.gauge` finds a
    real form D^H m D, it is swept in real arithmetic and the vectors are
    D V (see the module docstring); they are complex128 either way.  A
    matrix the squares of whose entries sum beyond double precision, as
    1e308 on a diagonal do, raises :class:`NumericalError`: the stop
    threshold and the sweeps' off-diagonal norms are taken from that sum,
    unscaled.
    """
    (dec,) = _eigensolves([(m, charge)])
    return dec
