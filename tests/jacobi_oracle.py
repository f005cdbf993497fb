"""The interleaved round-robin Jacobi kernel, kept as a test oracle.

This is the kernel that ``spintool.eig._jacobi_stack`` replaced: the same
rotations in the same circle order (Sameh 1971; Brent & Luk 1985), with each
round's pivots at rows and columns 2k and 2k + 1.  The split kernel lays the
pivots out in halves and must give the same bits; the tests compare the two
byte for byte.
"""

from __future__ import annotations

import numpy as np


def _interleaved_round_robin(width: int) -> np.ndarray:
    """The gather from one round's layout to the next, starting at identity.

    A round pairs positions 2k and 2k + 1, seats k and w - 1 - k of the
    circle method: seat 0 keeps its index and the other seats pass theirs
    on, so every pair meets once in w - 1 rounds, which end at identity.
    """
    half = width // 2
    seat = np.empty(width, dtype=np.intp)
    seat[0::2] = np.arange(half)
    seat[1::2] = width - 1 - np.arange(half)
    previous = np.concatenate(([0, width - 1], np.arange(1, width - 1)))
    return np.argsort(seat)[previous[seat]]


def interleaved_jacobi_stack(
    blocks: list[np.ndarray], stops: list[float], max_sweeps: int
) -> list[tuple[np.ndarray, np.ndarray, int, float]]:
    """The round-robin Jacobi kernel with each round's pivots interleaved.

    Rows and columns 2k and 2k + 1 form pivot k, and the blocks sit beside
    their V^H in one (count, w, 2w) stack: each round broadcasts a
    coefficient per row over the pairs of rows, updates the pairs of
    columns through stride-2 views and moves the stack by a fancy gather.
    ``eig._jacobi_stack`` must return these results byte for byte.
    """
    sizes = np.array([block.shape[0] for block in blocks], dtype=np.intp)
    stops = np.asarray(stops, dtype=np.float64)
    skip = stops / (10.0 * np.maximum(sizes, 1))
    widest = int(sizes.max(initial=0))
    width = max(widest + widest % 2, 2)
    half = width // 2
    # [A | V^H]: the row update A <- J^H A also gives V^H <- J^H V^H
    dtype = np.result_type(np.float64, *blocks)
    aug = np.zeros((sizes.size, width, 2 * width), dtype=dtype)
    for j, block in enumerate(blocks):
        aug[j, : sizes[j], : sizes[j]] = block
    aug[:, np.arange(width), width + np.arange(width)] = 1.0
    a = aug[:, :, :width]
    off_mask = ~np.eye(width, dtype=bool)
    sweeps = np.zeros(sizes.size, dtype=int)
    move = _interleaved_round_robin(width)
    # the move gathers the rows of [A | V^H] and the columns of A only
    gather = move[:, np.newaxis], np.concatenate((move, np.arange(width, 2 * width)))
    p, q = np.arange(0, width, 2), np.arange(1, width, 2)
    # entries (p, p), (q, q), (p, q) and (q, p) of every pivot of a round
    fix = np.concatenate((p, q, p, q)), np.concatenate((p, q, q, p))

    for done in range(max_sweeps + 1):
        off = np.linalg.norm(a * off_mask, axis=(1, 2))
        running = np.flatnonzero(off > stops)
        if done == max_sweeps or running.size == 0:
            break
        x, floor = aug[running], skip[running, np.newaxis]
        for _ in range(width - 1):
            pivot = x[:, p, q]
            b = np.abs(pivot)
            idle = b <= floor
            b[idle] = 1.0
            app = x[:, p, p].real
            aqq = x[:, q, q].real
            # t = sign(tau) / (|tau| + hypot(1, tau)) with tau = d / (2 b),
            # and e = conj(pivot) / b by real quotients, one per real part
            d = aqq - app
            t = np.copysign(2.0 * b, d) / (np.abs(d) + np.hypot(2.0 * b, d))
            e = np.conjugate(pivot)
            e.real /= b
            if np.iscomplexobj(e):
                e.imag /= b
            # idle pivots get the identity rotation c = 1, s = 0, e = 1
            t[idle] = 0.0
            e[idle] = 1.0
            # c and s in the stack's dtype keep the updates below free of casts
            c = (1.0 / np.hypot(1.0, t)).astype(dtype)
            s = t * c
            se, ce = s * e, c * e
            rows = x.reshape(-1, half, 2, 2 * width)
            row_p, row_q = rows[:, :, 0], rows[:, :, 1]
            new_p = row_p * c[..., None] - row_q * se.conj()[..., None]
            row_q *= ce.conj()[..., None]
            row_q += row_p * s[..., None]
            row_p[...] = new_p
            cols = x[:, :, :width].reshape(-1, width, half, 2)
            col_p, col_q = cols[..., 0], cols[..., 1]
            new_p = col_p * c[:, None] - col_q * se[:, None]
            col_q *= ce[:, None]
            col_q += col_p * s[:, None]
            col_p[...] = new_p
            # (J^H A J)[p, p] and [q, q] in closed form; a rotated pivot is
            # exactly 0 and an idle one keeps its value
            kept = pivot * idle
            x[:, fix[0], fix[1]] = np.concatenate(
                (app - t * b, aqq + t * b, kept, kept.conj()), axis=1
            )
            x = x[:, gather[0], gather[1]]
        aug[running] = x
        sweeps[running] += 1

    diagonals = np.diagonal(a, axis1=1, axis2=2).real
    return [
        (
            diagonals[j, :n].copy(),
            np.conjugate(aug[j, :n, width : width + n]).T,
            int(sweeps[j]),
            float(off[j]),
        )
        for j, n in enumerate(sizes)
    ]
