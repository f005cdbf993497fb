"""The split Jacobi kernel against the interleaved oracle, byte for byte.

``eig._jacobi_stack`` lays each round's pivots out in halves, and
``jacobi_oracle.interleaved_jacobi_stack`` pairs rows and columns 2k and
2k + 1.  Both take the same products and sums in the same order, so every
diagonal, rotation, sweep count and off-diagonal norm must agree to the bit:
on drawn stacks of both dtypes, with signed zeros, subnormal pivots, idle
pivots and twins, and on the operators at the cap.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jacobi_oracle import interleaved_jacobi_stack

from spintool import eig
from spintool.eig import _jacobi_stack, hermitian_eig
from spintool.hamiltonians import build_cyclic, build_heisenberg
from spintool.linalg import frobenius_norm
from spintool.spin import HalfInteger

# signed zeros, subnormals and values whose squares underflow
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 3e-310, -7e-311, 1e-160, -1e-300])


def _hermitian(rng, n, complex_, zeros, special):
    """An exactly Hermitian n x n block: normal entries, a share ``zeros``
    of them 0.0 and a share ``special`` from _SPECIAL, part by part."""
    r = rng.standard_normal((n, n))
    if complex_:
        r = r + 1j * rng.standard_normal((n, n))
    r[rng.random((n, n)) < zeros] = 0.0
    parts = r.view(np.float64)
    mask = rng.random(parts.shape) < special
    parts[mask] = rng.choice(_SPECIAL, mask.sum())
    # the lower triangle mirrors the upper one's conjugate, signed zeros kept
    lower = np.tril_indices(n, -1)
    r[lower] = r.T[lower].conj()
    r[np.diag_indices(n)] = r.diagonal().real
    return r


@st.composite
def _stacks(draw):
    """Blocks of one dtype, 1 to 12 of widths 1 to 26, and their stops: from
    0, which runs every sweep, to far above the block's norm, where every
    pivot is idle or the block never runs.  A block may be a twin of one
    before it, its bytes and its stop."""
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, stops = [], []
    for _ in range(draw(st.integers(1, 12))):
        if blocks and draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, len(blocks) - 1))
            blocks.append(blocks[j].copy())
            stops.append(stops[j])
            continue
        zeros = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
        special = draw(st.sampled_from([0.0, 0.1, 0.5]))
        block = _hermitian(rng, draw(st.integers(1, 26)), complex_, zeros, special)
        scale = draw(st.sampled_from([0.0, 1e-300, 1e-16, 1e-12, 1e-3, 0.3, 3.0]))
        blocks.append(block)
        stops.append(scale * frobenius_norm(block))
    return blocks, stops


def _assert_same_results(split, interleaved):
    assert len(split) == len(interleaved)
    for (d1, v1, s1, o1), (d2, v2, s2, o2) in zip(split, interleaved, strict=True):
        assert d1.dtype == d2.dtype and d1.tobytes() == d2.tobytes()
        assert (v1.dtype, v1.shape) == (v2.dtype, v2.shape)
        assert v1.tobytes() == v2.tobytes()
        assert s1 == s2
        assert np.float64(o1).tobytes() == np.float64(o2).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stack=_stacks(), max_sweeps=st.integers(0, 3))
def test_split_kernel_gives_the_interleaved_bits(stack, max_sweeps):
    blocks, stops = stack
    before = [block.copy() for block in blocks]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        split = _jacobi_stack(blocks, stops, max_sweeps)
    _assert_same_results(split, interleaved_jacobi_stack(blocks, stops, max_sweeps))
    for block, kept in zip(blocks, before, strict=True):
        assert block.tobytes() == kept.tobytes()


def _signed_zero_block(pivot, partner):
    """A 4 x 4 real symmetric block whose first round pivots on (0, 1) and
    (2, 3), both ``pivot``.  Row 0 and column 0, p's of that round, hold
    -0.0 where their q's, row 1 and column 1, hold ``partner``, so each
    such p entry meets a partner product that is a zero of either sign, or
    any product with s e = 0 where the rotation is idle."""
    return np.array(
        [
            [1.0, pivot, -0.0, -0.0],
            [pivot, -2.0, partner, partner],
            [-0.0, partner, 0.5, pivot],
            [-0.0, partner, pivot, 3.0],
        ]
    )


@pytest.mark.parametrize("partner", [0.0, -0.0, 1.5, -1.5])
@pytest.mark.parametrize(
    "pivot, stop",
    [(0.0, 0.0), (1e-300, 1e-12), (-1e-300, 1e-12), (0.7, 0.0), (-0.7, 1e-12),
     (5e-324, 0.0), (-5e-324, 0.0)],
    ids=["zero", "idle", "idle-negative", "rotated", "rotated-negative", "subnormal",
         "subnormal-negative"],
)
def test_signed_zeros_of_a_real_stack_keep_the_interleaved_bits(pivot, stop, partner):
    # a real round sums its halves once, with -s e in the slot of s e; x - y
    # is x + (-y), so each -0.0 keeps its sign.  A stop of 0 runs every
    # sweep; 1e-12 makes a tiny pivot idle, so that its s e is 0
    block = _signed_zero_block(pivot, partner)
    blocks = [block, block[:3, :3].copy(), -block]
    stops = [stop * frobenius_norm(b) for b in blocks]
    for max_sweeps in (1, 3):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            split = _jacobi_stack(blocks, stops, max_sweeps)
        _assert_same_results(split, interleaved_jacobi_stack(blocks, stops, max_sweeps))
        assert all(d.dtype == np.float64 and v.dtype == np.float64 for d, v, _, _ in split)


@pytest.mark.parametrize("build", [build_heisenberg, build_cyclic], ids=["H", "K"])
def test_the_cap_decomposes_as_under_the_interleaved_kernel(build, monkeypatch):
    ham = build(HalfInteger(24))
    split = hermitian_eig(ham.matrix, charge=ham.charge)
    monkeypatch.setattr(eig, "_jacobi_stack", interleaved_jacobi_stack)
    interleaved = hermitian_eig(ham.matrix, charge=ham.charge)
    assert split.values.tobytes() == interleaved.values.tobytes()
    assert split.vectors.tobytes() == interleaved.vectors.tobytes()
    assert (split.residual, split.sweeps) == (interleaved.residual, interleaved.sweeps)
    assert (split.leak, split.commutator) == (interleaved.leak, interleaved.commutator)


def _k_cap_sector_stacks():
    """The stacks of K's sectors at the cap, 32 up to 16 wide and 17 padded
    to 26, the widest that any command sweeps."""
    k = build_cyclic(HalfInteger(24))
    calls = []

    def spy(blocks, stops, max_sweeps):
        calls.append((blocks, stops, max_sweeps))
        return _jacobi_stack(blocks, stops, max_sweeps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eig, "_jacobi_stack", spy)
        hermitian_eig(k.matrix, charge=k.charge)
    # the first call sweeps the two charge factors
    return calls[1:]


def test_kernel_at_the_cap_peaks_at_a_few_copies_of_its_planes():
    # measured 5.28 and 5.00 times the planes, A and V^H of every block:
    # the planes, two states, half a plane of coefficients, and the
    # off-diagonal norm's temporaries at the start of a sweep (the
    # interleaved kernel read 5.24 and 5.13).  With a third state, made
    # again beside the last ones whenever fewer blocks ran, it read 7.30
    # and 5.78.  The moves of both widths are made, and kept, before the
    # trace
    stacks = _k_cap_sector_stacks()
    widest = [max(block.shape[0] for block in blocks) for blocks, _, _ in stacks]
    assert [len(blocks) for blocks, _, _ in stacks] == [32, 17] and widest == [16, 25]
    for blocks, stops, max_sweeps in stacks:
        width = max(b.shape[0] for b in blocks)
        width += width % 2
        planes = 2 * len(blocks) * width * width * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            _jacobi_stack(blocks, stops, max_sweeps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.75 * planes
