import functools
from types import SimpleNamespace

import numpy as np
import pytest

from spintool import eig, spectral, spin
from spintool.cli import main
from spintool.eig import hermitian_eig
from spintool.hamiltonians import build_cyclic, build_heisenberg
from spintool.spectral import certify_isospectral
from spintool.spin import HalfInteger


@pytest.fixture(scope="session")
def spin_cache():
    """Lazily built Hamiltonians, decompositions, and certificates per 2s.

    The certificate uses the full product dimension as the moment range and
    highlights the first 2s+1 powers as the prefix.
    """
    store: dict[int, SimpleNamespace] = {}

    def get(twice: int) -> SimpleNamespace:
        if twice not in store:
            s = HalfInteger(twice)
            h = build_heisenberg(s)
            k = build_cyclic(s)
            store[twice] = SimpleNamespace(
                s=s,
                h=h,
                k=k,
                dec_h=hermitian_eig(h.matrix),
                dec_k=hermitian_eig(k.matrix),
                cert=certify_isospectral(
                    h.matrix,
                    k.matrix,
                    kmax=s.dimension**2,
                    prefix=s.dimension,
                ),
            )
        return store[twice]

    return get


@pytest.fixture()
def run_cli(capsys):
    """Run the command line entry point in-process, returning (code, out, err)."""

    def run(*args: str):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture()
def sweep_budget(monkeypatch):
    """``sweep_budget(n)`` gives each block of every later eigensolve of the
    test, by :func:`hermitian_eig`, :func:`certify_isospectral` or the
    command line, at most n sweeps, where the program takes MAX_SWEEPS;
    the charge factors keep MAX_SWEEPS, as they always do."""
    solves = eig._eigensolves

    def lower(n: int) -> None:
        for module in (eig, spectral):
            budget = functools.partial(solves, max_sweeps=n)
            monkeypatch.setattr(module, "_eigensolves", budget)

    return lower


@pytest.fixture()
def cli_tol(monkeypatch):
    """``cli_tol(t)`` runs every later command of the test at the base
    tolerance t, where the command line takes DEFAULT_TOL: every eigensolve,
    of ``spectrum``, the certificate or the gate, and the algebra suite read
    ``DEFAULT_TOL`` from ``eig`` and ``spin`` when called, which is set to t.
    The reports still write ``cli.DEFAULT_TOL``."""

    def at(tol: float) -> None:
        for module in (eig, spin):
            monkeypatch.setattr(module, "DEFAULT_TOL", tol)

    return at


@pytest.fixture()
def lossy_rotations(monkeypatch):
    """``lossy_rotations()`` finishes every later eigensolve of the test
    with each block's rotations transposed, as a kernel that lost
    similarity would return them: the values, the rotated diagonal, are
    right, and the eigenpair residuals are not.  The charge factors keep
    theirs, so the sectors still split."""
    finish = eig._Eigensolve.finish

    def transposed(self, solved):
        return finish(self, [(d, r.T, k, off) for d, r, k, off in solved])

    def lose() -> None:
        monkeypatch.setattr(eig._Eigensolve, "finish", transposed)

    return lose


@pytest.fixture(scope="session")
def assert_kept_blocks():
    """Check that a decomposition's vectors keep to its blocks: each row
    block pairs with a column block of as many indices, and every entry
    outside the pairs is exactly zero."""

    def check(dec) -> None:
        rows, columns = dec.vector_blocks.rows, dec.vector_blocks.columns
        np.testing.assert_array_equal(
            rows.filled.sum(axis=1), columns.filled.sum(axis=1)
        )
        inside = np.zeros(dec.vectors.shape, dtype=bool)
        for r, kept_r, c, kept_c in zip(
            rows.members, rows.filled, columns.members, columns.filled
        ):
            inside[np.ix_(r[kept_r], c[kept_c])] = True
        assert not dec.vectors[~inside].any()

    return check
