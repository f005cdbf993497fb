"""The command line of two source trees, compared byte for byte.

Run as ``python tests/cli_sweep.py OLD_ROOT NEW_ROOT``, each root holding a
``src/spintool``.  Every argv of ``ARGV`` runs once per tree as
``python -m spintool.cli``, with ``PYTHONPATH=<root>/src``,
``PYTHONWARNINGS=error`` and ``OPENBLAS_NUM_THREADS=1``.  The matrix files
that ``ARGV`` names are written first, from ``FILES``, to one temporary
directory that both trees read, so the paths in their messages agree.  The
exit code and the sha256 of stdout and of stderr are compared; each argv
that differs is printed, and the exit status is 1 if any does.  Only the
standard library is used, so that any tree can be run.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FORMATS = ("plain", "json", "csv")
SPINS = ("1/2", "1", "3/2", "2", "4", "6", "12")


def _entry(z: complex) -> str:
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


def _text(rows) -> bytes:
    return "".join(" ".join(_entry(complex(z)) for z in row) + "\n" for row in rows).encode()


def _hermitian(seed: int, n: int, density: float, kind: str) -> bytes:
    """A seeded n x n Hermitian matrix of this density: "complex", "real",
    or "gauged", purely imaginary between indices of unlike colour."""
    rng = random.Random(seed)
    colour = [rng.randrange(2) for _ in range(n)]
    m = [[0j] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = complex(rng.uniform(-2, 2))
        for j in range(i + 1, n):
            if rng.random() >= density:
                continue
            x = rng.uniform(-1, 1)
            if kind == "complex":
                z = complex(x, rng.uniform(-1, 1))
            elif kind == "gauged" and colour[i] != colour[j]:
                z = complex(0.0, x)
            else:
                z = complex(x)
            m[i][j], m[j][i] = z, z.conjugate()
    return _text(m)


def _cyclic(twice: int) -> bytes:
    """K = S1xS2 + S2xS3 + S3xS1 at spin twice / 2: its pattern is one
    component, so a file of it takes the component route."""
    n = twice + 1
    m = [(twice - 2 * i) / 2 for i in range(n)]
    casimir = twice * (twice + 2) / 4
    plus = [[0j] * n for _ in range(n)]
    for i in range(n - 1):
        plus[i][i + 1] = complex(math.sqrt(casimir - m[i + 1] * (m[i + 1] + 1)))
    s1 = [[(plus[i][j] + plus[j][i]) / 2 for j in range(n)] for i in range(n)]
    s2 = [[(plus[i][j] - plus[j][i]) / 2j for j in range(n)] for i in range(n)]
    s3 = [[complex(m[i]) if i == j else 0j for j in range(n)] for i in range(n)]
    pairs = ((s1, s2), (s2, s3), (s3, s1))
    # the entry of row (a, b) and column (c, d) of each Kronecker product
    rows = [(a, b) for a in range(n) for b in range(n)]
    return _text([[sum(x[a][c] * y[b][d] for x, y in pairs) for c, d in rows] for a, b in rows])


def _identity(n: int) -> bytes:
    return b"".join(b" ".join([b"0"] * i + [b"1"] + [b"0"] * (n - 1 - i)) + b"\n" for i in range(n))


FILES = {
    "complex-5.txt": _hermitian(1, 5, 1.0, "complex"),
    "complex-24.txt": _hermitian(2, 24, 0.3, "complex"),
    "complex-40.txt": _hermitian(3, 40, 1.0, "complex"),
    "real-30.txt": _hermitian(4, 30, 0.2, "real"),
    "real-40.txt": _hermitian(5, 40, 1.0, "real"),
    "gauged-30.txt": _hermitian(6, 30, 0.2, "gauged"),
    "gauged-40.txt": _hermitian(7, 40, 1.0, "gauged"),
    "imaginary-tridiagonal.txt": b"1 2i 0 0\n-2i -1 3i 0\n0 -3i 2 1i\n0 0 -1i 0\n",
    "odd-cycle.txt": b"0 1i -1i\n-1i 0 1i\n1i -1i 0\n",
    "mixed-blocks.txt": b"2 1-1i 0 0\n1+1i 3 0 0\n0 0 1 0.5\n0 0 0.5 -1\n",
    "signed-zeros.txt": b"-0 1 -0\n1 -0-0i 0\n-0 0 2\n",
    "signed-zeros-imaginary.txt": b"0 1i -0\n-1i 0 1\n-0 1 0\n",
    "bom.txt": b"\xef\xbb\xbf2 1-1i\n1+1i 3\n",
    "line-breaks.txt": "2 1-1i\x0c1+1i 3\x0b\x1d\x1e\u2029".encode(),
    "line-breaks-bad.txt": "# a\x1c\x852 1-1i\u2028\r1+1i oops\r\n".encode(),
    "latin1-line1.txt": "# r\xe9el\n1 0\n0 1\n".encode("latin-1"),
    "latin1-line3.txt": "1 0\n0 1\n# r\xe9el\n".encode("latin-1"),
    "latin1-after-ff.txt": "1 0\n0 1\x0c# r\xe9el\n".encode("latin-1"),
    "comments-only.txt": b"# a matrix\n\n   \n# of no rows\n",
    "corrupt.txt": b"2 oops\n1 3\n",
    "ragged.txt": b"1 0\n0\n",
    "non-square.txt": b"1 2 3\n4 5 6\n",
    "non-hermitian.txt": b"1 2\n0 1\n",
    "tiny-asymmetry.txt": b"0 1e-300\n0 0\n",
    "overflow.txt": b"1e308 0\n0 1\n",
    "nan.txt": b"1 0\n0 nan\n",
    "inf.txt": b"1 0\n0 inf\n",
    "cyclic-2s2.txt": _cyclic(2),
    "identity-625.txt": _identity(625),
    "identity-626.txt": _identity(626),
    "rows-626.txt": b"1\n" * 626,
    "wide-then-bad-bytes.txt": b" ".join([b"0"] * 626) + b"\n\xff\xfe\n",
    "one-huge-line.txt": b" ".join([b"1.5"] * 10**5) + b"\n",
    "wide-second-row.txt": b"1 0\n" + b" ".join([b"0"] * 10**5) + b"\n",
    "wide-second-row-bad.txt": b"1 0\n0 oops 2\n",
}

_FILE = ("spectrum", "--hamiltonian", "file", "--file")

ARGV = (
    *(
        ("spectrum", "--spin", spin, "--hamiltonian", kind, "--format", fmt)
        for spin in SPINS
        for kind in ("H", "K")
        for fmt in FORMATS
    ),
    *(("verify", "--spin", spin, "--format", fmt) for spin in SPINS for fmt in FORMATS),
    *(
        ("gate", "--spin", spin, "--hamiltonian", kind, "--theta", "0.7", "--check",
         "--format", fmt)
        for spin in ("1", "6", "12")
        for kind in ("H", "K")
        for fmt in FORMATS
    ),
    *(
        ("gate", "--spin", "3", "--hamiltonian", "K", "--theta", "0", "--format", fmt)
        for fmt in FORMATS
    ),
    # K's gate at theta = 0: 160 of its 169 rows are not full, and no two
    # are alike
    *(
        ("gate", "--spin", "6", "--hamiltonian", "K", "--theta", "0", "--check",
         "--format", fmt)
        for fmt in FORMATS
    ),
    *(
        ("gate", "--spin", "1", "--theta", "0.3", "--check", "--tol", "1e-3", "--format", fmt)
        for fmt in FORMATS
    ),
    *(
        ("verify", "--spin", "12", "--kmax", kmax, "--format", fmt)
        for kmax in ("120", "1000")
        for fmt in FORMATS
    ),
    # a block that runs out of sweeps, its tol below the rounding floor
    *((*_FILE, "{dir}/cyclic-2s2.txt", "--tol", "1e-100", "--format", fmt) for fmt in FORMATS),
    *(("table", "--max-spin", spin, "--format", fmt) for spin in ("2", "12") for fmt in FORMATS),
    *((*_FILE, "{dir}/" + name, "--format", fmt) for name in FILES for fmt in FORMATS),
    *((*_FILE, "{dir}/tiny-asymmetry.txt", "--tol", "5e-324", "--format", fmt) for fmt in FORMATS),
    *((*_FILE, "{dir}/missing.txt", "--format", fmt) for fmt in FORMATS),
    # a tol below the rounding of the sector basis, and one that K's one
    # block reaches, 96 sweeps at 1e-70, and one that it does not
    ("verify", "--spin", "3/2", "--tol", "1e-100"),
    ("verify", "--spin", "12", "--tol", "1e-100"),
    ("table", "--max-spin", "3", "--tol", "1e-100"),
    ("gate", "--spin", "12", "--hamiltonian", "K", "--theta", "0.7", "--tol", "1e-100"),
    ("verify", "--spin", "1", "--tol", "1e-100"),
    ("spectrum", "--spin", "4", "--hamiltonian", "K", "--tol", "1e-100"),
    (*_FILE, "{dir}/cyclic-2s2.txt", "--tol", "1e-70"),
    (*_FILE, "{dir}/cyclic-2s2.txt", "--tol", "1e-80"),
    # the edges of the moments' rule for J: J = 5 and 6 with kmax = n, J from
    # the product count with exit 3 on overflow, J capped by the byte budget;
    # and K at its first n above the rows of one block of its residual
    ("verify", "--spin", "2"),
    ("verify", "--spin", "5/2"),
    ("verify", "--spin", "2", "--kmax", "10000"),
    ("verify", "--spin", "6", "--kmax", "100000"),
    ("gate", "--spin", "5/2", "--hamiltonian", "K", "--theta", "0.7", "--check"),
    # K's moments at the last spin that reads every trace over the whole
    # stack, and at the first that reads them on the band
    ("verify", "--spin", "9"),
    ("verify", "--spin", "19/2"),
    ("--help",),
    ("spectrum", "--help"),
    ("verify", "--help"),
    ("gate", "--help"),
    ("table", "--help"),
    (),
    ("bogus",),
    ("spectrum", "--spin", "1/3"),
    # spins whose exponent is refused, or whose text the cap error names
    ("spectrum", "--spin", "1e100000"),
    ("table", "--max-spin", "1e400"),
    ("verify", "--spin", "1e-400"),
    ("gate", "--spin", "1e300", "--theta", "1"),
    ("spectrum", "--hamiltonian", "file"),
    ("gate", "--spin", "1", "--theta", "inf"),
    # negative non-finite values, each named in its own message
    *(("gate", "--spin", "1", "--theta", theta) for theta in ("-inf", "-nan", "-Infinity")),
    ("spectrum", "--spin", "1", "--cluster-tol", "-inf"),
    ("verify", "--spin", "1", "--tol", "-nan"),
    ("table", "--max-spin", "30"),
    ("verify", "--spin", "1", "--tol", "1"),
)


def _run(root: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """The exit code and the sha256 of stdout and stderr of one command."""
    env = {
        **os.environ,
        "PYTHONPATH": str(root / "src"),
        "PYTHONWARNINGS": "error",
        "OPENBLAS_NUM_THREADS": "1",
    }
    # an older tree may still read its tolerance from this variable
    env.pop("SPIN_TOOL_TOL", None)
    done = subprocess.run(
        [sys.executable, "-m", "spintool.cli", *argv], capture_output=True, env=env
    )
    digest = [hashlib.sha256(stream).hexdigest() for stream in (done.stdout, done.stderr)]
    return done.returncode, *digest


def sweep(argvs, old_root, new_root) -> list[tuple[str, ...]]:
    """Every argv of ``argvs`` on which the two trees differ, in order.

    "{dir}" in an argument is the directory that ``FILES`` are written to.
    Two commands run at a time.
    """
    with tempfile.TemporaryDirectory() as folder:
        for name, data in FILES.items():
            Path(folder, name).write_bytes(data)
        commands = [tuple(arg.replace("{dir}", folder) for arg in argv) for argv in argvs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            old = list(pool.map(lambda argv: _run(Path(old_root), argv), commands))
            new = list(pool.map(lambda argv: _run(Path(new_root), argv), commands))
    return [tuple(argv) for argv, a, b in zip(argvs, old, new) if a != b]


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python tests/cli_sweep.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    differ = sweep(ARGV, sys.argv[1], sys.argv[2])
    for argv in differ:
        print(" ".join(argv))
    print(f"{len(differ)} of {len(ARGV)} commands differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
