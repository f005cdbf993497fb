"""Property tests of the CLI.

Every argv the CLI accepts ends in a documented exit code: hypothesis draws
argv for each subcommand at spins 1/2..2, including huge and subnormal
angles.  ``cli.main`` must return 0, 1, 2 or 3 without
raising; on 0 or 1 a json report must validate against the shipped schema
and plain or csv output must not contain a non-finite number.

The gate matrix writer gives the bytes of one format_complex call or one
json pair per entry: hypothesis draws matrices of empty, sparse and full
rows, rows repeated byte for byte or at other columns, and near-repeats
that differ only by a -0.0 for a +0.0 or by one ulp.

Every matrix file that ``spectrum --hamiltonian file`` reads ends in a
documented exit code too: hypothesis draws real, purely imaginary, sparse
and nearly Hermitian matrices of sizes 1..12, with subnormal, huge and
negative-zero entries, at the one tolerance that every command runs at.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _assert_same_text, _dumps_with_pairs, _reference_csv, _reference_plain

import spintool.cli as cli
from spintool.linalg import DEFAULT_TOL, BlockStack
from spintool.spectral import default_cluster_tol

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "report_schema.json").read_text(encoding="utf-8")
)
NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)

SPINS = st.sampled_from(["1/2", "1", "3/2", "2"])
EDGE_FLOATS = [1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0]
THETAS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
)


def _value(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    """['--flag', 'value'] or ['--flag=value']; '-1e-05' must read as a value."""
    return st.tuples(values, st.booleans()).map(
        lambda pair: [f"{flag}={pair[0]}"] if pair[1] else [flag, str(pair[0])]
    )


def _common() -> st.SearchStrategy:
    return st.sampled_from(["plain", "json", "csv"]).map(lambda f: ["--format", f])


COMMANDS = {
    "spectrum": st.tuples(
        SPINS.map(lambda s: ["spectrum", "--spin", s]),
        st.sampled_from([["--hamiltonian", "H"], ["--hamiltonian", "K"]]),
    ),
    "verify": st.tuples(SPINS.map(lambda s: ["verify", "--spin", s])),
    "gate": st.tuples(
        SPINS.map(lambda s: ["gate", "--spin", s]),
        st.sampled_from([["--hamiltonian", "H"], ["--hamiltonian", "K"]]),
        _value("--theta", THETAS.map(repr)),
        st.sampled_from([[], ["--check"]]),
    ),
    "table": st.tuples(SPINS.map(lambda s: ["table", "--max-spin", s])),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_drawn_argv_ends_in_an_exit_code(command):
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(parts=COMMANDS[command], common=_common())
    def check(parts, common):
        argv = sum(parts, []) + common
        code, out = _run(argv)
        assert code in (0, 1, 2, 3), argv
        if code in (0, 1):
            if "json" in argv:
                jsonschema.validate(json.loads(out), SCHEMA)
            else:
                assert not NON_FINITE.search(out), argv

    check()


# the parts of a gate entry: signed zeros, the smallest subnormal, a huge
# value and any other finite float
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _gate_matrices(draw) -> np.ndarray:
    n = draw(st.integers(1, 8))
    m = np.zeros((n, n), dtype=complex)
    kinds = ["empty", "sparse", "full", "repeat", "moved", "near"]
    for i in range(n):
        kind = draw(st.sampled_from(kinds if i else kinds[:3]))
        if kind in ("sparse", "full"):
            keep = [True] * n
            if kind == "sparse":
                keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            for j in np.flatnonzero(keep):
                m[i, j] = complex(draw(PARTS), draw(PARTS))
            continue
        if kind == "empty":
            continue
        source = m[draw(st.integers(0, i - 1))]
        if kind == "moved":
            # the same kept values, byte for byte, at other columns
            kept = np.flatnonzero(source.view(np.uint64).reshape(n, 2).any(axis=1))
            columns = sorted(draw(st.permutations(range(n)))[: kept.size])
            m[i, columns] = source[kept]
            continue
        m[i] = source
        if kind == "near":
            # a -0.0 for a +0.0, or the reverse, or one ulp toward zero
            parts = m[i].view(np.float64)
            k = draw(st.integers(0, 2 * n - 1))
            parts[k] = -parts[k] if parts[k] == 0 else np.nextafter(parts[k], 0.0)
    return m


def test_gate_writer_gives_the_bytes_of_one_call_per_entry():
    # rows that repeat another, move its kept values to other columns or
    # differ from it by a signed zero or an ulp are each written as their
    # own bytes
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(m=_gate_matrices())
    def check(m):
        report = {
            "command": "gate",
            "spin": "1/2",
            "hamiltonian": "H",
            "theta": 0.7,
            "dimension": m.shape[0],
            "tol": 1e-12,
            "matrix": BlockStack.of(m),
            "check": None,
            "verdict": True,
        }
        _assert_same_text("".join(cli._render_csv(report)), _reference_csv(report))
        _assert_same_text("".join(cli._render_plain(report)), _reference_plain(report))
        _assert_same_text("".join(cli._render_json(report)), _dumps_with_pairs(report))

    check()


# entries of a matrix file: any moderate float, and a few at the edges of
# double precision
ENTRIES = st.floats(min_value=-1e3, max_value=1e3)
EDGES = st.sampled_from([5e-324, -5e-324, 1e308, -0.0])
PATTERNS = ("real", "imaginary", "sparse", "nearly Hermitian")


@st.composite
def _matrix_files(draw) -> tuple[np.ndarray, float | None]:
    """A matrix, and for a nearly Hermitian one its defect ||M - M^H||_F,
    drawn just inside or just outside DEFAULT_TOL * n."""
    n = draw(st.integers(1, 12))
    pattern = draw(st.sampled_from(PATTERNS))
    upper = np.triu_indices(n, 1)
    m = np.zeros((n, n), dtype=complex)
    diagonal = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    if pattern != "imaginary":
        m[np.diag_indices(n)] = diagonal
    k = upper[0].size
    links = draw(st.lists(ENTRIES, min_size=k, max_size=k))
    if pattern == "imaginary":
        m[upper] = 1j * np.array(links)
    elif pattern == "real":
        m[upper] = links
    else:
        imag = draw(st.lists(ENTRIES, min_size=k, max_size=k))
        m[upper] = np.array(links) + 1j * np.array(imag)
    if pattern == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        m[upper] *= np.array(keep, dtype=bool)
    # up to three entries at the edges, each in a part that keeps the pattern
    spots = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans(), EDGES)
    for i, j, imaginary, edge in draw(st.lists(spots, max_size=3)):
        i, j = min(i, j), max(i, j)
        if i == j or pattern in ("real", "imaginary"):
            imaginary = pattern == "imaginary"
        if imaginary and i == j:
            continue  # an imaginary Hermitian matrix has a zero diagonal
        m[i, j] = complex(m[i, j].real, edge) if imaginary else complex(edge, m[i, j].imag)
    m.T[upper] = m[upper].conj()
    defect = None
    if pattern == "nearly Hermitian":
        # an imaginary part t on the real diagonal is exact, and its defect 2|t|
        bound = DEFAULT_TOL * n
        defect = bound * draw(st.sampled_from([1 - 2**-10, 1 + 2**-10]))
        m[-1, -1] += 0.5j * defect
    return m, defect


def test_every_drawn_matrix_file_ends_in_an_exit_code(tmp_path):
    path = tmp_path / "m.txt"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(drawn=_matrix_files())
    def check(drawn):
        m, defect = drawn
        path.write_text(
            "\n".join(" ".join(cli.format_complex(complex(z)) for z in row) for row in m) + "\n",
            encoding="utf-8",
        )
        n = m.shape[0]
        for fmt in ("json", "csv", "plain"):
            argv = ["spectrum", "--hamiltonian", "file", "--file", str(path), "--format", fmt]
            code, out = _run(argv)
            assert code in (0, 1, 2, 3), argv
            # 2|t| is exact, and so is its square for t far above underflow
            if defect is not None and defect > DEFAULT_TOL * n and defect > 1e-150:
                assert code == 3, argv
            if code not in (0, 1):
                continue
            if fmt != "json":
                assert not NON_FINITE.search(out), argv
                continue
            report = json.loads(out)
            jsonschema.validate(report, SCHEMA)
            if code:
                continue
            # Each value joins its cluster within cluster_tol of the running
            # mean, which never exceeds the values joined so far, so a
            # cluster spans at most (n - 1) cluster_tol and each value lies
            # that close to its mean.  The Jacobi values are within 1e-12
            # ||M||_F and eigvalsh's within a few n eps ||M||_2, both below
            # one more cluster_tol = 1e-9 max(1, ||M||_F): n cluster_tol.
            values = [c["value"] for c in report["clusters"] for _ in range(c["multiplicity"])]
            # halves first, so that a 1e308 entry and its mirror do not overflow
            oracle = np.linalg.eigvalsh(m / 2 + m.conj().T / 2)
            bound = n * default_cluster_tol(m)
            assert report["cluster_tol"] == default_cluster_tol(m)
            assert np.max(np.abs(np.array(values) - oracle)) <= bound, (argv, values, oracle)

    check()
