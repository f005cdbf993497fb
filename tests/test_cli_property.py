"""Property tests of the CLI.

Every argv the CLI accepts ends in a documented exit code: hypothesis draws
argv for each subcommand at spins 1/2..2, including huge and subnormal
angles and tolerances.  ``cli.main`` must return 0, 1, 2 or 3 without
raising; on 0 or 1 a json report must validate against the shipped schema
and plain or csv output must not contain a non-finite number.

The gate matrix writer gives the bytes of one format_complex call or one
json pair per entry: hypothesis draws matrices of empty, sparse and full
rows, rows repeated byte for byte or at other columns, and near-repeats
that differ only by a -0.0 for a +0.0 or by one ulp.
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

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "report_schema.json").read_text(encoding="utf-8")
)
NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)

SPINS = st.sampled_from(["1/2", "1", "3/2", "2"])
EDGE_FLOATS = [1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0]
THETAS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
)
TOLS = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308),
    st.sampled_from([5e-324, 1e-300, 1e-12, 1.0, 1e308]),
)


def _value(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    """['--flag', 'value'] or ['--flag=value']; '-1e-05' must read as a value."""
    return st.tuples(values, st.booleans()).map(
        lambda pair: [f"{flag}={pair[0]}"] if pair[1] else [flag, str(pair[0])]
    )


def _option(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    """Either nothing or the flag with a drawn value, in either form."""
    return st.one_of(st.just([]), _value(flag, values))


def _common() -> st.SearchStrategy:
    return st.tuples(
        st.sampled_from(["plain", "json", "csv"]).map(lambda f: ["--format", f]),
        _option("--tol", TOLS.map(repr)),
        _option("--max-sweeps", st.integers(1, 60)),
    ).map(lambda parts: sum(parts, []))


COMMANDS = {
    "spectrum": st.tuples(
        SPINS.map(lambda s: ["spectrum", "--spin", s]),
        st.sampled_from([["--hamiltonian", "H"], ["--hamiltonian", "K"]]),
    ),
    "verify": st.tuples(
        SPINS.map(lambda s: ["verify", "--spin", s]),
        _option("--kmax", st.integers(1, 700)),
    ),
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


@pytest.mark.parametrize("colliding", [False, True], ids=["hash", "colliding-hash"])
def test_gate_writer_gives_the_bytes_of_one_call_per_entry(colliding):
    # the writer counts rows by a hash of their kept bytes; with a hash that
    # collides for all rows with as many kept entries, a row may still take
    # another's text only where their bytes are equal
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
            "matrix": m,
            "check": None,
            "verdict": True,
        }
        _assert_same_text("".join(cli._render_csv(report)), _reference_csv(report))
        _assert_same_text("".join(cli._render_plain(report)), _reference_plain(report))
        _assert_same_text("".join(cli._render_json(report)), _dumps_with_pairs(report))

    with pytest.MonkeyPatch.context() as patch:
        if colliding:
            patch.setattr(cli, "hash", len, raising=False)
        check()
