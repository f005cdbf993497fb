"""Property test: every argv the CLI accepts ends in a documented exit code.

Hypothesis draws argv for each subcommand at spins 1/2..2, including huge
and subnormal angles and tolerances.  ``cli.main`` must return 0, 1, 2 or 3
without raising; on 0 or 1 a json report must validate against the shipped
schema and plain or csv output must not contain a non-finite number.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
