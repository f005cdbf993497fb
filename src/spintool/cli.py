"""Command line interface.

Four subcommands: ``spectrum`` (clustered eigenvalues of a built operator or
a matrix file), ``verify`` (full algebra + isospectrality certificate for
one spin), ``gate`` (synthesize exp(-i theta M)), and ``table`` (one
certificate row per spin up to a maximum).

Each subcommand builds one JSON report dict and nothing else; ``main``
renders it and derives the exit code from its verdict.  ``json`` output
(validating against the shipped report_schema.json) is the report itself;
``plain`` key=value lines and ``csv`` are views of it.  The csv output is the
command's main table (spectrum clusters, verify moments, gate matrix, table
rows) and the repeated plain lines show the same cells.  The gate report
holds its matrix as the complex array, and every format writes it straight
from that array; in json each entry is an [re, im] pair, in the same bytes
that ``json.dumps(indent=2)`` gives for a list of such pairs.  A renderer
runs every check when it is called, before the first write, and then hands
out its text in pieces, a line or a matrix row each, which ``main`` writes
as they are drawn: an error writes nothing, and no more than one row of a
gate's text is held at a time.

Exit codes: 0 success, 1 a verification verdict failed, 2 usage or input
error, 3 numerical failure (non-Hermitian input, no convergence, overflow,
including a gate whose phases theta * lambda overflow).  A reader that
closes stdout early stops the writing, not the verdict: the code is the
verdict's, with no traceback.  ``gate --check``
fails a gate whose unitarity residual exceeds 1e-8 or whose generator's
eigenpair residual exceeds 1e-8 * max(1, max |lambda|), and reports a
global phase whenever all eigenphases coincide on the circle, also when
they straddle the 0 / 2 pi wrap.  No tolerance is an option: every command
calls the library at its defaults, ``DEFAULT_TOL`` = 1e-12 and
``default_cluster_tol``, the constants at which tests/test_margins.py
measures every bound, and every block may take ``eig.MAX_SWEEPS`` sweeps.
A spin whose decimal exponent lies beyond +-308 is refused before it is
read, and one above the cap is named as given.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .eig import hermitian_eig
from .gates import Gate, gate_eigenphases, synthesize_gate
from .hamiltonians import build_cyclic, build_heisenberg
from .linalg import DEFAULT_TOL, NumericalError
from .spectral import (
    IsospectralReport,
    Spectrum,
    certify_isospectral,
    closed_form_spectrum,
    cluster_spectrum,
    default_cluster_tol,
    spectra_match,
)
from .spin import MAX_TWICE_SPIN, HalfInteger, make_spin_triple, verify_su2

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# largest 2s whose moment range is the full dimension (2s+1)^2; beyond it
# the range is the 2s+1 prefix, because from 2s = 13 the raw traces of the
# full range pass 1e308 (48.75^196 is about 1e331).
_FULL_MOMENT_TWICE = 12

# the builder that each --hamiltonian name stands for
_OPERATORS = {"H": build_heisenberg, "K": build_cyclic}

_GATE_RESIDUAL_LIMIT = 1e-8
# per unit of max(1, max |lambda|): a gate can be unitary to rounding while
# its generator's eigenpairs are far off, so this guards the eigensolve
_EIGENPAIR_RESIDUAL_LIMIT = 1e-8
_CLOSED_FORM_TOL = 1e-9
_UNIFORM_PHASE_TOL = 1e-9
# a matrix file is at most as wide as the product space at the cap; a dense
# one of that width takes about a minute, and the cost grows like n^3.3
_MAX_FILE_DIMENSION = (MAX_TWICE_SPIN + 1) ** 2


def _parse_spin_arg(text: str) -> HalfInteger:
    try:
        s = HalfInteger.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if s.twice > MAX_TWICE_SPIN:
        raise argparse.ArgumentTypeError(
            f"spin {text.strip()} exceeds the supported cap 2s <= {MAX_TWICE_SPIN}"
        )
    return s


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reads -1.5e-10, -.5, -inf and -nan as negative numbers, not as options,
    so that a bad value gets its own message, not "expected one argument".

    argparse's own matcher, ``^-\\d+$|^-\\d*\\.\\d+$`` from Python 3.10 to 3.13,
    takes only plain decimals such as -1.5; subparsers are built from this
    class as well.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser.  Each subcommand's ``handler`` looks its
    ``cmd_*`` function up when it runs, not when the parser is built, so
    that :func:`main` builds one parser per process."""
    parser = _Parser(
        prog="spintool",
        description=(
            "Spin operator triples, the two-site exchange operators "
            "H = S1xS1 + S2xS2 + S3xS3 and K = S1xS2 + S2xS3 + S3xS1, "
            "isospectrality certificates, and gate synthesis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("plain", "json", "csv"),
            default="plain",
            help="output format (default: plain)",
        )

    p_spectrum = sub.add_parser(
        "spectrum", help="clustered eigenvalues of a built operator or a matrix file"
    )
    p_spectrum.add_argument("--spin", type=_parse_spin_arg, default=None)
    p_spectrum.add_argument(
        "--hamiltonian",
        choices=(*_OPERATORS, "file"),
        default="H",
        help="operator to diagonalize (default: H)",
    )
    p_spectrum.add_argument(
        "--file",
        default=None,
        help="path of a whitespace-separated matrix of a+bi entries, at most "
        f"{_MAX_FILE_DIMENSION} x {_MAX_FILE_DIMENSION}, where a dense matrix takes "
        "about a minute (required with --hamiltonian file, and rejected otherwise)",
    )
    add_common(p_spectrum)
    p_spectrum.set_defaults(handler=lambda args: cmd_spectrum(args))

    p_verify = sub.add_parser(
        "verify", help="algebra suite plus isospectrality certificate for one spin"
    )
    p_verify.add_argument("--spin", type=_parse_spin_arg, required=True)
    add_common(p_verify)
    p_verify.set_defaults(handler=lambda args: cmd_verify(args))

    p_gate = sub.add_parser("gate", help="synthesize the gate exp(-i theta M)")
    p_gate.add_argument("--spin", type=_parse_spin_arg, required=True)
    p_gate.add_argument(
        "--hamiltonian", choices=tuple(_OPERATORS), default="H", help="generator (default: H)"
    )
    p_gate.add_argument("--theta", type=_finite_float, required=True)
    p_gate.add_argument(
        "--check",
        action="store_true",
        help="also print the unitarity and eigenpair residuals and the "
        "eigenphase table; exit 1 if the unitarity residual exceeds 1e-8 or "
        "the eigenpair residual exceeds 1e-8 * max(1, max |lambda|)",
    )
    add_common(p_gate)
    p_gate.set_defaults(handler=lambda args: cmd_gate(args))

    p_table = sub.add_parser(
        "table", help="one isospectrality row per spin 1/2, 1, ..., max-spin"
    )
    p_table.add_argument("--max-spin", type=_parse_spin_arg, required=True)
    add_common(p_table)
    p_table.set_defaults(handler=lambda args: cmd_table(args))

    return parser


def parse_complex_token(token: str) -> complex:
    """Parse one finite a+bi entry; accepts bare reals and bare [+-]i terms.

    Only the i or I that ends the token, or that comes before the ")" of
    "(a+bi)", is read as the unit, so inf and Infinity are numbers, and not
    finite.
    """
    text = token
    body = token.removesuffix(")")
    if body.endswith(("i", "I")):
        text = body[:-1] + "j" + token[len(body) :]
    try:
        z = complex(text)
    except ValueError:
        raise ValueError(f"cannot parse matrix entry {token!r}") from None
    if not np.isfinite(z):
        raise ValueError(f"matrix entry {token!r} is not finite")
    return z


def format_complex(z: complex) -> str:
    """Render a complex number as a+bi with full float precision."""
    re, im = z.real, z.imag
    sign = "-" if im < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}i"


def _file_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 file, read and decoded one at a time.

    A byte-order mark at the start is dropped.  Each line read is split
    again by ``str.splitlines``, so that every line break it knows, \\x0c or
    U+2028 say, ends a line.  A decode error is a ValueError
    "<path>:<line>: <message>", whose line is the one that holds the bad
    byte and whose position counts from that line's start; a read error is
    a ValueError that names the file.  Either is raised when the line that
    holds it is reached.
    """
    lineno = 0
    try:
        with open(path, "rb") as file:
            encoding = "utf-8-sig"
            for raw in file:
                try:
                    lines = raw.decode(encoding).splitlines()
                except UnicodeDecodeError as exc:
                    # the lines before the bad byte, and its own up to it
                    *before, start = (exc.object[: exc.start].decode() + "x").splitlines()
                    offset = exc.start - len(start[:-1].encode())
                    line = UnicodeDecodeError(
                        exc.encoding,
                        exc.object[offset:],
                        exc.start - offset,
                        exc.end - offset,
                        exc.reason,
                    )
                    raise ValueError(f"{path}:{lineno + len(before) + 1}: {line}") from None
                lineno += len(lines)
                yield from lines
                encoding = "utf-8"
    except OSError as exc:
        raise ValueError(f"cannot read matrix file {path!r}: {exc}") from None


def read_matrix_file(path: str) -> np.ndarray:
    """Read a matrix of whitespace-separated a+bi entries, one row per line.

    The file is UTF-8, with or without a byte-order mark, and is read a line
    at a time (see ``_file_lines``).  Blank lines and lines starting with
    '#' are skipped.  A first row wider than the limit, a later row wider
    than the first, or a row past the limit, is refused before its entries
    are parsed and before a later line is decoded; a row's entries are split
    off only up to its limit, and the rest are counted for the message.
    Every read, decode or parse error is a ValueError that names the file.
    Returns a read-only complex128 array.
    """
    limit = f"a matrix file holds at most {_MAX_FILE_DIMENSION} x {_MAX_FILE_DIMENSION}"
    rows: list[list[complex]] = []
    for lineno, line in enumerate(_file_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if len(rows) == _MAX_FILE_DIMENSION:
            raise ValueError(f"{path}:{lineno}: more than {_MAX_FILE_DIMENSION} rows; {limit}")
        width = len(rows[0]) if rows else _MAX_FILE_DIMENSION
        # at most width + 1 tokens, the last the rest of the line, whose
        # entries are counted without a list of them
        tokens = line.split(maxsplit=width)
        if len(tokens) > width:
            count = width + sum(1 for _ in re.finditer(r"\S+", tokens[-1]))
            expected = f", expected {width}" if rows else f"; {limit}"
            raise ValueError(f"{path}:{lineno}: row has {count} entries{expected}")
        try:
            rows.append([parse_complex_token(tok) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: row has {len(rows[-1])} entries, "
                f"expected {len(rows[0])}"
            )
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    # every row is as long as the first and every entry finite
    matrix = np.array(rows, dtype=np.complex128)
    matrix.flags.writeable = False
    return matrix


def _cluster_dicts(spectrum: Spectrum) -> list[dict]:
    return [
        {"value": float(value), "multiplicity": int(mult)}
        for value, mult in spectrum.clusters
    ]


def _spin_notes(s: HalfInteger | None) -> list[str]:
    if s is not None and s.twice == 3:
        return [
            "eigenvalue 9/4 has multiplicity 7: the sector multiplicities "
            "1+3+5+7 must sum to the dimension 16, so any listing of 9/4 "
            "with multiplicity 1 is inconsistent"
        ]
    return []


def _closed_form_match(spectrum: Spectrum, s: HalfInteger) -> bool:
    """Whether spectrum is spin s's closed form, value by value within
    ``_CLOSED_FORM_TOL`` and multiplicity by multiplicity."""
    return spectra_match(spectrum, closed_form_spectrum(s), value_tol=_CLOSED_FORM_TOL)


def cmd_spectrum(args: argparse.Namespace) -> dict:
    """The report keeps --spin and --file as given: a matrix file has no
    spin and no closed form, and a built operator has no source."""
    if args.hamiltonian == "file":
        if args.file is None:
            raise ValueError("--hamiltonian file requires --file PATH")
        if args.spin is not None:
            raise ValueError("--spin does not apply to --hamiltonian file")
        matrix = read_matrix_file(args.file)
        charge = None
    else:
        if args.spin is None:
            raise ValueError(f"--hamiltonian {args.hamiltonian} requires --spin")
        if args.file is not None:
            raise ValueError("--file applies only to --hamiltonian file")
        h = _OPERATORS[args.hamiltonian](args.spin)
        matrix, charge = h.matrix, h.charge

    dec = hermitian_eig(matrix, charge=charge)
    cluster_tol = default_cluster_tol(matrix)
    spectrum = cluster_spectrum(dec.values, cluster_tol)
    closed_form_match = None
    if args.spin is not None:
        closed_form_match = _closed_form_match(spectrum, args.spin)
    return {
        "command": "spectrum",
        "spin": None if args.spin is None else str(args.spin),
        "hamiltonian": args.hamiltonian,
        "source": args.file,
        "dimension": spectrum.dimension,
        "tol": DEFAULT_TOL,
        "cluster_tol": cluster_tol,
        "clusters": _cluster_dicts(spectrum),
        "closed_form_match": closed_form_match,
        "verdict": closed_form_match is not False,
        "notes": _spin_notes(args.spin),
    }


def _certify_spin(s: HalfInteger, kmax: int) -> tuple[IsospectralReport, bool]:
    h = build_heisenberg(s)
    k = build_cyclic(s)
    cert = certify_isospectral(
        h.matrix,
        k.matrix,
        kmax=kmax,
        prefix=s.dimension,
        charges=(h.charge, k.charge),
    )
    return cert, _closed_form_match(cert.spectrum_a, s)


def cmd_verify(args: argparse.Namespace) -> dict:
    s = args.spin
    algebra = verify_su2(make_spin_triple(s))
    kmax = s.dimension**2 if s.twice <= _FULL_MOMENT_TWICE else s.dimension
    cert, closed_form_match = _certify_spin(s, kmax)
    return {
        "command": "verify",
        "spin": str(s),
        "dimension": cert.dimension,
        "tol": DEFAULT_TOL,
        "kmax": len(cert.moments.powers),
        "cluster_tol": cert.spectrum_a.cluster_tol,
        "algebra": {
            "tol": algebra.tol,
            "max_residual": algebra.max_residual,
            "passed": algebra.passed,
            "residuals": dict(algebra.residuals),
        },
        "clusters": _cluster_dicts(cert.spectrum_a),
        "clusters_b": _cluster_dicts(cert.spectrum_b),
        "spectra_equal": cert.spectra_equal,
        "closed_form_match": closed_form_match,
        "moments": dict(vars(cert.moments)),
        "verdict": algebra.passed and cert.verdict and closed_form_match,
        "notes": _spin_notes(s),
    }


def _gate_check(gate: Gate) -> dict:
    residual = gate.unitarity_residual
    eigenpair = gate.source_residual
    radius = max(1.0, float(np.max(np.abs(gate.source_values))))
    phases = gate_eigenphases(gate)
    # The phases lie on a circle: they span 2 pi minus the widest gap between
    # neighbours, where the last gap wraps from the largest phase back to the
    # smallest, and their arc starts just after that gap.
    gaps = np.diff(phases, append=phases[0] + 2.0 * math.pi)
    widest = int(np.argmax(gaps))
    global_phase = None
    if 2.0 * math.pi - float(gaps[widest]) <= _UNIFORM_PHASE_TOL:
        # all eigenphases coincide: the gate is a global phase times identity
        principal = float(phases[(widest + 1) % len(phases)])
        if principal > math.pi:
            principal -= 2.0 * math.pi
        global_phase = principal
    return {
        "unitarity_residual": residual,
        "eigenpair_residual": eigenpair,
        "eigenphases": [float(p) for p in phases],
        "global_phase": global_phase,
        "passed": residual <= _GATE_RESIDUAL_LIMIT
        and eigenpair <= _EIGENPAIR_RESIDUAL_LIMIT * radius,
    }


def cmd_gate(args: argparse.Namespace) -> dict:
    h = _OPERATORS[args.hamiltonian](args.spin)
    gate = synthesize_gate(h, args.theta)
    check = _gate_check(gate) if args.check else None
    return {
        "command": "gate",
        "spin": str(args.spin),
        "hamiltonian": args.hamiltonian,
        "theta": gate.theta,
        "dimension": gate.dimension,
        "tol": DEFAULT_TOL,
        # the complex array itself; json writes each entry as an [re, im] pair
        "matrix": gate.matrix,
        "check": check,
        "verdict": check is None or check["passed"],
    }


def cmd_table(args: argparse.Namespace) -> dict:
    rows = []
    for twice in range(1, args.max_spin.twice + 1):
        s = HalfInteger(twice)
        cert, closed_form_match = _certify_spin(s, s.dimension)
        rows.append(
            {
                "spin": str(s),
                "dimension": cert.dimension,
                "hamiltonian": "H",
                "cluster_tol": cert.spectrum_a.cluster_tol,
                "clusters": _cluster_dicts(cert.spectrum_a),
                "spectra_equal": cert.spectra_equal,
                "closed_form_match": closed_form_match,
                "moments": dict(vars(cert.moments)),
                "verdict": cert.verdict and closed_form_match,
                "notes": _spin_notes(s),
            }
        )
    return {
        "command": "table",
        "max_spin": str(args.max_spin),
        "tol": DEFAULT_TOL,
        "rows": rows,
        "verdict": all(row["verdict"] for row in rows),
    }


# -- rendering: plain and csv are views of the JSON report -------------------

_ZERO_CELL = format_complex(0j)


def _complex_cells(values: np.ndarray) -> list[str]:
    """format_complex's text of each entry, with its code written inline:
    a call per entry adds about 0.1 s on a dense 625 x 625 gate such as K's."""
    return [
        f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"
        for re, im in zip(values.real.tolist(), values.imag.tolist())
    ]


def _matrix_rows(
    m: np.ndarray,
    zero: str,
    cells: Callable[[np.ndarray], list[str]],
    sep: str,
    full: Callable[[np.ndarray], str] | None = None,
) -> Iterator[str]:
    """The text of each row of the complex matrix m, its entries joined by sep.

    An entry is kept unless both its parts are +0.0; the test is on the bit
    patterns, so an entry holding a -0.0 is kept and written with its own
    text.  Only the kept entries are formatted, by ``cells``; the +0.0
    entries between them are written as runs of the fixed text ``zero``.  A
    row with every entry kept is written by ``full``, by default one join of
    its cells.
    """
    n = m.shape[1]
    m = np.ascontiguousarray(m, dtype=np.complex128)
    sep_zero = sep + zero
    for row, bits in zip(m, m.view(np.uint64)):
        kept = np.flatnonzero(bits[0::2] | bits[1::2])
        if len(kept) == n:
            yield sep.join(cells(row)) if full is None else full(row)
            continue
        # the cells, and a run of zero text for each gap between them
        items = []
        last = -1
        for j, text in zip(kept.tolist(), cells(row[kept])):
            if j > last + 1:
                items.append(zero + sep_zero * (j - last - 2))
            items.append(text)
            last = j
        if last < n - 1:
            items.append(zero + sep_zero * (n - last - 2))
        yield sep.join(items)


# fields of the first plain line, after the command name
_HEAD_FIELDS = {
    "spectrum": ("spin", "hamiltonian", "dimension", "cluster_tol"),
    "verify": ("spin", "dimension", "kmax", "cluster_tol"),
    "gate": ("spin", "hamiltonian", "theta", "dimension"),
    "table": ("max_spin",),
}


def _main_table(report: dict) -> tuple[list[str], Iterable[list[str]]]:
    """Header and rows of the main table of a spectrum, verify or table
    report.

    The rows are the csv output; the repeated lines of the plain output show
    the same cells.  Cells are strings: report values as str() writes them,
    which is repr() for floats.  A gate's table is its matrix, whose rows
    both formats write whole (see ``_matrix_rows``).
    """
    command = report["command"]
    if command == "spectrum":
        header = ["value", "multiplicity"]
        rows = ([c[k] for k in header] for c in report["clusters"])
    elif command == "verify":
        m = report["moments"]
        header = ["power", "trace_a", "trace_b"]
        rows = zip(m["powers"], m["traces_a"], m["traces_b"])
    else:
        header = [
            "spin",
            "dimension",
            "num_clusters",
            "spectra_equal",
            "closed_form_match",
            "moments_passed",
            "verdict",
        ]
        rows = (
            [
                row["spin"],
                row["dimension"],
                len(row["clusters"]),
                row["spectra_equal"],
                row["closed_form_match"],
                row["moments"]["passed"],
                row["verdict"],
            ]
            for row in report["rows"]
        )
    return header, (list(map(str, row)) for row in rows)


def _kv(pairs: Iterable[tuple[str, object]]) -> str:
    return " ".join(f"{label}={value}" for label, value in pairs)


def _pass(verdict: bool) -> str:
    return "PASS" if verdict else "FAIL"


# one [re, im] entry of the gate matrix as json.dumps(indent=2) lays it out
# at its depth in the report; json writes a float as its repr
_PAIR = "[\n        %r,\n        %r\n      ]"
_ZERO_PAIR = _PAIR % (0.0, 0.0)


def _pair_cells(values: np.ndarray) -> list[str]:
    """json's [re, im] pair of each entry."""
    return [_PAIR % p for p in zip(values.real.tolist(), values.imag.tolist())]


def _render_json(report: dict) -> Iterable[str]:
    """The report as json.dumps(indent=2) writes it, in pieces.

    A gate report comes as its head, one piece per matrix row and its tail;
    any other report as one piece.  json.dumps takes its C encoder only
    without indent, so the report's largest field is written here, each
    entry as its [re, im] pair (see ``_matrix_rows``), and a row with every
    entry kept through one %-template of the whole row, built once.  Both
    checks, the head's allow_nan=False and the matrix's finiteness, run on
    the call, so a report that json cannot write raises before any piece.
    """
    if report["command"] != "gate":
        return [json.dumps(report, indent=2, allow_nan=False) + "\n"]
    text = json.dumps({**report, "matrix": None}, indent=2, allow_nan=False)
    # json escapes line breaks in strings, so no string can hold this text
    head, tail = text.split('\n  "matrix": null')
    head += '\n  "matrix": [\n    '
    m = report["matrix"]
    flat = m.view(np.float64)  # each row as re, im, re, im, ...
    finite = np.isfinite(flat)
    if not finite.all():
        value = float(flat[~finite][0])
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    sep = ",\n      "
    dense = sep.join([_PAIR] * m.shape[1])

    def full(row: np.ndarray) -> str:
        return dense % tuple(row.view(np.float64).tolist())

    rows = _matrix_rows(m, _ZERO_PAIR, _pair_cells, sep, full)
    # each row ends in the separator that follows it, so that the pieces
    # written one after another give json's text
    between, last = ",\n    ", m.shape[0] - 1
    pieces = (
        f"[\n      {row}\n    ]{'' if i == last else between}"
        for i, row in enumerate(rows)
    )
    return itertools.chain([head], pieces, ["\n  ]" + tail + "\n"])


def _render_csv(report: dict) -> Iterator[str]:
    """The command's main table as csv, one line per piece."""
    if report["command"] == "gate":
        header = [f"col{j}" for j in range(report["dimension"])]
        rows = _matrix_rows(report["matrix"], _ZERO_CELL, _complex_cells, ",")
    else:
        header, cells = _main_table(report)
        rows = map(",".join, cells)
    # no cell holds a comma, a quote or a line break, so none needs quoting
    return (line + "\n" for line in itertools.chain([",".join(header)], rows))


def _render_plain(report: dict) -> Iterator[str]:
    """The report as key=value lines, one line per piece."""
    return (line + "\n" for line in _plain_lines(report))


def _plain_lines(report: dict) -> Iterator[str]:
    command = report["command"]
    if command != "gate":
        header, rows = _main_table(report)
    yield f"{command} " + _kv((k, report[k]) for k in _HEAD_FIELDS[command])
    if command == "spectrum":
        yield from (f"cluster {_kv(zip(header, row))}" for row in rows)
        yield f"closed_form_match={report['closed_form_match']}"
    elif command == "verify":
        algebra, m = report["algebra"], report["moments"]
        yield f"algebra passed={algebra['passed']} max_residual={algebra['max_residual']}"
        yield from (f"cluster {_kv(c.items())}" for c in report["clusters"])
        yield f"spectra_equal={report['spectra_equal']}"
        yield f"closed_form_match={report['closed_form_match']}"
        fields = ("passed", "max_abs_diff", "prefix_len", "prefix_passed")
        yield "moments " + _kv((k, m[k]) for k in fields)
        yield from (f"moment {_kv(zip(header, row))}" for row in rows)
    elif command == "gate":
        check = report["check"]
        if check is not None:
            yield f"unitarity_residual={check['unitarity_residual']}"
            yield f"eigenpair_residual={check['eigenpair_residual']}"
            yield from (f"eigenphase {p}" for p in check["eigenphases"])
            if check["global_phase"] is not None:
                yield f"global_phase={check['global_phase']}"
        yield from _matrix_rows(report["matrix"], _ZERO_CELL, _complex_cells, " ")
    else:
        for row, cells in zip(report["rows"], rows):
            fields = dict(zip(header, cells))
            del fields["num_clusters"]
            fields["verdict"] = _pass(row["verdict"])
            clusters = " ".join(
                f"{c['value']}x{c['multiplicity']}" for c in row["clusters"]
            )
            yield f"row {_kv(fields.items())} clusters: {clusters}"
            yield from (f"note spin={row['spin']} {note}" for note in row["notes"])
    yield from (f"note={note}" for note in report.get("notes", ()))
    yield f"verdict={_pass(report['verdict'])}"


# each renderer's output as lazy pieces, for writelines
_RENDERERS = {"json": _render_json, "csv": _render_csv, "plain": _render_plain}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call of main: parsing leaves it as it was
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report = args.handler(args)
        pieces = _RENDERERS[args.format](report)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        # float overflow, division by zero and the like
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # every check has run before the first write, so an error writes nothing;
    # the pieces are written as they are drawn
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: stdout now points at devnull, so that the
        # flush at exit cannot raise again, and the verdict still sets the code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK if report["verdict"] else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
