"""Command line interface.

Four subcommands: ``spectrum`` (clustered eigenvalues of a built operator or
a matrix file), ``verify`` (full algebra + isospectrality certificate for
one spin), ``gate`` (synthesize exp(-i theta M)), and ``table`` (one
certificate row per spin up to a maximum).

Exit codes: 0 success, 1 a verification verdict failed, 2 usage or input
error, 3 numerical failure (non-Hermitian input, no convergence, overflow).
Reports render as ``plain`` key=value lines, ``json`` (validating against
the shipped report_schema.json), or ``csv`` with the command's main table.
The base tolerance comes from --tol, else the SPIN_TOOL_TOL environment
variable, else 1e-12.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .eig import DEFAULT_MAX_SWEEPS, hermitian_eig
from .gates import Gate, gate_eigenphases, synthesize_gate, unitarity_residual
from .hamiltonians import build_cyclic, build_heisenberg
from .linalg import DEFAULT_TOL, NumericalError, as_cmatrix
from .spectral import (
    MOMENT_TOL,
    IsospectralReport,
    MomentReport,
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

# highest power whose trace stays within double precision at the cap;
# beyond spin 6 the default moment range shrinks to the 2s+1 prefix
_FULL_MOMENT_TWICE = 12

_GATE_RESIDUAL_LIMIT = 1e-8
_CLOSED_FORM_TOL = 1e-9
_UNIFORM_PHASE_TOL = 1e-9


def _parse_spin_arg(text: str) -> HalfInteger:
    try:
        s = HalfInteger.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if s.twice > MAX_TWICE_SPIN:
        raise argparse.ArgumentTypeError(
            f"spin {s} exceeds the supported cap 2s <= {MAX_TWICE_SPIN}"
        )
    return s


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument(
            "--tol",
            type=_positive_float,
            default=None,
            help="base tolerance for the eigensolver and algebra checks "
            "(default: SPIN_TOOL_TOL env var, else 1e-12)",
        )
        p.add_argument(
            "--max-sweeps",
            type=_positive_int,
            default=DEFAULT_MAX_SWEEPS,
            help="eigensolver sweep budget, per charge sector for built "
            f"operators (default: {DEFAULT_MAX_SWEEPS})",
        )

    p_spectrum = sub.add_parser(
        "spectrum", help="clustered eigenvalues of a built operator or a matrix file"
    )
    p_spectrum.add_argument("--spin", type=_parse_spin_arg, default=None)
    p_spectrum.add_argument(
        "--hamiltonian",
        choices=("H", "K", "file"),
        default="H",
        help="operator to diagonalize (default: H)",
    )
    p_spectrum.add_argument(
        "--file",
        default=None,
        help="path of a whitespace-separated matrix of a+bi entries "
        "(required with --hamiltonian file)",
    )
    p_spectrum.add_argument(
        "--cluster-tol",
        type=_positive_float,
        default=None,
        help="degeneracy resolution (default: 1e-9 scaled by the matrix norm)",
    )
    add_common(p_spectrum)
    p_spectrum.set_defaults(handler=cmd_spectrum)

    p_verify = sub.add_parser(
        "verify", help="algebra suite plus isospectrality certificate for one spin"
    )
    p_verify.add_argument("--spin", type=_parse_spin_arg, required=True)
    p_verify.add_argument(
        "--kmax",
        type=_positive_int,
        default=None,
        help="highest moment power (default: full dimension up to spin 6, "
        "the 2s+1 prefix beyond; traces overflow doubles otherwise)",
    )
    add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_gate = sub.add_parser("gate", help="synthesize the gate exp(-i theta M)")
    p_gate.add_argument("--spin", type=_parse_spin_arg, required=True)
    p_gate.add_argument(
        "--hamiltonian", choices=("H", "K"), default="H", help="generator (default: H)"
    )
    p_gate.add_argument("--theta", type=_finite_float, required=True)
    p_gate.add_argument(
        "--check",
        action="store_true",
        help="also print the unitarity residual and eigenphase table; "
        "exit 1 if the residual exceeds 1e-8",
    )
    add_common(p_gate)
    p_gate.set_defaults(handler=cmd_gate)

    p_table = sub.add_parser(
        "table", help="one isospectrality row per spin 1/2, 1, ..., max-spin"
    )
    p_table.add_argument("--max-spin", type=_parse_spin_arg, required=True)
    add_common(p_table)
    p_table.set_defaults(handler=cmd_table)

    return parser


def _resolve_tol(args: argparse.Namespace) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("SPIN_TOOL_TOL")
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(f"SPIN_TOOL_TOL is not a number: {env!r}") from None
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"SPIN_TOOL_TOL must be positive and finite: {env!r}")
        return value
    return DEFAULT_TOL


def parse_complex_token(token: str) -> complex:
    """Parse one a+bi entry; accepts bare reals and bare [+-]i terms."""
    try:
        return complex(token.replace("I", "i").replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse matrix entry {token!r}") from None


def format_complex(z: complex) -> str:
    """Render a complex number as a+bi with full float precision."""
    re, im = z.real, z.imag
    sign = "-" if im < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}i"


def read_matrix_file(path: str) -> np.ndarray:
    """Read a matrix of whitespace-separated a+bi entries, one row per line.

    Blank lines and lines starting with '#' are skipped.  Malformed entries
    and ragged rows raise ValueError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read matrix file {path!r}: {exc}") from None
    rows: list[list[complex]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([parse_complex_token(tok) for tok in line.split()])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: row has {len(rows[-1])} entries, "
                f"expected {len(rows[0])}"
            )
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    return as_cmatrix(rows)


def _cluster_dicts(spectrum: Spectrum) -> list[dict]:
    return [
        {"value": float(value), "multiplicity": int(mult)}
        for value, mult in spectrum.clusters
    ]


def _moments_dict(report: MomentReport) -> dict:
    return {
        "powers": list(report.powers),
        "traces_a": list(report.traces_a),
        "traces_b": list(report.traces_b),
        "scale": report.scale,
        "max_abs_diff": report.max_abs_diff,
        "tol": report.tol,
        "passed": report.passed,
        "prefix_len": report.prefix_len,
        "prefix_max_abs_diff": report.prefix_max_abs_diff,
        "prefix_passed": report.prefix_passed,
    }


def _spin_notes(s: HalfInteger | None) -> list[str]:
    if s is not None and s.twice == 3:
        return [
            "eigenvalue 9/4 has multiplicity 7: the sector multiplicities "
            "1+3+5+7 must sum to the dimension 16, so any listing of 9/4 "
            "with multiplicity 1 is inconsistent"
        ]
    return []


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def cmd_spectrum(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    if args.hamiltonian == "file":
        if args.file is None:
            raise ValueError("--hamiltonian file requires --file PATH")
        matrix = read_matrix_file(args.file)
        charge = None
        spin = None
        source = args.file
    else:
        if args.spin is None:
            raise ValueError(f"--hamiltonian {args.hamiltonian} requires --spin")
        build = build_heisenberg if args.hamiltonian == "H" else build_cyclic
        h = build(args.spin)
        matrix, charge = h.matrix, h.charge
        spin = args.spin
        source = None

    dec = hermitian_eig(matrix, tol, args.max_sweeps, charge=charge)
    cluster_tol = args.cluster_tol or default_cluster_tol(matrix)
    spectrum = cluster_spectrum(dec.values, cluster_tol)
    closed_form_match = None
    if spin is not None and args.hamiltonian in ("H", "K"):
        closed_form_match = spectra_match(
            spectrum, closed_form_spectrum(spin), value_tol=_CLOSED_FORM_TOL
        )
    verdict = closed_form_match is not False
    notes = _spin_notes(spin)

    if args.format == "json":
        _emit_json(
            {
                "command": "spectrum",
                "spin": None if spin is None else str(spin),
                "hamiltonian": args.hamiltonian,
                "source": source,
                "dimension": spectrum.dimension,
                "tol": tol,
                "cluster_tol": cluster_tol,
                "clusters": _cluster_dicts(spectrum),
                "closed_form_match": closed_form_match,
                "verdict": verdict,
                "notes": notes,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["value", "multiplicity"],
            [[repr(float(v)), m] for v, m in spectrum.clusters],
        )
    else:
        lines = [
            f"spectrum spin={spin} hamiltonian={args.hamiltonian} "
            f"dimension={spectrum.dimension} cluster_tol={cluster_tol!r}"
        ]
        lines += [
            f"cluster value={float(v)!r} multiplicity={m}"
            for v, m in spectrum.clusters
        ]
        lines.append(f"closed_form_match={closed_form_match}")
        lines += [f"note={n}" for n in notes]
        lines.append(f"verdict={'PASS' if verdict else 'FAIL'}")
        _emit(lines)
    return EXIT_OK if verdict else EXIT_VERDICT


def _certify_spin(
    s: HalfInteger, kmax: int | None, tol: float, max_sweeps: int
) -> tuple[IsospectralReport, bool]:
    h = build_heisenberg(s)
    k = build_cyclic(s)
    if kmax is None:
        kmax = s.dimension**2 if s.twice <= _FULL_MOMENT_TWICE else s.dimension
    prefix = min(s.dimension, kmax)
    cert = certify_isospectral(
        h.matrix,
        k.matrix,
        kmax=kmax,
        tol=MOMENT_TOL,
        prefix=prefix,
        eig_tol=tol,
        max_sweeps=max_sweeps,
        charges=(h.charge, k.charge),
    )
    closed_form_match = spectra_match(
        cert.spectrum_a, closed_form_spectrum(s), value_tol=_CLOSED_FORM_TOL
    )
    return cert, closed_form_match


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    s = args.spin
    algebra = verify_su2(make_spin_triple(s), tol)
    cert, closed_form_match = _certify_spin(s, args.kmax, tol, args.max_sweeps)
    verdict = algebra.passed and cert.verdict and closed_form_match
    notes = _spin_notes(s)

    if args.format == "json":
        _emit_json(
            {
                "command": "verify",
                "spin": str(s),
                "dimension": cert.dimension,
                "tol": tol,
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
                "moments": _moments_dict(cert.moments),
                "verdict": verdict,
                "notes": notes,
            }
        )
    elif args.format == "csv":
        rows = [
            [k, repr(ta), repr(tb)]
            for k, ta, tb in zip(
                cert.moments.powers, cert.moments.traces_a, cert.moments.traces_b
            )
        ]
        _emit_csv(["power", "trace_a", "trace_b"], rows)
    else:
        m = cert.moments
        lines = [
            f"verify spin={s} dimension={cert.dimension} "
            f"kmax={len(m.powers)} cluster_tol={cert.spectrum_a.cluster_tol!r}",
            f"algebra passed={algebra.passed} max_residual={algebra.max_residual!r}",
        ]
        lines += [
            f"cluster value={float(v)!r} multiplicity={mult}"
            for v, mult in cert.spectrum_a.clusters
        ]
        lines.append(f"spectra_equal={cert.spectra_equal}")
        lines.append(f"closed_form_match={closed_form_match}")
        lines.append(
            f"moments passed={m.passed} max_abs_diff={m.max_abs_diff!r} "
            f"prefix_len={m.prefix_len} prefix_passed={m.prefix_passed}"
        )
        lines += [
            f"moment power={k} trace_a={ta!r} trace_b={tb!r}"
            for k, ta, tb in zip(m.powers, m.traces_a, m.traces_b)
        ]
        lines += [f"note={n}" for n in notes]
        lines.append(f"verdict={'PASS' if verdict else 'FAIL'}")
        _emit(lines)
    return EXIT_OK if verdict else EXIT_VERDICT


def _gate_check(gate: Gate) -> dict:
    residual = gate.unitarity_residual
    if residual is None:
        residual = unitarity_residual(gate.matrix)
    phases = gate_eigenphases(gate)
    global_phase = None
    if float(phases[-1] - phases[0]) <= _UNIFORM_PHASE_TOL:
        # all eigenphases coincide: the gate is a global phase times identity
        principal = float(phases[0])
        if principal > math.pi:
            principal -= 2.0 * math.pi
        global_phase = principal
    return {
        "unitarity_residual": residual,
        "eigenphases": [float(p) for p in phases],
        "global_phase": global_phase,
        "passed": residual <= _GATE_RESIDUAL_LIMIT,
    }


def cmd_gate(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    build = build_heisenberg if args.hamiltonian == "H" else build_cyclic
    h = build(args.spin)
    gate = synthesize_gate(h, args.theta, eig_tol=tol, max_sweeps=args.max_sweeps)
    check = _gate_check(gate) if args.check else None
    verdict = check is None or check["passed"]

    if args.format == "json":
        _emit_json(
            {
                "command": "gate",
                "spin": str(args.spin),
                "hamiltonian": args.hamiltonian,
                "theta": gate.theta,
                "dimension": gate.dimension,
                "tol": tol,
                "matrix": [
                    [[z.real, z.imag] for z in row] for row in gate.matrix.tolist()
                ],
                "check": check,
                "verdict": verdict,
            }
        )
    elif args.format == "csv":
        rows = [[format_complex(z) for z in row] for row in gate.matrix.tolist()]
        _emit_csv([f"col{j}" for j in range(gate.dimension)], rows)
    else:
        lines = [
            f"gate spin={args.spin} hamiltonian={args.hamiltonian} "
            f"theta={gate.theta!r} dimension={gate.dimension}"
        ]
        if check is not None:
            lines.append(f"unitarity_residual={check['unitarity_residual']!r}")
            lines += [f"eigenphase {p!r}" for p in check["eigenphases"]]
            if check["global_phase"] is not None:
                lines.append(f"global_phase={check['global_phase']!r}")
        lines += [
            " ".join(format_complex(z) for z in row) for row in gate.matrix.tolist()
        ]
        lines.append(f"verdict={'PASS' if verdict else 'FAIL'}")
        _emit(lines)
    return EXIT_OK if verdict else EXIT_VERDICT


def cmd_table(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    rows = []
    all_pass = True
    for twice in range(1, args.max_spin.twice + 1):
        s = HalfInteger(twice)
        cert, closed_form_match = _certify_spin(
            s, s.dimension, tol, args.max_sweeps
        )
        verdict = cert.verdict and closed_form_match
        all_pass = all_pass and verdict
        rows.append(
            {
                "spin": str(s),
                "dimension": cert.dimension,
                "hamiltonian": "H",
                "cluster_tol": cert.spectrum_a.cluster_tol,
                "clusters": _cluster_dicts(cert.spectrum_a),
                "spectra_equal": cert.spectra_equal,
                "closed_form_match": closed_form_match,
                "moments": _moments_dict(cert.moments),
                "verdict": verdict,
                "notes": _spin_notes(s),
            }
        )

    if args.format == "json":
        _emit_json(
            {
                "command": "table",
                "max_spin": str(args.max_spin),
                "tol": tol,
                "rows": rows,
                "verdict": all_pass,
            }
        )
    elif args.format == "csv":
        csv_rows = [
            [
                row["spin"],
                row["dimension"],
                len(row["clusters"]),
                row["spectra_equal"],
                row["closed_form_match"],
                row["moments"]["passed"],
                row["verdict"],
            ]
            for row in rows
        ]
        _emit_csv(
            [
                "spin",
                "dimension",
                "num_clusters",
                "spectra_equal",
                "closed_form_match",
                "moments_passed",
                "verdict",
            ],
            csv_rows,
        )
    else:
        lines = [f"table max_spin={args.max_spin}"]
        for row in rows:
            clusters = " ".join(
                f"{c['value']!r}x{c['multiplicity']}" for c in row["clusters"]
            )
            lines.append(
                f"row spin={row['spin']} dimension={row['dimension']} "
                f"spectra_equal={row['spectra_equal']} "
                f"closed_form_match={row['closed_form_match']} "
                f"moments_passed={row['moments']['passed']} "
                f"verdict={'PASS' if row['verdict'] else 'FAIL'} "
                f"clusters: {clusters}"
            )
            for note in row["notes"]:
                lines.append(f"note spin={row['spin']} {note}")
        lines.append(f"verdict={'PASS' if all_pass else 'FAIL'}")
        _emit(lines)
    return EXIT_OK if all_pass else EXIT_VERDICT


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        # float overflow and the like, e.g. a moment scale raised past 1e308
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
