"""Output checks, run after the timed passes.

Each check raises on a wrong output; the caller records the exception class
and counts the operation as failed.  The oracles are independent of the
program: the spin matrices, H, K and the closed form are rebuilt here from
their textbook definitions, and spectra and gates come from LAPACK through
``numpy.linalg.eigvalsh`` and ``eigh``.
"""

from __future__ import annotations

import csv
import functools
import json
from importlib import resources

import numpy as np

from workloads import Op, Outcome

CLOSED_FORM_TOL = 1e-9
GATE_TOL = 1e-8


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- independent oracles ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def operators(twice: int) -> tuple[np.ndarray, np.ndarray]:
    """H and K for spin twice/2, basis ordered by descending m."""
    s = twice / 2.0
    m = s - np.arange(twice + 1)
    raise_ = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
    sx = (raise_ + raise_.T) / 2
    sy = (raise_ - raise_.T) / 2j
    sz = np.diag(m)
    h = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    k = np.kron(sx, sy) + np.kron(sy, sz) + np.kron(sz, sx)
    return h, k


@functools.lru_cache(maxsize=None)
def _eigh_h(twice: int) -> tuple[np.ndarray, np.ndarray]:
    h = operators(twice)[0]
    return np.linalg.eigh(h)


def closed_form(twice: int) -> list[tuple[float, int]]:
    """(value, multiplicity) of H: (j(j+1) - 2s(s+1)) / 2 on each j = 0..2s."""
    s = twice / 2.0
    return [(j * (j + 1) / 2.0 - s * (s + 1), 2 * j + 1) for j in range(twice + 1)]


# -- schema ----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _schema() -> tuple[dict, object]:
    import jsonschema

    schema = json.loads(
        resources.files("spintool").joinpath("report_schema.json").read_text("utf-8")
    )
    return schema, jsonschema.validators.validator_for(schema)(schema)


_COMPLEX = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": {"$ref": "#/definitions/complex"}, "minItems": 1},
    "minItems": 1,
}


def validate_report(doc: dict) -> None:
    """Validate a JSON report against the shipped report_schema.json.

    jsonschema takes about 20 s on a 625x625 gate matrix, so while the
    schema's matrix rule is the one below, every matrix entry is checked
    against it here and jsonschema sees the report with one entry per row.
    """
    schema, validator = _schema()
    matrix = doc.get("matrix")
    gate_rule = schema["definitions"]["gate_report"]["properties"].get("matrix")
    if (isinstance(matrix, list) and matrix
            and gate_rule == _MATRIX and schema["definitions"]["complex"] == _COMPLEX):
        for row in matrix:
            _require(isinstance(row, list) and len(row) >= 1, "matrix row is not a list")
            for z in row:
                _require(
                    type(z) is list and len(z) == 2
                    and type(z[0]) in (int, float) and type(z[1]) in (int, float),
                    f"matrix entry {z!r} is not a pair of numbers",
                )
        doc = dict(doc, matrix=[row[:1] for row in matrix])
    validator.validate(doc)


# -- per-workload checks ---------------------------------------------------

def _expand(clusters: list[dict]) -> np.ndarray:
    return np.repeat(
        [c["value"] for c in clusters], [c["multiplicity"] for c in clusters]
    ).astype(np.float64)


def _check_clusters(clusters: list[dict], twice: int, oracle: np.ndarray) -> None:
    expected = closed_form(twice)
    _require(len(clusters) == len(expected), "cluster count differs from the closed form")
    for got, (value, mult) in zip(clusters, expected):
        _require(got["multiplicity"] == mult, f"multiplicity {got} != {mult}")
        _require(abs(got["value"] - value) <= CLOSED_FORM_TOL,
                 f"cluster value {got['value']!r} != closed form {value!r}")
    values = np.sort(np.linalg.eigvalsh(oracle))
    scale = max(1.0, float(np.max(np.abs(values))))
    _require(np.max(np.abs(_expand(clusters) - values)) <= CLOSED_FORM_TOL * scale,
             "spectrum differs from the eigvalsh oracle")


def check_verify(op: Op, text: str) -> None:
    doc = json.loads(text)
    validate_report(doc)
    _require(doc["command"] == "verify" and doc["verdict"] is True, "verdict is not true")
    h, k = operators(op.twice)
    _check_clusters(doc["clusters"], op.twice, h)
    _check_clusters(doc["clusters_b"], op.twice, k)


def _parse_complex(token: str) -> complex:
    _require(token.endswith("i"), f"bad complex entry {token!r}")
    return complex(token[:-1] + "j")


def parse_gate(fmt: str, text: str, n: int) -> np.ndarray:
    """The gate matrix from the json, csv or plain rendering."""
    if fmt == "json":
        doc = json.loads(text)
        validate_report(doc)
        _require(doc["command"] == "gate" and doc["verdict"] is True, "verdict is not true")
        _require(doc["check"] is not None and doc["check"]["passed"] is True,
                 "gate check did not pass")
        pairs = np.array(doc["matrix"], dtype=np.float64)
        _require(pairs.shape == (n, n, 2), f"matrix shape {pairs.shape}")
        return pairs[..., 0] + 1j * pairs[..., 1]
    if fmt == "csv":
        rows = list(csv.reader(text.splitlines()))
        _require(rows[0] == [f"col{j}" for j in range(n)], "bad csv header")
        rows = rows[1:]
    else:
        lines = text.splitlines()
        _require(lines[-1] == "verdict=PASS", "verdict is not PASS")
        rows = [line.split() for line in lines[-1 - n:-1]]
    _require(len(rows) == n and all(len(r) == n for r in rows), "matrix is not n x n")
    return np.array([[_parse_complex(t) for t in row] for row in rows])


def check_gate(op: Op, text: str) -> None:
    n = (op.twice + 1) ** 2
    u = parse_gate(op.fmt, text, n)
    residual = np.linalg.norm(u.conj().T @ u - np.eye(n))
    _require(residual <= GATE_TOL, f"unitarity residual {residual:.3e}")
    values, vectors = _eigh_h(op.twice)
    oracle = (vectors * np.exp(-1j * op.theta * values)) @ vectors.conj().T
    error = float(np.max(np.abs(u - oracle)))
    _require(error <= GATE_TOL, f"gate differs from exp(-i theta H) by {error:.3e}")


def check_moments(op: Op, value) -> None:
    traces, newton_ok = value
    _require(len(traces) == op.twice + 1 and bool(np.all(np.isfinite(traces))),
             "moment traces are missing or not finite")
    _require(newton_ok is True, "newton_check failed")


def check(op: Op, outcome: Outcome, out_path: str) -> None:
    """Raise unless the completed operation's output is right."""
    _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}")
    if op.kind == "moments":
        check_moments(op, outcome.value)
        return
    with open(out_path, encoding="utf-8") as f:
        text = f.read()
    if op.kind == "verify":
        check_verify(op, text)
    else:
        check_gate(op, text)
