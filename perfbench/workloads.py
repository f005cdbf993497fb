"""The benchmark's workloads: a fixed multiset of operations per pass.

Every pass of a workload runs the same operations; the seed only shuffles
their order and draws the gate angles.  The program receives nothing but
the generated argv (through ``spintool.cli.main``) or the spin labels and
arrays (through the public library functions).  All operations run in this
process on one thread.

Why these three:

* ``verify-ladder`` is the main end-to-end case: ``verify --format json`` at
  2s = 6, 7, 8 and 12.  The dense complex Jacobi eigensolve of K does about
  90% of the work and every matrix fits in L2.  The 2s = 12 operation fails
  today with an ``OverflowError`` in ``spectral.moments`` (ROADMAP item 1),
  so a quarter of the operations fail by design; it is kept at its size.
* ``gate-cap`` runs ``gate --spin 12 --hamiltonian H --check`` once in each
  output format: the same eigensolver on the sparse real H at n = 625, whose
  6.25 MB working set exceeds L2, plus rendering 390k complex entries, which
  sets peak memory.
* ``moments-cap`` builds H and K at 2s = 22, 23, 24, takes ``moments(M,
  2s+1)`` and checks them with ``newton_check`` against the closed form:
  625x625 complex matmuls and no eigensolve, so an eigensolver change must
  show no effect here.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import spintool
from spintool import cli


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (verify, gate) or a library moment check."""

    kind: str
    twice: int
    fmt: str = "json"
    operator: str = "H"
    theta: float = 0.0

    def argv(self) -> list[str]:
        spin = str(spintool.HalfInteger(self.twice))
        if self.kind == "verify":
            return ["verify", "--spin", spin, "--format", self.fmt]
        return [
            "gate", "--spin", spin, "--hamiltonian", self.operator,
            "--theta", repr(self.theta), "--check", "--format", self.fmt,
        ]

    def label(self) -> str:
        if self.kind == "verify":
            return f"verify 2s={self.twice} format={self.fmt}"
        if self.kind == "gate":
            return (f"gate 2s={self.twice} hamiltonian={self.operator} "
                    f"theta={self.theta!r} format={self.fmt}")
        return f"moments 2s={self.twice} operator={self.operator} kmax={self.twice + 1}"


@dataclass(frozen=True)
class Workload:
    """A named multiset of operations, at full size and at self-test size.

    ``pass_s`` is the time of one full-size pass in reference-host seconds
    (see ``hostspeed.py``) at the commit that defined the benchmark.  It
    fixes how many passes a run of a given length makes, so two commits
    measure the same operations.
    """

    name: str
    pass_s: float
    ops: tuple[Op, ...]
    tiny_ops: tuple[Op, ...]

    def templates(self, tiny: bool) -> tuple[Op, ...]:
        return self.tiny_ops if tiny else self.ops

    def warm_up_ops(self) -> list[Op]:
        """The workload's kinds of operation at 2s = 2, each once."""
        ops: list[Op] = []
        for op in self.ops:
            small = replace(op, twice=2, theta=0.5)
            if small not in ops:
                ops.append(small)
        return ops


_FORMATS = ("json", "csv", "plain")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-ladder",
            pass_s=9.5,
            ops=tuple(Op("verify", twice) for twice in (6, 7, 8, 12)),
            tiny_ops=tuple(Op("verify", twice) for twice in (1, 2, 3, 4)),
        ),
        Workload(
            name="gate-cap",
            pass_s=10.0,
            ops=tuple(Op("gate", 24, fmt) for fmt in _FORMATS),
            tiny_ops=tuple(Op("gate", 4, fmt) for fmt in _FORMATS),
        ),
        Workload(
            name="moments-cap",
            pass_s=4.0,
            ops=tuple(Op("moments", twice, operator=o)
                      for twice in (22, 23, 24) for o in ("H", "K")),
            tiny_ops=tuple(Op("moments", twice, operator=o)
                           for twice in (2, 3, 4) for o in ("H", "K")),
        ),
    )
}


def make_pass(workload: Workload, rng: random.Random, tiny: bool) -> list[Op]:
    """The workload's operations in seeded order, with seeded gate angles."""
    ops = list(workload.templates(tiny))
    rng.shuffle(ops)
    return [
        replace(op, theta=rng.uniform(0.1, math.pi)) if op.kind == "gate" else op
        for op in ops
    ]


@dataclass
class Outcome:
    """What one timed operation returned; checked after the timed passes."""

    seconds: float
    exit_code: int | None
    error: str | None
    value: object = None


def _moments(op: Op) -> tuple[np.ndarray, bool]:
    s = spintool.HalfInteger(op.twice)
    build = spintool.build_heisenberg if op.operator == "H" else spintool.build_cyclic
    operator = build(s)
    traces = spintool.moments(operator.matrix, op.twice + 1)
    closed = spintool.closed_form_spectrum(s)
    values = np.repeat(closed.values, closed.multiplicities)
    return traces, spintool.newton_check(values, traces)


def run_op(op: Op, out_path: str) -> Outcome:
    """Run one operation, timing it; CLI stdout goes to ``out_path``.

    Any exception the program raises is the operation's failure, recorded
    by class; it never stops the benchmark.
    """
    start = perf_counter()
    try:
        if op.kind == "moments":
            code, value = 0, _moments(op)
        else:
            with open(out_path, "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out):
                code, value = cli.main(op.argv()), None
    except Exception as exc:  # the program's failure, counted not fatal
        return Outcome(perf_counter() - start, None, type(exc).__name__)
    return Outcome(perf_counter() - start, code, None, value)
