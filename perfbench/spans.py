"""In-memory span tracing around spintool's public functions.

The tracer wraps, from the outside, every public function of the package
modules that form the layers (``cli``, ``spin``, ``hamiltonians``, ``eig``,
``spectral``, ``gates``) by rebinding each module attribute that refers to
it, and restores the originals afterwards; nothing under ``src/`` changes.
``linalg`` holds thin wrappers that run inside ``spin`` and ``gates``, so its
time stays in the caller's self time.

Each call records a span (name, start, end, parent span, operation id) plus
exact counts read from its arguments and result: Jacobi sweeps and matrix
order for ``hermitian_eig``, kmax and order for ``moments``.  A span's self
time is its duration minus the durations of its direct children; calls
never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("cli", "spin", "hamiltonians", "eig", "spectral", "gates")

# Per-layer metrics in the order BENCHMARK.json lists them: name, unit,
# which direction is better, and the prediction written down before any
# optimisation: which end-to-end metric the layer metric should move, on
# which workload.  Values are per traced pass unless said otherwise.
LAYER_METRICS = (
    ("eig.K.self_s", "s", "lower",
     "moves wall_s and op_s.* on verify-ladder; absent (0) on gate-cap and moments-cap"),
    ("eig.K.sweeps", "count", "lower",
     "Jacobi sweeps on K; moves wall_s and op_s.* on verify-ladder"),
    ("eig.H.self_s", "s", "lower",
     "moves wall_s on gate-cap; under 5% of verify-ladder; absent on moments-cap"),
    ("eig.H.sweeps", "count", "lower",
     "Jacobi sweeps on H; moves wall_s on gate-cap"),
    ("eig.other.self_s", "s", "lower",
     "eigensolves of operators that are neither built H nor K; 0 on every workload"),
    ("eig.calls", "count", "lower",
     "hermitian_eig calls; no move expected"),
    ("eig.pivots", "count", "lower",
     "computed as sweeps*n(n-1)/2, not counted; moves with eig.*.self_s"),
    ("eig.residual_max", "norm", "lower",
     "largest eigenpair residual over the traced calls; no move expected"),
    ("eig.failed", "count", "lower",
     "eigensolves that raised; 0 on every workload"),
    ("spectral.moments.self_s", "s", "lower",
     "moves wall_s on moments-cap; under 1% of verify-ladder"),
    ("spectral.moments.matmuls", "count", "lower",
     "kmax-1 per successful moments call; moves wall_s on moments-cap"),
    ("spectral.moments.gflop", "GFLOP", "lower",
     "computed as 8n^3 per complex matmul of successful calls; moves wall_s on moments-cap"),
    ("spectral.moments.gflop_per_s", "GFLOP/s", "higher",
     "gflop over the self time of successful moments calls; moves wall_s on moments-cap"),
    ("spectral.moments.failed", "count", "lower",
     "moments calls that raised; moves failed_ratio on verify-ladder (OverflowError at 2s=12)"),
    ("spectral.certify.self_s", "s", "lower",
     "certify_isospectral outside its children; small everywhere, no move expected"),
    ("spectral.cluster.self_s", "s", "lower",
     "cluster_spectrum, spectra_match, default_cluster_tol; small, no move expected"),
    ("spectral.newton.self_s", "s", "lower",
     "newton_check; small, no move expected"),
    ("spectral.closed_form.self_s", "s", "lower",
     "closed_form_spectrum; small, no move expected"),
    ("cli.self_s", "s", "lower",
     "parsing, report assembly and rendering; moves wall_s and peak_rss_mb on gate-cap, "
     "negligible on verify-ladder"),
    ("cli.bytes_out", "bytes", "lower",
     "stdout bytes of the CLI operations; moves wall_s and peak_rss_mb on gate-cap"),
    ("gates.synthesize.self_s", "s", "lower",
     "synthesize_gate outside eig and its own unitarity check; moves wall_s on gate-cap"),
    ("gates.check.self_s", "s", "lower",
     "unitarity_residual and gate_eigenphases; moves wall_s on gate-cap"),
    ("gates.failed", "count", "lower",
     "gate calls that raised; moves failed_ratio on gate-cap, 0 expected"),
    ("spin.self_s", "s", "lower",
     "make_spin_triple and verify_su2, about 1 ms per call or less; no move on any workload"),
    ("spin.calls", "count", "lower",
     "spin layer calls; no move expected"),
    ("hamiltonians.self_s", "s", "lower",
     "operator builds, under 2 ms per call below 2s=12 and about 25 ms at n=625; "
     "no move on any workload"),
    ("hamiltonians.calls", "count", "lower",
     "operator builds; no move expected"),
    ("bench.self_s", "s", "lower",
     "benchmark code inside the operation spans (output redirection, op dispatch)"),
    ("trace.wall_s", "s", "lower",
     "traced pass time, the sum of its operation spans; equals the sum of every self_s"),
    ("trace.overhead_s", "s", "lower",
     "traced wall_s minus untraced wall_s of the same run"),
)

# Span name (or its layer) to the self-time metric that collects it.
_SELF_METRIC = {
    "bench": "bench.self_s",
    "cli": "cli.self_s",
    "spin": "spin.self_s",
    "hamiltonians": "hamiltonians.self_s",
    "eig": "eig.other.self_s",
    "spectral": "spectral.cluster.self_s",
    "spectral.moments": "spectral.moments.self_s",
    "spectral.certify_isospectral": "spectral.certify.self_s",
    "spectral.newton_check": "spectral.newton.self_s",
    "spectral.closed_form_spectrum": "spectral.closed_form.self_s",
    "gates": "gates.check.self_s",
    "gates.synthesize_gate": "gates.synthesize.self_s",
}


def self_metric(span: dict) -> str:
    """Name of the self-time metric a span's self time adds to."""
    name = span["name"]
    if name == "eig.hermitian_eig":
        return f"eig.{span.get('operator', 'other')}.self_s"
    return _SELF_METRIC.get(name) or _SELF_METRIC[name.split(".")[0]]


class Tracer:
    """Span recorder that can wrap spintool's public functions.

    Use ``with tracer.installed():`` around the traced passes; the bench
    opens a ``bench.op`` span around each operation with :meth:`span`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._operators: dict[int, tuple[str, np.ndarray]] = {}
        self.op_id: int | None = None
        self.pass_index: int | None = None

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> dict:
        span = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "pass": self.pass_index,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Bench span around benchmark code."""
        record = self.open(name)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            self.close(record)

    def forget_operators(self) -> None:
        """Drop the built-operator registry; call between operations."""
        self._operators.clear()

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
                tracer._annotate(span, args, kwargs)
            tracer._record_result(span, result)
            return result

        return traced

    def _annotate(self, span: dict, args, kwargs) -> None:
        name = span["name"]
        if name == "eig.hermitian_eig":
            m = args[0] if args else kwargs["m"]
            span["operator"] = self._operator_label(m)
            span["n"] = int(np.shape(m)[0])
        elif name == "spectral.moments":
            m = args[0] if args else kwargs["m"]
            span["n"] = int(np.shape(m)[0])
            span["kmax"] = int(args[1] if len(args) > 1 else kwargs["kmax"])

    def _record_result(self, span: dict, result) -> None:
        name = span["name"]
        if name == "eig.hermitian_eig":
            span["sweeps"] = int(result.sweeps)
            span["residual"] = float(result.residual)
        elif name.startswith("hamiltonians.build_"):
            label = result.kind.label if result.kind.label in ("H", "K") else "other"
            self._operators[id(result.matrix)] = (label, result.matrix)

    def _operator_label(self, m) -> str:
        entry = self._operators.get(id(m))
        if entry is not None and entry[1] is m:
            return entry[0]
        m = np.asarray(m)
        for label, matrix in self._operators.values():
            if matrix.shape == m.shape and np.array_equal(matrix, m):
                return label
        return "other"

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions for the duration of the block."""
        patches = self._install()
        try:
            yield self
        finally:
            for module, attr, original in patches:
                setattr(module, attr, original)

    def _install(self) -> list:
        package = importlib.import_module("spintool")
        modules = [package] + [
            importlib.import_module(f"spintool.{name}") for name in LAYERS + ("linalg",)
        ]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spintool.{layer}")
            for attr in module.__all__:
                func = getattr(module, attr)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    wrappers[func] = self._wrap(f"{layer}.{attr}", func)
        patches = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return patches


def aggregate(tracer: Tracer, traced_passes: int, untraced_wall: float,
              bytes_out: int, factors: dict[int, float]) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``traced_passes`` passes.

    Every span's time is divided by the host factor of its operation
    (``factors`` maps operation ids to them), as the end-to-end times are.
    ``untraced_wall`` is the untraced ``wall_s`` of the same run and
    ``bytes_out`` the CLI stdout bytes written during the traced passes.
    """
    spans = tracer.spans
    durations = [(s["end"] - s["start"]) / factors[s["op"]] for s in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span["parent"] is not None:
            child_time[span["parent"]] += duration
    totals = {name: 0.0 for name, _, _, _ in LAYER_METRICS}
    moment_self_ok = 0.0
    residual_max = 0.0
    for index, span in enumerate(spans):
        self_s = durations[index] - child_time[index]
        span["self"] = self_s
        totals[self_metric(span)] += self_s
        name = span["name"]
        layer = name.split(".")[0]
        failed = "error" in span
        if layer in ("spin", "hamiltonians"):
            totals[f"{layer}.calls"] += 1
        elif layer == "gates" and failed:
            totals["gates.failed"] += 1
        if name == "eig.hermitian_eig":
            totals["eig.calls"] += 1
            if failed:
                totals["eig.failed"] += 1
                continue
            if span["operator"] in ("H", "K"):
                totals[f"eig.{span['operator']}.sweeps"] += span["sweeps"]
            n = span["n"]
            totals["eig.pivots"] += span["sweeps"] * n * (n - 1) // 2
            residual_max = max(residual_max, span["residual"])
        elif name == "spectral.moments":
            if failed:
                totals["spectral.moments.failed"] += 1
                continue
            matmuls = span["kmax"] - 1
            totals["spectral.moments.matmuls"] += matmuls
            totals["spectral.moments.gflop"] += 8.0 * span["n"] ** 3 * matmuls / 1e9
            moment_self_ok += self_s
        elif name == "bench.op":
            totals["trace.wall_s"] += durations[index]
    totals["cli.bytes_out"] = float(bytes_out)
    metrics = {name: value / traced_passes for name, value in totals.items()}
    metrics["eig.residual_max"] = residual_max
    metrics["spectral.moments.gflop_per_s"] = (
        totals["spectral.moments.gflop"] / moment_self_ok if moment_self_ok > 0 else 0.0
    )
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return metrics


def self_time_gap(metrics: dict[str, float]) -> float:
    """trace.wall_s minus the sum of every self-time metric; 0 up to rounding."""
    self_sum = sum(
        value for name, value in metrics.items()
        if name.endswith(".self_s")
    )
    return metrics["trace.wall_s"] - self_sum
