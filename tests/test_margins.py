"""Every bound of the certificate holds far from its edge, at every spin.

One case per 2s = 1..24 measures each bound as the ratio measured / bound
and asserts it at most ``MARGIN``, so that every bound holds with at least
100x to spare.  A ratio near 1 would let rounding, not the operators, decide
a verdict; the ratios that :func:`margins` returns are the audit's record.
The command line takes no tolerance, so its every run is at the constants
that this audit measures at, and a test here says so.
"""

import json

import numpy as np
import pytest

from spintool.eig import hermitian_eig
from spintool.gates import synthesize_gate
from spintool.hamiltonians import build_cyclic, build_heisenberg
from spintool.linalg import DEFAULT_TOL, frobenius_norm
from spintool.spectral import certify_isospectral, closed_form_spectrum, default_cluster_tol
from spintool.spin import MAX_TWICE_SPIN, HalfInteger, make_spin_triple, verify_su2

MARGIN = 1e-2


def _spread(values, multiplicities) -> float:
    """The widest cluster: ascending values cut into runs of the multiplicities."""
    ends = np.cumsum(multiplicities)
    return max(float(values[end - 1] - values[end - m]) for end, m in zip(ends, multiplicities))


def margins(twice: int) -> dict[str, float]:
    """Each bound of spin twice / 2 as measured / bound, at the default tol."""
    s = HalfInteger(twice)
    h, k = build_heisenberg(s), build_cyclic(s)
    cert = certify_isospectral(h.matrix, k.matrix, kmax=twice + 1, charges=(h.charge, k.charge))
    closed = closed_form_spectrum(s)
    spectra = (cert.spectrum_a, cert.spectrum_b)
    for spectrum in spectra:
        assert spectrum.multiplicities == closed.multiplicities
    cluster_tol = cert.spectrum_a.cluster_tol
    radius = max(1.0, *(abs(v) for spectrum in spectra for v in spectrum.values))
    gate_h, gate_k = synthesize_gate(h, 0.7), synthesize_gate(k, 0.7)
    # K's decomposition for its leak, which the gate does not keep
    dec_k = hermitian_eig(k.matrix, charge=k.charge)
    return {
        "eigenpair residual": max(cert.residual_a, cert.residual_b) / (1e-8 * radius),
        "moments": cert.moments.max_abs_diff / cert.moments.tol,
        "closed form": max(
            abs(v - c) for spectrum in spectra for v, c in zip(spectrum.values, closed.values)
        )
        / 1e-9,
        "H spread": _spread(gate_h.source_values, closed.multiplicities) / cluster_tol,
        "K spread": _spread(dec_k.values, closed.multiplicities) / cluster_tol,
        "cluster_tol": cluster_tol / float(np.min(np.diff(closed.values))),
        "K leak": dec_k.leak / (DEFAULT_TOL * frobenius_norm(k.matrix)),
        "H gate": gate_h.unitarity_residual / 1e-8,
        "K gate": gate_k.unitarity_residual / 1e-8,
        "algebra": verify_su2(make_spin_triple(s)).max_residual / (DEFAULT_TOL * s.dimension),
    }


@pytest.mark.parametrize("twice", range(1, MAX_TWICE_SPIN + 1))
def test_every_bound_holds_with_a_hundredfold_margin(twice):
    ratios = margins(twice)
    assert {name: ratio for name, ratio in ratios.items() if not ratio <= MARGIN} == {}


def test_the_command_line_runs_at_the_audited_constants(run_cli):
    # a change to the constants of the commands fails here, next to the
    # margins that were measured at them
    argv = {
        "verify": ["--spin", "1/2"],
        "table": ["--max-spin", "1/2"],
        "gate": ["--spin", "1/2", "--theta", "0.7", "--check"],
        "spectrum": ["--spin", "1/2"],
    }
    reports = {}
    for command, args in argv.items():
        code, out, err = run_cli(command, *args, "--format", "json")
        assert (code, err) == (0, "")
        reports[command] = json.loads(out)
        assert reports[command]["tol"] == DEFAULT_TOL
    h = build_heisenberg(HalfInteger(1))
    assert reports["spectrum"]["cluster_tol"] == default_cluster_tol(h.matrix)
