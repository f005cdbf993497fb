"""The package namespace and the README's library example."""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintool
from spintool import eig, gates, hamiltonians, linalg, spectral, spin

MODULES = (linalg, spin, hamiltonians, eig, spectral, gates)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_are_the_module_lists():
    names = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert spintool.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spintool, name) is getattr(module, name), name


# the whole public surface: adding a name back means editing this list
PUBLIC = [
    "AlgebraReport", "ConvergenceError", "DEFAULT_TOL", "EigDecomposition", "Gate",
    "HalfInteger", "Hamiltonian", "HamiltonianKind", "HermiticityError",
    "IsospectralReport", "MAX_TWICE_SPIN", "MomentReport", "NumericalError", "ShapeError",
    "Spectrum", "SpinTriple", "__version__", "build_bilinear", "build_cyclic",
    "build_heisenberg", "certify_isospectral", "closed_form_spectrum", "cluster_spectrum",
    "default_cluster_tol", "frobenius_norm", "gate_eigenphases", "hermitian_eig",
    "hermiticity_defect", "make_spin_triple", "moments", "newton_check",
    "require_hermitian", "require_square", "spectra_match", "synthesize_gate",
    "unitarity_residual", "verify_su2",
]


def test_the_public_surface_is_pinned():
    assert len(PUBLIC) == 37
    assert sorted(spintool.__all__) == PUBLIC
    # the certificate's tolerances are constants, not knobs
    certify = inspect.signature(spintool.certify_isospectral).parameters
    assert list(certify) == ["a", "b", "kmax", "prefix", "charges"]
    # and so is the sweep budget: no public function takes one; nor does
    # any but the eigensolver and the hermiticity check take a tolerance
    functions = [getattr(spintool, name) for name in PUBLIC]
    tuned = {"hermitian_eig", "require_hermitian"}
    for function in filter(inspect.isfunction, functions):
        params = inspect.signature(function).parameters
        assert not any("sweep" in p for p in params)
        if function.__name__ not in tuned:
            assert not {"tol", "eig_tol"} & set(params), function.__name__
    eig_params = inspect.signature(spintool.hermitian_eig).parameters
    assert list(eig_params) == ["m", "tol", "charge"]
    assert list(inspect.signature(spintool.require_hermitian).parameters) == ["a", "tol"]
    keyword = inspect.Parameter.KEYWORD_ONLY
    assert eig_params["charge"].kind is certify["charges"].kind is keyword
    gate = inspect.signature(spintool.synthesize_gate).parameters
    assert list(gate) == ["h", "theta"]
    assert list(inspect.signature(spintool.verify_su2).parameters) == ["triple"]
    assert list(inspect.signature(spintool.newton_check).parameters) == ["values", "traces"]
    # built operators are Hermitian by construction: no field records it
    fields = [f.name for f in dataclasses.fields(spintool.Hamiltonian)]
    assert fields == ["kind", "s", "matrix", "charge"]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: spintool.verify_su2(m), "the triple must be a SpinTriple, got ndarray"),
        (lambda m: spintool.gate_eigenphases(m), "the gate must be a Gate, got ndarray"),
        (
            lambda m: spintool.certify_isospectral(m, m, charges=(1, None)),
            "a charge must be a pair (A, B) of single-site factors, got int",
        ),
        (
            lambda m: spintool.hermitian_eig(m, charge=1.5),
            "a charge must be a pair (A, B) of single-site factors, got float",
        ),
    ],
    ids=["verify_su2", "gate_eigenphases", "certify_isospectral", "hermitian_eig"],
)
def test_an_input_of_the_wrong_type_is_a_type_error_that_names_the_type(call, message):
    # each once ended in a raw error: AttributeError for the first two,
    # "'int' object is not iterable" from unpacking the charge for the others
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(np.eye(4))


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["True", "True True True"]
    closed = ((-3.75, 1), (-2.75, 3), (-0.75, 5), (2.25, 7))
    assert ast.literal_eval(lines[3]) == closed
    computed = ast.literal_eval(lines[2])
    assert [m for _, m in computed] == [m for _, m in closed]
    assert [v for v, _ in computed] == pytest.approx([v for v, _ in closed], abs=1e-12)
    # a nearly Hermitian matrix, read and clustered at the library's tolerances
    assert lines[4:] == ["((1.0, 2),)"]


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    from code_lines import code_lines

    source = '''"""A module docstring,
over two lines."""

import os  # a comment


class A:
    """A class docstring."""

    x = """a string over two lines,
not a docstring"""

    def f(self):
        """A function docstring.
        """
        # a comment
        return (1,
                2)
'''
    # import, class, the two lines of x, def and the two of the return
    assert code_lines(source) == 7


def test_code_lines_stop_quietly_when_the_reader_goes():
    # "python tests/code_lines.py | head -3" once ended in a BrokenPipeError
    # traceback; here the reader has gone before the first write
    read, write = os.pipe()
    os.close(read)
    try:
        script = Path(__file__).with_name("code_lines.py")
        done = subprocess.run([sys.executable, str(script)], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")
