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
    # and so are the sweep budget, the eigensolver's stop and the
    # hermiticity bound: no public function takes any of them, and only the
    # two cluster comparisons take a tolerance, which has no default
    functions = list(filter(inspect.isfunction, (getattr(spintool, name) for name in PUBLIC)))
    tuned = set()
    for function in functions:
        params = inspect.signature(function).parameters
        assert not any("sweep" in p for p in params)
        if any("tol" in p for p in params):
            tuned.add(function.__name__)
    assert tuned == {"cluster_spectrum", "spectra_match"}
    assert list(inspect.signature(spintool.require_hermitian).parameters) == ["a"]
    value_tol = inspect.signature(spintool.spectra_match).parameters["value_tol"]
    assert value_tol.default is inspect.Parameter.empty
    keyword = inspect.Parameter.KEYWORD_ONLY
    eig_params = inspect.signature(spintool.hermitian_eig).parameters.values()
    assert [(p.name, p.kind, p.default) for p in eig_params] == [
        ("m", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("charge", keyword, None),
    ]
    assert certify["charges"].kind is keyword
    gate = inspect.signature(spintool.synthesize_gate).parameters
    assert list(gate) == ["h", "theta"]
    assert list(inspect.signature(spintool.verify_su2).parameters) == ["triple"]
    assert list(inspect.signature(spintool.newton_check).parameters) == ["values", "traces"]
    # built operators are Hermitian by construction: no field records it
    fields = [f.name for f in dataclasses.fields(spintool.Hamiltonian)]
    assert fields == ["kind", "s", "matrix", "charge"]
    # the vectors and a gate's matrix are held as block stacks, read dense
    fields = [f.name for f in dataclasses.fields(spintool.EigDecomposition)]
    assert fields == ["values", "vector_blocks", "residual", "sweeps", "leak", "commutator"]
    fields = [f.name for f in dataclasses.fields(spintool.Gate)]
    assert fields == [
        "theta", "kind", "spin", "matrix_blocks", "source_values", "unitarity_residual",
        "source_residual",
    ]


@pytest.mark.parametrize("build", ["build_heisenberg", "build_cyclic"])
def test_vectors_and_a_gate_read_as_read_only_complex_arrays(build):
    ham = getattr(spintool, build)(spintool.HalfInteger(3))
    n = ham.dimension
    dense = [
        spintool.hermitian_eig(ham.matrix, charge=ham.charge).vectors,
        spintool.synthesize_gate(ham, 0.7).matrix,
    ]
    for array in dense:
        assert isinstance(array, np.ndarray) and array.dtype == np.complex128
        assert array.shape == (n, n) and not array.flags.writeable


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


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda m, charge: spintool.hermitian_eig(m, charge=charge),
        lambda m, charge: spintool.certify_isospectral(m, m, charges=(charge, None)),
    ],
    ids=["hermitian_eig", "certify_isospectral"],
)
def test_a_charge_of_other_than_two_factors_is_refused_with_its_count(call, count):
    # each once ended in Python's own "too many values to unpack" or "not
    # enough values to unpack"
    message = f"a charge must be a pair (A, B) of single-site factors, got tuple of length {count}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(np.eye(4), (np.eye(2),) * count)


_NOT_NUMERIC = {
    "str": np.array([["2", "0"], ["0", "5"]]),
    "bytes": np.array([[b"2", b"0"], [b"0", b"5"]]),
    "object": np.array([[2, 0], [0, 5]], dtype=object),
    "datetime64": np.array([[2, 0], [0, 5]], dtype="datetime64[s]"),
    "timedelta64": np.array([[2, 0], [0, 5]], dtype="timedelta64[s]"),
}


@pytest.mark.parametrize("dtype", list(_NOT_NUMERIC))
@pytest.mark.parametrize(
    "call",
    [
        lambda m: spintool.moments(m, 3),
        spintool.hermitian_eig,
        lambda m: spintool.certify_isospectral(m, np.eye(2)),
        lambda m: spintool.certify_isospectral(np.eye(2), m),
        spintool.require_hermitian,
        spintool.hermiticity_defect,
        spintool.unitarity_residual,
    ],
    ids=[
        "moments", "hermitian_eig", "certify_a", "certify_b", "require_hermitian",
        "hermiticity_defect", "unitarity_residual",
    ],
)
def test_a_matrix_that_is_not_numeric_is_a_type_error_that_names_its_dtype(call, dtype):
    # each was once read silently, str moments as [7, 29, 133] and datetime
    # eigenvalues among them, or ended in a raw numpy error
    m = _NOT_NUMERIC[dtype]
    message = f"a matrix must be numeric, got dtype {m.dtype}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(m)


_SPECTRUM = spintool.Spectrum(clusters=((1.0, 1),), cluster_tol=1e-9, dimension=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: spintool.frobenius_norm(_NOT_NUMERIC["str"]),
            "a matrix must be numeric, got dtype <U1",
        ),
        (
            lambda: spintool.frobenius_norm(np.stack([_NOT_NUMERIC["object"]] * 2)),
            "a matrix must be numeric, got dtype object",
        ),
        (
            lambda: spintool.default_cluster_tol(_NOT_NUMERIC["str"]),
            "a matrix must be numeric, got dtype <U1",
        ),
        (
            lambda: spintool.cluster_spectrum(["2", "5"], 1e-9),
            "values must be real numbers, got dtype <U1",
        ),
        (
            lambda: spintool.cluster_spectrum([2.0, 5j], 1e-9),
            "values must be real numbers, got dtype complex128",
        ),
        (
            lambda: spintool.newton_check(["2", "5"], ["7", "29"]),
            "values must be real numbers, got dtype <U1",
        ),
        (
            lambda: spintool.newton_check([2, 5], np.array([7, 29], dtype=object)),
            "values must be real numbers, got dtype object",
        ),
        (lambda: spintool.spectra_match(1, 2, 1e-9), "a spectrum must be a Spectrum, got int"),
        (
            lambda: spintool.spectra_match(_SPECTRUM, np.array([1.0]), 1e-9),
            "a spectrum must be a Spectrum, got ndarray",
        ),
    ],
    ids=[
        "frobenius_norm", "frobenius_norm-stack", "default_cluster_tol", "cluster_spectrum-str",
        "cluster_spectrum-complex", "newton_check-values", "newton_check-traces", "spectra_match",
        "spectra_match-array",
    ],
)
def test_input_that_is_no_number_is_a_type_error(call, message):
    # each was once read as numbers, a str norm as 5.385 and str clusters
    # and power sums as given, or ended in a raw AttributeError; a norm
    # still takes a stack of blocks of numbers
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()
    assert spintool.frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))


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
    # a close pair, solved at the constant stop and clustered at a resolution
    # that the caller sets
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
