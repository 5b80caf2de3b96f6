"""uecsm: decide unitary equivalence to a complex symmetric matrix.

A matrix T is UECSM when U T U* is complex symmetric (equal to its own
transpose) for some unitary U.  This package decides the property for
n <= 4 through exact trace-word criteria, diagnoses it through
eigenvector angle tests, classifies the 4x4 nilpotent family in closed
form, constructs indefinite-unitary examples separating the tests, and
cross-validates everything with a witness oracle that constructs the
symmetrizing unitary or certifies that none exists.

Importing the package loads none of its submodules.  Each public name
is listed once in an export table with the submodule that defines it,
imported from there on its first access (PEP 562) and kept in the
package's globals, so a later access is a plain attribute read.  The
submodules that define public names resolve as attributes too.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, mapped to the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("analysis", "Report analyze analyze_stack"),
        ("angletests", "angle_suite det_criterion_3 lsat sat wat"),
        (
            "constructors",
            "Signature TripleProduct conjugated_diagonal generate_wat_not_sat indefinite_gram_schmidt"
            " indefinite_inner random_su sat_obstruction su_membership",
        ),
        (
            "errors",
            "ConsistencyError CostGuard DegenerateSpectrum DimensionMismatch ExhaustedRetries"
            " IsotropicVector NoConvergence OrthogonalEigenvectors ParseError RepeatedDiagonal"
            " SingularMatrix UecsmError UnsupportedDimension",
        ),
        ("matcore", "CMatrix adjoint cmatrix evaluate_word normalize word_trace word_traces"),
        (
            "nilpotent4",
            "Classification ClosedForms NilpotentParams build_matrix classify psi_closed_forms"
            " symmetrizing_witness",
        ),
        (
            "oracle",
            "OracleResult cayley_retract find_symmetrizer symmetry_cost symmetry_residual verify_witness",
        ),
        ("spectra", "SpectralData durand_kerner eigensystem"),
        (
            "tracetests",
            "DJOKOVIC_WORDS PHI3_WORDS PSI_DEGREES TraceSignature Verdict djokovic_signature phi3"
            " psi7 trace_test_3 transpose_equivalence uecsm_verdict unitary_equivalence_4",
        ),
    )
    for name in names.split()
}

_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # which binds it in globals()
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
