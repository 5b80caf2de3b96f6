"""Stacks of matrices: ``analyze_stack``, ``uecsm batch`` and shape checks.

Every criterion runs on a ``(B, n, n)`` stack; ``analyze`` and the
one-matrix criteria are its ``B = 1`` case.  These tests check that a
matrix gets the same report in a stack of any size and content as it
gets alone from ``analyze``, so no row of a stack leaks into another,
that ``angle_suite`` gives the angle verdicts, refusal or error of that
report, that ``uecsm batch`` groups documents by dimension without
changing what it reports, and that every public entry point rejects a
matrix that is not an ``ndarray``, a shape that is not a square matrix,
an entry that is not finite and a ``tol`` that is not finite and positive.
"""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uecsm.angletests
import uecsm.spectra
from uecsm import (
    ConsistencyError,
    DegenerateSpectrum,
    DimensionMismatch,
    NilpotentParams,
    NoConvergence,
    Signature,
    Verdict,
    angle_suite,
    build_matrix,
    cayley_retract,
    classify,
    cmatrix,
    conjugated_diagonal,
    det_criterion_3,
    djokovic_signature,
    durand_kerner,
    eigensystem,
    evaluate_word,
    find_symmetrizer,
    generate_wat_not_sat,
    indefinite_gram_schmidt,
    indefinite_inner,
    lsat,
    normalize,
    phi3,
    psi7,
    psi_closed_forms,
    random_su,
    sat,
    sat_obstruction,
    su_membership,
    symmetrizing_witness,
    symmetry_cost,
    symmetry_residual,
    trace_test_3,
    transpose_equivalence,
    uecsm_verdict,
    unitary_equivalence_4,
    verify_witness,
    wat,
    word_trace,
    word_traces,
)
from uecsm.cli import (
    EXIT_INCONCLUSIVE,
    MatrixDocument,
    analyze,
    analyze_stack,
    load_matrix_document,
    main,
    write_matrix_document,
)
from uecsm.gallery import GALLERY
from uecsm.matcore import _TracePlan, adjoint, normalize_stack
from uecsm.tracetests import _TRACE_CHECKS

from _util import one_matrix_inputs, random_complex_matrix, random_symmetric_matrix, random_unitary, rng

RESIDUAL_TOL = 1e-15


def _same_report(a, b):
    """Assert two reports agree on everything but the residual rounding."""
    da, db = a.to_dict(), b.to_dict()
    for key in ("label", "dimension", "spectral_status", "notes", "conflicts", "uecsm", "error"):
        assert da[key] == db[key], key
    assert list(da["verdicts"]) == list(db["verdicts"])
    for name, va in da["verdicts"].items():
        vb = db["verdicts"][name]
        assert (va["criterion"], va["passed"], va["tol"]) == (vb["criterion"], vb["passed"], vb["tol"])
        assert list(va["residuals"]) == list(vb["residuals"]), name
        for key, value in va["residuals"].items():
            assert abs(value - vb["residuals"][key]) <= RESIDUAL_TOL, (name, key)


def _stack(gen, n, kinds):
    out = []
    for kind in kinds:
        if kind == "uecsm":
            u = random_unitary(gen, n)
            out.append(u @ random_symmetric_matrix(gen, n) @ u.conj().T)
        elif kind == "gauss":
            out.append(random_complex_matrix(gen, n))
        else:  # nilpotent: refused by the spectral layer
            out.append(np.triu(random_complex_matrix(gen, n), 1))
    out += [m for m, _ in GALLERY.values() if m.shape == (n, n)]
    return np.array(out).reshape(-1, n, n)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([3, 4]),
    st.lists(st.sampled_from(["uecsm", "gauss", "nilpotent"]), min_size=1, max_size=6),
)
def test_stack_matches_one_matrix_path(seed, n, kinds):
    ts = _stack(rng(seed), n, kinds)
    labels = [f"m{i}" for i in range(len(ts))]
    for t, label, report in zip(ts, labels, analyze_stack(ts, labels)):
        _same_report(analyze(t, label), report)


def test_stack_passes_the_tolerances_through():
    ts = _stack(rng(3), 4, ["uecsm", "gauss", "nilpotent"])
    kwargs = dict(tol=1e-6)
    labels = ["a", "b", "c"] + [f"g{i}" for i in range(len(ts) - 3)]
    for t, label, report in zip(ts, labels, analyze_stack(ts, labels, **kwargs)):
        _same_report(analyze(t, label, **kwargs), report)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stack_outside_the_trace_criteria(n):
    ts = np.array([random_complex_matrix(rng(n), n) for _ in range(2)])
    for t, label, report in zip(ts, "ab", analyze_stack(ts, ["a", "b"])):
        _same_report(analyze(t, label), report)


@pytest.mark.parametrize("n", [3, 4])
def test_one_product_table_per_stack(monkeypatch, n):
    # the UECSM verdict reads one evaluation of one plan: its traces,
    # replaced by NaN, become every residual of the verdict, and no report
    # carries the transpose verdict, whose gaps are the same traces
    evaluations = []
    evaluate = _TracePlan.traces

    def counted(plan, x, y):
        evaluations.append(plan)
        return np.full_like(evaluate(plan, x, y), np.nan)

    monkeypatch.setattr(_TracePlan, "traces", counted)
    ts = _stack(rng(60 + n), n, ["uecsm", "gauss", "nilpotent"])
    labels = [f"m{i}" for i in range(len(ts))]
    for run in (lambda: [analyze(ts[0], "m")], lambda: analyze_stack(ts, labels)):
        evaluations.clear()
        reports = run()
        assert len(evaluations) == 1
        for report in reports:
            assert all(np.isnan(r) for _, r in report.verdicts["uecsm"].residuals)
            assert "transpose_equivalence" not in report.verdicts


def test_stack_oracle_is_find_symmetrizer_on_each_row():
    # the stacked analysis searches on the representatives it has already
    # computed; every result equals find_symmetrizer's, bit for bit
    gen = rng(70)
    q = random_unitary(gen, 3)
    normal = q @ np.diag([1.0, 1.0, 2.0]).astype(complex) @ q.conj().T  # the second stage
    for n, extra in ((3, [normal, 2j * np.eye(3)]), (4, [])):
        ts = np.concatenate([_stack(gen, n, ["uecsm", "gauss", "nilpotent"]), np.reshape(extra, (-1, n, n))])
        labels = [f"m{i}" for i in range(len(ts))]
        for t, report in zip(ts, analyze_stack(ts, labels, run_oracle=True)):
            got, expected = report.oracle, find_symmetrizer(t)
            assert (got.status, got.iterations, got.restarts_used) == (
                expected.status,
                expected.iterations,
                expected.restarts_used,
            )
            assert float(got.residual).hex() == float(expected.residual).hex()
            assert (got.u is None) == (expected.u is None)
            assert got.u is None or np.array_equal(got.u, expected.u)


ANGLE_KEYS = ("wat", "sat", "lsat", "det3")
REFUSALS = {"degenerate": DegenerateSpectrum, "no_convergence": NoConvergence}


def _same_angle_outcome(t):
    """Assert ``angle_suite(t)`` is the angle part of ``analyze(t)``: verdicts, refusal or error."""
    report = analyze(t, "x")
    if report.error is not None:
        with pytest.raises(ConsistencyError, match="cross-check failed") as caught:
            angle_suite(t)
        assert str(caught.value) == report.error
    elif report.spectral_status != "ok":
        with pytest.raises(REFUSALS[report.spectral_status]):
            angle_suite(t)
    else:
        expected = {key: v for key, v in report.verdicts.items() if key in ANGLE_KEYS}
        assert angle_suite(t) == expected
    return report


@pytest.mark.parametrize("label", list(GALLERY))
def test_angle_suite_is_the_one_matrix_angle_path_on_the_gallery(label):
    _same_angle_outcome(GALLERY[label][0])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([3, 4]),
    st.lists(st.sampled_from(["uecsm", "gauss", "nilpotent"]), min_size=1, max_size=3),
)
def test_angle_suite_is_the_one_matrix_angle_path(seed, n, kinds):
    for t in _stack(rng(seed), n, kinds)[: len(kinds)]:
        _same_angle_outcome(t)


def test_angle_suite_raises_the_refusal_analyze_reports(monkeypatch):
    # degenerate: a nilpotent matrix; no convergence: LAPACK fails on the matrix
    nilpotent = np.triu(random_complex_matrix(rng(8), 4), 1)
    assert _same_angle_outcome(nilpotent).spectral_status == "degenerate"
    t = random_complex_matrix(rng(9), 4)
    bad = normalize(t)[0]
    eig = np.linalg.eig

    def failing_eig(a):
        if any(np.array_equal(m, bad) for m in a.reshape(-1, 4, 4)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(uecsm.spectra.np.linalg, "eig", failing_eig)
    assert _same_angle_outcome(t).spectral_status == "no_convergence"


def test_a_row_inv_fails_on_is_refused_as_singular(monkeypatch):
    # LAPACK's inv fails on the stack and on the eigenvector matrix of one
    # row alone: that row is refused, and every other row inverts on its own
    n, row = 4, 1
    ts = _stack(rng(12), n, ["uecsm", "gauss", "nilpotent", "gauss"])
    labels = [f"m{b}" for b in range(len(ts))]
    alone = [analyze(t, label).to_dict() for t, label in zip(ts, labels)]
    assert [r["spectral_status"] for r in alone][:4] == ["ok", "ok", "degenerate", "ok"]
    inv, stacks = np.linalg.inv, []

    def failing_inv(a):
        if a.ndim == 3:
            stacks.append(a)
            raise np.linalg.LinAlgError("Singular matrix")
        if np.array_equal(a, stacks[-1][row]):
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(uecsm.spectra.np.linalg, "inv", failing_inv)
    refusal = uecsm.spectra.eigensystem_stack(*normalize_stack(ts)).refusals[row]
    assert type(refusal) is DegenerateSpectrum and str(refusal) == "eigenvector matrix is singular"
    reports = [report.to_dict() for report in analyze_stack(ts, labels)]
    assert reports[row]["spectral_status"] == "degenerate"
    assert reports[row]["notes"] == ["angle tests inapplicable: eigenvector matrix is singular"]
    assert reports[row]["verdicts"]["uecsm"] == alone[row]["verdicts"]["uecsm"]
    assert reports[:row] + reports[row + 1 :] == alone[:row] + alone[row + 1 :]


def test_angle_suite_raises_the_failed_cross_check(monkeypatch):
    # every 3x3 determinant identity cross-check fails below a negative bound
    monkeypatch.setattr(uecsm.angletests, "_IDENTITY_CHECK_TOL", -1.0)
    assert _same_angle_outcome(random_complex_matrix(rng(31), 3)).error is not None


def test_stack_labels_must_match_the_stack():
    with pytest.raises(ValueError):
        analyze_stack(np.zeros((2, 3, 3), dtype=complex), ["only one"])


def _batch_directory(path):
    gen = rng(17)
    u = random_unitary(gen, 4)
    matrices = {
        "a_n1": np.array([[2.0 + 1j]]),
        "b_n2": random_complex_matrix(gen, 2),
        "c_n3": random_complex_matrix(gen, 3),
        "d_n4": u @ random_symmetric_matrix(gen, 4) @ u.conj().T,
        "e_n4_degenerate": GALLERY["scalar-plus-shift-22"][0],
        "f_n5": random_complex_matrix(gen, 5),
        "g_n3": random_complex_matrix(gen, 3),
        "h_n4": random_complex_matrix(gen, 4),
    }
    for label, m in matrices.items():
        write_matrix_document(MatrixDocument(m.astype(complex), None), path / f"{label}.json")
    (path / "b_malformed.json").write_text("{nope")
    (path / "c_directory.json").mkdir()
    return sorted(p.name for p in path.iterdir())


@pytest.mark.parametrize("oracle", [False, True])
def test_batch_reports_equal_one_file_analysis(tmp_path, capsys, oracle):
    names = _batch_directory(tmp_path)
    flags = ["--oracle"] if oracle else []
    code = main(["batch", str(tmp_path), "--json", *flags])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    assert list(payload["reports"]) == names
    assert set(payload["timings"]["runtime_seconds"]) == set(names)
    assert payload["summary"] == {
        "files": 10,
        "uecsm": 4,  # n = 1 and 2, the built 4x4 and the degenerate one
        "not_uecsm": 3,
        "conflicts": 0,
        "errors": 3,  # n = 5, the malformed file and the directory
    }
    for name in names:
        report = payload["reports"][name]
        if name in ("b_malformed.json", "c_directory.json"):
            assert report["error"] and report["dimension"] == 0
            continue
        doc = load_matrix_document(tmp_path / name)
        expected = analyze(doc.matrix, doc.label, run_oracle=oracle).to_dict()
        if oracle:
            assert report.pop("oracle") == expected.pop("oracle")
        assert report.keys() == expected.keys()
        for key in report:
            if key != "verdicts":
                assert report[key] == expected[key], (name, key)
        for key, verdict in report["verdicts"].items():
            for residual, value in verdict["residuals"].items():
                assert abs(value - expected["verdicts"][key]["residuals"][residual]) <= RESIDUAL_TOL
            assert verdict["passed"] == expected["verdicts"][key]["passed"]


def test_batch_text_lists_files_in_name_order(tmp_path, capsys):
    names = _batch_directory(tmp_path)
    assert main(["batch", str(tmp_path)]) == EXIT_INCONCLUSIVE
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == names
    assert lines[-1].startswith(f"-- {len(names)} files:")
    assert "3 errors" in lines[-1]


SHAPES = [(), (3,), (0, 0), (2, 3)]
ENTRY_POINTS = [normalize, eigensystem, angle_suite, find_symmetrizer, uecsm_verdict, transpose_equivalence]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_points_reject_non_square_shapes(entry, shape):
    with pytest.raises(DimensionMismatch):
        entry(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: sat_obstruction(np.ones((3, 2))), id="sat_obstruction-non_square"),
        pytest.param(lambda: sat_obstruction(np.ones(3)), id="sat_obstruction-vector"),
        pytest.param(lambda: conjugated_diagonal(np.array(1.0), [1]), id="conjugated_diagonal-scalar"),
        pytest.param(lambda: conjugated_diagonal(np.zeros((0, 0)), []), id="conjugated_diagonal-empty"),
        pytest.param(lambda: symmetry_cost(np.eye(3), np.eye(4)), id="symmetry_cost"),
        pytest.param(lambda: symmetry_residual(np.eye(3), np.eye(4)), id="symmetry_residual"),
        pytest.param(lambda: cayley_retract(np.zeros((3, 3)), np.eye(4)), id="cayley_retract"),
        pytest.param(lambda: durand_kerner(np.ones((2, 2))), id="durand_kerner"),
    ],
)
def test_entry_points_reject_shapes_they_cannot_use(call):
    with pytest.raises(DimensionMismatch):
        call()


#: A nested list where a name of ``uecsm.__all__`` takes a matrix: the
#: 3 x 3 identity, 4 x 4 where the name needs that size, beside ndarray
#: identities.  Each id starts with the name it calls.
LIST3, LIST4 = np.eye(3).tolist(), np.eye(4).tolist()
EYE3, EYE4 = np.eye(3, dtype=complex), np.eye(4, dtype=complex)
NESTED_LIST_CASES = [
    *(pytest.param(lambda f=f: f(LIST3), id=f.__name__) for f in ENTRY_POINTS),
    pytest.param(lambda: analyze(LIST3, "t"), id="analyze"),
    pytest.param(lambda: analyze_stack([LIST3], ["t"]), id="analyze_stack"),
    pytest.param(lambda: phi3(LIST3), id="phi3"),
    pytest.param(lambda: trace_test_3(LIST3), id="trace_test_3"),
    pytest.param(lambda: djokovic_signature(LIST4), id="djokovic_signature"),
    pytest.param(lambda: psi7(LIST4), id="psi7"),
    pytest.param(lambda: unitary_equivalence_4(LIST4, EYE4), id="unitary_equivalence_4-a"),
    pytest.param(lambda: unitary_equivalence_4(EYE4, LIST4), id="unitary_equivalence_4-b"),
    pytest.param(lambda: symmetry_cost(LIST3, EYE3), id="symmetry_cost-t"),
    pytest.param(lambda: symmetry_cost(EYE3, LIST3), id="symmetry_cost-u"),
    pytest.param(lambda: symmetry_residual(LIST3, EYE3), id="symmetry_residual-t"),
    pytest.param(lambda: symmetry_residual(EYE3, LIST3), id="symmetry_residual-u"),
    pytest.param(lambda: verify_witness(LIST3, EYE3), id="verify_witness-t"),
    pytest.param(lambda: verify_witness(EYE3, LIST3), id="verify_witness-u"),
    pytest.param(lambda: cayley_retract(LIST3, EYE3), id="cayley_retract-k"),
    pytest.param(lambda: cayley_retract(EYE3, LIST3), id="cayley_retract-u"),
    pytest.param(lambda: conjugated_diagonal(LIST3, [1, 2, 3]), id="conjugated_diagonal"),
    pytest.param(lambda: su_membership(LIST3, Signature(1, 3)), id="su_membership"),
    pytest.param(lambda: sat_obstruction(LIST3), id="sat_obstruction"),
    pytest.param(lambda: adjoint(LIST3), id="adjoint"),
    pytest.param(lambda: word_traces(["xy"], LIST3, EYE3), id="word_traces-x"),
    pytest.param(lambda: word_traces(["xy"], EYE3, LIST3), id="word_traces-y"),
    pytest.param(lambda: word_trace("xy", LIST3, EYE3), id="word_trace"),
    pytest.param(lambda: evaluate_word("xy", EYE3, LIST3), id="evaluate_word"),
]


@pytest.mark.parametrize("call", NESTED_LIST_CASES)
def test_entry_points_refuse_a_nested_list(call):
    # refused by type, before any shape is read from it
    with pytest.raises(TypeError, match="expected a numpy.ndarray, got list"):
        call()


#: One case per way a name of ``uecsm.__all__`` takes an array or
#: parameters, called with ``t``, a 3 x 3 zero matrix but for one
#: non-finite entry at (1, 2); each id starts with the name it calls.
NON_FINITE_CASES = [
    *(pytest.param(f, id=f.__name__) for f in ENTRY_POINTS),
    pytest.param(lambda t: analyze(t, "t", run_oracle=True), id="analyze"),
    pytest.param(lambda t: analyze_stack(np.stack([np.eye(3), t]), ["eye", "t"], run_oracle=True), id="analyze_stack"),
    # the functions that do not normalize, each at its own size: the 4x4
    # ones read t padded by a zero row and column
    pytest.param(phi3, id="phi3"),
    pytest.param(trace_test_3, id="trace_test_3"),
    pytest.param(lambda t: djokovic_signature(np.pad(t, (0, 1))), id="djokovic_signature"),
    pytest.param(lambda t: psi7(np.pad(t, (0, 1))), id="psi7"),
    pytest.param(lambda t: unitary_equivalence_4(np.eye(4), np.pad(t, (0, 1))), id="unitary_equivalence_4"),
    pytest.param(lambda t: unitary_equivalence_4(np.pad(t, (0, 1)), np.eye(4)), id="unitary_equivalence_4-a"),
    pytest.param(lambda t: symmetry_cost(t, np.eye(3)), id="symmetry_cost-t"),
    pytest.param(lambda t: symmetry_cost(np.eye(3), t), id="symmetry_cost-u"),
    pytest.param(lambda t: symmetry_residual(t, np.eye(3)), id="symmetry_residual-t"),
    pytest.param(lambda t: symmetry_residual(np.eye(3), t), id="symmetry_residual-u"),
    pytest.param(lambda t: verify_witness(t, np.eye(3)), id="verify_witness-t"),
    pytest.param(lambda t: verify_witness(np.eye(3), t), id="verify_witness-u"),
    pytest.param(cmatrix, id="cmatrix"),
    # the nilpotent family refuses its parameters where they are built
    pytest.param(lambda t: NilpotentParams(t[1, 2], 1, 1, 1, 1, 1), id="NilpotentParams"),
    pytest.param(lambda t: psi_closed_forms(NilpotentParams(t[1, 2], 1, 1, 1, 1, 1)), id="psi_closed_forms"),
    pytest.param(lambda t: build_matrix(NilpotentParams(1, 1, 1, 1, 1, t[1, 2])), id="build_matrix"),
    pytest.param(lambda t: classify(NilpotentParams(1, 1, t[1, 2], 1, 1, 1)), id="classify"),
    pytest.param(lambda t: symmetrizing_witness(NilpotentParams(1, 1, 1, t[1, 2], 1, 1)), id="symmetrizing_witness"),
    # k is read whole, so a NaN in either triangle is refused
    pytest.param(lambda t: cayley_retract(t, np.eye(3)), id="cayley_retract-k_upper"),
    pytest.param(lambda t: cayley_retract(t.T, np.eye(3)), id="cayley_retract-k_lower"),
    pytest.param(lambda t: cayley_retract(np.zeros((3, 3)), t), id="cayley_retract-u"),
    pytest.param(lambda t: durand_kerner([1, t[1, 2], 2]), id="durand_kerner"),
    # the constructors, on the invertible I + t and the signature (1, 2)
    pytest.param(lambda t: conjugated_diagonal(np.eye(3) + t, [1, 2, 3]), id="conjugated_diagonal-q"),
    pytest.param(lambda t: conjugated_diagonal(np.eye(3), [1, t[1, 2], 3]), id="conjugated_diagonal-d"),
    pytest.param(lambda t: su_membership(np.eye(3) + t, Signature(1, 3)), id="su_membership"),
    pytest.param(lambda t: sat_obstruction(np.eye(3) + t), id="sat_obstruction"),
    pytest.param(lambda t: indefinite_inner(t[1], np.ones(3), Signature(1, 3)), id="indefinite_inner-v"),
    pytest.param(lambda t: indefinite_inner(np.ones(3), t[1], Signature(1, 3)), id="indefinite_inner-w"),
    pytest.param(lambda t: indefinite_gram_schmidt(list(np.eye(3) + t), Signature(1, 3)), id="indefinite_gram_schmidt"),
    pytest.param(lambda t: generate_wat_not_sat(0, Signature(2, 4), [-1, 0, t[1, 2], 2]), id="generate_wat_not_sat"),
]

#: The names of ``uecsm.__all__`` that take no array of their own, by reason.
NON_FINITE_EXEMPT = {
    "pass-through helpers, documented to return what numpy gives": (
        "adjoint word_traces word_trace evaluate_word"
    ),
    "read the SpectralData of eigensystem, which refuses the matrix": "det_criterion_3 wat sat lsat",
    "take only signatures and seeds": "Signature random_su",
    "result records": (
        "Classification ClosedForms OracleResult Report SpectralData TraceSignature TripleProduct Verdict"
    ),
    "constants and the matrix type": "CMatrix DJOKOVIC_WORDS PHI3_WORDS PSI_DEGREES",
    "exceptions": (
        "ConsistencyError CostGuard DegenerateSpectrum DimensionMismatch ExhaustedRetries IsotropicVector"
        " NoConvergence OrthogonalEigenvectors ParseError RepeatedDiagonal SingularMatrix"
        " UecsmError UnsupportedDimension"
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)], ids=str)
@pytest.mark.parametrize("entry", NON_FINITE_CASES)
def test_entry_points_reject_non_finite_entries(entry, value):
    # refused before any arithmetic, so no RuntimeWarning (an error under
    # this suite's filters) comes first
    t = np.zeros((3, 3), dtype=complex)
    t[1, 2] = value
    with pytest.raises(ValueError, match="(matrix entries|nilpotent parameters) must be finite"):
        entry(t)


def test_non_finite_table_covers_every_export():
    # a new public name has to be given a case above or a reason to be exempt
    tested = {case.id.split("-")[0] for case in NON_FINITE_CASES}
    exempt = [name for names in NON_FINITE_EXEMPT.values() for name in names.split()]
    assert len(exempt) == len(set(exempt))
    assert not tested & set(exempt)
    assert tested | set(exempt) == set(uecsm.__all__)


#: One call per name of ``uecsm.__all__`` that takes a ``tol``, on input
#: it accepts at a finite positive ``tol``; each id is the name it calls.
T3 = random_complex_matrix(rng(31), 3)
TOL_CASES = [
    pytest.param(lambda tol: analyze(T3, "t", tol=tol), id="analyze"),
    pytest.param(lambda tol: analyze_stack(T3[None], ["t"], tol=tol), id="analyze_stack"),
    pytest.param(lambda tol: angle_suite(T3, tol), id="angle_suite"),
    pytest.param(lambda tol: wat(eigensystem(T3), tol), id="wat"),
    pytest.param(lambda tol: sat(eigensystem(T3), tol), id="sat"),
    pytest.param(lambda tol: lsat(eigensystem(T3), tol), id="lsat"),
    pytest.param(lambda tol: det_criterion_3(eigensystem(T3), tol), id="det_criterion_3"),
    pytest.param(lambda tol: trace_test_3(T3, tol), id="trace_test_3"),
    pytest.param(lambda tol: uecsm_verdict(T3, tol), id="uecsm_verdict"),
    pytest.param(lambda tol: transpose_equivalence(T3, tol), id="transpose_equivalence"),
    pytest.param(lambda tol: unitary_equivalence_4(EYE4, EYE4, tol), id="unitary_equivalence_4"),
    pytest.param(lambda tol: verify_witness(EYE3, EYE3, tol), id="verify_witness"),
    pytest.param(
        lambda tol: su_membership(random_su(Signature(1, 3), seed=0), Signature(1, 3), tol), id="su_membership"
    ),
    pytest.param(lambda tol: sat_obstruction(EYE3 + T3, tol), id="sat_obstruction"),
    pytest.param(lambda tol: classify(NilpotentParams(1, 2, 3, 4, 5, 6), tol), id="classify"),
    pytest.param(
        lambda tol: symmetrizing_witness(NilpotentParams(3, 1 + 2j, 2 - 1j, 1 + 1j, 1j * (1 + 2j), 3j), tol),
        id="symmetrizing_witness",
    ),
    pytest.param(lambda tol: Verdict("c", ("r",), (0.0,), tol), id="Verdict"),
]


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf], ids=str)
@pytest.mark.parametrize("call", TOL_CASES)
def test_entry_points_refuse_a_tol_that_is_not_finite_and_positive(call, tol):
    call(1e-8)  # the input is accepted
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        call(tol)


def test_tol_table_covers_every_name_that_takes_tol():
    # ``analyze`` passes its keywords to ``analyze_stack``; a ``Report``
    # is built by ``analyze_stack``, after its ``tol`` is checked
    takes_tol = set()
    for name in uecsm.__all__:
        try:
            parameters = inspect.signature(getattr(uecsm, name)).parameters
        except (TypeError, ValueError):  # constants and builtins
            continue
        if "tol" in parameters:
            takes_tol.add(name)
    tested = {case.id for case in TOL_CASES}
    assert tested == takes_tol - {"Report"} | {"analyze"}


def _strided_views(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two evenly strided n x n views whose flattening is strided too:
    every other column of an n x 2n array, and a matrix reversed along
    both axes."""
    gen = rng(29 + n)
    wide = gen.standard_normal((n, 2 * n)) + 1j * gen.standard_normal((n, 2 * n))
    return wide[:, ::2], random_complex_matrix(gen, n)[::-1, ::-1]


def _entry_outcomes(t: np.ndarray, u: np.ndarray) -> list:
    """What each one-matrix entry point gives for ``t``, floats by ``float.hex``."""
    rep, mu, s = normalize(t)
    spectral = eigensystem(t)
    oracle = find_symmetrizer(t)
    return [
        analyze(t, "t", run_oracle=True).to_dict(),
        [_hex(rep), _hex(np.array([mu])), s.hex()],
        [_hex(a) for a in (spectral.x, spectral.y, spectral.grams, np.array(spectral.eigenvalues))],
        _outcome({"uecsm": uecsm_verdict(t), "transpose": transpose_equivalence(t), **angle_suite(t)}),
        [oracle.status, oracle.residual.hex(), oracle.iterations, oracle.restarts_used],
        None if oracle.u is None else _hex(oracle.u),
        symmetry_residual(t, u).hex(),
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_strided_views_give_what_their_copies_give(n):
    # normalize_stack reads each matrix as a row of floats, which needs contiguous memory
    u = random_unitary(rng(n), n)[::-1, ::-1]
    for view in _strided_views(n):
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        assert _entry_outcomes(view, u) == _entry_outcomes(copy, np.ascontiguousarray(u))
    gen = rng(n)
    wide = gen.standard_normal((3, n, 2 * n)) + 1j * gen.standard_normal((3, n, 2 * n))
    labels = ["a", "b", "c"]
    for view in (wide[:, :, ::2], wide[:, :, ::2].copy()[::-1, ::-1, ::-1]):
        reports = analyze_stack(view, labels, run_oracle=True)
        alike = analyze_stack(np.ascontiguousarray(view), labels, run_oracle=True)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in alike]


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (2, 0, 0)], ids=str)
def test_stacked_kernels_reject_non_square_stacks(shape):
    with pytest.raises(DimensionMismatch):
        analyze_stack(np.zeros(shape, dtype=complex), ["x"] * shape[0])


def test_empty_stack_gives_no_reports():
    assert analyze_stack(np.zeros((0, 3, 3), dtype=complex), []) == []


def test_solver_failure_refuses_only_its_row(monkeypatch):
    # LAPACK fails on the whole stack when it fails on one matrix; the
    # stack is then solved row by row and only that row is refused
    import uecsm.spectra as spectra
    from uecsm.matcore import normalize_stack

    ts = _stack(rng(5), 4, ["gauss", "gauss", "gauss"])[:3]
    bad = normalize_stack(ts)[0][1]
    eig = np.linalg.eig

    def failing_eig(a):
        if any(np.array_equal(m, bad) for m in a.reshape(-1, 4, 4)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(spectra.np.linalg, "eig", failing_eig)
    stack = spectra.eigensystem_stack(*normalize_stack(ts))
    assert [type(r).__name__ for r in stack.refusals] == ["NoneType", "NoConvergence", "NoneType"]
    assert "LAPACK eigensolver failed" in str(stack.refusals[1])
    for b in (0, 2):
        alone = eigensystem(ts[b])
        assert np.array_equal(stack.row(b).x, alone.x)
        assert stack.row(b).eigenvalues == alone.eigenvalues
    report = analyze_stack(ts, ["a", "b", "c"])[1]
    assert report.spectral_status == "no_convergence"
    assert report.notes[0].startswith("eigensolver failed, angle tests skipped: LAPACK")


GOLDEN = Path(__file__).resolve().parent / "golden"


def _hex(a: np.ndarray) -> list:
    """Every float of a real or complex array by ``float.hex``, complex
    entries as their real part followed by their imaginary part."""
    return [v.hex() for v in np.asarray(a).view(float).ravel().tolist()]


def _mixed_stack(n: int) -> tuple[list[str], np.ndarray]:
    """The labels of ``one_matrix_inputs()`` of size n, every fourth
    from each start, then the first four again: 17 rows, with gap- and
    ill-conditioned-refused rows between accepted ones."""
    inputs = one_matrix_inputs()
    labels = [label for label, t in inputs if len(t) == n]
    labels = [label for k in range(4) for label in labels[k::4]]
    labels += labels[: 17 - len(labels)]
    return labels, np.stack([dict(inputs)[label] for label in labels])


def _outcome(value) -> object:
    if isinstance(value, Exception):
        return f"{type(value).__name__}: {value}"
    return {key: [v.criterion, v.passed, [r.hex() for r in v.row]] for key, v in value.items()}


def _stacked_arrays() -> dict:
    """The raw arrays of the stacked kernels on the mixed stacks of n = 3 and 4.

    For each size: ``lam``, ``x``, ``y`` and ``grams`` of
    ``eigensystem_stack`` (refused rows keep their placeholders), the
    complex traces of the UECSM plan on the stack and on its first row
    alone, before any modulus, and ``angle_verdicts`` of the stack and
    of its accepted rows alone.
    """
    record = {}
    for n in (3, 4):
        labels, ts = _mixed_stack(n)
        reps, mu, s = normalize_stack(ts)
        spectral = uecsm.spectra.eigensystem_stack(reps, mu, s)
        plan = _TRACE_CHECKS[n].plan
        accepted = [b for b, r in enumerate(spectral.refusals) if r is None]
        alone = uecsm.spectra.eigensystem_stack(reps[accepted], mu[accepted], s[accepted])
        fields = {
            "labels": labels,
            **{name: _hex(getattr(spectral, name)) for name in ("lam", "x", "y", "grams")},
            "traces": _hex(plan.traces(reps, adjoint(reps))),
            "traces_row0": _hex(plan.traces(reps[0], adjoint(reps[0]))),
            "angle_verdicts": [_outcome(v) for v in uecsm.angletests.angle_verdicts(spectral)],
            "angle_verdicts_accepted": [_outcome(v) for v in uecsm.angletests.angle_verdicts(alone)],
        }
        record.update((f"n{n} {name}", value) for name, value in fields.items())
    return record


def test_stacked_arrays_equal_the_frozen_golden():
    # golden/stacked_arrays.json: the eigen arrays, raw traces and angle
    # verdicts of the mixed stacks, every float by float.hex, frozen
    # before the kernels gathered with take; one size and field a line
    record = _stacked_arrays()
    text = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in record.items()) + "\n}\n"
    assert text == (GOLDEN / "stacked_arrays.json").read_text(encoding="utf-8")


def test_kernel_index_arrays_are_read_only_intp():
    # the plans, the angle gather, the determinant picks and the eigen
    # sort and phase offsets are shared for the life of the process, so
    # no caller may write into their indices
    from uecsm.matcore import _trace_plan
    from uecsm.tracetests import _REVERSAL_WORDS

    plans = [checks.plan for checks in _TRACE_CHECKS.values()]
    plans += [_trace_plan(words) for words in _REVERSAL_WORDS.values()]
    arrays = [a for plan in plans for level in plan.levels for a in level[3:]]
    arrays += [a for plan in plans for a in (plan.left, plan.right)]
    arrays += [uecsm.angletests._angle_index(n)[0] for n in range(1, 6)]
    arrays += [uecsm.angletests._DET3_PAIRS, uecsm.angletests._DET3_CYCLE, uecsm.angletests._DET3_DETS]
    arrays += [a for count in (1, 2, 17) for n in (1, 3, 4) for a in uecsm.spectra._starts(count, n)]
    for a in arrays:
        assert a.dtype == np.intp and not a.flags.writeable
