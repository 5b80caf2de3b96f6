"""The stacked path: ``analyze_stack`` and ``uecsm batch`` against ``analyze``.

Every criterion runs on a ``(B, n, n)`` stack, and the one-matrix
functions are its ``B = 1`` case.  These tests check that a stack gives
each matrix the report ``analyze`` gives it alone, that ``uecsm batch``
groups documents by dimension without changing what it reports, and
that every public entry point rejects a shape that is not a square
matrix.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uecsm import (
    DimensionMismatch,
    angle_suite,
    eigensystem,
    find_symmetrizer,
    normalize,
    transpose_equivalence,
    uecsm_verdict,
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

from _util import random_complex_matrix, random_symmetric_matrix, random_unitary, rng

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
    kwargs = dict(tol=1e-6, trace_tol=1e-9, angle_tol=10.0, transpose_tol=1e-7)
    labels = ["a", "b", "c"] + [f"g{i}" for i in range(len(ts) - 3)]
    for t, label, report in zip(ts, labels, analyze_stack(ts, labels, **kwargs)):
        _same_report(analyze(t, label, **kwargs), report)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stack_outside_the_trace_criteria(n):
    ts = np.array([random_complex_matrix(rng(n), n) for _ in range(2)])
    for t, label, report in zip(ts, "ab", analyze_stack(ts, ["a", "b"])):
        _same_report(analyze(t, label), report)


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
    flags = ["--oracle", "--restarts", "2"] if oracle else []
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
        expected = analyze(
            doc.matrix, doc.label, run_oracle=oracle, oracle_restarts=2
        ).to_dict()
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
