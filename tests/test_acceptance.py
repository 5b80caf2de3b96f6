"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a single ``ACCEPTANCE cNN pass|FAIL`` line (visible
with ``pytest -s`` or on failure) and asserts the criterion at its
stated tolerance.  Randomized sweeps are seeded and exclude only
boundary samples, defined as a residual inside [tol/10, 10*tol] on
either side of the comparison.
"""

import numpy as np
import pytest

from uecsm import (
    DegenerateSpectrum,
    NilpotentParams,
    NoConvergence,
    Signature,
    adjoint,
    build_matrix,
    classify,
    conjugated_diagonal,
    eigensystem,
    find_symmetrizer,
    lsat,
    psi7,
    psi_closed_forms,
    random_su,
    sat,
    sat_obstruction,
    su_membership,
    symmetrizing_witness,
    trace_test_3,
    transpose_equivalence,
    uecsm_verdict,
    verify_witness,
    wat,
    word_trace,
)
from uecsm.gallery import (
    NILPOTENT_QUARTET,
    SCALAR_PLUS_SHIFT_12,
    SCALAR_PLUS_SHIFT_22,
    SU22_LSAT_EXAMPLE,
    SU22_SAMPLE_Q,
    WAT_COUNTEREXAMPLE,
)
from uecsm.tracetests import DJOKOVIC_WORDS

from _util import (
    nilpotent_c07_samples,
    random_integer_matrix,
    random_symmetric_matrix,
    random_unitary,
    rng,
)

TOL = 1e-8


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion} {'pass' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def boundary(residual: float, tol: float) -> bool:
    return tol / 10 <= residual <= 10 * tol


def test_c01_nilpotent_quartet():
    verdicts = [uecsm_verdict(t, TOL).passed for t in NILPOTENT_QUARTET]
    ok = verdicts == [False, False, True, False]
    # the normed identity behind the passing member
    ok &= 2**2 + 9**2 == 85 == 6**2 + 7**2
    # nonzero norm-condition gaps for the failing members: 85 - (e^2 + 49)
    gaps = [abs((2**2 + 9**2) - (e**2 + 7**2)) for e in (4, 5, 7)]
    ok &= gaps == [20, 11, 13]
    # the gap is reflected in a nonzero trace vector for the failing members
    for index in (0, 1, 3):
        ok &= max(abs(v) for v in psi7(NILPOTENT_QUARTET[index]).values) > 1.0
    report("c01", ok, f"verdicts={verdicts} gaps={gaps}")


def test_c02_shift_trace_vectors():
    v1 = np.array(psi7(SCALAR_PLUS_SHIFT_22).values)
    v2 = np.array(psi7(SCALAR_PLUS_SHIFT_12).values)
    ok = bool(np.max(np.abs(v1)) <= 1e-10)
    ok &= abs(v2[0] - (-12.0)) <= 1e-9
    ok &= bool(np.max(np.abs(v2[1:])) <= 1e-10)
    report("c02", ok, f"|psi(pass)|max={np.max(np.abs(v1)):.2e} psi1(fail)={v2[0]:.6g}")


def test_c03_integer_counterexample_profile():
    tol = 1e-7
    s = eigensystem(WAT_COUNTEREXAMPLE)
    wat_ok = wat(s, tol).passed
    lsat_ok = lsat(s, tol).passed
    sat_bad = not sat(s, tol).passed
    trace_bad = not uecsm_verdict(WAT_COUNTEREXAMPLE, tol).passed
    transpose_bad = not transpose_equivalence(WAT_COUNTEREXAMPLE, tol).passed
    ok = wat_ok and lsat_ok and sat_bad and trace_bad and transpose_bad
    report(
        "c03",
        ok,
        f"wat={wat_ok} lsat={lsat_ok} sat_fail={sat_bad} "
        f"trace_fail={trace_bad} transpose_fail={transpose_bad}",
    )


def test_c04_conjugated_diagonal_reproduction():
    t = conjugated_diagonal(SU22_SAMPLE_Q, [-1.0, 0.0, 1.0, 2.0])
    entry_gap = float(np.max(np.abs(t - SU22_LSAT_EXAMPLE)))
    triple = sat_obstruction(SU22_SAMPLE_Q)[0]
    triple_gap = abs(triple.value - (100 - 8j) / 3)
    ok = entry_gap <= 1e-8 and triple.indices == (1, 2, 3) and triple_gap <= 1e-8
    report("c04", ok, f"entry_gap={entry_gap:.2e} triple_gap={triple_gap:.2e}")


def test_c05_wat_equals_trace_test_3x3():
    gen = rng(1005)
    tested = agreed = skipped = 0
    transpose_agreed = transpose_tested = 0
    budget = 20_000
    while tested < 1000:
        budget -= 1
        assert budget > 0, "sampling assumptions broken: too many rejections"
        t = random_integer_matrix(gen, 3)
        try:
            s = eigensystem(t)
        except (DegenerateSpectrum, NoConvergence):
            continue
        wat_v = wat(s, TOL)
        trace_v = trace_test_3(t, TOL)
        tr_eq = transpose_equivalence(t, TOL)
        if not (boundary(trace_v.max_residual, TOL) or boundary(tr_eq.max_residual, TOL)):
            transpose_tested += 1
            transpose_agreed += tr_eq.passed == trace_v.passed
        if boundary(wat_v.max_residual, TOL) or boundary(trace_v.max_residual, TOL):
            skipped += 1
            continue
        tested += 1
        agreed += wat_v.passed == trace_v.passed
    ok = agreed == tested and transpose_agreed == transpose_tested
    report(
        "c05",
        ok,
        f"wat agreement {agreed}/{tested}, transpose agreement "
        f"{transpose_agreed}/{transpose_tested}, boundary skipped {skipped}",
    )


def test_c06_sat_equals_psi_4x4():
    gen = rng(1006)
    tested = agreed = skipped = 0
    transpose_agreed = transpose_tested = 0
    produced = 0
    while tested < 1000:
        produced += 1
        assert produced < 20_000, "sampling assumptions broken: too many rejections"
        if produced % 3 == 0:
            u = random_unitary(gen, 4)
            t = u @ random_symmetric_matrix(gen, 4, scale=2.0) @ u.conj().T
        else:
            t = random_integer_matrix(gen, 4)
        try:
            s = eigensystem(t)
        except (DegenerateSpectrum, NoConvergence):
            continue
        sat_v = sat(s, TOL)
        psi_v = uecsm_verdict(t, TOL)
        tr_eq = transpose_equivalence(t, TOL)
        if not (boundary(psi_v.max_residual, TOL) or boundary(tr_eq.max_residual, TOL)):
            transpose_agreed += tr_eq.passed == psi_v.passed
            transpose_tested += 1
        if boundary(sat_v.max_residual, TOL) or boundary(psi_v.max_residual, TOL):
            skipped += 1
            continue
        tested += 1
        agreed += sat_v.passed == psi_v.passed
    ok = agreed == tested and transpose_agreed == transpose_tested
    report(
        "c06",
        ok,
        f"sat agreement {agreed}/{tested}, transpose agreement "
        f"{transpose_agreed}/{transpose_tested}, boundary skipped {skipped}",
    )


def test_c07_nilpotent_classification_equivalence():
    tested = agreed = skipped = 0
    form_gap = 0.0
    for p in nilpotent_c07_samples():
        t = build_matrix(p)
        verdict = uecsm_verdict(t, TOL)
        result = classify(p, TOL)
        # closed forms track the matrix-evaluated traces
        forms = psi_closed_forms(p)
        values = psi7(t).values
        scale = max(1.0, abs(values[3]), abs(values[6]))
        form_gap = max(
            form_gap,
            abs(forms.psi4 - values[3]) / scale,
            abs(forms.psi7 - values[6]) / scale,
        )
        if boundary(verdict.max_residual, TOL) or boundary(max(r for _, r in result.residuals), TOL):
            skipped += 1
            continue
        tested += 1
        agreed += result.uecsm == verdict.passed
    ok = agreed == tested and form_gap <= 1e-9 and tested >= 2000
    report(
        "c07",
        ok,
        f"agreed {agreed}/{tested}, skipped {skipped}, closed-form gap {form_gap:.2e}",
    )


def test_c08_su22_constructions_pass_lsat():
    sig = Signature(2, 4)
    checked = 0
    worst_membership = 0.0
    worst_lsat = 0.0
    seed = 0
    while checked < 200:
        seed += 1
        assert seed < 4000, "sampling assumptions broken: too many rejections"
        q = random_su(sig, seed=8000 + seed)
        membership = su_membership(q, sig, tol=1e-10)
        if not membership.passed:
            continue
        worst_membership = max(worst_membership, membership.max_residual)
        t = conjugated_diagonal(q, [-1.0, 0.0, 1.0, 2.0])
        try:
            verdict = lsat(eigensystem(t), tol=1e-7)
        except (DegenerateSpectrum, NoConvergence):
            continue
        checked += 1
        worst_lsat = max(worst_lsat, verdict.max_residual)
        if not verdict.passed:
            break
    ok = checked == 200 and worst_lsat <= 1e-7 and worst_membership < 1e-10
    report(
        "c08",
        ok,
        f"200 constructions, worst lsat {worst_lsat:.2e}, worst membership {worst_membership:.2e}",
    )


def test_c09_one_dimensional_cone_always_uecsm():
    ok = True
    for sig, diag, n in ((Signature(3, 4), [-1.0, 0.0, 1.0, 2.0], 4), (Signature(2, 3), [-1.0, 0.5, 2.0], 3)):
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            assert seed < 4000, "sampling assumptions broken: too many rejections"
            q = random_su(sig, seed=9000 + 97 * n + seed)
            t = conjugated_diagonal(q, diag)
            try:
                s = eigensystem(t)
            except (DegenerateSpectrum, NoConvergence):
                continue
            checked += 1
            ok &= sat(s, TOL).passed
            trace_ok = trace_test_3(t, TOL).passed if n == 3 else uecsm_verdict(t, TOL).passed
            ok &= trace_ok
            if not ok:
                break
    report("c09", ok, "200 sig-(3,1) and 200 sig-(2,1) constructions")


def test_c10_word_reductions():
    gen = rng(1010)
    ok = True
    worst_auto = 0.0
    worst_pair = 0.0
    for _ in range(500):
        t = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        ta = adjoint(t)
        norm = max(1.0, np.linalg.norm(t))
        gaps = {}
        for index in list(range(1, 12)) + [12, 13, 16, 17]:
            w = DJOKOVIC_WORDS[index - 1]
            gaps[index] = abs(word_trace(w, t, ta) - word_trace(w[::-1], t, ta))
        for index in range(1, 12):
            deg = len(DJOKOVIC_WORDS[index - 1])
            worst_auto = max(worst_auto, gaps[index] / norm**deg)
        worst_pair = max(
            worst_pair,
            abs(gaps[12] - gaps[13]) / norm**6,
            abs(gaps[16] - gaps[17]) / norm**8,
        )
    ok = worst_auto <= 1e-10 and worst_pair <= 1e-9
    report("c10", ok, f"auto {worst_auto:.2e}, pair identities {worst_pair:.2e}")


def test_c11_oracle_cross_validation():
    gen = rng(1011)
    fixtures = [NILPOTENT_QUARTET[2], SCALAR_PLUS_SHIFT_22]
    for seed in range(5):
        fixtures.append(conjugated_diagonal(random_su(Signature(3, 4), seed=400 + seed), [-1.0, 0.0, 1.0, 2.0]))
        fixtures.append(conjugated_diagonal(random_su(Signature(2, 3), seed=500 + seed), [-1.0, 0.5, 2.0]))
    for _ in range(5):
        fixtures.append(random_symmetric_matrix(gen, 4, scale=2.0))

    ok = True
    worst_residual = 0.0
    worst_restarts = 0
    for t in fixtures:
        result = find_symmetrizer(t)
        ok &= result.found and result.residual < 1e-6
        if result.found:
            ok &= verify_witness(t, result.u).passed
        worst_residual = max(worst_residual, result.residual)
        worst_restarts = max(worst_restarts, result.restarts_used)

    # analytic witness for the sixth nilpotent condition
    p = NilpotentParams(3, 1 + 2j, 2 - 1j, 1 + 1j, 1j * (1 + 2j), 3j)
    ok &= verify_witness(build_matrix(p), symmetrizing_witness(p), tol=1e-9).passed

    report(
        "c11",
        ok,
        f"{len(fixtures)} witnesses, worst residual {worst_residual:.2e}, worst restarts {worst_restarts}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
