"""Tests for the trace-word criteria."""

import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uecsm import (
    DJOKOVIC_WORDS,
    PHI3_WORDS,
    DimensionMismatch,
    UnsupportedDimension,
    adjoint,
    angle_suite,
    cmatrix,
    djokovic_signature,
    normalize,
    phi3,
    psi7,
    trace_test_3,
    transpose_equivalence,
    uecsm_verdict,
    unitary_equivalence_4,
    word_trace,
    word_traces,
)
from uecsm import tracetests
from uecsm.cli import analyze
from uecsm.constructors import Signature, random_su, su_membership
from uecsm.gallery import (
    GALLERY,
    NILPOTENT_QUARTET,
    SCALAR_PLUS_SHIFT_12,
    SCALAR_PLUS_SHIFT_22,
    WAT_COUNTEREXAMPLE,
)
from uecsm.matcore import normalize_stack, representative
from uecsm.oracle import verify_witness
from uecsm.tracetests import Verdict, trace_verdicts

from _trace_reference import commutator_trace, psi7_values
from _util import random_complex_matrix, random_symmetric_matrix, random_unitary, rng

# paper-layout proof matrix: rows (0,0,0), (a,1,0), (b,0,lam)
TRIANGULAR_PROOF_CASES = [
    cmatrix([[0, 0, 0], [0, 1, 0], [2.0, 0, 3.0]]),  # a = 0
    cmatrix([[0, 0, 0], [1.5j, 1, 0], [0, 0, 2.0 - 1j]]),  # b = 0
]


class TestPhi3:
    def test_zero_matrix(self):
        sig = phi3(np.zeros((3, 3), dtype=complex))
        assert sig.values == (0,) * 7

    def test_identity(self):
        sig = phi3(np.eye(3, dtype=complex))
        assert np.allclose(sig.values, [3] * 7)

    def test_degrees(self):
        assert phi3(np.eye(3, dtype=complex)).degrees == (1, 2, 3, 2, 3, 4, 6)

    def test_unitary_invariance(self):
        gen = rng(30)
        for _ in range(10):
            t = random_complex_matrix(gen, 3, scale=2.0)
            u = random_unitary(gen, 3)
            a = np.array(phi3(t).values)
            b = np.array(phi3(u @ t @ u.conj().T).values)
            scales = np.maximum(1.0, np.linalg.norm(t) ** np.array(phi3(t).degrees, float))
            assert np.max(np.abs(a - b) / scales) < 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            phi3(np.eye(4, dtype=complex))


class TestTraceTest3:
    def test_complex_symmetric_passes(self):
        t = cmatrix([[1, 2j, 0], [2j, 3, 1], [0, 1, 1j]])
        v = trace_test_3(t)
        assert v.passed
        assert v.max_residual < 1e-12

    @pytest.mark.parametrize("t", TRIANGULAR_PROOF_CASES)
    def test_triangular_proof_matrix_passes(self, t):
        assert trace_test_3(t).passed

    def test_generic_integer_matrix_fails(self):
        t = cmatrix([[1, 2, 0], [0, 3, 1], [1, 0, -2]])
        v = trace_test_3(t)
        assert not v.passed
        assert v.max_residual > 1e-6

    def test_zero_matrix_passes_with_zero_residual(self):
        v = trace_test_3(np.zeros((3, 3), dtype=complex))
        assert v.passed
        assert v.max_residual == 0.0


class TestDjokovic:
    def test_word_table_shape(self):
        assert len(DJOKOVIC_WORDS) == 20
        assert [len(w) for w in DJOKOVIC_WORDS] == [
            1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 6, 6, 6, 7, 8, 8, 8, 9, 9, 10,
        ]

    def test_zero_and_identity(self):
        assert djokovic_signature(np.zeros((4, 4), dtype=complex)).values == (0,) * 20
        assert np.allclose(djokovic_signature(np.eye(4, dtype=complex)).values, [4] * 20)

    def test_unitary_invariance(self):
        gen = rng(31)
        for _ in range(5):
            t = random_complex_matrix(gen, 4, scale=2.0)
            u = random_unitary(gen, 4)
            v = unitary_equivalence_4(t, u @ t @ u.conj().T, tol=1e-9)
            assert v.passed

    def test_reflexive(self):
        t = random_complex_matrix(rng(32), 4)
        assert unitary_equivalence_4(t, t).passed

    def test_shift_examples_separated_by_w3(self):
        v = unitary_equivalence_4(SCALAR_PLUS_SHIFT_22, SCALAR_PLUS_SHIFT_12)
        assert not v.passed
        residuals = dict(v.residuals)
        assert residuals["w03"] > 1e-3  # tr T T* is 9 vs 6
        sig1 = djokovic_signature(SCALAR_PLUS_SHIFT_22)
        sig2 = djokovic_signature(SCALAR_PLUS_SHIFT_12)
        assert sig1.values[2] == pytest.approx(9.0)
        assert sig2.values[2] == pytest.approx(6.0)

    def test_residuals_are_the_signature_gaps_bit_for_bit(self):
        # the residuals are Python's abs of the differences of two separate
        # signatures, of the sqrt(2)-scaled blocks of normalize(diag(A, B));
        # np.abs of the same differences differs in the last bit on some pairs
        names = tuple(name for name, _ in transpose_equivalence(WAT_COUNTEREXAMPLE).residuals)
        quartets = [np.asarray(m) for m, _ in GALLERY.values()]
        pairs = [(a, b) for a in quartets for b in quartets]
        gen = rng(33)
        for i in range(50):
            scale = 10.0 ** (20 if i % 2 else -20)
            a = random_complex_matrix(gen, 4, scale)
            u = random_unitary(gen, 4)
            b = u @ a @ u.conj().T if i % 4 < 2 else random_complex_matrix(gen, 4, scale)
            pairs.append((a, b))
        equivalent = 0
        for a, b in pairs:
            v = unitary_equivalence_4(a, b)
            assert tuple(name for name, _ in v.residuals) == names
            z = np.zeros((4, 4))
            pair = math.sqrt(2.0) * normalize(np.block([[a, z], [z, b]]))[0]
            sig_a, sig_b = djokovic_signature(pair[:4, :4]), djokovic_signature(pair[4:, 4:])
            expected = [abs(va - vb).hex() for va, vb in zip(sig_a.values, sig_b.values)]
            assert [r.hex() for _, r in v.residuals] == expected
            assert v.max_residual == max(r for _, r in v.residuals)
            equivalent += v.passed
        assert equivalent >= len(quartets) + 25


class TestPsi7:
    def test_shift_22_vanishes(self):
        values = np.array(psi7(SCALAR_PLUS_SHIFT_22).values)
        assert np.max(np.abs(values)) < 1e-10

    def test_shift_12_first_component(self):
        values = np.array(psi7(SCALAR_PLUS_SHIFT_12).values)
        assert values[0] == pytest.approx(-12.0, abs=1e-9)
        assert np.max(np.abs(values[1:])) < 1e-10

    def test_symmetric_vanishes(self):
        gen = rng(33)
        for _ in range(50):
            s = random_symmetric_matrix(gen, 4, scale=2.0)
            values = np.abs(np.array(psi7(s).values))
            bound = 1e-10 * np.linalg.norm(s) ** np.array(psi7(s).degrees, float)
            assert np.all(values <= bound)

    def test_matches_word_differences(self):
        # psi_i = tr w_i - tr (reversed w_i) for i in {12,14,15,16,18,19,20}
        t = random_complex_matrix(rng(34), 4)
        ta = adjoint(t)
        pairing = {1: 12, 2: 14, 3: 15, 4: 16, 5: 18, 6: 19, 7: 20}
        values = psi7(t).values
        for psi_index, word_index in pairing.items():
            w = DJOKOVIC_WORDS[word_index - 1]
            diff = word_trace(w, t, ta) - word_trace(w[::-1], t, ta)
            assert values[psi_index - 1] == pytest.approx(diff, rel=1e-8, abs=1e-8)


class TestUecsmVerdict:
    def test_quartet(self):
        expected = [False, False, True, False]
        for t, want in zip(NILPOTENT_QUARTET, expected):
            assert uecsm_verdict(t).passed is want

    def test_counterexample_fails(self):
        assert not uecsm_verdict(WAT_COUNTEREXAMPLE).passed

    def test_small_n_always_passes(self):
        assert uecsm_verdict(cmatrix([[3.7j]])).passed
        assert uecsm_verdict(random_complex_matrix(rng(35), 2)).passed

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            uecsm_verdict(np.eye(5, dtype=complex))

    def test_scale_invariant_residuals(self):
        gen = rng(36)
        t = random_complex_matrix(gen, 4)
        base = np.array([r for _, r in uecsm_verdict(t).residuals])
        for c in (3.7, 0.02, 1j, -2.5 + 1.5j):
            scaled = np.array([r for _, r in uecsm_verdict(c * t).residuals])
            assert np.allclose(scaled, base, rtol=1e-9, atol=1e-12)


class TestTransposeEquivalence:
    def test_symmetric_passes(self):
        s = random_symmetric_matrix(rng(37), 4)
        assert transpose_equivalence(s).passed

    def test_shift_12_fails(self):
        assert not transpose_equivalence(SCALAR_PLUS_SHIFT_12).passed

    def test_agrees_with_uecsm_verdict(self):
        gen = rng(38)
        for n in (3, 4):
            for _ in range(50):
                t = random_complex_matrix(gen, n, scale=2.0)
                assert transpose_equivalence(t).passed == uecsm_verdict(t).passed
            for _ in range(20):
                u = random_unitary(gen, n)
                s = u @ random_symmetric_matrix(gen, n) @ u.conj().T
                assert transpose_equivalence(s).passed
                assert uecsm_verdict(s).passed


def reference_transpose_equivalence(t, tol=1e-8):
    """Transpose equivalence by evaluating the words on T^t itself."""
    n = t.shape[0]
    if n == 3:
        rep, _, _ = normalize(t)
        residuals = tuple(
            (f"phi{i}", abs(a - b))
            for i, (a, b) in enumerate(zip(phi3(rep).values, phi3(rep.T).values), start=1)
        )
        return max(r for _, r in residuals) <= tol, residuals
    inner = unitary_equivalence_4(t, t.T, tol)
    return inner.passed, inner.residuals


def assert_matches_reference(t):
    v = transpose_equivalence(t)
    passed, residuals = reference_transpose_equivalence(t)
    assert [name for name, _ in v.residuals] == [name for name, _ in residuals]
    assert v.passed is passed
    assert np.allclose([r for _, r in v.residuals], [r for _, r in residuals], rtol=0, atol=1e-12)


class TestTransposeReversalIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([3, 4]), st.booleans())
    def test_matches_words_on_the_transpose(self, seed, n, uecsm):
        gen = rng(seed)
        if uecsm:
            u = random_unitary(gen, n)
            t = u @ random_symmetric_matrix(gen, n) @ u.conj().T
        else:
            t = random_complex_matrix(gen, n, scale=2.0)
        assert_matches_reference(t)
        assert transpose_equivalence(t).passed is uecsm

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("label", sorted(GALLERY))
    def test_gallery(self, label, scale):
        matrix, expected = GALLERY[label]
        t = scale * np.asarray(matrix)
        assert_matches_reference(t)
        assert transpose_equivalence(t).passed is expected

    def test_residual_names(self):
        gen = rng(41)
        v3 = transpose_equivalence(random_complex_matrix(gen, 3))
        v4 = transpose_equivalence(random_complex_matrix(gen, 4))
        assert [name for name, _ in v3.residuals] == [f"phi{i}" for i in range(1, 8)]
        assert [name for name, _ in v4.residuals] == [f"w{i:02d}" for i in range(1, 21)]
        assert all(isinstance(r, float) for _, r in v3.residuals + v4.residuals)


class TestWordReductions:
    def test_first_eleven_automatic(self):
        gen = rng(39)
        for _ in range(20):
            t = random_complex_matrix(gen, 4, scale=2.0)
            ta = adjoint(t)
            norm = np.linalg.norm(t)
            for w in DJOKOVIC_WORDS[:11]:
                gap = abs(word_trace(w, t, ta) - word_trace(w[::-1], t, ta))
                assert gap <= 1e-10 * max(1.0, norm ** len(w))

    def test_pair_reductions(self):
        gen = rng(40)
        for _ in range(20):
            t = random_complex_matrix(gen, 4, scale=2.0)
            ta = adjoint(t)
            norm = max(1.0, np.linalg.norm(t))

            def gap(index):
                w = DJOKOVIC_WORDS[index - 1]
                return abs(word_trace(w, t, ta) - word_trace(w[::-1], t, ta))

            assert abs(gap(12) - gap(13)) <= 1e-9 * norm**6
            assert abs(gap(16) - gap(17)) <= 1e-9 * norm**8


def _is_rotation(a, b):
    return len(a) == len(b) and b in a + a


def _swap(w):
    return w.translate(str.maketrans("xy", "yx"))


#: 1-based Djokovic word of each psi_k: psi_k is the reversal gap of that word
PSI_WORDS = (12, 14, 15, 16, 18, 19, 20)


class TestReversalGapsAreTheUecsmFamily:
    """For n <= 4 the reversal gaps of :func:`transpose_equivalence` are the
    UECSM traces, which is why the analysis reports only the UECSM verdict:
    every other gap vanishes identically or repeats one of them."""

    def test_gaps_that_vanish_by_rotation(self):
        # tr rev(w) = tr w whenever rev(w) is a cyclic rotation of w
        for words, trivial in ((PHI3_WORDS, 6), (DJOKOVIC_WORDS, 11)):
            rotations = [_is_rotation(w, w[::-1]) for w in words]
            assert rotations == [True] * trivial + [False] * (len(words) - trivial)

    def test_gaps_that_pair_by_swap(self):
        # with y = x*, conj tr w = tr swap(rev(w)); for w12 and w16, rev(w) is
        # a rotation of swap(w), so their gaps are real, and the gaps of their
        # swaps w13 and w17 are the same with the sign flipped
        words = DJOKOVIC_WORDS
        pairs = {(i, j) for i in range(11, 20) for j in range(i + 1, 20) if _is_rotation(words[j], _swap(words[i]))}
        assert pairs == {(11, 12), (15, 16)}
        for i, _ in pairs:
            assert _is_rotation(words[i][::-1], _swap(words[i]))

    @pytest.mark.parametrize("seed", [5, 7, 11])
    def test_family_is_the_gaps_of_the_remaining_words(self, seed):
        gen = rng(seed)
        for n, words in ((3, PHI3_WORDS), (4, DJOKOVIC_WORDS)):
            t = random_complex_matrix(gen, n, scale=2.0)
            ta = adjoint(t)
            gaps = word_traces(words, t, ta) - word_traces(tuple(w[::-1] for w in words), t, ta)
            if n == 3:
                # the commutator trace is the gap of yxxyyx
                family = tracetests._TRACE_CHECKS[3].plan.traces(t, ta)
                np.testing.assert_allclose(family, [gaps[6]], rtol=1e-9)
                continue
            family = np.array(psi7(t).values)
            np.testing.assert_allclose(family, gaps[[k - 1 for k in PSI_WORDS]], rtol=1e-9)
            np.testing.assert_allclose(family[[0, 3]], -gaps[[12, 16]], rtol=1e-9)


def _bits(item):
    """``item`` with every float spelled by ``float.hex``: a verdict as
    ``(criterion, passed, residuals, tol)``, or a sequence of complex values."""
    if isinstance(item, Verdict):
        residuals = tuple((name, float(r).hex()) for name, r in item.residuals)
        return (item.criterion, item.passed, residuals, item.tol.hex())
    return tuple((complex(v).real.hex(), complex(v).imag.hex()) for v in item)


def _residual_rows(verdicts, width):
    return np.array([[r for _, r in v.residuals] for v in verdicts]).reshape(len(verdicts), width)


def _plan_stacks():
    """The gallery as one stack per size (its 4x4 matrices, and their leading
    3x3 blocks), then seeded random stacks."""
    for n in (3, 4):
        yield np.stack([np.asarray(m)[:n, :n] for m, _ in GALLERY.values()])
        gen = rng(50 + n)
        for count in (0, 1, 7, 17):
            yield 2.0 * (gen.standard_normal((count, n, n)) + 1j * gen.standard_normal((count, n, n)))


class TestSharedPlans:
    """The reversal gaps of :func:`transpose_equivalence` are bit-identical to
    ``word_traces``, and the UECSM plan's values to the family's former
    stand-alone products."""

    def test_reversal_gaps_read_word_traces(self):
        for ts in _plan_stacks():
            n = ts.shape[-1]
            words = PHI3_WORDS if n == 3 else DJOKOVIC_WORDS
            reps, _, _ = normalize_stack(ts)
            ys = adjoint(reps)
            reversed_words = tuple(w[::-1] for w in words)
            gaps = np.abs(word_traces(words, reps, ys) - word_traces(reversed_words, reps, ys)).T
            transposes = [transpose_equivalence(t) for t in ts]
            assert np.array_equal(_residual_rows(transposes, len(words)), gaps)

    def test_uecsm_family_matches_the_reference(self):
        for ts in _plan_stacks():
            n = ts.shape[-1]
            reps, _, _ = normalize_stack(ts)
            expected = commutator_trace(reps) if n == 3 else np.abs(psi7_values(reps))
            traces = trace_verdicts(reps)
            assert np.array_equal(_residual_rows(traces, expected.shape[1]), expected)
            if n == 4:
                # the raw, unnormalized traces of psi7 too
                assert [psi7(t).values for t in ts] == list(map(tuple, psi7_values(ts).tolist()))

    @pytest.mark.parametrize("label", sorted(GALLERY))
    def test_one_matrix_criteria_match_the_reference(self, label):
        t = np.asarray(GALLERY[label][0])
        assert psi7(t).values == tuple(psi7_values(t[None])[0].tolist())
        block = t[:3, :3]
        residuals = [r for _, r in trace_test_3(block).residuals]
        assert residuals == commutator_trace(representative(block)[0])[0].tolist()
        # each one-matrix function is the one-row case of trace_verdicts or
        # word_traces, bit for bit
        signatures = ((block, phi3, PHI3_WORDS), (t, djokovic_signature, DJOKOVIC_WORDS))
        for m, signature, words in signatures:
            (trace,) = trace_verdicts(representative(m)[0])
            assert _bits(uecsm_verdict(m)) == _bits(trace)
            assert _bits(signature(m).values) == _bits(word_traces(words, m, adjoint(m)).tolist())
        test3 = trace_test_3(block)
        assert test3.criterion == "trace_test_3"
        assert _bits(test3)[1:] == _bits(uecsm_verdict(block))[1:]

    @pytest.mark.parametrize("n, rows, levels", [(3, 7, 3), (4, 34, 5)])
    def test_table_sizes(self, n, rows, levels):
        # the plan holds the UECSM family alone, which shares every product
        # it spells alike; differences run in one level just before the last
        # product level
        plan = tracetests._TRACE_CHECKS[n].plan
        assert (plan.rows, len(plan.levels)) == (rows, levels)
        assert [op for op, *_ in plan.levels][-2:] == [np.subtract, np.matmul]


class TestVerdictMaxResidual:
    def test_from_rows_seeds_the_python_max(self):
        # Python's max keeps the first of incomparable values, so a NaN
        # counts only when it comes first
        rows = np.array([[0.5, np.nan, 0.25], [np.nan, 0.5, 0.25], [0.5, 0.25, 0.0]])
        verdicts = Verdict.from_rows("c", ("a", "b", "c"), rows, 1.0)
        for v, row in zip(verdicts, rows.tolist()):
            assert v.max_residual == max(row) or (math.isnan(v.max_residual) and math.isnan(max(row)))
            one = Verdict(v.criterion, v.names, v.row, v.tol)
            assert v == one and hash(v) == hash(one)
        assert [v.passed for v in verdicts] == [True, False, True]
        (empty,) = Verdict.from_rows("c", (), np.zeros((1, 0)), 1.0)
        assert empty.max_residual == 0.0 and empty.passed
        assert empty == Verdict("c", (), (), 1.0)

    def test_gallery_residuals_equal_the_frozen_record(self):
        # golden/gallery_verdicts.json: label -> report key -> [criterion,
        # passed, tol, max_residual, [[name, residual], ...]], floats by float.hex,
        # frozen while verdicts still stored their (name, residual) pairs
        record = json.loads((Path(__file__).parent / "golden" / "gallery_verdicts.json").read_text())
        assert set(record) == set(GALLERY)
        for label, (matrix, _) in GALLERY.items():
            verdicts = analyze(matrix, label).verdicts
            got = {
                key: [v.criterion, v.passed, v.tol.hex(), v.max_residual.hex(),
                      [[name, r.hex()] for name, r in v.residuals]]
                for key, v in verdicts.items()
            }  # fmt: skip
            assert got == record[label], label
            for v in verdicts.values():
                assert v.residuals == tuple(zip(v.names, v.row))

    def test_replace_keeps_the_row(self):
        # trace_test_3 is uecsm_verdict under its own criterion name
        t = random_complex_matrix(rng(5), 3)
        for tol in (1e-8, 1.0):
            v = uecsm_verdict(t, tol)
            renamed = trace_test_3(t, tol)
            assert (v.criterion, renamed.criterion) == ("uecsm_trace3", "trace_test_3")
            assert (renamed.passed, renamed.names, renamed.row, renamed.tol) == (v.passed, v.names, v.row, v.tol)
            assert (renamed.residuals, renamed.max_residual) == (v.residuals, v.max_residual)
            assert renamed == Verdict("trace_test_3", v.names, v.row, v.tol) and renamed != v

    def test_verdicts_built_by_the_constructor(self):
        sig = Signature(k=2, n=4)
        t = np.diag([1.0, 2.0]).astype(complex)
        verdicts = {
            "su_membership": su_membership(random_su(sig, seed=3), sig),
            "witness": verify_witness(t, np.eye(2, dtype=complex)),
            "uecsm_small_n": trace_verdicts(representative(t)[0])[0],
            "transpose_equivalence": transpose_equivalence(t),
        }
        names = {
            "su_membership": ("form_preservation", "determinant"),
            "witness": ("unitarity", "symmetry"),
            "uecsm_small_n": ("small_n",),
            "transpose_equivalence": ("small_n",),
        }
        for criterion, v in verdicts.items():
            assert v.criterion == criterion and v.names == names[criterion] and v.passed
            assert v.max_residual == max(v.row) and v.residuals == tuple(zip(v.names, v.row))
            assert v == Verdict(v.criterion, v.names, v.row, v.tol)
            assert hash(v) == hash(Verdict(v.criterion, v.names, v.row, v.tol))
            # copies, pickles and the repr rebuild the verdict through the constructor
            assert copy.copy(v) == v and pickle.loads(pickle.dumps(v)) == v
            assert eval(repr(v), {"Verdict": Verdict}) == v
        with pytest.raises(TypeError):
            Verdict("c", True, ("a",), (0.0,), 1.0)  # no passed argument

    @pytest.mark.parametrize("tol", [1e-8, 1.0, 0.0, -1.0, math.nan])
    def test_every_verdict_follows_its_row(self, tol):
        # passed is max_residual <= tol for every criterion the package
        # builds, the n <= 2 verdicts included, and no field can be set; a
        # tol that is not finite and positive gives no verdict at all
        gen = rng(11)
        t2, t3, t4 = (random_complex_matrix(gen, n) for n in (2, 3, 4))
        sig = Signature(k=2, n=4)
        w = random_unitary(gen, 4)
        sym = random_symmetric_matrix(gen, 4)
        calls = [
            lambda: [uecsm_verdict(t2, tol)],
            lambda: [uecsm_verdict(t3, tol)],
            lambda: [uecsm_verdict(t4, tol)],
            lambda: [trace_test_3(t3, tol)],
            lambda: angle_suite(t3, tol).values(),
            lambda: angle_suite(t4, tol).values(),
            lambda: [su_membership(random_su(sig, seed=3), sig, tol)],
            lambda: [verify_witness(sym, np.eye(4, dtype=complex), tol)],
            lambda: [verify_witness(t4, w, tol)],
            lambda: [unitary_equivalence_4(t4, w @ t4 @ w.conj().T, tol)],
            lambda: [unitary_equivalence_4(t4, sym, tol)],
            *(lambda t=t: [transpose_equivalence(t, tol)] for t in (t2, t3, t4)),
        ]
        if not tol > 0.0:
            for call in calls:
                with pytest.raises(ValueError, match="tol must be finite and positive"):
                    call()
            return
        verdicts = [v for call in calls for v in call()]
        assert {v.criterion for v in verdicts} == {
            "uecsm_small_n", "uecsm_trace3", "uecsm_psi7", "trace_test_3", "wat", "sat", "lsat",
            "det_criterion_3", "su_membership", "witness", "unitary_equivalence_4", "transpose_equivalence",
        }  # fmt: skip
        for v in verdicts:
            assert v.tol is tol
            assert v.max_residual == max(v.row, default=0.0)
            assert v.passed == (v.max_residual <= tol)
            if v.names == ("small_n",):
                assert v.row == (0.0,) and v.passed
            for field in ("criterion", "passed", "names", "row", "tol", "max_residual", "residuals", "extra"):
                with pytest.raises(AttributeError):
                    setattr(v, field, None)
