"""Unit tests for the matrix core and word machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uecsm import (
    DJOKOVIC_WORDS,
    PHI3_WORDS,
    DimensionMismatch,
    adjoint,
    cmatrix,
    evaluate_word,
    normalize,
    word_trace,
    word_traces,
)
from uecsm import tracetests
from uecsm.cli import analyze
from uecsm.gallery import WAT_COUNTEREXAMPLE
from uecsm.matcore import _trace_plan, normalize_stack

from _util import random_complex_matrix, rng


class TestConstruction:
    def test_cmatrix_validates_square(self):
        with pytest.raises(DimensionMismatch):
            cmatrix([[1, 2, 3], [4, 5, 6]])

    def test_cmatrix_rejects_nonfinite(self):
        for bad in (np.inf, complex(0, np.nan), complex(1, -np.inf)):
            with pytest.raises(ValueError):
                cmatrix([[bad, 0], [0, 1]])

    def test_cmatrix_is_read_only(self):
        m = cmatrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            m[0, 0] = 5


class TestArithmetic:
    def test_adjoint_involution_exact(self):
        m = random_complex_matrix(rng(3), 4)
        assert np.array_equal(adjoint(adjoint(m)), m)


class TestNormalize:
    def test_trace_free_unit_norm(self):
        rep, mu, s = normalize(WAT_COUNTEREXAMPLE)
        assert abs(np.trace(rep)) < 1e-15
        assert np.linalg.norm(rep) == pytest.approx(1.0, abs=1e-15)
        assert mu == pytest.approx(np.trace(WAT_COUNTEREXAMPLE) / 4, abs=1e-15)
        assert np.allclose(mu * np.eye(4) + s * rep, WAT_COUNTEREXAMPLE, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_scalar_matrix_gives_zeros(self, n):
        # a mean over 3 equal entries rounds away from them in about 1 case in 6
        for d in (0.1 + 0.7j, 1 / 3, -2.5e-300j, 1.7e308):
            rep, mu, s = normalize(d * np.eye(n, dtype=complex))
            assert not np.any(rep)
            assert mu == d
            assert s == 0.0

    def test_zero_matrix(self):
        rep, mu, s = normalize(np.zeros((3, 3), dtype=complex))
        assert not np.any(rep) and mu == 0 and s == 0.0

    @pytest.mark.parametrize("n", [4, 10])
    def test_representative_is_read_only_and_matches_the_stack(self, n):
        t = random_complex_matrix(rng(7), n)
        rep, mu, s = normalize(t)
        with pytest.raises(ValueError):
            rep[0, 0] = 0
        reps, mus, ss = normalize_stack(np.stack([t, 2 * t]))
        assert np.array_equal(reps[0], rep) and mus[0] == mu and ss[0] == s

    @pytest.mark.parametrize("c", [1e-320, 1e-300, 1e-7j, 3.0, 1e300, -1e306])
    def test_affine_image_has_the_same_representative(self, c):
        # (cT + bI) normalizes to the phase of c times the representative of T
        rep, _, s = normalize(WAT_COUNTEREXAMPLE)
        image = c * (WAT_COUNTEREXAMPLE + 2.5j * np.eye(4))
        rep_c, _, s_c = normalize(image)
        assert np.allclose(rep_c, c / abs(c) * rep, atol=1e-12)
        assert s_c == pytest.approx(abs(c) * s, rel=1e-12)


class TestWords:
    def test_degree_validation(self):
        # a word is a non-empty string of the letters x and y, and both
        # the engine and its reference refuse anything else
        t = np.eye(3, dtype=complex)
        for text in ("", "xz", "x2", "X"):
            with pytest.raises(ValueError):
                word_traces((text,), t, t)
            with pytest.raises(ValueError):
                evaluate_word(text, t, t)
        # the engine takes a sequence of words: not one string read as its
        # letters, and not a list of letter lists (unhashable by the plan cache)
        for words in ("xxy", [["x"]]):
            with pytest.raises(ValueError):
                word_traces(words, t, t)

    def test_single_letter_evaluates_to_matrix(self):
        t = random_complex_matrix(rng(20), 3)
        assert np.array_equal(evaluate_word("x", t, adjoint(t)), t)

    def test_word12_matches_chained_product(self):
        t = random_complex_matrix(rng(21), 4)
        ta = adjoint(t)
        explicit = t @ t @ (ta @ ta) @ t @ ta
        assert np.allclose(evaluate_word("xxyyxy", t, ta), explicit, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_word("xy", np.eye(3, dtype=complex), np.eye(4, dtype=complex))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from("xy"), min_size=1, max_size=8), st.integers(0, 2**31 - 1))
def test_trace_reversal_transpose_identity(letters, seed):
    # tr w(X, Y) equals tr of the reversed word on the transposes
    w = "".join(letters)
    gen = rng(seed)
    x = random_complex_matrix(gen, 3)
    y = random_complex_matrix(gen, 3)
    lhs = word_trace(w, x, y)
    rhs = word_trace(w[::-1], x.T, y.T)
    scale = max(1.0, np.linalg.norm(x), np.linalg.norm(y)) ** len(w)
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from("xy"), min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_word_norm_submultiplicative(letters, seed):
    w = "".join(letters)
    gen = rng(seed)
    x = random_complex_matrix(gen, 3, scale=0.4)
    y = random_complex_matrix(gen, 3, scale=0.4)
    r = max(np.linalg.norm(x, 2), np.linalg.norm(y, 2))
    value = np.linalg.norm(evaluate_word(w, x, y), 2)
    assert value <= r ** len(w) * (1 + 1e-12)


def _letters(gen, n):
    # unit spectral norm keeps every word value of order n, at every degree
    x = random_complex_matrix(gen, n)
    y = random_complex_matrix(gen, n)
    return x / np.linalg.norm(x, 2), y / np.linalg.norm(y, 2)


def _reference_traces(words, x, y):
    return np.array([np.trace(evaluate_word(w, x, y)) for w in words])


_words = st.lists(st.sampled_from("xy"), min_size=1, max_size=12).map("".join)


class TestWordTraces:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_words, min_size=1, max_size=12),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_evaluate_word(self, words, n, seed):
        x, y = _letters(rng(seed), n)
        words = tuple(words)
        values = word_traces(words, x, y)
        assert values.shape == (len(words),)
        assert np.allclose(values, _reference_traces(words, x, y), rtol=0, atol=1e-12 * n)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_words, min_size=1, max_size=6), st.integers(0, 2**31 - 1))
    def test_duplicates_and_reversals_share_rows(self, words, seed):
        # every word repeated and followed by its reversal: same values as
        # one word at a time, and a duplicate reads exactly its original
        x, y = _letters(rng(seed), 4)
        doubled = tuple(words) * 2 + tuple(w[::-1] for w in words)
        values = word_traces(doubled, x, y)
        k = len(words)
        assert np.array_equal(values[:k], values[k : 2 * k])
        singles = np.array([word_trace(w, x, y) for w in doubled])
        assert np.allclose(values, singles, rtol=0, atol=1e-12)

    def test_degree_forty_word(self):
        x, y = _letters(rng(23), 4)
        w = "xxxyyxyxxy" * 4
        assert len(w) == 40
        (value,) = word_traces((w,), x, y)
        assert abs(value - np.trace(evaluate_word(w, x, y))) <= 1e-12
        # one table row per distinct prefix: linear in the word length
        assert _trace_plan((w,)).rows <= len(w) + 3

    def test_compiled_plans_read_word_traces_and_hash_no_word(self):
        # the plan of each signature, and of the words and reversals of
        # transpose_equivalence, reads the traces word_traces gives for its
        # words, bit for bit, however the words are passed
        gen = rng(31)
        for n, words in ((3, PHI3_WORDS), (4, DJOKOVIC_WORDS), *tracetests._REVERSAL_WORDS.items()):
            plan = _trace_plan(words)
            x = np.stack([random_complex_matrix(gen, n) for _ in range(3)])
            y = adjoint(x)
            expected = word_traces(words, x, y)
            assert np.array_equal(plan.traces(x, y), expected)
            assert np.array_equal(plan.traces(x[0], y[0]), word_traces(words, x[0], y[0]))
            fresh = tuple("".join(w) for w in words)
            for again in (list(words), fresh):
                assert np.array_equal(word_traces(again, x, y), expected)

        # the analysis evaluates the plans compiled at import: it neither
        # compiles a plan nor looks one up by its words
        matrices = [WAT_COUNTEREXAMPLE[:3, :3], WAT_COUNTEREXAMPLE]
        expected = [analyze(t, "m").to_dict() for t in matrices]
        info = _trace_plan.cache_info()
        assert [analyze(t, "m").to_dict() for t in matrices] == expected
        assert _trace_plan.cache_info() == info

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.eye(3, dtype=complex), np.eye(4, dtype=complex)),
            (np.ones((3, 4), dtype=complex), np.ones((3, 4), dtype=complex)),
            (np.ones(3, dtype=complex), np.ones(3, dtype=complex)),
        ],
        ids=["unequal-sizes", "non-square", "vector"],
    )
    def test_dimension_mismatch(self, x, y):
        with pytest.raises(DimensionMismatch):
            word_traces(("xy",), x, y)
