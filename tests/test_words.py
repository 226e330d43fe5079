import pytest
from hypothesis import given, strategies as st

from cycrew.words import (
    Alphabet,
    AlphabetError,
    CyclicWord,
    involute,
    least_rotation,
    least_rotation_offset,
    rotations,
    shortlex_compare,
    shortlex_key,
    shortlex_less,
)

ALPHA = Alphabet.from_pairs("aAbB", [("a", "A"), ("b", "B")])

words = st.lists(st.integers(min_value=0, max_value=3), max_size=12).map(tuple)


def naive_least_rotation(w):
    return min(rotations(w)) if w else ()


def naive_offset(w):
    canon = naive_least_rotation(w)
    return next((i for i in range(len(w)) if w[i:] + w[:i] == canon), 0)


class TestAlphabet:
    def test_round_trip(self):
        w = ALPHA.parse("a B b A")
        assert ALPHA.format(w) == "a B b A"
        assert ALPHA.word(["a", "B"]) == (0, 3)

    def test_parse_empty(self):
        assert ALPHA.parse("") == ()
        assert ALPHA.parse("   ") == ()

    def test_unknown_letter(self):
        with pytest.raises(AlphabetError):
            ALPHA.index("z")

    def test_duplicate_letters_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet.from_pairs("aa", [])

    def test_bad_involution_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet(("a", "b"), (1, 1))

    def test_self_inverse_letters(self):
        a = Alphabet.from_pairs("xy", [])
        assert a.involution == (0, 1)


class TestInvolute:
    def test_example(self):
        w = ALPHA.parse("a b B")
        assert ALPHA.format(involute(w, ALPHA)) == "b B A"

    @given(words)
    def test_involution_of_involution(self, w):
        assert involute(involute(w, ALPHA), ALPHA) == w

    @given(words, words)
    def test_anti_homomorphism(self, u, v):
        assert involute(u + v, ALPHA) == involute(v, ALPHA) + involute(u, ALPHA)


class TestShortlex:
    def test_length_dominates(self):
        assert shortlex_less((3, 3), (0, 0, 0))
        assert shortlex_compare((3, 3), (0, 0, 0)) == -1

    def test_lex_tiebreak(self):
        assert shortlex_less((0, 1), (0, 2))
        assert shortlex_compare((0, 2), (0, 1)) == 1
        assert shortlex_compare((0, 2), (0, 2)) == 0

    @given(words, words)
    def test_compare_consistent_with_key(self, u, v):
        c = shortlex_compare(u, v)
        if c == 0:
            assert u == v
        else:
            assert (c == -1) == (shortlex_key(u) < shortlex_key(v))
            assert shortlex_less(u, v) == (c == -1)


class TestLeastRotation:
    def test_empty(self):
        assert least_rotation(()) == ()

    def test_single(self):
        assert least_rotation((2,)) == (2,)

    def test_known(self):
        assert least_rotation((1, 0, 2, 0)) == (0, 1, 0, 2)

    def test_periodic(self):
        assert least_rotation((1, 0, 1, 0)) == (0, 1, 0, 1)

    @given(words)
    def test_against_naive(self, w):
        assert least_rotation(w) == naive_least_rotation(w)

    @given(words, st.integers(min_value=0, max_value=11))
    def test_rotation_invariant(self, w, k):
        if not w:
            return
        k %= len(w)
        assert least_rotation(w[k:] + w[:k]) == least_rotation(w)

    @given(words)
    def test_offset_against_naive(self, w):
        assert least_rotation_offset(w) == naive_offset(w)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).map(tuple),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=23),
    )
    def test_offset_on_periodic_words(self, root, reps, k):
        # every multiple of the period is an offset of the least rotation;
        # the least of them is wanted
        w = root * reps
        k %= len(w)
        w = w[k:] + w[:k]
        assert least_rotation_offset(w) == naive_offset(w)


class TestCyclicWord:
    def test_of_canonicalizes(self):
        assert CyclicWord.of((1, 0)).canon == (0, 1)

    def test_equality_is_rotation_equality(self):
        assert CyclicWord.of((1, 0, 2)) == CyclicWord.of((2, 1, 0))
        assert CyclicWord.of((1, 0, 2)) != CyclicWord.of((0, 1, 2))

    def test_rotations_and_len(self):
        c = CyclicWord.of((1, 0))
        assert len(c) == 2
        assert c.rotations() == [(0, 1), (1, 0)]

    def test_format(self):
        assert CyclicWord.of(ALPHA.parse("b a")).format(ALPHA) == "a b"

    def test_hashable(self):
        assert len({CyclicWord.of((0, 1)), CyclicWord.of((1, 0))}) == 1
