import random

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


def naive_offset_bytes(w):
    """naive_offset for letters below 256: all n rotations are compared as
    bytes, which order like tuples of such letters, so words of 2^15
    letters stay cheap."""
    n = len(w)
    s = bytes(w + w)
    return min(range(n), key=lambda i: s[i : i + n]) if n else 0


def fibonacci_word(n):
    """The first n letters of the infinite Fibonacci word 0 1 0 0 1 0 1 0 ..."""
    u, v = (0,), (0, 1)
    while len(v) < n:
        u, v = v, v + u
    return v[:n]


def structured_words():
    """Named inputs that steer a rotation scan into its longest matches: one
    odd letter at either end, periodic and constant words and Fibonacci
    words (whole ones and prefixes), each also rotated by a third of its
    length."""
    fib_lengths = [1, 2]
    while fib_lengths[-1] + fib_lengths[-2] <= 2**15:
        fib_lengths.append(fib_lengths[-1] + fib_lengths[-2])
    out = {}
    for n in (1, 2, 3, 7, 64, 1000, 2**12 + 1, 2**15):
        out[f"a^{n - 1}b"] = (0,) * (n - 1) + (1,)
        out[f"ba^{n - 1}"] = (1,) + (0,) * (n - 1)
        out[f"c^{n}"] = (2,) * n
        out[f"fib-prefix-{n}"] = fibonacci_word(n)
        if n % 2 == 0:
            out[f"(ab)^{n // 2}"] = (0, 1) * (n // 2)
    out.update((f"fib-{n}", fibonacci_word(n)) for n in fib_lengths)
    for name, w in list(out.items()):
        out[f"{name}-rotated"] = w[len(w) // 3 :] + w[: len(w) // 3]
    return out


STRUCTURED = structured_words()


def random_periodic_words(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        root = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        w = root * rng.randint(1, 12)
        k = rng.randrange(len(w))
        yield w[k:] + w[:k]


class CountingWord(tuple):
    """A word that counts the letters read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


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

    @pytest.mark.parametrize(
        "letters, involution, match",
        [
            (("a", ""), (0, 1), "empty letter token"),
            (("a", "b"), (0,), "involution size mismatch"),
            (("a", "b"), (1, 0, 2), "involution size mismatch"),
        ],
        ids=["empty-token", "short-involution", "long-involution"],
    )
    def test_malformed_alphabet_rejected(self, letters, involution, match):
        with pytest.raises(AlphabetError, match=match):
            Alphabet(letters, involution)

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

    @pytest.mark.parametrize("w", STRUCTURED.values(), ids=STRUCTURED.keys())
    def test_structured_words_against_naive(self, w):
        k = naive_offset_bytes(w)
        assert least_rotation_offset(w) == k
        assert least_rotation(w) == w[k:] + w[:k]

    def test_naive_references_agree(self):
        for w in random_periodic_words(500, seed=2):
            assert naive_offset_bytes(w) == naive_offset(w)

    def test_offset_reads_at_most_six_letters_per_letter(self):
        # at most 3n comparisons of two letters each, whatever the input
        for w in [*STRUCTURED.values(), *random_periodic_words(2000, seed=3)]:
            counted = CountingWord(w)
            least_rotation_offset(counted)
            assert counted.reads <= 6 * len(w), len(w)


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
