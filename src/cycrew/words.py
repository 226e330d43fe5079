"""Alphabets with involution, words, and cyclic words.

Letters are interned as indices into an Alphabet; the declaration order of
the letters is the total order used for shortlex comparisons.  A cyclic word
is stored by its least rotation, so two cyclic words are equal exactly when
their stored tuples are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

Word = tuple  # tuple of letter indices; () is the empty word


class AlphabetError(ValueError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered letter set with an involution.

    ``letters`` lists the tokens; position in the list is the letter index
    and induces the total order.  ``involution`` maps index -> index and must
    be self-inverse.  Fixed points (self-inverse letters) are allowed.
    """

    letters: tuple
    involution: tuple
    _index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise AlphabetError("duplicate letter tokens")
        if any(not tok for tok in self.letters):
            raise AlphabetError("empty letter token")
        if len(self.involution) != len(self.letters):
            raise AlphabetError("involution size mismatch")
        for i, j in enumerate(self.involution):
            if not (0 <= j < len(self.letters)) or self.involution[j] != i:
                raise AlphabetError("involution is not self-inverse")
        object.__setattr__(
            self, "_index", {tok: i for i, tok in enumerate(self.letters)}
        )

    @classmethod
    def from_pairs(cls, letters: Sequence[str], pairs: Iterable[tuple]) -> "Alphabet":
        """Build from tokens plus involution pairs; unpaired letters are
        self-inverse."""
        letters = tuple(letters)
        index = {tok: i for i, tok in enumerate(letters)}
        inv = list(range(len(letters)))
        for x, y in pairs:
            if x not in index or y not in index:
                raise AlphabetError(f"involution pair ({x}, {y}) uses unknown letter")
            inv[index[x]] = index[y]
            inv[index[y]] = index[x]
        return cls(letters, tuple(inv))

    def __len__(self):
        return len(self.letters)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise AlphabetError(f"unknown letter {token!r}") from None

    def word(self, tokens: Iterable[str]) -> Word:
        return tuple(self.index(t) for t in tokens)

    def parse(self, text: str) -> Word:
        """Parse a whitespace-separated word; empty/blank text is the empty
        word."""
        return self.word(text.split())

    def format(self, w: Word) -> str:
        return " ".join(self.letters[i] for i in w)


def validate_word(w: Word, alphabet: Alphabet) -> None:
    k = len(alphabet)
    for i in w:
        if not (0 <= i < k):
            raise AlphabetError(f"letter index {i} out of range")


def involute(w: Word, alphabet: Alphabet) -> Word:
    """Formal inverse: reverse the word and involute each letter."""
    inv = alphabet.involution
    return tuple(inv[i] for i in reversed(w))


def shortlex_compare(u: Word, v: Word) -> int:
    """-1, 0 or 1: shorter words first, ties broken lexicographically by
    letter index."""
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    if u == v:
        return 0
    return -1 if u < v else 1


def shortlex_less(u: Word, v: Word) -> bool:
    return (len(u), u) < (len(v), v)


def shortlex_key(w: Word):
    return (len(w), w)


def rotations(w: Word) -> list:
    """All |w| rotations in positional order (just [()] for the empty word);
    duplicates are kept."""
    if not w:
        return [()]
    return [w[i:] + w[:i] for i in range(len(w))]


def _booth(w: Word) -> int:
    """An offset k of the least rotation w[k:] + w[:k] of a nonempty word,
    via Booth's algorithm in O(n) comparisons."""
    n = len(w)
    s = w + w
    f = [-1] * (2 * n)  # failure function over the doubled word
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % n


def least_rotation(w: Word) -> Word:
    """Least rotation under shortlex (equivalently plain lex, since all
    rotations have equal length), via Booth's algorithm."""
    if not w:
        return ()
    k = _booth(w)
    return w[k:] + w[:k]


def prefix_function(w: Word) -> list:
    """The KMP failure function: entry i is the length of the longest
    proper border (a prefix that is also a suffix) of w[:i + 1]."""
    border = [0] * len(w)
    b = 0
    for i in range(1, len(w)):
        while b and w[i] != w[b]:
            b = border[b - 1]
        if w[i] == w[b]:
            b += 1
        border[i] = b
    return border


def least_rotation_offset(w: Word) -> int:
    """The least i with w[i:] + w[:i] == least_rotation(w), in O(n).

    The offsets of the least rotation are congruent modulo the least
    period p of w as a cyclic word, so Booth's offset reduced mod p is the
    least.  p is n - (longest proper border of w) when that divides n, and
    n otherwise.
    """
    n = len(w)
    if n == 0:
        return 0
    p = n - prefix_function(w)[-1]
    return _booth(w) % (p if n % p == 0 else n)


@dataclass(frozen=True)
class CyclicWord:
    """Equivalence class of a word under rotation, keyed by its least
    rotation."""

    canon: Word

    @classmethod
    def of(cls, w: Word) -> "CyclicWord":
        return cls(least_rotation(w))

    def __len__(self):
        return len(self.canon)

    def rotations(self) -> list:
        return rotations(self.canon)

    def format(self, alphabet: Alphabet) -> str:
        return alphabet.format(self.canon)
