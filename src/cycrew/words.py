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

    def word(self, tokens: Iterable[str]) -> Word:
        try:
            return tuple(map(self._index.__getitem__, tokens))
        except KeyError as exc:
            raise AlphabetError(f"unknown letter {exc.args[0]!r}") from None

    def parse(self, text: str) -> Word:
        """Parse a whitespace-separated word; empty/blank text is the empty
        word."""
        return self.word(text.split())

    def format(self, w: Word) -> str:
        return " ".join(map(self.letters.__getitem__, w))


def validate_word(w: Word, alphabet: Alphabet) -> None:
    k = len(alphabet)
    for i in w:
        if not (0 <= i < k):
            raise AlphabetError(f"letter index {i} out of range")


def involute(w: Word, alphabet: Alphabet) -> Word:
    """Formal inverse: reverse the word and involute each letter."""
    inv = alphabet.involution
    return tuple(inv[i] for i in reversed(w))


def shortlex_key(w: Word):
    return (len(w), w)


def rotations(w: Word) -> list:
    """All |w| rotations in positional order (just [()] for the empty word);
    duplicates are kept."""
    if not w:
        return [()]
    return [w[i:] + w[:i] for i in range(len(w))]


def least_rotation(w: Word) -> Word:
    """Least rotation under shortlex (equivalently plain lex, since all
    rotations have equal length)."""
    k = least_rotation_offset(w)
    return w[k:] + w[:k]


def least_rotation_offset(w: Word) -> int:
    """The least i with w[i:] + w[:i] == least_rotation(w), by one
    two-pointer scan in at most 3n letter comparisons (0 for the empty
    word).

    The scan compares the rotations at two candidate starts i != j, which
    agree on their first k letters (indices mod n).  On a mismatch, say
    w[i + k] > w[j + k], each start i + t with t <= k begins a rotation
    strictly larger than the one at the matching start j + t, so i skips
    those k + 1 starts (and j moves on by one if the two starts meet).  Hence
    every start below max(i, j) other than min(i, j) has been skipped.  The
    scan stops when i or j reaches n, leaving min(i, j) the one start not
    skipped, or when k reaches n: then the rotation at each start equals
    the one |i - j| further on, so the least rotation has an offset in
    [min(i, j), max(i, j)), and that offset is min(i, j).  Each comparison
    raises i + j + k, which stays below 3n.
    """
    n = len(w)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a = w[(i + k) % n]
        b = w[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


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
