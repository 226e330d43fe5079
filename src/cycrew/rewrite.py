"""Semi-Thue rules and systems; rewriting on words and on cyclic words.

A rule may carry an anchor (prefix/suffix/whole) restricting where it can
fire on ordinary words.  On cyclic words anchors dissolve: every position of
a cycle is a rotation start, so prefix- and suffix-anchored rules act like
plain rules there, and whole-anchored rules fire when some rotation equals
the left-hand side.

Anchors are resolved in one place.  RewriteSystem indexes its rules once by
left-hand side, with one target tuple per Anchor, and _firing picks the
targets that fire at a redex from where the redex lies (start of the word,
end of the word, the whole word; on a cycle every redex is at a start and
an end).  word_successors, reduce_greedy and _cyclic_redexes, the redexes
of a cycle that cyclic_successors and the completions read, all read the
index through _firing; check_strong_confluence, which accepts only
unanchored systems, reads the plain targets through _plain_rewrites, and
the index itself once per call, for the plain orientations whose reverse
is a plain orientation too.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import itemgetter
from typing import Optional

from .words import (
    Alphabet,
    CyclicWord,
    Word,
    rotations,
    shortlex_key,
    validate_word,
)


class Anchor(Enum):
    NONE = "none"
    PREFIX = "prefix"
    SUFFIX = "suffix"
    WHOLE = "whole"


_ANCHORS = tuple(Anchor)  # the order of the target tuples in the index


class BudgetExhausted(RuntimeError):
    """A bounded search ran out of budget; possible non-termination."""


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Word
    anchor: Anchor = Anchor.NONE
    symmetric: bool = False

    def __post_init__(self):
        if self.symmetric and len(self.lhs) != len(self.rhs):
            raise ValueError("symmetric rules must be length preserving")


class RewriteSystem:
    """A finite semi-Thue system over a fixed alphabet.

    Caches m(S) (sup of lhs lengths), the Thue / standard / 2-monadic flags
    and an index from each left-hand side to four tuples of (rule_id, rhs),
    one per Anchor in Anchor order.  Symmetric rules are stored once with
    symmetric=True; the reverse orientation is materialised in the index
    under the same rule_id.
    """

    def __init__(self, alphabet: Alphabet, rules):
        self.alphabet = alphabet
        self.rules = tuple(rules)
        for r in self.rules:
            validate_word(r.lhs, alphabet)
            validate_word(r.rhs, alphabet)
        self.m_of = max((len(r.lhs) for r in self.rules), default=0)
        self.is_thue = all(
            len(r.rhs) < len(r.lhs) or (len(r.rhs) == len(r.lhs) and r.symmetric)
            for r in self.rules
        )
        self.is_standard = (
            all(len(r.lhs) > 0 for r in self.rules) and 2 <= self.m_of
        )
        self.is_2monadic = self.m_of == 2
        index = collections.defaultdict(lambda: ([], [], [], []))
        for rid, r in enumerate(self.rules):
            slot = _ANCHORS.index(r.anchor)
            index[r.lhs][slot].append((rid, r.rhs))
            if r.symmetric and r.rhs != r.lhs:
                index[r.rhs][slot].append((rid, r.lhs))
        # tuples: concatenating an empty one in _firing copies nothing
        self._index = {lhs: tuple(map(tuple, slots)) for lhs, slots in index.items()}
        self._lhs_lengths = sorted({len(lhs) for lhs in self._index})

    def oriented_pairs(self):
        """All (lhs, rhs, rule_id, anchor) orientations, symmetric rules in
        both directions."""
        for lhs, slots in self._index.items():
            for anchor, targets in zip(_ANCHORS, slots):
                for rid, rhs in targets:
                    yield lhs, rhs, rid, anchor

    def has_anchored_rules(self) -> bool:
        return any(r.anchor is not Anchor.NONE for r in self.rules)

    def has_length_increasing_rules(self) -> bool:
        return self._length_increasing

    @functools.cached_property
    def _length_increasing(self) -> bool:
        # scanned on first use, not by __init__, which derive_system calls
        return any(
            len(rhs) > len(lhs) for lhs, rhs, _rid, _a in self.oriented_pairs()
        )


def _firing(slots, start: bool, end: bool, whole: bool):
    """The (rule_id, rhs) targets of one left-hand side's index entry that
    fire at a redex, in Anchor order: plain rules anywhere, prefix rules at
    the start of the word, suffix rules at its end, whole rules when the
    redex is the whole word."""
    plain, prefix, suffix, whole_word = slots
    return (
        plain
        + (prefix if start else ())
        + (suffix if end else ())
        + (whole_word if whole else ())
    )


def word_successors(w: Word, system: RewriteSystem):
    """All one-step rewrites of w, as (result, rule_id, position) triples.

    Anchored rules match only at their anchored position; whole-anchored
    rules only when lhs == w.  Empty-lhs rules insert at every gap.
    """
    out = []
    n = len(w)
    index = system._index
    for length in system._lhs_lengths:
        for pos in range(n - length + 1):
            end = pos + length
            slots = index.get(w[pos:end])
            if slots is not None:
                head, tail = w[:pos], w[end:]
                for rid, rhs in _firing(slots, pos == 0, end == n, length == n):
                    out.append((head + rhs + tail, rid, pos))
    return out


def _plain_rewrites(w: Word, system: RewriteSystem) -> list:
    """(start, end, words) for each occurrence w[start:end] of a left-hand
    side, by length and then position; words are w with the occurrence
    replaced by each plain target, in word_successors order.  Anchored
    targets are left out: the confluence check, which reads this, accepts
    only unanchored systems."""
    out = []
    n = len(w)
    index = system._index
    for length in system._lhs_lengths:
        for pos in range(n - length + 1):
            end = pos + length
            slots = index.get(w[pos:end])
            if slots is not None:
                head, tail = w[:pos], w[end:]
                out.append((pos, end, [head + rhs + tail for _rid, rhs in slots[0]]))
    return out


def _cyclic_redexes(canon: Word, system: RewriteSystem):
    """The word rhs + rest for every redex of the cycle canon: every rule
    l -> rhs that fires at the start of a rotation l + rest, the rotations
    taken in positional order and the lengths of l in ascending order.

    Matching at the start of every rotation covers wrap-around occurrences
    and puts an empty lhs at every gap.  A rotation start is both a start
    and an end of the word, so only whole-anchored rules are restricted, to
    a rotation equal to their lhs.  The results are words, not canonical:
    each is some rotation of its cycle."""
    n = len(canon)
    index = system._index
    rots = rotations(canon)
    for length in system._lhs_lengths:
        if length > n:
            break
        for rot in rots:
            slots = index.get(rot[:length])
            if slots is not None:
                rest = rot[length:]
                for _rid, rhs in _firing(slots, True, True, length == n):
                    yield rhs + rest


def cyclic_successors(c: CyclicWord, system: RewriteSystem):
    """One-step cyclic rewrites of c (the redexes of _cyclic_redexes),
    deduplicated by canonical rotation, in shortlex order."""
    results = set(map(CyclicWord.of, _cyclic_redexes(c.canon, system)))
    return sorted(results, key=lambda cw: shortlex_key(cw.canon))


def _leftmost_shortening(w: Word, index, lengths):
    """(start, end, rhs) of the leftmost, then shortest, redex of w with a
    shorter right-hand side, or None."""
    n = len(w)
    for pos in range(n):
        for length in lengths:
            end = pos + length
            if end > n:
                break
            slots = index.get(w[pos:end])
            if slots is not None:
                for _rid, rhs in _firing(slots, pos == 0, end == n, length == n):
                    if len(rhs) < length:
                        return pos, end, rhs
    return None


def reduce_greedy(w: Word, system: RewriteSystem, budget: int = 10_000) -> Word:
    """Apply the leftmost applicable length-reducing rule until none applies.

    Each application shortens the word, so at most len(w) are made;
    BudgetExhausted means that the word is still reducible after budget
    applications.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    index = system._index
    lengths = [l for l in system._lhs_lengths if l > 0]
    steps = 0
    while True:
        redex = _leftmost_shortening(w, index, lengths)
        if redex is None:
            return w
        if steps == budget:
            raise BudgetExhausted(f"no fixpoint within {budget} steps")
        start, end, rhs = redex
        w = w[:start] + rhs + w[end:]
        steps += 1


@dataclass(frozen=True)
class JoinResult:
    """Outcome of a joinability search.

    status is one of "joinable" (witness set), "disjoint" (both descendant
    sets fully enumerated, no overlap) or "exhausted" (a budget or length
    bound cut a search before a decision).
    """

    status: str
    witness: Optional[CyclicWord] = None

    def __bool__(self):
        return self.status == "joinable"


def cyclic_joinable(
    u: CyclicWord,
    v: CyclicWord,
    system: RewriteSystem,
    budget: int = 100_000,
    max_len: Optional[int] = None,
    memo: Optional[dict] = None,
) -> JoinResult:
    """Bidirectional BFS for a common cyclic descendant of u and v: one
    _Descendants search from each, the side with the shorter queue
    expanded first, until one side sees a cycle that the other has seen.

    Each side stops expanding once it has seen budget cycles besides its
    start.  With max_len set, successors longer than max_len are left out.
    "disjoint" needs both searches to run to their end; when a bound cut
    either one and they did not meet, the answer is "exhausted".  A memo
    dict shared across calls caches successor lists.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if memo is None:
        memo = {}

    def successors(node):
        got = memo.get(node)
        if got is None:
            got = memo[node] = cyclic_successors(node, system)
        return got

    if u == v:
        return JoinResult("joinable", u)
    cap = math.inf if max_len is None else max_len
    sides = [_Descendants(c, successors, cap, budget + 1) for c in (u, v)]
    while True:
        searching = [(len(d.queue), i) for i, d in enumerate(sides) if d.open]
        if not searching:
            break
        side = min(searching)[1]
        other = sides[1 - side].seen
        for c in sides[side].expand():
            if c in other:
                return JoinResult("joinable", c)
    return JoinResult("exhausted" if sides[0].cut or sides[1].cut else "disjoint")


@dataclass(frozen=True)
class ConfluenceReport:
    ok: bool
    counterexample: Optional[tuple] = None  # (source, left, right) words

    def __bool__(self):
        return self.ok


class _SuccessorPool:
    """The searches of one confluence check, memoised.

    pool(w) is the frozenset of w and its one-step rewrites by the plain
    rules (the system of a confluence check is unanchored), and
    pool.steps(w) lists those rewrites in word_successors order; both read
    _plain_rewrites.  The check asks for pool(w) only on the two words of
    a pair it tests, and it tests no pair with a reversible side, so on
    S_eps, where most rules are symmetric, it fills few entries (167 on
    HNN(Z6, Z3)).  pool.descendants(w, cap) is the one _Descendants
    search from w over words of at most cap letters, keyed by (w, cap): it
    keeps how far it has run and whether a bound cut it, so that a
    truncated set is never read as a complete one.
    """

    def __init__(self, system):
        self.system = system
        self._meets = {}
        self._desc = {}

    def __call__(self, w):
        got = self._meets.get(w)
        if got is None:
            out = [w]
            for _start, _end, words in _plain_rewrites(w, self.system):
                out += words
            got = self._meets[w] = frozenset(out)
        return got

    def steps(self, w):
        return [y for _start, _end, words in _plain_rewrites(w, self.system) for y in words]

    def descendants(self, w, cap):
        got = self._desc.get((w, cap))
        if got is None:
            got = self._desc[w, cap] = _Descendants(w, self.steps, cap)
        return got


class _Descendants:
    """A BFS from w over its descendants (steps(u) lists the one-step
    rewrites of u), run only as far as the questions asked of it need.

    Rewrites longer than max_len letters are left out, and no word is
    expanded once max_nodes words are seen: the search is open while it
    has a word to expand and room to see more, and expand() expands the
    next word and returns the words it saw first, in order.
    meets(targets) runs the search until it sees a word of targets or
    ends, so its answer is the same as that of the whole bounded search.
    Once the search has ended, cut tells whether a bound left words out: a
    rewrite too long, or a word never expanded; the set seen is then only
    part of the descendants.
    """

    def __init__(self, w, steps, max_len, max_nodes=2_000):
        self.seen = {w}
        self.queue = collections.deque([w])
        self.pruned = False
        self.steps = steps
        self.max_len = max_len
        self.max_nodes = max_nodes

    @property
    def open(self) -> bool:
        return bool(self.queue) and len(self.seen) < self.max_nodes

    def expand(self) -> list:
        seen, new = self.seen, []
        for s in self.steps(self.queue.popleft()):
            if len(s) > self.max_len:
                self.pruned = True
            elif s not in seen:
                seen.add(s)
                new.append(s)
        self.queue.extend(new)
        return new

    def meets(self, targets) -> bool:
        if not self.seen.isdisjoint(targets):
            return True
        while self.open:
            if any(map(targets.__contains__, self.expand())):
                return True
        return False

    @property
    def cut(self) -> bool:
        return self.pruned or bool(self.queue)


def _strongly_joinable(y, z, system, pool):
    """y <- x -> z closes strongly: some w with y ->(<=1) w <-* z or
    y ->* w <-(<=1) z.  The one-step/one-step case is tried first; the
    starred side is explored by a bounded BFS over words of at most
    max(|y|, |z|) + 2 m(S) letters.  A meet inside a search cut short by
    either bound still proves the pair joinable; without a meet such a
    search decides nothing, and BudgetExhausted is raised.  pool is the
    check's _SuccessorPool."""
    sy = pool(y)
    sz = pool(z)
    if not sy.isdisjoint(sz):
        return True
    cap = max(len(y), len(z)) + 2 * system.m_of
    dy = pool.descendants(y, cap)
    if dy.meets(sz):
        return True
    dz = pool.descendants(z, cap)
    if dz.meets(sy):
        return True
    if dy.cut or dz.cut:
        fmt = system.alphabet.format
        raise BudgetExhausted(
            f"no strong join of {fmt(y)!r} and {fmt(z)!r} within the search bound"
        )
    return False


# Bounds on the symmetry search: its backtracking nodes (and so its
# recursion depth), and the elements of the group closed from the maps it
# verifies.  A cut search still returns a group of verified symmetries,
# only a smaller one.
_SYMMETRY_NODES = 500
_SYMMETRY_MAPS = 2_000


def _symmetries(system: RewriteSystem) -> set:
    """Letter symmetries of a system: the maps g = (perm, rev) that send
    the set of oriented (lhs, rhs) pairs onto itself, the identity among
    them.  g(w) maps every letter of w by perm, then reverses the word when
    rev (an anti-automorphism).  Every map fixes the letters in no rule.
    The formal inverse (the involution, reversed), restricted to the
    letters in rules, is tried first.

    One pass over the rule index, which groups the targets by left-hand
    side, collects what the search reads: each left-hand side's distinct
    targets (a rule listed twice, or a plain rule next to a symmetric one
    that holds it, gives one pair), its shape, the pairs by (lhs length,
    rhs length), and each pair as a record lhs + sep + rhs + sep + lhs of
    one byte per letter.  A record read backwards is the record of the
    pair with both words reversed, so the text of all records, joined by
    end, read backwards holds the reversed pairs.  The letter counts are
    then read off the pairs of each length class column by column.

    A backtracking search assigns an image to one letter at a time.  A
    letter's candidates are the letters with the same number of occurrences
    at each (lhs length, rhs length, side, position), the position counted
    from the end when rev.  Once every letter of a left-hand side l is
    assigned (a count of its unassigned letters reaches 0), g(l) must be a
    left-hand side with the same right-hand side lengths, and a unique
    right-hand side of length one forces the image of its letter (ab -> [ab]
    forces [ab] once a and b are placed).  Letters in no rule stay fixed.

    A complete assignment that is not in the group found so far is
    verified by one bytes.translate of the text, read backwards when rev
    (sep and end are no letters and translate to themselves): a bijection
    sends distinct records to distinct records, so g is a symmetry when
    every image is a record.  Alphabets past 254 letters use str code
    points instead of bytes.  The group is then closed by cosets (Dimino's
    algorithm; Butler 1991, Fundamental Algorithms for Permutation
    Groups): it grows by whole left cosets of the group before g, and only
    the products of a generator with a new coset representative are
    tested.  _SYMMETRY_NODES caps the search nodes and _SYMMETRY_MAPS the
    group size; every map returned is verified or a product of verified
    maps, and the maps returned are a group, also when a bound cut the
    search (check_strong_confluence reads orbits of it).
    """
    k = len(system.alphabet)
    # a word as one byte per letter, and the translate table's entries past
    # the letters, which map sep, end and every other byte to themselves;
    # past 254 letters, str code points, which str.translate leaves as they
    # are past the end of its table
    if k <= 254:
        encode, past = bytes, bytes(range(k, 256))
    else:
        encode, past = (lambda w: "".join(map(chr, w))), ""
    sep, end = encode((k,)), encode((k + 1,))
    # shape: lhs -> (its sorted rhs lengths, the letter of a unique rhs of
    # length 1); by lhs id, the lhs and its number of letters
    lhss, distinct, shape = [], [], {}
    lhs_with = [[] for _ in range(k)]  # letter -> the ids of the lhss holding it
    # (lhs length, rhs length) -> the lhss and the rhss of those pairs
    by_lengths = collections.defaultdict(lambda: ([], []))
    records = []  # the records of each lhs, joined by end
    for lhs, slots in system._index.items():
        rhss = {rhs for targets in slots for _rid, rhs in targets}
        letters = set(lhs)
        for x in letters:
            lhs_with[x].append(len(lhss))
        lhss.append(lhs)
        distinct.append(len(letters))
        singles = [rhs[0] for rhs in rhss if len(rhs) == 1]
        shape[lhs] = (sorted(map(len, rhss)), singles[0] if len(singles) == 1 else None)
        ll = len(lhs)
        for rhs in rhss:
            pairs = by_lengths[ll, len(rhs)]
            pairs[0].append(lhs)
            pairs[1].append(rhs)
        head, foot = encode(lhs) + sep, sep + encode(lhs)
        records.append(head + (foot + end + head).join(map(encode, rhss)) + foot)
    forward = end.join(records)
    text = (forward, forward[::-1])  # backwards: the records of reversed pairs
    # with no pair, no record (split would give the empty one)
    coded = set(forward.split(end)) if records else set()
    # letter -> {(lhs length, rhs length, side, position, position from the
    # end): occurrences}, counted column by column
    counts = [{} for _ in range(k)]
    for (ll, lr), sides in by_lengths.items():
        for side, (length, words) in enumerate(zip((ll, lr), sides)):
            for pos in range(length):
                for x, c in collections.Counter(map(itemgetter(pos), words)).items():
                    counts[x][ll, lr, side, pos, length - 1 - pos] = c

    def signature(x, rev):
        return tuple(
            sorted(
                ((ll, lr, side, back if rev else pos), c)
                for (ll, lr, side, pos, back), c in counts[x].items()
            )
        )

    with_signature = collections.defaultdict(set)  # letters by forward signature
    for x in range(k):
        with_signature[signature(x, False)].add(x)
    group = {(tuple(range(k)), False)}
    generators = []
    nodes = 0

    def add(g):
        """Whether g is a symmetry, now in the group; None once closing the
        group under g would pass the bound, which leaves the group as it
        was."""
        if g in group:
            return True
        perm, rev = g
        if not coded.issuperset(text[rev].translate(encode(perm) + past).split(end)):
            return False
        generators.append(g)
        # the new group is a union of cosets e H of the old group H; e runs
        # over g and the products s e of a generator s with an e before it
        old, reps, grown = list(group), [g], []
        for e in reps:  # appended to while read
            if e in group:
                continue  # so is its coset
            if len(group) + len(old) > _SYMMETRY_MAPS:
                group.difference_update(grown)
                generators.pop()
                return None
            at, t = e[0].__getitem__, e[1]
            coset = [(tuple(map(at, q)), r != t) for q, r in old]
            group.update(coset)
            grown += coset
            reps += [(tuple(map(s.__getitem__, e[0])), r != t) for s, r in generators]
        return True

    def direction(rev):
        """Search the maps that reverse words when rev; None once a bound
        is reached."""
        cand = [with_signature[signature(x, rev)] for x in range(k)]
        order = sorted(range(k), key=lambda x: len(cand[x]))
        perm, taken, trail = [None] * k, [False] * k, []
        image = perm.__getitem__
        missing = list(distinct)  # lhs id -> its letters not yet assigned
        words = [lhs[::-1] for lhs in lhss] if rev else lhss  # g(lhs) = perm(word)

        def place(todo):
            """Assign the (letter, image) pairs of todo and what they force,
            in the order found, each assigned letter pushed on trail; False
            on a conflict."""
            for x, y in todo:  # appended to while read
                if perm[x] is not None:
                    if perm[x] != y:
                        return False
                    continue
                if taken[y] or y not in cand[x]:
                    return False
                perm[x] = y
                taken[y] = True
                trail.append(x)
                for i in lhs_with[x]:
                    missing[i] -= 1
                for i in lhs_with[x]:
                    if not missing[i]:
                        got = shape.get(tuple(map(image, words[i])))
                        want, forced = shape[lhss[i]]
                        if got is None or got[0] != want:
                            return False
                        if forced is not None:
                            todo.append((forced, got[1]))
            return True

        def search(fixed):
            """Whether the subtree of the current assignment holds a
            symmetry; None once a bound is reached.  fixed: every
            assigned letter is its own image, so the symmetries below fix
            them all.  Off that path one symmetry h found below a child
            x -> y of a fixed node ends the child, because the rest of it
            is h times symmetries that fix x as well, which the child
            x -> x, searched first, has put in the group; a child whose
            x -> y some such symmetry already gives is skipped."""
            nonlocal nodes
            nodes += 1
            if nodes > _SYMMETRY_NODES:
                return None
            x = next((v for v in order if perm[v] is None), None)
            if x is None:
                return add((tuple(perm), rev))
            found = False
            stabiliser, size = [], 0  # the group's maps that fix every assigned letter
            for i, y in enumerate((x, *cand[x])):  # x -> x first
                if taken[y] or (i and y == x):
                    continue
                if fixed and y != x:
                    if size != len(group):
                        size = len(group)
                        stabiliser = [
                            p for p, r in group if not r and all(p[v] == v for v in trail)
                        ]
                    if any(p[x] == y for p in stabiliser):
                        continue
                mark = len(trail)
                if place([(x, y)]):
                    got = search(fixed and y == x)
                    if got is None or (got and not fixed):
                        return got
                    found = found or got
                while len(trail) > mark:
                    v = trail.pop()
                    taken[perm[v]] = False
                    perm[v] = None
                    for i in lhs_with[v]:
                        missing[i] += 1
            return found

        todo = [(x, x) for x in range(k) if not counts[x]]
        empty = shape.get(())
        if empty is not None and empty[1] is not None:
            todo.append((empty[1], empty[1]))
        return place(todo) and search(not rev)

    # sigma fixes the letters in no rule, as the forward maps do, so once it
    # is in the reversing maps are their coset under it.  Where the
    # involution pairs a letter in a rule with one in none, sigma is no
    # permutation, and add rejects it: no record holds the image.
    sigma = tuple(y if counts[x] else x for x, y in enumerate(system.alphabet.involution))
    if add((sigma, True)) is None:
        return group
    for rev in (False, True):
        if rev and any(r for _p, r in group):
            break  # the anti-automorphisms are one coset of the automorphisms
        if direction(rev) is None:
            break
    return group


def _orbit_minima(system: RewriteSystem, symmetries):
    """The overlap words of system that are least in their orbit under the
    group symmetries, in shortlex order (check_strong_confluence gives the
    argument).

    The words of each length n are grown a letter at a time, depth first
    and in letter order, so that they come out in shortlex order.  A prefix
    carries the forward maps that fix each of its letters (its stabiliser,
    memoised by that set of letters), and takes a letter y only when none
    of them maps y below y.  A whole word is kept when no reversing map
    sends it lower.

    A trie of the left-hand sides prunes the prefixes x[:j]:
    - head is the trie node of x[:j] while some left-hand side of at most
      n letters extends it;
    - p is the length of the longest left-hand side that x[:j] starts
      with, if under n;
    - starts are the trie walks (s, node) of x[s:j], s >= 1, each opened
      while head reaches past s and kept while a left-hand side of n - s
      letters extends it.
    A prefix that neither head nor a start continues is dropped, and once
    head is gone only the starts s < p count.  So a word of n letters
    survives exactly when it is a left-hand side (head), or has a
    left-hand side prefix of p < n letters and a left-hand side suffix of
    n - s < n letters with p + (n - s) > n: when it is an overlap word.
    """
    children, lengths, ends = [{}], [0], [False]  # the trie of the lhss
    for lhs in system._index:
        bit, node = 1 << len(lhs), 0
        for v in lhs:
            child = children[node].get(v)
            if child is None:
                child = children[node][v] = len(children)
                children.append({})
                lengths.append(0)
                ends.append(False)
            node = child
            lengths[node] |= bit
        ends[node] = True
    # the letters y whose child ends a left-hand side, node by node
    finals = [{y for y, c in edges.items() if ends[c]} for edges in children]
    forward = [perm for perm, rev in symmetries if not rev]
    backward = [perm for perm, rev in symmetries if rev]
    # letters fixed, as a bit mask -> (the forward maps that fix them, the
    # least image of each letter under those maps)
    stabilisers = {0: (forward, list(map(min, zip(*forward))))}

    def least_reversed(x):
        """No reversing map sends x below x."""
        first, last = x[0], x[-1]
        for perm in backward:
            y = perm[last]
            if y < first or (y == first and tuple(map(perm.__getitem__, x[::-1])) < x):
                return False
        return True

    if ends[0]:
        yield ()  # the empty left-hand side
    for n in range(1, 2 * system.m_of):
        upto, below = (2 << n) - 1, (1 << n) - 1  # lengths <= n, < n
        words = []

        def grow(x, fixed, head, p, starts):
            j = len(x)
            maps, least = stabilisers[fixed]
            if j + 1 == n:  # the last letter ends a left-hand side
                letters = set() if head is None else set(finals[head])
                for s, node in starts:
                    if s < p:
                        letters |= finals[node]
                for y in sorted(letters):
                    word = x + (y,)
                    if least[y] == y and least_reversed(word):
                        words.append(word)
                return
            letters = set() if head is None else set(children[head])
            for _s, node in starts:
                letters.update(children[node])
            for y in sorted(letters):
                if least[y] != y:
                    continue
                starts2 = [
                    (s, c)
                    for s, node in starts
                    if (c := children[node].get(y)) is not None and lengths[c] >> (n - s) & 1
                ]
                head2 = None if head is None else children[head].get(y)
                p2 = p
                if head2 is not None and lengths[head2] & upto:
                    if ends[head2]:
                        p2 = j + 1
                    c = children[0].get(y)  # a start at j, which head passes
                    if j and lengths[head2] & below and c is not None and lengths[c] >> (n - j) & 1:
                        starts2.append((j, c))
                else:
                    head2 = None
                    starts2 = [(s, c) for s, c in starts2 if s < p]
                    if not starts2:
                        continue
                key = fixed | 1 << y
                if key not in stabilisers:
                    kept = [perm for perm in maps if perm[y] == y]
                    stabilisers[key] = (kept, list(map(min, zip(*kept))))
                grow(x + (y,), key, head2, p2, starts2)

        grow((), 0, 0, 0, [])
        yield from words


def check_strong_confluence(system: RewriteSystem) -> ConfluenceReport:
    """Check that every one-step divergence y <- x -> z closes with at most
    one step on one side (the other side may take any number of steps).

    Only Knuth-Bendix critical pairs are tested: two overlapping redexes of
    an overlap word x whose spans together cover all of x.  This is
    complete for finite, unanchored systems.  Divergences whose redexes are
    disjoint always commute in exactly one step.  Two overlapping redexes
    whose spans leave part of x uncovered are a critical pair of the
    shorter word x' that the two spans cover, placed in context; x' is a
    left-hand side or an overlap of two, so it is an overlap word itself
    and is tested before x (shortlex order).  Strong joinability is
    preserved under context, so the pair in x can fail only if its pair in
    x' fails first, and the first counterexample is the same as when every
    overlapping pair is tested.  The descendant searches of
    _strongly_joinable stop at a node bound and a length bound; a pair
    whose searches reach either without meeting raises BudgetExhausted
    instead of being reported as a counterexample.

    The overlap words are read from the rule index: x of n letters is one
    when it is a left-hand side, or when it has a left-hand side prefix of
    p < n letters and a left-hand side suffix of q < n letters with
    p + q > n.  So they have at most 2 m(S) - 1 letters (none but the empty
    word when m(S) = 0).

    Only one word of each orbit of overlap words under the group of letter
    symmetries g of _symmetries needs its pairs tested.  g maps the set of
    oriented rules onto itself, so it commutes with word_successors: the
    redex l -> r at [a, b) of x becomes g(l) -> g(r) at [a, b) of g(x), or
    at [n - b, n - a) when g reverses words, and every redex of g(x) arises
    so.  g thus maps the critical pairs of x one-to-one onto those of g(x),
    and, since it keeps lengths, the descendants of y within a length
    bound onto those of g(y) within it.  So a join of y and z maps to a join
    of g(y) and g(z), and a search from y ends without reaching a bound
    exactly when the search from g(y) does, on the image set: a pair that
    a search joined (True), or whose searches ran to their end without a
    meet (False), has that answer on every word of its orbit.  Only the
    "unknown" of a search cut at its node bound depends on BFS order,
    which g need not keep.

    _orbit_minima generates the orbit minima, the words least in shortlex
    order in their orbit, without the rest.  Within a length shortlex is
    letter order, and a forward map (one that does not reverse words) that
    sends x lower fixes some prefix x[:j] letter by letter and sends x[j]
    lower.  So x is least under the forward maps exactly when each x[j] is
    least under the forward maps that fix x[:j]: the generator grows x a
    letter at a time, carrying that stabiliser down, and takes only
    letters that it does not map lower.  A reversing map reads x from its
    end, so those are tested on each whole word.

    The check tests the minima alone, in shortlex order.  Where the scan
    of every overlap word reaches a decision, each pair that it tests on
    the way has a decided answer, and so has the same pair on each word
    of its orbit: the report, first counterexample included, is the same.
    The first word that fails is least in its orbit, since an earlier
    image of it would fail first.  Where that scan would raise
    BudgetExhausted at an image of a minimum whose pairs were joined, the
    check goes on and may decide.  A negative verdict still comes only
    from searches that ran to their end.

    A pair with a reversible side closes strongly and is not tested.  The
    redex of y <- x -> z that gives z replaces lhs by rhs at a span of x;
    call it reversible when some plain rule takes rhs back to lhs (a
    symmetric rule, or two opposite rules).  Then z -> x -> y, x by that
    rule at that span, so w = y gives y ->(0) y <-* z: one reversible side
    is enough, the other may be anything.  _strongly_joinable's search
    from z would find this join, since x has at most |z| + m(S) letters,
    within its length bound: the search meets unless its node bound cuts
    it first.  So such a pair is never a counterexample, and only a search
    cut at its node bound could have left it undecided.  The reversible
    orientations are read off the index once per call, each overlap word
    lists the results of its other redexes alone, and their pairs are
    tested in the order of the full list.  So wherever the scan of every
    pair decides, the report is the same, first counterexample included,
    and a skipped pair can only take away a BudgetExhausted that its
    search would have raised.
    """
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    index = system._index
    plain = {(lhs, rhs) for lhs, slots in index.items() for _rid, rhs in slots[0]}
    # lhs -> for each plain target, in index order, whether no plain rule
    # takes it back to lhs (its redexes are not reversible)
    forward = {
        lhs: [(rhs, lhs) not in plain for _rid, rhs in slots[0]] for lhs, slots in index.items()
    }
    pool = _SuccessorPool(system)
    for x in _orbit_minima(system, _symmetries(system)):
        n = len(x)
        # (start, end, the results of its redexes that are not reversible)
        spans = []
        for a, b, ys in _plain_rewrites(x, system):
            ys = list(compress(ys, forward[x[a:b]]))
            if ys:
                spans.append((a, b, ys))
        for i, (a1, b1, ys) in enumerate(spans):
            # redex pairs in the order of the flat (span, rhs) redex list
            partners = [
                z
                for a2, b2, zs in spans[i + 1 :]
                if a2 < b1 and a1 < b2 and min(a1, a2) == 0 and max(b1, b2) == n
                for z in zs
            ]
            # a span of all of x overlaps itself, and comes last
            whole = a1 == 0 and b1 == n > 0
            for k, y in enumerate(ys):
                for z in ys[k + 1 :] if whole else partners:
                    # the one-step meet, tried first by _strongly_joinable
                    if y == z or not pool(y).isdisjoint(pool(z)):
                        continue
                    if not _strongly_joinable(y, z, system, pool):
                        return ConfluenceReport(False, (x, y, z))
    return ConfluenceReport(True)


def check_weak_termination_sufficient(system: RewriteSystem) -> bool:
    """Sufficient condition only: no length-increasing rule."""
    return not system.has_length_increasing_rules()
