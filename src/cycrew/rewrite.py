"""Semi-Thue rules and systems; rewriting on words and on cyclic words.

A rule may carry an anchor (prefix/suffix/whole) restricting where it can
fire on ordinary words.  On cyclic words anchors dissolve: every position of
a cycle is a rotation start, so prefix- and suffix-anchored rules act like
plain rules there, and whole-anchored rules fire when some rotation equals
the left-hand side.

Anchors are resolved in one place.  RewriteSystem indexes its rules once by
left-hand side, with one tuple of right-hand sides per Anchor, and _firing
picks the right-hand sides that fire at a redex from where the redex lies
(start of the word, end of the word, the whole word; on a cycle every
redex is at a start and an end).  word_successors, reduce_greedy and
_cyclic_redexes, the redexes of a cycle that cyclic_successors reads, all
read the index through _firing, and so do the completions' short-cycle
graph and C-dagger, which read each left-hand side's right-hand sides once
per call.  check_strong_confluence, which accepts only unanchored systems,
reads the plain right-hand sides off the index once per call, for the
orientations whose reverse is no plain orientation (the live ones, whose
critical pairs it lists).  No reader needs to know which rule gave a
right-hand side, so the index holds none: the system is the one-step
relation u -> v, each v once per rule orientation that gives it.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

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
_LHS, _RHS = operator.attrgetter("lhs"), operator.attrgetter("rhs")


class BudgetExhausted(RuntimeError):
    """A bounded search ran out of budget; possible non-termination."""


class _RuleFields(NamedTuple):
    lhs: Word
    rhs: Word
    anchor: Anchor = Anchor.NONE
    symmetric: bool = False


class Rule(_RuleFields):
    """A rule lhs -> rhs, or lhs <-> rhs when symmetric, firing where its
    anchor allows.  A symmetric rule must preserve length.

    An immutable tuple of its four fields, compared and hashed as one, with
    no instance dict, since readers and extensions build thousands: one
    takes 0.34-0.47 us to build and 80 bytes (timeit and tracemalloc,
    CPython 3.11 on a 2-core x86-64 host), a frozen dataclass 0.74-0.90 us
    and 104 bytes.  Every way to build one (the constructor, _make,
    _replace, unpickling) checks the length."""

    __slots__ = ()

    def __new__(cls, lhs: Word, rhs: Word, anchor: Anchor = Anchor.NONE, symmetric: bool = False):
        if symmetric and len(lhs) != len(rhs):
            raise ValueError("symmetric rules must be length preserving")
        return tuple.__new__(cls, (lhs, rhs, anchor, symmetric))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple _make, which _replace calls, skips __new__
        return cls(*iterable)


class RewriteSystem:
    """A finite semi-Thue system over a fixed alphabet.

    Caches m(S) (sup of lhs lengths), the Thue / standard / 2-monadic /
    anchored flags and an index from each left-hand side to four tuples of
    right-hand sides, one per Anchor in Anchor order, each in rule order.
    Symmetric rules are stored once with symmetric=True; the reverse
    orientation is materialised in the index beside the forward one.  A
    rule given twice is indexed twice: every reader sees each orientation
    once per rule.
    """

    def __init__(self, alphabet: Alphabet, rules):
        self.alphabet = alphabet
        self.rules = rules = tuple(rules)
        # the letters of all the rules checked at once; the per-rule scan
        # runs only to name the first bad letter
        used = set().union(*map(_LHS, rules), *map(_RHS, rules))
        if used and (min(used) < 0 or max(used) >= len(alphabet)):
            for r in rules:
                validate_word(r.lhs, alphabet)
                validate_word(r.rhs, alphabet)
        m_of, is_thue, empty_lhs, anchored = 0, True, False, False
        index = collections.defaultdict(lambda: ([], [], [], []))
        for r in rules:
            lhs, rhs, symmetric = r.lhs, r.rhs, r.symmetric
            n = len(lhs)
            if n > m_of:
                m_of = n
            if not n:
                empty_lhs = True
            is_thue = is_thue and (len(rhs) < n or (len(rhs) == n and symmetric))
            slot = _ANCHORS.index(r.anchor)
            if slot:
                anchored = True
            index[lhs][slot].append(rhs)
            if symmetric and rhs != lhs:
                index[rhs][slot].append(lhs)
        self.m_of = m_of
        self.is_thue = is_thue
        self.is_standard = not empty_lhs and 2 <= m_of
        self.is_2monadic = m_of == 2
        self._anchored = anchored
        # tuples: concatenating an empty one in _firing copies nothing
        self._index = {lhs: tuple(map(tuple, slots)) for lhs, slots in index.items()}
        self._lhs_lengths = sorted({len(lhs) for lhs in self._index})

    def has_anchored_rules(self) -> bool:
        return self._anchored

    def has_length_increasing_rules(self) -> bool:
        return self._length_increasing

    @functools.cached_property
    def _length_increasing(self) -> bool:
        # scanned on first use, not by __init__, which derive_system calls;
        # a symmetric rule preserves length, so its reverse never lengthens
        return any(len(r.rhs) > len(r.lhs) for r in self.rules)


def _firing(slots, start: bool, end: bool, whole: bool):
    """The right-hand sides of one left-hand side's index entry that fire
    at a redex, in Anchor order: plain rules anywhere, prefix rules at
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
    """All one-step rewrites of w, as a list of words: by lhs length,
    then position, then in index order, a word repeated once per rule
    orientation that gives it.

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
                for rhs in _firing(slots, pos == 0, end == n, length == n):
                    out.append(head + rhs + tail)
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
                for rhs in _firing(slots, True, True, length == n):
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
                for rhs in _firing(slots, pos == 0, end == n, length == n):
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


class _SuccessorPool(dict):
    """The searches of one confluence check, memoised.

    pool[w] is the frozenset of w and its one-step rewrites, filled on
    first use.  The check asks for pool[w] only on the two words of a pair
    it tries, and it tries no pair with a reversible side, so on S_eps,
    where most rules are symmetric, it fills few entries (900 on
    HNN(Z6, Z3), of 4,447 rules).  pool.descendants(w, cap) is the one
    _Descendants search from w over words of at most cap letters, keyed by
    (w, cap): it keeps how far it has run and whether a bound cut it, so
    that a truncated set is never read as a complete one.  Both step by
    word_successors, looked up in this module at each use, so that the
    wrapper bench/tracing.py binds to that name counts every call.
    """

    def __init__(self, system):
        self.system = system
        self._desc = {}

    def __missing__(self, w):
        got = self[w] = frozenset([w, *word_successors(w, self.system)])
        return got

    def descendants(self, w, cap):
        got = self._desc.get((w, cap))
        if got is None:
            steps = functools.partial(word_successors, system=self.system)
            got = self._desc[w, cap] = _Descendants(w, steps, cap)
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
    sy = pool[y]
    sz = pool[z]
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

    A pair with a reversible side closes strongly and is not tested.  The
    redex of y <- x -> z that gives z replaces lhs by rhs at a span of x;
    call it reversible when some plain rule takes rhs back to lhs (a
    symmetric rule, or two opposite rules).  Then z -> x -> y, x by that
    rule at that span, so w = y gives y ->(0) y <-* z: one reversible side
    is enough, the other may be anything.  _strongly_joinable's search
    from z would find this join, since x has at most |z| + m(S) letters,
    within its length bound: the search meets unless its node bound cuts
    it first.  So such a pair is never a counterexample, and only a search
    cut at its node bound could have left it undecided.

    The pairs tested are read straight off the rules.  Call a plain
    orientation lhs -> rhs live when no plain rule takes rhs back to lhs.
    Two overlapping live redexes of x of n letters that cover x are
    - both at all of x: x is a live left-hand side, not empty, and the
      pair is two of its live targets;
    - one at all of x, the other a live left-hand side at a span
      [a, b) != [0, n), which an empty one overlaps only when 0 < a < n;
    - or l1 at [0, b) and l2 at [a, n) with 0 < a < b < n: x = l1 + l2[k:]
      for k = b - a, 1 <= k < |l1|, k < |l2|, where l1 ends with l2[:k];
      the l2 are found through their proper prefixes.
    Each pair comes once, oriented (y, z) by its spans in (length, start)
    order, the targets of one span numbered in index order: in an overlap
    l1 + l2[k:], l1 at [0, |l1|) comes second when it is the longer.
    Every pair is tried against the one-step meet first, which
    _strongly_joinable also tries first, so a pair it closes would have
    been joined there.  The pairs it leaves open are searched in the order
    (|x|, x, first span, its target, second span, its target): the order
    of a scan of the overlap words in shortlex order, each word's redex
    pairs in the order of its redexes.  So wherever the scan of every pair
    decides, the report is the same, first counterexample included; a
    skipped pair can only take away a BudgetExhausted that its search
    would have raised, and any BudgetExhausted raised comes where that
    scan meets it.

    Each pair is built and tried where it is found: a live lhs x tries
    every live redex of x against its own live targets, and each live
    orientation (l1, i, r1) tries the orientations (l2, j, r2) of the live
    l2 that start with a proper suffix of l1.  The one-step meets are read
    from the pool, each filled once per call, on the first pair of two
    distinct words that needs it.
    """
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    index = system._index
    plain = {(lhs, rhs) for lhs, slots in index.items() for rhs in slots[0]}
    # lhs -> its live targets, in index order
    live = {}
    for lhs, slots in index.items():
        rhss = [rhs for rhs in slots[0] if (rhs, lhs) not in plain]
        if rhss:
            live[lhs] = rhss
    # the live orientations (lhs, i, rhs), rhs the i-th live target of lhs,
    # and those of each lhs under each of its proper prefixes
    orientations = [(lhs, i, rhs) for lhs, rhss in live.items() for i, rhs in enumerate(rhss)]
    by_prefix = collections.defaultdict(list)
    for o in orientations:
        lhs = o[0]
        for k in range(1, len(lhs)):
            by_prefix[lhs[:k]].append(o)
    pool = _SuccessorPool(system)
    found = []  # the pairs the one-step meet leaves open, with their order
    for x, zs in live.items():
        n = len(x)
        whole = (n, 0)
        for a in range(n + 1):
            for b in range(a, n + 1):
                rhss = live.get(x[a:b])
                # an empty span overlaps [0, n) only strictly inside it
                if not rhss or (a == b and not 0 < a < n):
                    continue
                span = (b - a, a)
                for i, r in enumerate(rhss):
                    # a span paired with itself pairs each target with those after it
                    y = x[:a] + r + x[b:]
                    for j in range(i + 1 if span == whole else 0, len(zs)):
                        z = zs[j]
                        if y != z and pool[y].isdisjoint(pool[z]):
                            found.append((n, x, span, i, whole, j, y, z))
    for l1, i, r1 in orientations:
        m = len(l1)
        for k in range(1, m):
            a = m - k
            head = l1[:a]
            for l2, j, r2 in by_prefix.get(l1[a:], ()):
                tail = l2[k:]
                y, z = r1 + tail, head + r2
                if y != z and pool[y].isdisjoint(pool[z]):
                    x = l1 + tail
                    if m <= len(l2):
                        found.append((len(x), x, (m, 0), i, (len(l2), a), j, y, z))
                    else:
                        found.append((len(x), x, (len(l2), a), j, (m, 0), i, z, y))
    found.sort()  # no two pairs share an order, so y and z are never compared
    for _n, x, _s1, _i, _s2, _j, y, z in found:
        if not _strongly_joinable(y, z, system, pool):
            return ConfluenceReport(False, (x, y, z))
    return ConfluenceReport(True)
