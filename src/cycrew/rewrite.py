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
an end).  word_successors, cyclic_successors and reduce_greedy all read
the index through _firing; check_strong_confluence, which accepts only
unanchored systems, reads the plain targets.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .words import (
    Alphabet,
    CyclicWord,
    Word,
    involute,
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


def cyclic_successors(c: CyclicWord, system: RewriteSystem):
    """One-step cyclic rewrites of c, deduplicated by canonical rotation.

    Left-hand sides are matched at the start of every rotation of the cycle
    (which covers wrap-around occurrences, and puts an empty lhs at every
    gap); a rotation start is both a start and an end of the word, so only
    whole-anchored rules are restricted, to a rotation equal to their lhs.
    """
    results = set()
    canon = c.canon
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
                    results.add(CyclicWord.of(rhs + rest))
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
    sets fully enumerated, no overlap) or "exhausted" (budget ran out before
    a decision).
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
    """Bidirectional BFS for a common cyclic descendant of u and v.

    The budget counts expanded nodes across both sides.  With max_len set,
    successors longer than max_len are pruned; "disjoint" then means
    disjoint within that length bound.  A memo dict shared across calls
    caches successor lists.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")

    def successors(node):
        if memo is None:
            return cyclic_successors(node, system)
        got = memo.get(node)
        if got is None:
            got = cyclic_successors(node, system)
            memo[node] = got
        return got

    if u == v:
        return JoinResult("joinable", u)
    seen = {u: 0, v: 1}  # node -> side
    frontiers = [collections.deque([u]), collections.deque([v])]
    expanded = 0
    while frontiers[0] or frontiers[1]:
        # expand the smaller nonempty frontier to keep the meet shallow
        side = min(
            (s for s in (0, 1) if frontiers[s]), key=lambda s: len(frontiers[s])
        )
        node = frontiers[side].popleft()
        expanded += 1
        if expanded > budget:
            return JoinResult("exhausted")
        for succ in successors(node):
            if max_len is not None and len(succ) > max_len:
                continue
            owner = seen.get(succ)
            if owner is None:
                seen[succ] = side
                frontiers[side].append(succ)
            elif owner != side:
                return JoinResult("joinable", succ)
    return JoinResult("disjoint")


@dataclass(frozen=True)
class ConfluenceReport:
    ok: bool
    counterexample: Optional[tuple] = None  # (source, left, right) words

    def __bool__(self):
        return self.ok


def _successor_pool(system):
    cache = {}

    def succ_or_self(w):
        s = cache.get(w)
        if s is None:
            s = frozenset([w] + [r for r, _i, _p in word_successors(w, system)])
            cache[w] = s
        return s

    return succ_or_self


def _bounded_descendants(w, system, max_nodes=2_000, max_len=None):
    """Words reachable from w by any number of steps, bounded by node count
    and optional length cap, and whether the node bound cut the search
    short (the set is then only part of the descendants)."""
    seen = {w}
    queue = collections.deque([w])
    while queue and len(seen) < max_nodes:
        node = queue.popleft()
        for s, _rid, _pos in word_successors(node, system):
            if max_len is not None and len(s) > max_len:
                continue
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen, bool(queue)


def _strongly_joinable(y, z, system, succ_or_self):
    """y <- x -> z closes strongly: some w with y ->(<=1) w <-* z or
    y ->* w <-(<=1) z.  The one-step/one-step case is tried first; the
    starred side is explored by a bounded BFS.  A meet inside a search cut
    short by its node bound still proves the pair joinable; without a meet
    such a search decides nothing, and BudgetExhausted is raised."""
    sy = succ_or_self(y)
    sz = succ_or_self(z)
    if not sy.isdisjoint(sz):
        return True
    cap = max(len(y), len(z)) + 2 * system.m_of
    dy, cut_y = _bounded_descendants(y, system, max_len=cap)
    if not dy.isdisjoint(sz):
        return True
    dz, cut_z = _bounded_descendants(z, system, max_len=cap)
    if not dz.isdisjoint(sy):
        return True
    if cut_y or cut_z:
        fmt = system.alphabet.format
        raise BudgetExhausted(
            f"no strong join of {fmt(y)!r} and {fmt(z)!r} within the search bound"
        )
    return False


def _overlap_words(system: RewriteSystem):
    """Words realising every genuine overlap of two lhs occurrences, plus
    each lhs on its own (same-position divergences and containments).

    A proper overlap puts a nonempty proper suffix of l1 as a proper prefix
    of l2; left-hand sides are indexed by their proper prefixes, so each
    suffix of l1 looks up its partners directly.
    """
    lhss = sorted({lhs for lhs, _r, _i, _a in system.oriented_pairs()})
    by_prefix = collections.defaultdict(list)
    for l2 in lhss:
        for o in range(1, len(l2)):
            by_prefix[l2[:o]].append(l2)
    words = set(lhss)
    for l1 in lhss:
        for o in range(1, len(l1)):
            for l2 in by_prefix.get(l1[len(l1) - o :], ()):
                words.add(l1 + l2[o:])
    return words


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
    _strongly_joinable stop at a node bound; a pair whose searches reach it
    without meeting raises BudgetExhausted instead of being reported as a
    counterexample.

    When the formal inverse sigma(w) = involute(w) maps the rules onto
    themselves (S_eps of a pregroup, for one), only one word of each
    sigma-orbit of overlap words needs its pairs tested.  sigma reverses
    words, so it sends the redex [a, b) of x to [n - b, n - a) of sigma(x),
    the rule l -> r to sigma(l) -> sigma(r), and the critical pairs of x
    one-to-one onto those of sigma(x); successor sets commute with sigma,
    so a pair closes by the one-step meet exactly when its image does.  A
    word x is skipped when sigma(x) was tested before it and every pair of
    sigma(x) closed by the one-step meet: every pair of x then closes by
    it too, and x could not have failed.  Words that needed
    _strongly_joinable are tested on both sides, because its descendant
    search stops at a node count in BFS order and so need not agree on a
    pair and its image.  The report is thus the same as without the skip.
    """
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    succ_or_self = _successor_pool(system)
    index = system._index
    alphabet = system.alphabet
    pairs = {(lhs, rhs) for lhs, rhs, _rid, _a in system.oriented_pairs()}
    invariant = pairs == {
        (involute(lhs, alphabet), involute(rhs, alphabet)) for lhs, rhs in pairs
    }
    met = set()  # tested words whose pairs all closed by the one-step meet
    for x in sorted(_overlap_words(system), key=shortlex_key):
        if invariant and involute(x, alphabet) in met:
            continue
        n = len(x)
        spans = []  # (start, end, [(result word, its successors or self)])
        for length in system._lhs_lengths:
            for pos in range(n - length + 1):
                slots = index.get(x[pos : pos + length])
                if slots is not None:
                    # the system is unanchored: every target is plain
                    results = [x[:pos] + rhs + x[pos + length :] for _rid, rhs in slots[0]]
                    spans.append(
                        (pos, pos + length, [(y, succ_or_self(y)) for y in results])
                    )
        one_step = True  # every pair of x so far closed by the one-step meet
        for i, (a1, b1, ys) in enumerate(spans):
            # redex pairs in the order of the flat (span, rhs) redex list
            partners = [
                zs
                for a2, b2, zs in spans[i + 1 :]
                if a2 < b1 and a1 < b2 and min(a1, a2) == 0 and max(b1, b2) == n
            ]
            whole = a1 == 0 and b1 == n > 0  # the span overlaps itself
            for k, (y, sy) in enumerate(ys):
                for group in ([ys[k + 1 :]] if whole else []) + partners:
                    for z, sz in group:
                        # the one-step meet, tried first by _strongly_joinable
                        if y == z or not sy.isdisjoint(sz):
                            continue
                        if not _strongly_joinable(y, z, system, succ_or_self):
                            return ConfluenceReport(False, (x, y, z))
                        one_step = False
        if invariant and one_step:
            met.add(x)
    return ConfluenceReport(True)


def check_strong_confluence_naive(
    system: RewriteSystem, max_len: int
) -> ConfluenceReport:
    """Oracle version: enumerate every word up to max_len and test all
    divergences.  Exponential; for cross-checking on small systems only."""
    import itertools

    succ_or_self = _successor_pool(system)
    k = len(system.alphabet)
    for n in range(max_len + 1):
        for x in itertools.product(range(k), repeat=n):
            succs = [y for y, _i, _p in word_successors(x, system)]
            for i in range(len(succs)):
                for j in range(i + 1, len(succs)):
                    if succs[i] == succs[j]:
                        continue
                    if not _strongly_joinable(
                        succs[i], succs[j], system, succ_or_self
                    ):
                        return ConfluenceReport(False, (x, succs[i], succs[j]))
    return ConfluenceReport(True)


def check_weak_termination_sufficient(system: RewriteSystem) -> bool:
    """Sufficient condition only: no length-increasing rule."""
    return not system.has_length_increasing_rules()
