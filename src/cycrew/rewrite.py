"""Semi-Thue rules and systems; rewriting on words and on cyclic words.

A rule may carry an anchor (prefix/suffix/whole) restricting where it can
fire on ordinary words.  On cyclic words anchors dissolve: every position of
a cycle is a rotation start, so prefix- and suffix-anchored rules act like
plain rules there, and whole-anchored rules fire when some rotation equals
the left-hand side.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .words import Alphabet, CyclicWord, Word, rotations, shortlex_key, validate_word


class Anchor(Enum):
    NONE = "none"
    PREFIX = "prefix"
    SUFFIX = "suffix"
    WHOLE = "whole"


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
    and an index from lhs to matching rules.  Symmetric rules are stored once
    with symmetric=True; the reverse orientation is materialised in the rule
    index.
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
        # (lhs, anchor) -> list of (rule_id, rhs); symmetric rules indexed
        # both ways under the same rule_id.
        self._index = collections.defaultdict(list)
        for rid, r in enumerate(self.rules):
            self._index[(r.lhs, r.anchor)].append((rid, r.rhs))
            if r.symmetric and r.rhs != r.lhs:
                self._index[(r.rhs, r.anchor)].append((rid, r.lhs))
        self._lhs_lengths = sorted({len(l) for (l, _a) in self._index})

    def oriented_pairs(self):
        """All (lhs, rhs, rule_id, anchor) orientations, symmetric rules in
        both directions."""
        for (lhs, anchor), targets in self._index.items():
            for rid, rhs in targets:
                yield lhs, rhs, rid, anchor

    def has_anchored_rules(self) -> bool:
        return any(r.anchor is not Anchor.NONE for r in self.rules)

    def has_length_increasing_rules(self) -> bool:
        return any(
            len(rhs) > len(lhs) for lhs, rhs, _rid, _a in self.oriented_pairs()
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
            chunk = w[pos : pos + length]
            for rid, rhs in index.get((chunk, Anchor.NONE), ()):
                out.append((w[:pos] + rhs + w[pos + length :], rid, pos))
            if pos == 0:
                for rid, rhs in index.get((chunk, Anchor.PREFIX), ()):
                    out.append((rhs + w[length:], rid, 0))
            if pos + length == n:
                for rid, rhs in index.get((chunk, Anchor.SUFFIX), ()):
                    out.append((w[:pos] + rhs, rid, pos))
            if pos == 0 and length == n:
                for rid, rhs in index.get((chunk, Anchor.WHOLE), ()):
                    out.append((rhs, rid, 0))
    return out


def cyclic_successors(c: CyclicWord, system: RewriteSystem):
    """One-step cyclic rewrites of c, deduplicated by canonical rotation.

    Non-empty left-hand sides are matched on every rotation of the cycle
    (which covers wrap-around occurrences); anchors are ignored except that
    whole-anchored rules require a rotation equal to the whole lhs.  Empty
    left-hand sides insert the rhs at every gap of the cycle.
    """
    results = set()
    canon = c.canon
    n = len(canon)
    index = system._index
    rots = rotations(canon)
    for length in system._lhs_lengths:
        if length == 0:
            gaps = rots if n > 0 else [()]
            for (lhs, anchor), targets in index.items():
                if lhs != ():
                    continue
                if anchor is Anchor.WHOLE:
                    if n == 0:
                        for _rid, rhs in targets:
                            results.add(CyclicWord.of(rhs))
                    continue
                for r in gaps:
                    for _rid, rhs in targets:
                        results.add(CyclicWord.of(rhs + r))
            continue
        if length > n:
            continue
        for rot in rots:
            chunk = rot[:length]
            rest = rot[length:]
            for anchor in (Anchor.NONE, Anchor.PREFIX, Anchor.SUFFIX):
                for _rid, rhs in index.get((chunk, anchor), ()):
                    results.add(CyclicWord.of(rhs + rest))
            if length == n:
                for _rid, rhs in index.get((chunk, Anchor.WHOLE), ()):
                    results.add(CyclicWord.of(rhs))
    return sorted(results, key=lambda cw: shortlex_key(cw.canon))


def reduce_greedy(w: Word, system: RewriteSystem, budget: int = 10_000) -> Word:
    """Apply the leftmost applicable length-reducing rule until none applies.

    Each application counts against the budget; BudgetExhausted signals
    possible non-termination (it cannot trigger when every rule shortens).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    index = system._index
    lengths = [l for l in system._lhs_lengths if l > 0]
    steps = 0
    while True:
        applied = False
        n = len(w)
        for pos in range(n):
            for length in lengths:
                if pos + length > n:
                    break
                chunk = w[pos : pos + length]
                rhs = None
                for anchor in (Anchor.NONE, Anchor.PREFIX, Anchor.SUFFIX, Anchor.WHOLE):
                    if anchor is Anchor.PREFIX and pos != 0:
                        continue
                    if anchor is Anchor.SUFFIX and pos + length != n:
                        continue
                    if anchor is Anchor.WHOLE and not (pos == 0 and length == n):
                        continue
                    for _rid, cand in index.get((chunk, anchor), ()):
                        if len(cand) < length:
                            rhs = cand
                            break
                    if rhs is not None:
                        break
                if rhs is not None:
                    w = w[:pos] + rhs + w[pos + length :]
                    applied = True
                    break
            if applied:
                break
        if not applied:
            return w
        steps += 1
        if steps >= budget:
            raise BudgetExhausted(f"no fixpoint within {budget} steps")


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
    and optional length cap."""
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
    return seen


def _strongly_joinable(y, z, system, succ_or_self):
    """y <- x -> z closes strongly: some w with y ->(<=1) w <-* z or
    y ->* w <-(<=1) z.  The one-step/one-step case is tried first; the
    starred side is explored by a bounded BFS."""
    sy = succ_or_self(y)
    sz = succ_or_self(z)
    if not sy.isdisjoint(sz):
        return True
    cap = max(len(y), len(z)) + 2 * system.m_of
    dy = _bounded_descendants(y, system, max_len=cap)
    if not dy.isdisjoint(sz):
        return True
    dz = _bounded_descendants(z, system, max_len=cap)
    return not dz.isdisjoint(sy)


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
    overlapping pair is tested.  (The descendant search of
    _strongly_joinable is bounded, so this holds as long as that bound is
    not reached.)
    """
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    succ_or_self = _successor_pool(system)
    index = system._index
    for x in sorted(_overlap_words(system), key=shortlex_key):
        n = len(x)
        spans = []  # (start, end, [(result word, its successors or self)])
        for length in system._lhs_lengths:
            for pos in range(n - length + 1):
                targets = index.get((x[pos : pos + length], Anchor.NONE))
                if targets:
                    results = [x[:pos] + rhs + x[pos + length :] for _rid, rhs in targets]
                    spans.append(
                        (pos, pos + length, [(y, succ_or_self(y)) for y in results])
                    )
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
