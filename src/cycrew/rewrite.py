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
unanchored systems, reads the plain targets.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
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


class _SuccessorPool:
    """The searches of one confluence check, memoised.

    pool(w) is the frozenset of w and its one-step rewrites by the plain
    rules (the system of a confluence check is unanchored), and
    pool.steps(w) lists the rewrites in word_successors order.
    pool.descendants(w, cap) is the one _Descendants search from w over
    words of at most cap letters, keyed by (w, cap): it keeps how far it
    has run and whether a bound cut it, so that a truncated set is never
    read as a complete one.
    """

    def __init__(self, system):
        self.system = system
        self._meets = {}
        self._steps = {}
        self._desc = {}

    def __call__(self, w):
        got = self._meets.get(w)
        if got is None:
            index = self.system._index
            n = len(w)
            out = [w]
            for length in self.system._lhs_lengths:
                for pos in range(n - length + 1):
                    slots = index.get(w[pos : pos + length])
                    if slots is not None:
                        head, tail = w[:pos], w[pos + length :]
                        out.extend([head + rhs + tail for _rid, rhs in slots[0]])
            got = self._meets[w] = frozenset(out)
        return got

    def steps(self, w):
        got = self._steps.get(w)
        if got is None:
            got = tuple(r for r, _i, _p in word_successors(w, self.system))
            self._steps[w] = got
        return got

    def descendants(self, w, cap):
        got = self._desc.get((w, cap))
        if got is None:
            got = self._desc[w, cap] = _Descendants(w, self.steps, cap)
        return got


class _Descendants:
    """A BFS from w over its descendants (steps(u) lists the one-step
    rewrites of u), run only as far as the questions asked of it need.

    Rewrites longer than max_len letters are left out, and no word is
    expanded once max_nodes words are seen.  meets(targets) runs the search
    until it sees a word of targets or ends, so its answer is the same as
    that of the whole bounded search.  Once the search has ended, cut tells
    whether a bound left words out: a rewrite too long, or a word never
    expanded; the set seen is then only part of the descendants.
    """

    def __init__(self, w, steps, max_len, max_nodes=2_000):
        self.seen = {w}
        self.queue = collections.deque([w])
        self.pruned = False
        self.steps = steps
        self.max_len = max_len
        self.max_nodes = max_nodes

    def meets(self, targets) -> bool:
        seen, queue = self.seen, self.queue
        if not seen.isdisjoint(targets):
            return True
        while queue and len(seen) < self.max_nodes:
            hit = False
            for s in self.steps(queue.popleft()):
                if len(s) > self.max_len:
                    self.pruned = True
                elif s not in seen:
                    seen.add(s)
                    queue.append(s)
                    hit = hit or s in targets
            if hit:
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


# Bounds on the symmetry search: its backtracking nodes (and so its
# recursion depth), and the elements of the group closed from the maps it
# verifies.  A cut search still returns verified symmetries, only fewer.
_SYMMETRY_NODES = 500
_SYMMETRY_MAPS = 2_000


def _image(g, w: Word) -> Word:
    """g(w) for a letter symmetry g = (perm, rev): every letter mapped by
    perm, then the word reversed when rev (an anti-automorphism)."""
    perm, rev = g
    w = tuple(map(perm.__getitem__, w))
    return w[::-1] if rev else w


def _symmetries(system: RewriteSystem) -> set:
    """Letter symmetries of a system: the maps g = (perm, rev) of _image
    that send the set of oriented (lhs, rhs) pairs onto itself, the identity
    among them.  The formal inverse (the involution, reversed) is tried
    first.

    A backtracking search assigns an image to one letter at a time.  A
    letter's candidates are the letters with the same number of occurrences
    at each (lhs length, rhs length, side, position), the position counted
    from the end when rev.  Once every letter of a left-hand side l is
    assigned, g(l) must be a left-hand side with the same right-hand side
    lengths, and a unique right-hand side of length one forces the image of
    its letter (ab -> [ab] forces [ab] once a and b are placed).  Letters in
    no rule stay fixed.  A complete assignment that is not in the group
    found so far is verified against every pair, and the group is closed
    under composition.  _SYMMETRY_NODES caps the search nodes and
    _SYMMETRY_MAPS the group size; every map returned is verified or a
    product of verified maps.
    """
    k = len(system.alphabet)
    pairs = {(lhs, rhs) for lhs, rhs, _rid, _a in system.oriented_pairs()}
    rhs_of = collections.defaultdict(list)
    by_lengths = collections.defaultdict(list)
    for lhs, rhs in pairs:
        rhs_of[lhs].append(rhs)
        by_lengths[len(lhs), len(rhs)].append((lhs, rhs))
    # letter -> {(lhs length, rhs length, side, position, position from the
    # end): occurrences}
    counts = [{} for _ in range(k)]
    for (ll, lr), group in by_lengths.items():
        for side, length in enumerate((ll, lr)):
            for pos in range(length):
                for x, c in collections.Counter([pair[side][pos] for pair in group]).items():
                    counts[x][ll, lr, side, pos, length - 1 - pos] = c
    shape = {}  # lhs -> (its rhs lengths, the letter of a unique rhs of length 1)
    for lhs, rhss in rhs_of.items():
        singles = [r[0] for r in rhss if len(r) == 1]
        shape[lhs] = (sorted(map(len, rhss)), singles[0] if len(singles) == 1 else None)
    lhs_with = collections.defaultdict(set)
    for lhs in shape:
        for x in lhs:
            lhs_with[x].add(lhs)
    # each pair as the string lhs + sep + rhs, one character per letter, and
    # all pairs as one text joined by end, so that verifying a map is one
    # str.translate (sep and end are no letters and translate to
    # themselves); the mirrored text holds the pairs of reversed words
    sep, end = chr(k), chr(k + 1)
    code = {w: "".join(map(chr, w)) for w in {w for pair in pairs for w in pair}}
    coded = {code[lhs] + sep + code[rhs] for lhs, rhs in pairs}
    text = (
        end.join(coded),
        end.join(code[lhs][::-1] + sep + code[rhs][::-1] for lhs, rhs in pairs),
    )

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
        """Whether g is a symmetry, now in the group; None once the group
        is at the bound."""
        if g in group:
            return True
        perm, rev = g
        if set(text[rev].translate(perm).split(end)) != coded:
            return False
        generators.append(g)
        frontier = list(group)
        while frontier:
            grown = []
            for q, t in frontier:
                for p, r in generators:
                    h = (tuple(map(p.__getitem__, q)), r != t)
                    if h not in group:
                        if len(group) == _SYMMETRY_MAPS:
                            return None
                        group.add(h)
                        grown.append(h)
            frontier = grown
        return True

    def direction(rev):
        """Search the maps that reverse words when rev; None once a bound
        is reached."""
        cand = [with_signature[signature(x, rev)] for x in range(k)]
        order = sorted(range(k), key=lambda x: len(cand[x]))
        perm, taken, trail = [None] * k, [False] * k, []

        def place(todo):
            """Assign the (letter, image) pairs of todo and what they force,
            each assigned letter pushed on trail; False on a conflict."""
            while todo:
                x, y = todo.pop()
                if perm[x] is not None:
                    if perm[x] != y:
                        return False
                    continue
                if taken[y] or y not in cand[x]:
                    return False
                perm[x] = y
                taken[y] = True
                trail.append(x)
                for lhs in lhs_with[x]:
                    if all(perm[v] is not None for v in lhs):
                        got = shape.get(_image((perm, rev), lhs))
                        want, forced = shape[lhs]
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
            return found

        todo = [(x, x) for x in range(k) if not counts[x]]
        empty = shape.get(())
        if empty is not None and empty[1] is not None:
            todo.append((empty[1], empty[1]))
        return place(todo) and search(not rev)

    if add((system.alphabet.involution, True)) is None:
        return group
    for rev in (False, True):
        if rev and any(r for _p, r in group):
            break  # the anti-automorphisms are one coset of the automorphisms
        if direction(rev) is None:
            break
    return group


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

    Only one word of each orbit of overlap words under the letter
    symmetries g of _symmetries needs its pairs tested.  g maps the set of
    oriented rules onto itself, so it commutes with word_successors: the
    redex l -> r at [a, b) of x becomes g(l) -> g(r) at [a, b) of g(x), or
    at [n - b, n - a) when g reverses words, and every redex of g(x) arises
    so.  g thus maps the critical pairs of x one-to-one onto those of g(x)
    and sends one-step meets to one-step meets (the successor sets of
    g(y) are the images of those of y).  When every pair of a tested word x
    closes by the one-step meet, every word g(x) of its orbit enters met,
    and a word in met is skipped: each of its pairs closes by the meet too,
    so it could not have failed.  Words that needed _strongly_joinable
    never enter met, because its descendant search stops at a node count in
    BFS order and need not agree on a pair and its image; their images are
    tested in full.  The report, first counterexample and BudgetExhausted
    included, is therefore the same as without the skip.
    """
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    pool = _SuccessorPool(system)
    index = system._index
    symmetries = _symmetries(system)
    # g(x) = itemgetter(*x)(perm), reversed when g reverses words, which
    # itemgetter(*x[::-1]) gives; a word under 2 letters goes through _image
    forward = [perm for perm, rev in symmetries if not rev]
    backward = [perm for perm, rev in symmetries if rev]
    met = set()  # the orbits of tested words whose pairs closed by one-step meets
    words = sorted(_overlap_words(system))
    words.sort(key=len)  # stable: shortlex order
    for x in words:
        if x in met:
            continue
        n = len(x)
        spans = []  # (start, end, [(result word, its successors or self)])
        for length in system._lhs_lengths:
            for pos in range(n - length + 1):
                slots = index.get(x[pos : pos + length])
                if slots is not None:
                    # the system is unanchored: every target is plain
                    results = [x[:pos] + rhs + x[pos + length :] for _rid, rhs in slots[0]]
                    spans.append((pos, pos + length, [(y, pool(y)) for y in results]))
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
                        if not _strongly_joinable(y, z, system, pool):
                            return ConfluenceReport(False, (x, y, z))
                        one_step = False
        if one_step:
            if n < 2:
                met.update(_image(g, x) for g in symmetries)
            else:
                met.update(map(operator.itemgetter(*x), forward))
                met.update(map(operator.itemgetter(*x[::-1]), backward))
    return ConfluenceReport(True)


def check_strong_confluence_naive(
    system: RewriteSystem, max_len: int
) -> ConfluenceReport:
    """Oracle version: enumerate every word up to max_len and test all
    divergences.  Exponential; for cross-checking on small systems only."""
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    succ_or_self = _SuccessorPool(system)
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
