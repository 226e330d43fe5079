"""Completion constructions for rewriting systems on cyclic words.

Given a standard system S, the hat extension adds anchored rules obtained by
moving a factor of a left-hand side to the other side via a formal inverse
assignment, the circle extension adds free insertion of inverse pairs, and
the completions resolve short critical pairs between cyclic words either by
shortlex orientation (resolve_short_pairs) or by saturating the Thue
congruence on short cyclic words (thue_completion).  For 2-monadic Thue
systems, cdagger collects the letter-to-letter pairs forced on cycles of
length two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .pregroup import _bits
from .rewrite import (
    Anchor,
    BudgetExhausted,
    RewriteSystem,
    Rule,
    _cyclic_redexes,
    _Descendants,
    check_strong_confluence,
    cyclic_successors,
    reduce_greedy,
)
from .words import Alphabet, AlphabetError, CyclicWord, Word, rotations, validate_word


class PreconditionViolated(ValueError):
    pass


@dataclass(frozen=True)
class InverseAssignment:
    """A word-valued formal inverse for each letter.

    ``words[i]`` is the word assigned to letter i; the defining property is
    that a followed by its assigned inverse rewrites to the empty word.
    """

    alphabet: Alphabet
    words: tuple  # letter index -> Word

    def __post_init__(self):
        if len(self.words) != len(self.alphabet):
            raise AlphabetError(
                f"{len(self.words)} inverse words for {len(self.alphabet)} letters"
            )
        for w in self.words:
            validate_word(w, self.alphabet)

    @classmethod
    def from_involution(cls, alphabet: Alphabet) -> "InverseAssignment":
        return cls(alphabet, tuple((alphabet.involution[i],) for i in range(len(alphabet))))

    def of(self, letter: int) -> Word:
        return self.words[letter]

    def inverse_word(self, w: Word) -> Word:
        out = ()
        for letter in reversed(w):
            out += self.words[letter]
        return out


def check_inverse_assignment(
    inv: InverseAssignment, system: RewriteSystem, budget: int = 10_000
) -> bool:
    """Each a . inv(a) must rewrite to the empty word: greedy reduction
    first, then a BFS from the cycle of w = a . inv(a) for the empty cycle,
    over cycles of at most |w| + m(S) letters, which stops expanding once
    it has seen budget cycles besides w.

    Raises BudgetExhausted when that search ends without the empty cycle
    but the budget or the length bound left cycles out, which decides
    nothing either way; this is the rule of the confluence check's
    searches."""

    def steps(c):
        return cyclic_successors(c, system)

    for a in range(len(inv.alphabet)):
        w = (a,) + inv.of(a)
        try:
            if reduce_greedy(w, system, budget) == ():
                continue
        except BudgetExhausted:
            pass
        cap = len(w) + system.m_of
        search = _Descendants(CyclicWord.of(w), steps, cap, budget + 1)
        if search.meets({CyclicWord.of(())}):
            continue
        if search.cut:
            raise BudgetExhausted(
                f"no verdict on {w} within {budget} cycles of at most {cap} letters"
            )
        return False
    return True


def hat_extension(
    system: RewriteSystem,
    inverses: Optional[InverseAssignment] = None,
    allow_nonterminating: bool = False,
) -> RewriteSystem:
    """The extension S-hat: for every rule l -> r and factorisation of l,
    anchored rules that move a prefix or suffix (or both) of l across.

    l = pq gives the prefix rule q -> inv(p) r and the suffix rule
    p -> r inv(q); l = puq gives the whole-word rule u -> inv(p) r inv(q).
    Requires a standard system with, by default, no length-increasing rule
    (pass allow_nonterminating to override the termination guard).
    """
    if not system.is_standard:
        raise PreconditionViolated("hat extension needs a standard system")
    if system.has_length_increasing_rules() and not allow_nonterminating:
        raise PreconditionViolated(
            "system has length-increasing rules; pass allow_nonterminating"
        )
    if inverses is None:
        inverses = InverseAssignment.from_involution(system.alphabet)
    rules = list(system.rules)
    seen = {(r.lhs, r.rhs, r.anchor) for r in rules}

    def add(lhs, rhs, anchor):
        key = (lhs, rhs, anchor)
        if lhs != rhs and key not in seen:
            seen.add(key)
            rules.append(Rule(lhs, rhs, anchor))

    for r in system.rules:
        if r.anchor is not Anchor.NONE:
            raise PreconditionViolated("hat extension of an anchored system")
        orientations = [(r.lhs, r.rhs)]
        if r.symmetric:  # the reverse orientation factorises too
            orientations.append((r.rhs, r.lhs))
        for lhs, rhs in orientations:
            n = len(lhs)
            for cut in range(1, n):
                p, q = lhs[:cut], lhs[cut:]
                add(q, inverses.inverse_word(p) + rhs, Anchor.PREFIX)
                add(p, rhs + inverses.inverse_word(q), Anchor.SUFFIX)
            for i in range(1, n):
                for j in range(i, n):
                    p, u, q = lhs[:i], lhs[i:j], lhs[j:]
                    add(
                        u,
                        inverses.inverse_word(p) + rhs + inverses.inverse_word(q),
                        Anchor.WHOLE,
                    )
    return RewriteSystem(system.alphabet, rules)


def circle_extension(
    system: RewriteSystem, inverses: Optional[InverseAssignment] = None
) -> RewriteSystem:
    """S-circle: S plus the insertion rules 1 -> a inv(a) for every letter
    (both orders, deduplicated)."""
    if not system.is_standard:
        raise PreconditionViolated("circle extension needs a standard system")
    if inverses is None:
        inverses = InverseAssignment.from_involution(system.alphabet)
    rules = list(system.rules)
    seen = {(r.lhs, r.rhs, r.anchor) for r in rules}
    for a in range(len(system.alphabet)):
        for rhs in ((a,) + inverses.of(a), inverses.of(a) + (a,)):
            key = ((), rhs, Anchor.NONE)
            if key not in seen:
                seen.add(key)
                rules.append(Rule((), rhs))
    return RewriteSystem(system.alphabet, rules)


def _number_short_words(alphabet: Alphabet, m: int):
    """(shorts, ids): the cyclic words of length at most 2m - 2 in shortlex
    order of their least rotations, and a map from every word of that length
    to the id of its cycle in shorts.

    One pass walks the words in shortlex order.  The least rotation of a
    cycle is the first of its rotations that the walk meets, so a word that
    ids does not hold yet is the least rotation of a new cycle: it takes the
    next id, and so do all its rotations.  No word is canonicalised."""
    shorts = []
    ids = {}
    k = len(alphabet)
    for n in range(max(0, 2 * m - 2) + 1):
        for w in itertools.product(range(k), repeat=n):
            if w not in ids:
                ids.update(dict.fromkeys(rotations(w), len(shorts)))
                shorts.append(CyclicWord(w))
    return shorts, ids


def enumerate_short_cyclic_words(alphabet: Alphabet, m: int):
    """All cyclic words of length at most 2m - 2, sorted shortlex by
    canonical rotation."""
    return _number_short_words(alphabet, m)[0]


@dataclass
class CyclicRuleSet:
    """A rewriting system together with extra oriented cyclic-word pairs.

    The extra pairs rewrite a whole cycle to a whole cycle; certificates map
    each added pair to the short cyclic word whose divergence forced it.
    A plain record: one_step reads the fields as they are at each call.
    It is not frozen because bench/selftest.py reassigns extra on a
    result to check that the benchmark rejects a corrupted one.
    """

    base: RewriteSystem
    extra: tuple = ()  # oriented (CyclicWord, CyclicWord) pairs
    certificates: dict = field(default_factory=dict)

    def one_step(self, c: CyclicWord):
        """The cyclic words other than c one step away from c: its
        successors in the base system and the v of its extra pairs (c, v),
        as a new set."""
        got = set(cyclic_successors(c, self.base))
        got.update(v for u, v in self.extra if u == c)
        got.discard(c)
        return got


def _short_graph(system: RewriteSystem):
    """(shorts, succ): the short cyclic words of system in shortlex order,
    so that a smaller id is a shortlex-smaller word, and each word's
    successors as an ascending id list without the word itself.  No step
    lengthens a word, so every redex of a short word is a rotation of a
    short word, and _number_short_words's ids names its cycle without
    canonicalising it."""
    shorts, ids = _number_short_words(system.alphabet, system.m_of)
    succ = []
    for i, c in enumerate(shorts):
        got = set(map(ids.__getitem__, _cyclic_redexes(c.canon, system)))
        got.discard(i)
        succ.append(sorted(got))
    return shorts, succ


def _steps(base: list, added: list):
    """Each short word's successors as an ascending id list: base[i], its
    successors in the base system, and the set added[i], its extra pairs."""
    return [sorted(a.union(b)) if a else b for b, a in zip(base, added)]


def _closure(start: CyclicWord, step, cache: dict):
    """All cyclic words reachable from start by repeated steps, start
    included, memoised in cache under start.  The steps must reach finitely
    many words (true on short words when no step lengthens); callers must
    not mutate the returned set."""
    got = cache.get(start)
    if got is not None:
        return got
    closure = {start}
    stack = [start]
    while stack:
        for s in step(stack.pop()):
            if s not in closure:
                closure.add(s)
                stack.append(s)
    cache[start] = closure
    return closure


# Nothing in the library or its tests calls _closure or its aliases: C*
# and the Thue completion read reachability off bitsets.  The names stay
# bound only because bench/tracing.py patches the two aliases by name
# (tests/test_bench_tracer.py checks that they resolve); they can go once
# the tracer targets the code that does the work now.
_descending_closure = _thue_reachable = _closure


def resolve_short_pairs(system: RewriteSystem) -> CyclicRuleSet:
    """C*(S): add shortlex-oriented cyclic pairs until every short critical
    pair resolves through the descending part.

    A critical pair is two distinct one-step cyclic successors u, v of a
    short cyclic word; it is resolved when the descending closures of u and
    v meet.  Unresolved pairs are added (larger side first) and the sweep
    repeats to a fixpoint.

    The short words are numbered once per call in shortlex order, so a
    descending step goes to a smaller id and id order is a topological order
    of the descending steps.  Each sweep builds every descending closure as
    a bitset in id order, clos[i] = bit i | OR of clos[s] over the steps
    s < i, and a pair is resolved when clos[u] & clos[v] != 0.  The
    successors of a word are visited in id order, which is shortlex order.
    No closure search runs.
    """
    if not system.is_standard:
        raise PreconditionViolated("completion needs a standard system")
    if system.has_length_increasing_rules():
        raise PreconditionViolated("completion needs length-nonincreasing rules")
    shorts, base = _short_graph(system)
    added = [set() for _ in shorts]  # id -> ids of its extra pairs
    extra = []
    certificates = {}
    while True:
        steps = _steps(base, added)
        clos = []
        for i, succ in enumerate(steps):
            down = 1 << i
            for s in succ:
                if s > i:
                    break
                down |= clos[s]
            clos.append(down)
        changed = False
        for w, succ in enumerate(steps):
            # v < u: u is the shortlex-larger side
            for k, v in enumerate(succ):
                down_v = clos[v]
                for u in succ[k + 1 :]:
                    if down_v & clos[u] or v in added[u]:
                        continue
                    added[u].add(v)
                    pair = (shorts[u], shorts[v])
                    extra.append(pair)
                    certificates[pair] = shorts[w]
                    changed = True
        if not changed:
            return CyclicRuleSet(system, tuple(extra), certificates)


def thue_completion(system: RewriteSystem, check_confluence: bool = True):
    """The Thue completion chain C_0 subseteq ... of a strongly confluent
    standard Thue system.

    At stage i, every short cyclic word w is compared with the words w' in
    its length-preserving congruence class; a divergence w -> u, w' -> v
    with |u| >= |v| >= 1, u and v not mutually reachable, forces the pair
    (u, v); when the lengths tie, the divergence w' -> v, w -> u forces the
    flip (v, u) in the same stage.  Returns (CyclicRuleSet, stop_index);
    the chain stabilises no later than stage 2 m(S) - 2.

    extra lists the pairs stage by stage, and each stage's pairs in
    ascending order of (u, v) by shortlex order of the least rotations.
    The order depends on no hash value.

    The short words are numbered once per call in shortlex order, so the
    words of length at most L are the ids below some bound.  Length-
    preserving steps are symmetric in a Thue system (and the pairs added
    between equal lengths come in both orientations), so each stage takes a
    class as one node: its reach bitset is the class plus the reach of the
    shorter successors of its members, built by increasing length.

    reach also answers the reverse question.  No step lengthens, so a v
    with |v| <= |u| that reaches u does so by length-preserving steps only;
    those are symmetric, so v lies in u's class, which reach[u] holds.
    Hence a member w forces (u, v) exactly when u is a nonempty successor
    of w and v a bit of

        union & len_le[|u|] & ~(reach[u] | seen_from[u])

    where union holds the nonempty successors of w's class and seen_from[u]
    the v of the pairs (u, v) added so far.  The steps, and so union and
    reach, stay fixed within a stage, and seen_from only keeps a pair from
    being added twice, so the set of a stage's pairs does not depend on the
    order in which the words are visited.  No reachability search runs.
    """
    if not (system.is_standard and system.is_thue):
        raise PreconditionViolated("thue completion needs a standard Thue system")
    if check_confluence and not check_strong_confluence(system):
        raise PreconditionViolated("thue completion needs strong confluence")
    shorts, base = _short_graph(system)
    n = len(shorts)
    length = [len(c) for c in shorts]
    first = [0] * (length[-1] + 2)  # the ids of length L are first[L] .. first[L + 1] - 1
    for i, size in enumerate(length):
        first[size + 1] = i + 1
    len_le = [(1 << end) - 1 for end in first[1:]]  # the ids of length at most L
    added = [set() for _ in shorts]  # id -> ids of its extra pairs
    seen_from = [0] * n  # id u -> the ids v of the pairs (u, v) added so far
    extra = []
    bound = 2 * system.m_of - 2
    stage = 0
    while True:
        steps = _steps(base, added)
        cls = [-1] * n
        members = []  # class -> ids, by increasing length
        for i in range(n):
            if cls[i] < 0:
                lo = first[length[i]]
                cls[i] = len(members)
                group = [i]
                for c in group:
                    for s in steps[c]:
                        if s >= lo and cls[s] < 0:
                            cls[s] = cls[i]
                            group.append(s)
                members.append(group)
        reach = [0] * n
        union = []  # class -> its members' nonempty successors
        for group in members:
            lo = first[length[group[0]]]
            r = succ = 0
            for c in group:
                r |= 1 << c
                for s in steps[c]:
                    succ |= 1 << s
                    if s < lo:
                        r |= reach[s]
            for c in group:
                reach[c] = r
            union.append(succ & ~1)  # id 0 is the empty word
        new_pairs = []
        for w in range(1, n):
            mask = union[cls[w]]
            for u in steps[w]:
                # empty for u = 0: len_le[0] holds id 0 alone, which union leaves out
                fresh = mask & len_le[length[u]] & ~(reach[u] | seen_from[u])
                if not fresh:
                    continue
                seen_from[u] |= fresh
                new_pairs += [(u, v) for v in _bits(fresh)]
        if not new_pairs:
            return CyclicRuleSet(system, tuple(extra)), stage
        new_pairs.sort()
        for u, v in new_pairs:
            added[u].add(v)
            extra.append((shorts[u], shorts[v]))
        stage += 1
        if stage > bound:
            raise RuntimeError("completion chain exceeded 2 m(S) - 2 stages")


def cdagger(system: RewriteSystem) -> CyclicRuleSet:
    """C-dagger for a 2-monadic Thue system: pairs of distinct letters both
    reachable in one cyclic step from a common length-2 cycle, both
    orientations.  Each length-2 cycle is visited once, as its least
    rotation (a, b) with a <= b: the word (b, a) is the same cycle."""
    if not (system.is_standard and system.is_2monadic and system.is_thue):
        raise PreconditionViolated("cdagger needs a standard 2-monadic Thue system")
    certs = {}  # pair -> its first length-2 cycle, in the order found
    k = len(system.alphabet)
    letters = [CyclicWord((a,)) for a in range(k)]
    for w in itertools.combinations_with_replacement(range(k), 2):
        # the length-1 redexes: a length-2 lhs with a 1-letter rhs, or a
        # length-1 lhs with an empty rhs
        succs = sorted({r[0] for r in _cyclic_redexes(w, system) if len(r) == 1})
        c = CyclicWord(w)
        for x, y in itertools.permutations(succs, 2):
            certs.setdefault((letters[x], letters[y]), c)
    return CyclicRuleSet(system, tuple(certs), certs)
