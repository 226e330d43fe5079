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

import collections
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .pregroup import _bits
from .rewrite import (
    _ANCHORS,
    Anchor,
    BudgetExhausted,
    RewriteSystem,
    Rule,
    _Descendants,
    _firing,
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
        return tuple(itertools.chain.from_iterable(map(self.words.__getitem__, reversed(w))))


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
    system: RewriteSystem, inverses: Optional[InverseAssignment] = None
) -> RewriteSystem:
    """The extension S-hat: for every rule l -> r and factorisation of l,
    anchored rules that move a prefix or suffix (or both) of l across.

    l = pq gives the prefix rule q -> inv(p) r and the suffix rule
    p -> r inv(q); l = puq gives the whole-word rule u -> inv(p) r inv(q).
    Requires a standard system with no length-increasing rule.
    """
    if not system.is_standard:
        raise PreconditionViolated("hat extension needs a standard system")
    if system.has_length_increasing_rules():
        raise PreconditionViolated("hat extension needs length-nonincreasing rules")
    if inverses is None:
        inverses = InverseAssignment.from_involution(system.alphabet)
    if system.has_anchored_rules():
        raise PreconditionViolated("hat extension of an anchored system")
    lengths = tuple(map(len, inverses.words))
    # (lhs, rhs, slot of the anchor in _ANCHORS) of every added rule in
    # order, repeats included; ints key them faster than Anchor members
    prefix, suffix, whole = map(_ANCHORS.index, (Anchor.PREFIX, Anchor.SUFFIX, Anchor.WHOLE))
    added = []
    for r in system.rules:
        orientations = [(r.lhs, r.rhs)]
        if r.symmetric:  # the reverse orientation factorises too
            orientations.append((r.rhs, r.lhs))
        for lhs, rhs in orientations:
            n = len(lhs)
            # inv(lhs) = inv(lhs[i:]) + inv(lhs[:i]), which splits at cut[i]
            inv = inverses.inverse_word(lhs)
            cut = [0] * (n + 1)
            for i in range(n - 1, 0, -1):
                cut[i] = cut[i + 1] + lengths[lhs[i]]
            for i in range(1, n):
                added.append((lhs[i:], inv[cut[i] :] + rhs, prefix))
                added.append((lhs[:i], rhs + inv[: cut[i]], suffix))
            for i in range(1, n):
                head = inv[cut[i] :] + rhs
                for j in range(i, n):
                    added.append((lhs[i:j], head + inv[: cut[j]], whole))
    # every added rule is anchored and S has none, so added rules can only
    # repeat one another; dict.fromkeys keeps the first of each, in order
    rules = list(system.rules)
    for lhs, rhs, slot in dict.fromkeys(added):
        if lhs != rhs:
            rules.append(Rule(lhs, rhs, _ANCHORS[slot]))
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
    seen = set()  # a standard system has no rule with an empty lhs
    for a in range(len(system.alphabet)):
        for rhs in ((a,) + inverses.of(a), inverses.of(a) + (a,)):
            if rhs not in seen:
                seen.add(rhs)
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
    successors as an ascending id list without the word itself.

    A redex of a cycle is a rule l -> rhs that fires at the start of a
    rotation l + rest, and gives the rotation rhs + rest of its successor.
    So each left-hand side's targets are read off the index once, and
    every short word l + rest, rest of at most 2m - 2 - |l| letters, takes
    rhs + rest: plain, prefix and suffix targets for every rest (a
    rotation start is a start and an end), whole-anchored ones only for
    the empty rest.  No step lengthens a word, so rhs + rest is short too,
    and _number_short_words's ids names both cycles without
    canonicalising them."""
    shorts, ids = _number_short_words(system.alphabet, system.m_of)
    top = max(0, 2 * system.m_of - 2)
    rests = [[()]]  # the words of each length that a rest can have
    for _ in range(top - min(system._lhs_lengths, default=top)):
        rests.append([r + (a,) for r in rests[-1] for a in range(len(system.alphabet))])
    got = [set() for _ in shorts]
    for lhs, slots in system._index.items():
        free = top - len(lhs)
        if free < 0:  # m(S) = 1: a letter is longer than the short words
            continue
        targets = got[ids[lhs]]
        for rhs in _firing(slots, True, True, True):
            targets.add(ids[rhs])
        anywhere = _firing(slots, True, True, False)
        for size in range(1, free + 1):
            for rest in rests[size]:
                targets = got[ids[lhs + rest]]
                for rhs in anywhere:
                    targets.add(ids[rhs + rest])
    for i, targets in enumerate(got):
        targets.discard(i)
    return shorts, [sorted(targets) for targets in got]


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

    Only the first sweep tries every pair.  Steps only grow from sweep to
    sweep, so closures only grow: a pair once resolved stays resolved, and
    a pair once added stays skipped.  So after a sweep every pair of the
    steps it read is settled.  The next sweep visits only the words that
    gained a successor in it, and tries in each only the pairs that involve
    such a successor, in the same order as a full sweep.
    """
    if not system.is_standard:
        raise PreconditionViolated("completion needs a standard system")
    if system.has_length_increasing_rules():
        raise PreconditionViolated("completion needs length-nonincreasing rules")
    shorts, base = _short_graph(system)
    added = [set() for _ in shorts]  # id -> ids of its extra pairs
    extra = []
    certificates = {}
    # the words to visit: id -> the successors it gained in the last sweep
    # (None in the first sweep, which tries every pair)
    gained = dict.fromkeys(range(len(shorts)))
    while gained:
        steps = _steps(base, added)
        clos = []
        for i, succ in enumerate(steps):
            down = 1 << i
            for s in succ:
                if s > i:
                    break
                down |= clos[s]
            clos.append(down)
        visit, gained = gained, {}
        for w in sorted(visit):
            succ, new = steps[w], visit[w]
            # v < u: u is the shortlex-larger side
            for k, v in enumerate(succ):
                down_v = clos[v]
                later = succ[k + 1 :]
                if new is not None and v not in new:
                    later = [u for u in later if u in new]
                for u in later:
                    if down_v & clos[u] or v in added[u]:
                        continue
                    added[u].add(v)
                    gained.setdefault(u, set()).add(v)
                    pair = (shorts[u], shorts[v])
                    extra.append(pair)
                    certificates[pair] = shorts[w]
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
    orientations, each certified by the first such cycle in shortlex
    order, a cycle's pairs in letter order.

    The letters one step from the cycle of a b come from the left-hand
    sides of at most two letters, read off the index once: a b or b a
    rewritten to one letter by any rule (a rotation equal to the lhs is the
    whole cycle), or a deleted by a rule that is not whole-anchored, which
    leaves b.  A left-hand side names its cycle by its least rotation
    (a, b) with a <= b."""
    if not (system.is_standard and system.is_2monadic and system.is_thue):
        raise PreconditionViolated("cdagger needs a standard 2-monadic Thue system")
    k = len(system.alphabet)
    succs = collections.defaultdict(set)  # (a, b), a <= b -> its letters one step away
    for lhs, slots in system._index.items():
        if len(lhs) == 2:
            got = {rhs[0] for rhs in _firing(slots, True, True, True) if len(rhs) == 1}
            if got:
                succs[min(lhs, lhs[::-1])] |= got
        elif len(lhs) == 1 and any(not rhs for rhs in _firing(slots, True, True, False)):
            a = lhs[0]
            for b in range(k):
                succs[min(a, b), max(a, b)].add(b)
    letters = [CyclicWord((a,)) for a in range(k)]
    certs = {}  # pair -> its first length-2 cycle
    for w in sorted(succs):
        c = CyclicWord(w)
        for x, y in itertools.permutations(sorted(succs[w]), 2):
            certs.setdefault((letters[x], letters[y]), c)
    return CyclicRuleSet(system, tuple(certs), certs)
