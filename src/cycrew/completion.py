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
import operator
from dataclasses import dataclass, field
from typing import Optional

from .pregroup import _bits
from .rewrite import (
    Anchor,
    BudgetExhausted,
    RewriteSystem,
    Rule,
    _SYMMETRIC,
    _Descendants,
    _firing,
    check_strong_confluence,
    cyclic_successors,
    reduce_greedy,
)
from .words import Alphabet, AlphabetError, CyclicWord, Word, validate_word


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
    first, which always ends, then a BFS from the cycle of w = a . inv(a)
    for the empty cycle, over cycles of at most |w| + m(S) letters, which
    stops expanding once it has seen budget cycles besides w.  budget
    bounds that search alone.

    Raises BudgetExhausted when that search ends without the empty cycle
    but the budget or the length bound left cycles out, which decides
    nothing either way; this is the rule of the confluence check's
    searches.  A budget below 1 is refused with ValueError before any
    work, as cyclic_joinable refuses it."""
    if budget <= 0:
        raise ValueError("budget must be positive")

    def steps(c):
        return cyclic_successors(c, system)

    for a in range(len(inv.alphabet)):
        w = (a,) + inv.of(a)
        if reduce_greedy(w, system) == ():
            continue
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
    Here p and q are nonempty and u may be empty.  The result is S, then
    the added rules, of each rule in order and of a symmetric rule for its
    forward orientation first, then its reverse one: for each cut l = pq,
    p shortest first, the prefix rule and then the suffix rule; then for
    each cut l = puq, p shortest first and then u shortest first, the
    whole-word rule.  An added rule equal to one added before it is
    dropped, and so is one whose two sides are equal.
    Requires a standard system with no length-increasing rule.

    Cost.  The factorisations of l, as (piece, inv(p), inv(q), anchor),
    depend on l alone.  A table that lives for the call lists them once per
    distinct left-hand side (_factorisations), so inverse_word and the cuts
    of inv(l) run once per lhs, and each orientation only joins
    inv(p) r inv(q).
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
    table = {}  # lhs -> _factorisations(lhs)
    # (lhs, rhs, anchor) of every added rule in order, repeats included
    added = []
    for r in system.rules:
        orientations = [(r.lhs, r.rhs)]
        if r.symmetric:  # the reverse orientation factorises too
            orientations.append((r.rhs, r.lhs))
        for lhs, rhs in orientations:
            pieces = table.get(lhs)
            if pieces is None:
                pieces = table[lhs] = _factorisations(lhs, inverses, lengths)
            added += [(piece, left + rhs + right, anchor) for piece, left, right, anchor in pieces]
    # every added rule is anchored and S has none, so added rules can only
    # repeat one another; dict.fromkeys keeps the first of each, in order.
    # Each is built by tuple.__new__, and RewriteSystem checks it
    new = tuple.__new__
    rules = list(system.rules)
    rules += [new(Rule, (lhs, rhs, a, False)) for lhs, rhs, a in dict.fromkeys(added) if lhs != rhs]
    return RewriteSystem(system.alphabet, rules)


def _factorisations(lhs: Word, inverses: InverseAssignment, lengths):
    """(piece, inv(p), inv(q), anchor) for each rule that hat_extension
    adds for a rule with left-hand side lhs, in its order: prefix and suffix
    rules per cut lhs = pq, then whole-word rules per cut puq.  A prefix
    rule has () for inv(q), a suffix rule () for inv(p).  lengths holds
    len(inv(a)) per letter a."""
    n = len(lhs)
    # inv(lhs) = inv(lhs[i:]) + inv(lhs[:i]), which splits at cut[i]
    inv = inverses.inverse_word(lhs)
    cut = [0] * (n + 1)
    for i in range(n - 1, 0, -1):
        cut[i] = cut[i + 1] + lengths[lhs[i]]
    out = []
    for i in range(1, n):
        out.append((lhs[i:], inv[cut[i] :], (), Anchor.PREFIX))
        out.append((lhs[:i], (), inv[: cut[i]], Anchor.SUFFIX))
    for i in range(1, n):
        left = inv[cut[i] :]
        for j in range(i, n):
            out.append((lhs[i:j], left, inv[: cut[j]], Anchor.WHOLE))
    return out


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
                rules.append(tuple.__new__(Rule, ((), rhs, Anchor.NONE, False)))
    return RewriteSystem(system.alphabet, rules)


def _number_short_words(alphabet: Alphabet, m: int):
    """(shorts, ids): the cyclic words of length at most 2m - 2 in shortlex
    order of their least rotations, and a map from every word of that length
    to the id of its cycle in shorts.

    Each length n is numbered in bulk.  The words of length n, in shortlex
    order, are the base-k codes 0 .. k^n - 1, k = |alphabet|.  Turning a
    word d r (first letter d) into r d takes code d k^(n-1) + r to r k + d,
    so the codes of the turned words, listed by the code of the word, are
    the runs d, d + k, d + 2k, ... for d = 0 .. k - 1.  A word's least
    rotation is the least code among its n turns, taken by map(min, ...), a
    cycle is numbered by the code of its least rotation, and each word takes
    the id of its least rotation's code.  No Python loop runs per word or
    per cycle, and no word is canonicalised."""
    shorts = [CyclicWord(())]
    ids = {(): 0}
    k = len(alphabet)
    for n in range(1, max(0, 2 * m - 2) + 1):
        size = k**n
        codes = range(size)
        words = list(itertools.product(range(k), repeat=n))
        turn = list(itertools.chain.from_iterable(range(d, size, k) for d in range(k)))
        least = turned = codes
        for _ in range(n - 1):
            turned = list(map(turn.__getitem__, turned))
            least = list(map(min, least, turned))
        heads = list(itertools.compress(codes, map(operator.eq, least, codes)))
        number = dict(zip(heads, itertools.count(len(shorts))))
        ids.update(zip(words, map(number.__getitem__, least)))
        shorts += map(CyclicWord, map(words.__getitem__, heads))
    return shorts, ids


@dataclass
class CyclicRuleSet:
    """A rewriting system together with extra oriented cyclic-word pairs.

    The extra pairs rewrite a whole cycle to a whole cycle.  C*
    (resolve_short_pairs) and C-dagger (cdagger) fill certificates, which
    map each added pair to the short cyclic word whose divergence forced
    it; thue_completion leaves it empty.
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
    canonicalising them.  Each word's set takes its targets' ids in one
    update, and a left-hand side of the longest short length, which has no
    rest, skips its anywhere targets."""
    shorts, ids = _number_short_words(system.alphabet, system.m_of)
    id_of = ids.__getitem__
    top = max(0, 2 * system.m_of - 2)
    got = [set() for _ in shorts]
    for lhs, slots in system._index.items():
        free = top - len(lhs)
        if free < 0:  # m(S) = 1: a letter is longer than the short words
            continue
        got[ids[lhs]].update(map(id_of, _firing(slots, True, True, True)))
        if not free:
            continue
        anywhere = _firing(slots, True, True, False)
        for size in range(1, free + 1):
            for rest in itertools.product(range(len(system.alphabet)), repeat=size):
                got[ids[lhs + rest]].update(
                    map(id_of, map(operator.add, anywhere, itertools.repeat(rest)))
                )
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

    Every sweep visits every short word in id order, and the sweeps repeat
    until one adds no pair.  Two lemmas:
    - steps only grow from sweep to sweep, so closures only grow: a pair
      once resolved stays resolved, and a pair once added resolves from the
      next sweep on.  So a later sweep adds pairs only at the words that
      gained a successor in the sweep before, and only pairs that involve
      such a successor;
    - if common, the AND of clos[s] over a word's successors, is non-zero,
      any two of them share that descendant, so every pair at the word
      resolves and the word is skipped whole (a critical-pair criterion in
      the sense of Bachmair and Dershowitz 1988).
    """
    if not system.is_standard:
        raise PreconditionViolated("completion needs a standard system")
    if system.has_length_increasing_rules():
        raise PreconditionViolated("completion needs length-nonincreasing rules")
    shorts, base = _short_graph(system)
    added = [set() for _ in shorts]  # id -> ids of its extra pairs
    extra = []
    certificates = {}
    size = -1
    while size < len(extra):
        size = len(extra)
        steps = _steps(base, added)
        clos = []
        for i, succ in enumerate(steps):
            down = 1 << i
            for s in succ:
                if s > i:
                    break
                down |= clos[s]
            clos.append(down)
        for w, succ in enumerate(steps):
            common = -1
            for s in succ:
                common &= clos[s]
            if common:
                continue
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
    return CyclicRuleSet(system, tuple(extra), certificates)


def thue_completion(system: RewriteSystem, check_confluence: bool = True):
    """The Thue completion chain C_0 subseteq ... of a strongly confluent
    standard Thue system.

    At stage i, every short cyclic word w is compared with the words w' in
    its length-preserving congruence class; a divergence w -> u, w' -> v
    with |u| >= |v| >= 1, u and v not mutually reachable, forces the pair
    (u, v); when the lengths tie, the divergence w' -> v, w -> u forces the
    flip (v, u) in the same stage.  Returns (CyclicRuleSet, stop_index),
    whose CyclicRuleSet carries no certificates; the chain stabilises no
    later than stage 2 m(S) - 2.

    extra lists the pairs stage by stage, and each stage's pairs in
    ascending order of (u, v) by shortlex order of the least rotations.
    The order depends on no hash value.

    The short words are numbered once per call in shortlex order, so the
    words of length at most L are the ids below some bound.  Length-
    preserving steps are symmetric in a Thue system (and the pairs added
    between equal lengths come in both orientations), so each stage takes a
    class as one node.  One pass visits the classes in id order, each grown
    from its least id, collecting its members' distinct successors as it
    grows.  Its reach bitset is the class and the reach of each shorter
    one, and union is its nonempty ones: one OR per distinct successor,
    not per edge.

    reach also answers the reverse question.  No step lengthens, so a v
    with |v| <= |u| that reaches u does so by length-preserving steps only;
    those are symmetric, so v lies in u's class, which reach[u] holds.
    Hence the class forces (u, v) exactly when u is a bit of union and v a
    bit of

        union & len_le[|u|] & ~reach[u]

    and its pairs are read once per bit u of union.  Two lemmas:
    - reach[u] is final when the class is reached.  u is either shorter, so
      it lies in an earlier class, or it lies in the class itself, because
      no step lengthens a word;
    - a pair added at stage k is never fresh again.  From stage k + 1 on,
      (u, v) is a step and |v| <= |u|, so v is a shorter successor of u or
      lies in u's class, and either way in reach[u].  Within a stage, the
      set keeps a pair that two classes force only once.
    No reachability search runs.

    With check_confluence=True, a BudgetExhausted from check_strong_confluence
    passes through uncaught: a cut search decides nothing, so it is never
    turned into PreconditionViolated.
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
    extra = []
    bound = 2 * system.m_of - 2
    stage = 0
    while True:
        steps = _steps(base, added)
        grown = [False] * n  # whether the word's class has been visited
        reach = [0] * n
        pairs = set()
        for i in range(n):
            if grown[i]:
                continue
            grown[i] = True
            lo = first[length[i]]
            group = [i]
            r = succ = 0
            outs = set()  # the members' distinct successors
            for c in group:
                r |= 1 << c
                outs.update(steps[c])
                for s in steps[c]:
                    if s >= lo and not grown[s]:
                        grown[s] = True
                        group.append(s)
            for s in outs:
                succ |= 1 << s
                if s < lo:
                    r |= reach[s]
            for c in group:
                reach[c] = r
            union = succ & ~1  # id 0 is the empty word
            for u in _bits(union):
                pairs.update((u, v) for v in _bits(union & len_le[length[u]] & ~reach[u]))
        if not pairs:
            return CyclicRuleSet(system, tuple(extra)), stage
        for u, v in sorted(pairs):
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

    Only a shortening rule takes a cycle of two letters to a letter, and
    in a Thue system those are the rules that are not symmetric, so the
    letters one step from the cycle of a b are read off those rules once: a
    b or b a rewritten to one letter by any rule (a rotation equal to the
    lhs is the whole cycle), or a deleted by a rule that is not
    whole-anchored, which leaves b.  No symmetric rule is read.  A
    left-hand side names its cycle by its least rotation (a, b) with
    a <= b."""
    if not (system.is_standard and system.is_2monadic and system.is_thue):
        raise PreconditionViolated("cdagger needs a standard 2-monadic Thue system")
    k = len(system.alphabet)
    succs = collections.defaultdict(set)  # (a, b), a <= b -> its letters one step away
    for lhs, rhs, anchor, _symmetric in itertools.filterfalse(_SYMMETRIC, system.rules):
        if len(lhs) == 2:
            if len(rhs) == 1:
                succs[min(lhs, lhs[::-1])].add(rhs[0])
        elif anchor is not Anchor.WHOLE:  # a 1-letter lhs: it shortens to ()
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
