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

from .rewrite import (
    Anchor,
    BudgetExhausted,
    RewriteSystem,
    Rule,
    cyclic_joinable,
    cyclic_successors,
    reduce_greedy,
    word_successors,
)
from .words import Alphabet, CyclicWord, Word, involute, shortlex_key


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
    first, then a bounded joinability search with the empty cycle.

    Raises BudgetExhausted when that search runs out of budget, which
    decides nothing either way."""
    for a in range(len(inv.alphabet)):
        w = (a,) + inv.of(a)
        try:
            if reduce_greedy(w, system, budget) == ():
                continue
        except BudgetExhausted:
            pass
        res = cyclic_joinable(
            CyclicWord.of(w), CyclicWord.of(()), system, budget,
            max_len=len(w) + system.m_of,
        )
        if res.status == "exhausted":
            raise BudgetExhausted(f"no verdict on {w} within {budget} nodes")
        if res.status != "joinable" or res.witness != CyclicWord.of(()):
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


def enumerate_short_cyclic_words(alphabet: Alphabet, m: int):
    """All cyclic words of length at most 2m - 2, sorted shortlex by
    canonical rotation."""
    out = set()
    k = len(alphabet)
    for n in range(max(0, 2 * m - 2) + 1):
        for w in itertools.product(range(k), repeat=n):
            out.add(CyclicWord.of(w))
    return sorted(out, key=lambda c: shortlex_key(c.canon))


@dataclass
class CyclicRuleSet:
    """A rewriting system together with extra oriented cyclic-word pairs.

    The extra pairs rewrite a whole cycle to a whole cycle; certificates map
    each added pair to the short cyclic word whose divergence forced it.
    """

    base: RewriteSystem
    extra: tuple = ()  # oriented (CyclicWord, CyclicWord) pairs
    certificates: dict = field(default_factory=dict)

    def _extra_index(self):
        idx = getattr(self, "_extra_idx", None)
        if idx is None:
            idx = {}
            for u, v in self.extra:
                idx.setdefault(u, set()).add(v)
            self._extra_idx = idx
        return idx

    def one_step(self, c: CyclicWord):
        """The cyclic words other than c one step away from c: its
        successors in the base system and its extra pairs."""
        return _stepper(self, {})(c)

    def one_step_descending(self, c: CyclicWord):
        key = shortlex_key(c.canon)
        return {s for s in self.one_step(c) if shortlex_key(s.canon) < key}


def _stepper(crs: CyclicRuleSet, base: dict):
    """crs.one_step, memoised.  base maps a cyclic word to its
    cyclic_successors in crs.base and is shared by every rule set over that
    base; the step also memoises its own results, which stay valid while
    crs.extra is unchanged.  Callers must not mutate the returned sets."""
    extra = crs._extra_index()
    memo = {}

    def step(c: CyclicWord):
        got = memo.get(c)
        if got is None:
            succ = base.get(c)
            if succ is None:
                succ = base[c] = cyclic_successors(c, crs.base)
            got = memo[c] = set(succ)
            got.update(extra.get(c, ()))
            got.discard(c)
        return got

    return step


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


# bench/tracing.py counts closure searches and their cache hits through
# these two names, so the engines below call the helper by them.
_descending_closure = _thue_reachable = _closure


def resolve_short_pairs(system: RewriteSystem) -> CyclicRuleSet:
    """C*(S): add shortlex-oriented cyclic pairs until every short critical
    pair resolves through the descending part.

    A critical pair is two distinct one-step cyclic successors u, v of a
    short cyclic word; it is resolved when the descending closures of u and
    v meet.  Unresolved pairs are added (larger side first) and the sweep
    repeats to a fixpoint.  The successors in S are computed once per call
    and shared by every sweep; each sweep memoises its own steps and
    descending closures.
    """
    if not system.is_standard:
        raise PreconditionViolated("completion needs a standard system")
    if system.has_length_increasing_rules():
        raise PreconditionViolated("completion needs length-nonincreasing rules")
    shorts = enumerate_short_cyclic_words(system.alphabet, system.m_of)
    base = {}
    extra = []
    seen_pairs = set()
    certificates = {}
    while True:
        crs = CyclicRuleSet(system, tuple(extra), certificates)
        step = _stepper(crs, base)

        def down(c):
            key = shortlex_key(c.canon)
            return [s for s in step(c) if shortlex_key(s.canon) < key]

        cache = {}
        changed = False
        for w in shorts:
            succs = sorted(step(w), key=lambda c: shortlex_key(c.canon))
            for a in range(len(succs)):
                for b in range(a + 1, len(succs)):
                    v, u = succs[a], succs[b]  # u is the shortlex-larger side
                    if (u, v) in seen_pairs:
                        continue
                    if not _descending_closure(u, down, cache).isdisjoint(
                        _descending_closure(v, down, cache)
                    ):
                        continue
                    seen_pairs.add((u, v))
                    extra.append((u, v))
                    certificates[(u, v)] = w
                    changed = True
        if not changed:
            return crs


def thue_completion(system: RewriteSystem, check_confluence: bool = True):
    """The Thue completion chain C_0 subseteq ... of a strongly confluent
    standard Thue system.

    At stage i, every short cyclic word w is compared with the words w' in
    its length-preserving congruence class; a divergence w -> u, w' -> v
    with |u| >= |v| >= 1, u and v not mutually reachable, forces the pair
    (u, v) (and its flip when lengths tie).  Returns (CyclicRuleSet,
    stop_index); the chain stabilises no later than stage 2 m(S) - 2.

    Length-preserving steps are symmetric in a Thue system (and the pairs
    added between equal lengths come in both orientations), so each class
    and the union of its members' successors are built once per stage; each
    member w then pairs its own successors against that union.  Pairs are
    added in the order a search from w meets the successors of its class,
    which is rebuilt for the few members that add pairs.  The successors in
    S are computed once per call and shared by every stage.
    """
    from .rewrite import check_strong_confluence

    if not (system.is_standard and system.is_thue):
        raise PreconditionViolated("thue completion needs a standard Thue system")
    if check_confluence and not check_strong_confluence(system):
        raise PreconditionViolated("thue completion needs strong confluence")
    shorts = enumerate_short_cyclic_words(system.alphabet, system.m_of)
    base = {}
    extra = []
    seen_pairs = set()
    bound = 2 * system.m_of - 2
    stage = 0
    while True:
        crs = CyclicRuleSet(system, tuple(extra))
        step = _stepper(crs, base)
        cache = {}

        def class_union(w):
            """w's length-preserving class, and the successors of its
            members in the order a search from w meets them."""
            n = len(w)
            cls = _closure(w, lambda c: [s for s in step(c) if len(s) == n], {})
            return cls, list(dict.fromkeys(v for c in cls for v in step(c) if len(v) >= 1))

        def fresh(u, v):
            """(u, v) is a divergence not yet added whose sides are not
            mutually reachable."""
            return not (
                u == v
                or len(u) < len(v)
                or (u, v) in seen_pairs
                or v in _thue_reachable(u, step, cache)
                or u in _thue_reachable(v, step, cache)
            )

        unions = {}  # class member -> successors of the class
        new_pairs = []
        for w in shorts:
            if len(w) == 0:
                continue
            union = unions.get(w)
            if union is None:
                cls, union = class_union(w)
                unions.update(dict.fromkeys(cls, union))
            succ_w = [u for u in step(w) if len(u) >= 1]
            if not any(fresh(u, v) for v in union for u in succ_w):
                continue
            for v in class_union(w)[1]:
                for u in succ_w:
                    if not fresh(u, v):
                        continue
                    new_pairs.append((u, v))
                    seen_pairs.add((u, v))
                    if len(u) == len(v) and (v, u) not in seen_pairs:
                        new_pairs.append((v, u))
                        seen_pairs.add((v, u))
        if not new_pairs:
            return crs, stage
        extra.extend(new_pairs)
        stage += 1
        if stage > bound:
            raise RuntimeError("completion chain exceeded 2 m(S) - 2 stages")


def cdagger(system: RewriteSystem) -> CyclicRuleSet:
    """C-dagger for a 2-monadic Thue system: pairs of distinct letters both
    reachable in one cyclic step from a common length-2 cycle, both
    orientations."""
    if not (system.is_standard and system.is_2monadic and system.is_thue):
        raise PreconditionViolated("cdagger needs a standard 2-monadic Thue system")
    pairs = []
    seen = set()
    certs = {}
    k = len(system.alphabet)
    for w in itertools.product(range(k), repeat=2):
        c = CyclicWord.of(w)
        succs = [s for s in cyclic_successors(c, system) if len(s) == 1]
        for a in range(len(succs)):
            for b in range(len(succs)):
                if a == b:
                    continue
                pair = (succs[a], succs[b])
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
                    certs[pair] = c
    return CyclicRuleSet(system, tuple(pairs), certs)
