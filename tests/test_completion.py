import collections
import functools
import hashlib
import itertools
import random

import pytest

from cycrew import completion, samples
from cycrew.completion import (
    CyclicRuleSet,
    InverseAssignment,
    PreconditionViolated,
    _number_short_words,
    _short_graph,
    cdagger,
    check_inverse_assignment,
    circle_extension,
    hat_extension,
    resolve_short_pairs,
    thue_completion,
)
from cycrew.pregroup import derive_system
from cycrew.rewrite import (
    Anchor,
    BudgetExhausted,
    ConfluenceReport,
    RewriteSystem,
    Rule,
    check_strong_confluence,
    cyclic_joinable,
    cyclic_successors,
)
from cycrew.words import Alphabet, AlphabetError, CyclicWord, rotations, shortlex_key

from conftest import corpus_pregroups, hnn_cyclic, ref_hat, ref_reach
from test_rewrite import _tested_pairs, ref_check_strong_confluence


class TestInverseAssignment:
    def test_from_involution(self):
        s = samples.free_group_system(1)
        inv = InverseAssignment.from_involution(s.alphabet)
        assert inv.of(0) == (1,)
        assert inv.inverse_word((0, 1, 0)) == (1, 0, 1)
        assert check_inverse_assignment(inv, s)

    def test_bad_assignment_rejected(self):
        s = samples.free_group_system(1)
        bad = InverseAssignment(s.alphabet, ((0,), (1,)))  # a^-1 := a
        assert not check_inverse_assignment(bad, s)

    def test_exhausted_search_is_not_a_verdict(self):
        # a a <-> b b, b b -> 1: a a reaches 1 only through b b, which a
        # budget of one node does not reach
        a = Alphabet.from_pairs("ab", [])
        s = RewriteSystem(a, [Rule((0, 0), (1, 1), symmetric=True), Rule((1, 1), ())])
        inv = InverseAssignment.from_involution(a)
        with pytest.raises(BudgetExhausted):
            check_inverse_assignment(inv, s, budget=1)
        assert check_inverse_assignment(inv, s, budget=2)

    @pytest.mark.parametrize("budget", [0, -3])
    @pytest.mark.parametrize("image", [(1,), (0,)])
    def test_budget_below_one_refused(self, budget, image):
        # refused before any work, as cyclic_joinable refuses it, whether
        # greedy reduction would decide (a^-1 := A) or the search would
        # run (a^-1 := a); BudgetExhausted is left to a search that was cut
        s = samples.free_group_system(1)
        inv = InverseAssignment(s.alphabet, (image, (0,)))
        with pytest.raises(ValueError, match="budget must be positive"):
            check_inverse_assignment(inv, s, budget=budget)

    def test_greedy_reduction_out_of_budget_leaves_the_verdict_to_the_search(self):
        # the budget bounds the cycle search alone: without a A -> 1,
        # greedy reduction takes a A to 1 in two steps, a -> 1 then A -> 1,
        # more than a budget of one, and that decides
        a = Alphabet.from_pairs("aA", [("a", "A")])
        w = a.word
        rules = [Rule(w("a"), ()), Rule(w("A"), ()), Rule(w("aA"), ())]
        inv = InverseAssignment.from_involution(a)
        assert check_inverse_assignment(inv, RewriteSystem(a, rules), budget=1)
        assert check_inverse_assignment(inv, RewriteSystem(a, rules[:2]), budget=1)

    def test_meeting_elsewhere_is_no_counterexample(self):
        # a A -> b b -> 1, but 1 -> b b also reaches b b from the empty
        # cycle, where a search for a common descendant can meet first
        a = Alphabet.from_pairs("aAbc", [("a", "A")])
        w = a.word
        rules = [
            Rule(w("aA"), w("bb")),
            Rule(w("aA"), w("cc")),
            Rule(w("Aa"), w("bb")),
            Rule(w("bb"), ()),
            Rule(w("cc"), ()),
            Rule((), w("bb")),
        ]
        inv = InverseAssignment.from_involution(a)
        assert check_inverse_assignment(inv, RewriteSystem(a, rules))
        assert check_inverse_assignment(inv, RewriteSystem(a, rules[:-1]))

    def test_pruned_search_is_not_a_verdict(self):
        # a a reaches 1 only through b^5, longer than |a a| + m(S) = 4
        a = Alphabet.from_pairs("ab", [])
        s = RewriteSystem(a, [Rule((0, 0), (1,) * 5), Rule((1,), ())])
        with pytest.raises(BudgetExhausted):
            check_inverse_assignment(InverseAssignment.from_involution(a), s)

    def test_letter_out_of_range_rejected(self):
        s = samples.free_group_system(1)
        with pytest.raises(AlphabetError, match="out of range"):
            InverseAssignment(s.alphabet, ((1,), (7,)))

    def test_one_word_per_letter_required(self):
        s = samples.free_group_system(1)
        with pytest.raises(AlphabetError, match="1 inverse words for 2 letters"):
            InverseAssignment(s.alphabet, ((1,),))

    def test_word_valued_inverses(self):
        # Z3 presented on one letter: aaa -> 1, inverse of a is aa
        a = Alphabet.from_pairs("a", [])
        s = RewriteSystem(a, [Rule((0, 0, 0), ())])
        inv = InverseAssignment(a, ((0, 0),))
        assert check_inverse_assignment(inv, s)


class TestHatExtension:
    def test_free_group_shape(self):
        s = samples.free_group_system(2)
        hat = hat_extension(s)
        assert len(hat.rules) == 8
        anchored = [r for r in hat.rules if r.anchor is not Anchor.NONE]
        # each rule a A -> 1 contributes exactly the whole rule 1 -> A a
        # (the prefix/suffix factorisations collapse to identities)
        assert all(r.anchor is Anchor.WHOLE and r.lhs == () for r in anchored)
        assert len(anchored) == 4

    def test_longer_lhs_factorisations(self):
        a = Alphabet.from_pairs("aAbB", [("a", "A"), ("b", "B")])
        s = RewriteSystem(a, [Rule(a.word("aab"), a.word("b"))])
        hat = hat_extension(s)
        by_anchor = {}
        for r in hat.rules:
            by_anchor.setdefault(r.anchor, []).append(r)
        # cuts: a|ab and aa|b give prefix and suffix rules
        assert (a.word("ab"), a.word("Ab")) in [
            (r.lhs, r.rhs) for r in by_anchor[Anchor.PREFIX]
        ]
        assert (a.word("aa"), a.word("bB")) in [
            (r.lhs, r.rhs) for r in by_anchor[Anchor.SUFFIX]
        ]
        # middle factor a with p = a, q = b
        assert (a.word("a"), a.word("AbB")) in [
            (r.lhs, r.rhs) for r in by_anchor[Anchor.WHOLE]
        ]

    def test_symmetric_rule_factorises_both_orientations(self):
        # the reverse orientation bab -> aba factorises after aba -> bab,
        # and only its new rules are added
        a = Alphabet.from_pairs("ab", [])
        s = RewriteSystem(
            a, [Rule(a.word("aa"), ()), Rule(a.word("aba"), a.word("bab"), symmetric=True)]
        )
        hat = hat_extension(s)
        assert [(a.format(r.lhs), a.format(r.rhs), r.anchor.value) for r in hat.rules] == [
            ("a a", "", "none"),
            ("a b a", "b a b", "none"),
            ("", "a a", "whole"),
            ("b a", "a b a b", "prefix"),
            ("a", "b a b a b", "suffix"),
            ("a", "b a b a b", "prefix"),
            ("a b", "b a b a", "suffix"),
            ("", "a b a b a b", "whole"),
            ("b", "a b a b a", "whole"),
            ("", "b a b a b a", "whole"),
            ("a b", "b a b a", "prefix"),
            ("b", "a b a b a", "suffix"),
            ("b", "a b a b a", "prefix"),
            ("b a", "a b a b", "suffix"),
            ("a", "b a b a b", "whole"),
        ]
        assert [r.symmetric for r in hat.rules[:2]] == [False, True]

    def test_needs_standard_system(self):
        a = Alphabet.from_pairs("ab", [])
        with pytest.raises(PreconditionViolated):
            hat_extension(RewriteSystem(a, [Rule((0,), ())]))

    def test_rejects_anchored_input(self):
        a = Alphabet.from_pairs("aA", [("a", "A")])
        s = RewriteSystem(a, [Rule(a.word("aA"), (), Anchor.PREFIX)])
        with pytest.raises(PreconditionViolated):
            hat_extension(s)

    def test_growth_guard(self):
        s = samples.growing_cycle_system()
        with pytest.raises(PreconditionViolated, match="^hat extension needs length-nonincreasing rules$"):
            hat_extension(s)

    def test_word_valued_inverses(self):
        # Z3 on one letter, aaa -> 1 with inv(a) = aa, so inv(aaa) = a^6.
        # aaa = p q: q -> inv(p) and p -> inv(q); aaa = p u q: u -> inv(p)
        # inv(q).  Each cut gives its prefix rule, then its suffix rule:
        # aa -> aa (dropped), a -> a^4, then a -> a^4, aa -> aa (dropped);
        # the whole rules 1 -> a^6, a -> a^4, then 1 -> a^6 again
        a = Alphabet.from_pairs("a", [])
        s = RewriteSystem(a, [Rule((0, 0, 0), ())])
        hat = hat_extension(s, InverseAssignment(a, ((0, 0),)))
        assert hat.rules == (
            Rule((0, 0, 0), ()),
            Rule((0,), (0,) * 4, Anchor.SUFFIX),
            Rule((0,), (0,) * 4, Anchor.PREFIX),
            Rule((), (0,) * 6, Anchor.WHOLE),
            Rule((0,), (0,) * 4, Anchor.WHOLE),
        )

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 3)])
    def test_matches_reference_on_s_eps(self, n, k):
        # S_eps(HNN(Z4, Z2)) and S_eps(HNN(Z6, Z3)): 1,321 and 4,447 rules,
        # many sharing a left-hand side, some symmetric
        s = derive_system(hnn_cyclic(n, k), "S_eps")
        assert list(hat_extension(s).rules) == ref_hat(s, InverseAssignment.from_involution(s.alphabet))

    def test_matches_reference_on_random_systems(self):
        # standard systems with no length-increasing rule, and formal
        # inverses of 0-2 letters each, which need not be inverses at all
        rng = random.Random(20450)
        seen = collections.Counter()
        for _ in range(300):
            a = Alphabet.from_pairs(rng.choice(["ab", "abc"]), [])

            def word(n):
                return tuple(rng.randrange(len(a)) for _ in range(n))

            m = rng.randint(2, 4)
            rules = [Rule(word(m), word(rng.randint(0, m)))]
            for _ in range(rng.randint(0, 4)):
                n = rng.randint(1, m)
                if rng.random() < 0.3:
                    rules.append(Rule(word(n), word(n), symmetric=True))
                else:
                    rules.append(Rule(word(n), word(rng.randint(0, n))))
            s = RewriteSystem(a, rules)
            inverses = InverseAssignment(a, tuple(word(rng.randint(0, 2)) for _ in a.letters))
            got = list(hat_extension(s, inverses).rules)
            assert got == ref_hat(s, inverses), (s.rules, inverses.words)
            orientations = [r.lhs for r in s.rules] + [r.rhs for r in s.rules if r.symmetric]
            made = sum(2 * (len(l) - 1) + len(l) * (len(l) - 1) // 2 for l in orientations)
            seen["dropped"] += len(got) < len(s.rules) + made
            seen["shared lhs"] += len(set(orientations)) < len(orientations)
            seen["symmetric"] += any(r.symmetric for r in s.rules)
            seen["empty inverse"] += () in inverses.words
        assert min(seen.values()) >= 20 and len(seen) == 4, seen


class TestCircleExtension:
    def test_free_group_shape(self):
        s = samples.free_group_system(2)
        circle = circle_extension(s)
        inserts = [r for r in circle.rules if r.lhs == ()]
        assert len(circle.rules) == 8
        assert len(inserts) == 4
        assert all(r.anchor is Anchor.NONE for r in inserts)
        rhss = {r.rhs for r in inserts}
        a = s.alphabet
        assert a.word("aA") in rhss and a.word("Aa") in rhss

    def test_needs_standard_system(self):
        a = Alphabet.from_pairs("ab", [])
        with pytest.raises(PreconditionViolated):
            circle_extension(RewriteSystem(a, [Rule((0,), ())]))

    def test_word_valued_inverses(self):
        # Z3 on one letter, aaa -> 1 with inv(a) = aa: a inv(a) and inv(a) a
        # are both aaa, so one insertion rule is added
        a = Alphabet.from_pairs("a", [])
        s = RewriteSystem(a, [Rule((0, 0, 0), ())])
        circle = circle_extension(s, InverseAssignment(a, ((0, 0),)))
        assert circle.rules == (Rule((0, 0, 0), ()), Rule((), (0, 0, 0)))

    def test_joins_conjugates_of_the_empty_class(self):
        s = samples.free_group_system(2)
        circle = circle_extension(s)
        a = s.alphabet
        res = cyclic_joinable(
            CyclicWord.of(a.word("abBA")),
            CyclicWord.of(()),
            circle,
            max_len=6,
        )
        assert res.status == "joinable"


class TestEnumerateShorts:
    def test_counts(self):
        a = Alphabet.from_pairs("ab", [])
        # lengths 0..2 over two letters: (), a, b, aa, ab, bb
        shorts = _number_short_words(a, 2)[0]
        assert [c.canon for c in shorts] == [
            (),
            (0,),
            (1,),
            (0, 0),
            (0, 1),
            (1, 1),
        ]

    def test_sorted_shortlex(self):
        a = Alphabet.from_pairs("abc", [])
        shorts = _number_short_words(a, 3)[0]
        keys = [(len(c.canon), c.canon) for c in shorts]
        assert keys == sorted(keys)
        assert max(len(c) for c in shorts) == 4

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_brute_force(self, k):
        # the bulk numbering against canonicalising every word; ids must
        # send every short word, periodic ones like (ab)^k included, to the
        # index of its least rotation
        a = Alphabet.from_pairs("abcd"[:k], [])
        for m in range(5):
            words = [
                w
                for n in range(max(0, 2 * m - 2) + 1)
                for w in itertools.product(range(k), repeat=n)
            ]
            want = ref_shorts(a, m)
            # a rule a^m -> () gives the system m(S) = m (no rule at all for m = 0)
            s = RewriteSystem(a, [Rule((0,) * m, ())] if m else [])
            assert _short_graph(s)[0] == want
            shorts, ids = _number_short_words(a, m)
            assert shorts == want
            index = {c: i for i, c in enumerate(want)}
            assert ids == {w: index[CyclicWord.of(w)] for w in words}


class TestCyclicRuleSet:
    def test_one_step_merges_base_and_extra(self):
        s = samples.four_letter_cycle_system()
        a = s.alphabet
        u = CyclicWord.of(a.word("acdb"))
        v = CyclicWord.of(a.word("abdc"))
        crs = CyclicRuleSet(s, ((u, v),))
        assert v in crs.one_step(u)

    def test_one_step_reads_reassigned_extra_pairs(self):
        s = samples.free_group_system(1)
        a, big_a = CyclicWord.of((0,)), CyclicWord.of((1,))
        crs = CyclicRuleSet(s)
        assert crs.one_step(a) == set()
        crs.extra = ((a, big_a),)
        assert crs.one_step(a) == {big_a} == CyclicRuleSet(s, ((a, big_a),)).one_step(a)
        crs.extra = ()
        assert crs.one_step(a) == set()


class TestResolveShortPairs:
    def test_four_letter_example(self):
        s = samples.four_letter_cycle_system()
        a = s.alphabet
        crs = resolve_short_pairs(s)
        u = CyclicWord.of(a.word("acdb"))
        v = CyclicWord.of(a.word("abdc"))
        assert crs.extra == ((u, v),)
        # the divergence that forced the pair comes from the 4-cycle
        assert crs.certificates[(u, v)] == CyclicWord.of(a.word("abcd"))

    def test_already_confluent_system_needs_nothing(self):
        crs = resolve_short_pairs(samples.free_group_system(2))
        assert crs.extra == ()

    def test_needs_standard_nonincreasing(self):
        with pytest.raises(PreconditionViolated):
            resolve_short_pairs(samples.growing_cycle_system())


class TestThueCompletion:
    def test_needs_thue(self):
        with pytest.raises(PreconditionViolated):
            thue_completion(samples.four_letter_cycle_system())

    def test_needs_strong_confluence(self):
        a = Alphabet.from_pairs("ab", [])
        s = RewriteSystem(a, [Rule(a.word("aa"), a.word("a")), Rule(a.word("aa"), a.word("b"))])
        with pytest.raises(PreconditionViolated):
            thue_completion(s)

    def test_stage_bound_guard(self, monkeypatch):
        # steps that give the word a a two new letter successors at each of
        # stages 0-2 (a b, b c, c d) force a pair at each, past the bound
        # 2 m(S) - 2 = 2
        a = Alphabet.from_pairs("abcd", [])
        s = RewriteSystem(a, [Rule(a.word("ab"), ())])
        shorts, _base = _short_graph(s)
        aa = shorts.index(CyclicWord.of(a.word("aa")))
        letters = [shorts.index(CyclicWord.of((x,))) for x in range(4)]
        assert thue_completion(s) == (CyclicRuleSet(s, ()), 0)
        stage = itertools.count()
        steps = completion._steps

        def diverging(base, added):
            got = steps(base, added)
            i = min(next(stage), 2)
            got[aa] = sorted({*got[aa], *letters[i : i + 2]})
            return got

        monkeypatch.setattr(completion, "_steps", diverging)
        with pytest.raises(RuntimeError) as exc:
            thue_completion(s)
        assert str(exc.value) == "completion chain exceeded 2 m(S) - 2 stages"

    def test_stage_zero_on_group_pregroups(self):
        for p in (samples.dihedral_infinity(), samples.z4_amalgam_z6()):
            s = derive_system(p, "S_eps")
            crs, stage = thue_completion(s)
            assert stage == 0
            assert crs.extra == ()

    def test_nonabelian_table_forces_pairs(self):
        # (r s) and (s r) are distinct letters of S_eps(S3) reachable from
        # the same 2-cycle, with no moves of their own: completion must add
        # letter-to-letter pairs, within the stage bound
        p = samples.s3_table()
        s = derive_system(p, "S_eps")
        crs, stage = thue_completion(s)
        assert crs.extra
        assert 1 <= stage <= 2 * s.m_of - 2
        for u, v in crs.extra:
            assert len(u) == len(v) == 1

    def test_added_pairs_are_conjugate_letters(self):
        from cycrew.universal import UniversalContext, conjugate_quadratic

        p = samples.s3_table()
        s = derive_system(p, "S_eps")
        ctx = UniversalContext(p)
        crs, _stage = thue_completion(s)
        from cycrew.pregroup import p_to_gamma

        def to_gamma(c):
            # S_eps words use the full alphabet; the context runs over Gamma
            return tuple(
                p_to_gamma(p.index[s.alphabet.letters[l]], p)
                for l in c.canon
                if s.alphabet.letters[l] != p.elements[p.eps]
            )

        for u, v in crs.extra:
            assert conjugate_quadratic(to_gamma(u), to_gamma(v), ctx).verdict


class TestCdagger:
    def test_needs_2monadic_thue(self):
        with pytest.raises(PreconditionViolated):
            cdagger(samples.four_letter_cycle_system())

    def test_free_group_needs_nothing(self):
        crs = cdagger(samples.free_group_system(2))
        assert crs.extra == ()

    def test_one_letter_lhs_deleted(self):
        # the cycle a b reaches b by a -> 1 and c by a b -> c
        a = Alphabet.from_pairs("abc", [])
        w = a.word
        s = RewriteSystem(a, [Rule(w("a"), ()), Rule(w("ab"), w("c"))])
        b, c = CyclicWord(w("b")), CyclicWord(w("c"))
        crs = cdagger(s)
        assert crs.extra == ((b, c), (c, b))
        assert set(crs.certificates.values()) == {CyclicWord(w("ab"))}

    def test_s3_pairs_with_certificates(self):
        p = samples.s3_table()
        s = derive_system(p, "S_eps")
        crs = cdagger(s)
        assert crs.extra
        for (u, v) in crs.extra:
            assert len(u) == len(v) == 1
            w = crs.certificates[(u, v)]
            assert len(w) == 2
            # both sides really are one-step successors of the certificate
            from cycrew.rewrite import cyclic_successors

            succs = set(cyclic_successors(w, s))
            assert u in succs and v in succs

    def test_pairs_are_conjugate_in_the_group(self):
        p = samples.s3_table()
        s = derive_system(p, "S_eps")
        for u, v in cdagger(s).extra:
            x = p.index[s.alphabet.letters[u.canon[0]]]
            y = p.index[s.alphabet.letters[v.canon[0]]]
            assert any(
                p.mul3(c, x, p.inv[c]) == y for c in range(len(p))
            )


def _pairs_digest(pairs):
    canon = sorted((u.canon, v.canon) for u, v in pairs)
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]


# (stage, pair count, digest of the sorted canonical pairs) of
# thue_completion and (pair count, digest) of resolve_short_pairs and cdagger
# on S_eps; (4, 2) and (6, 3) hold the values of COMPLETE_PINS in
# bench/workloads.py, and (10, 2), |P| = 110, is larger than any system of
# the reference differential below
PINS = {
    (4, 2): {
        "thue": (1, 16, "7a12ce496cfbb0bb"),
        "cstar": (32, "5ea47d732e6d7e72"),
        "cdagger": (16, "7a12ce496cfbb0bb"),
    },
    (6, 3): {
        "thue": (1, 24, "d8822864b868da17"),
        "cstar": (48, "2675cacd38654c87"),
        "cdagger": (24, "d8822864b868da17"),
    },
    (10, 2): {
        "thue": (1, 400, "d268b455e7116393"),
        "cstar": (1120, "94035a266ab4d404"),
        "cdagger": (400, "d268b455e7116393"),
    },
}


@pytest.fixture(scope="module", params=sorted(PINS), ids=lambda nk: f"hnn_z{nk[0]}_z{nk[1]}")
def pinned(request):
    return derive_system(hnn_cyclic(*request.param), "S_eps"), PINS[request.param]


class TestPinnedResults:
    def test_thue_completion(self, pinned):
        s, pins = pinned
        crs, stage = thue_completion(s, check_confluence=False)
        assert (stage, len(crs.extra), _pairs_digest(crs.extra)) == pins["thue"]

    def test_resolve_short_pairs(self, pinned):
        s, pins = pinned
        crs = resolve_short_pairs(s)
        assert (len(crs.extra), _pairs_digest(crs.extra)) == pins["cstar"]
        assert set(crs.certificates) == set(crs.extra)

    def test_cdagger(self, pinned):
        s, pins = pinned
        crs = cdagger(s)
        assert (len(crs.extra), _pairs_digest(crs.extra)) == pins["cdagger"]

    def test_thue_pair_order(self):
        # extra lists the pairs of its one stage in ascending (u, v) order,
        # shortlex on the least rotations
        s = derive_system(hnn_cyclic(4, 1), "S_eps")
        crs, stage = thue_completion(s, check_confluence=False)
        ordered = [(u.canon, v.canon) for u, v in crs.extra]
        assert ordered == sorted(ordered, key=lambda p: [shortlex_key(c) for c in p])
        digest = hashlib.sha256(repr(ordered).encode()).hexdigest()[:16]
        assert (stage, len(ordered), digest) == (1, 96, "ae2abb7d1ddb7bce")


# ---------------------------------------------------------------------------
# References read off the engines' docstrings, over the cyclic steps of
# ref_steps and the short words of ref_shorts: C* and the Thue completion
# decide reachability with ref_reach, and none reads the numbered short
# words or bitsets of the engines.


def _shortlex(c):
    return shortlex_key(c.canon)


def ref_shorts(alphabet, m):
    """The cyclic words of length at most 2m - 2 in shortlex order, each
    word of those lengths canonicalised on its own."""
    words = (
        w
        for n in range(max(0, 2 * m - 2) + 1)
        for w in itertools.product(range(len(alphabet)), repeat=n)
    )
    return sorted({CyclicWord.of(w) for w in words}, key=_shortlex)


def ref_steps(system, extra):
    """c -> the cyclic words other than c one step away from c: its
    cyclic_successors in system and the v of the pairs (c, v) of extra."""
    targets = collections.defaultdict(set)
    for u, v in extra:
        targets[u].add(v)

    @functools.cache
    def step(c):
        return (set(cyclic_successors(c, system)) | targets[c]) - {c}

    return step


def ref_cstar(system, sweeps=None):
    """C*: on each sweep every two distinct successors v < u of a short
    word w, in shortlex order, whose descending closures do not meet add
    (u, v), certified by w, unless the pair is there already; the sweeps
    repeat until one adds nothing.  A sweeps list, when given, gets the
    number of pairs each sweep added."""
    if not system.is_standard:
        raise PreconditionViolated("completion needs a standard system")
    if system.has_length_increasing_rules():
        raise PreconditionViolated("completion needs length-nonincreasing rules")
    shorts = ref_shorts(system.alphabet, system.m_of)
    extra, certificates = [], {}
    while True:
        step = ref_steps(system, tuple(extra))

        @functools.cache
        def descend(c):
            return [s for s in step(c) if _shortlex(s) < _shortlex(c)]

        down = functools.cache(lambda c: ref_reach(c, descend)[0])
        before = len(extra)
        for w in shorts:
            downs = [(c, down(c)) for c in sorted(step(w), key=_shortlex)]
            for (v, down_v), (u, down_u) in itertools.combinations(downs, 2):
                if down_u.isdisjoint(down_v) and (u, v) not in certificates:
                    extra.append((u, v))
                    certificates[u, v] = w
        if sweeps is not None:
            sweeps.append(len(extra) - before)
        if len(extra) == before:
            return CyclicRuleSet(system, tuple(extra), certificates)


def ref_thue(system):
    """The Thue completion chain: stage by stage, the pairs (u, v) with u a
    successor of a short word w, v one of a word in w's length-preserving
    class, |u| >= |v| >= 1, and neither of u, v reaching the other; each
    stage's pairs in ascending order of (u, v), shortlex on the least
    rotations.  Returns (CyclicRuleSet, stage)."""
    if not (system.is_standard and system.is_thue):
        raise PreconditionViolated("thue completion needs a standard Thue system")
    shorts = ref_shorts(system.alphabet, system.m_of)
    extra = []
    stage = 0
    while True:
        step = ref_steps(system, tuple(extra))
        reach = functools.cache(lambda c: ref_reach(c, step)[0])
        # w and w' range over each length-preserving class, so u and v both
        # range over the successors of its words
        outs, classed = [], set()
        for w in shorts:
            if w not in classed:
                same = ref_reach(w, lambda c, n=len(w): [s for s in step(c) if len(s) == n])[0]
                classed |= same
                outs.append({v for c in same for v in step(c)})
        pairs = {
            (u, v)
            for union in outs
            for u in union
            for v in union
            if len(u) >= len(v) >= 1 and v not in reach(u) and u not in reach(v)
        }
        if not pairs:
            return CyclicRuleSet(system, tuple(extra)), stage
        extra += sorted(pairs, key=lambda pair: [_shortlex(c) for c in pair])
        stage += 1
        if stage > 2 * system.m_of - 2:
            raise RuntimeError("completion chain exceeded 2 m(S) - 2 stages")


def ref_cdagger(system):
    """C-dagger: each ordered pair of distinct letters that are both one
    cyclic step from a common length-2 cycle, certified by the first such
    cycle in shortlex order; a cycle's pairs in letter order."""
    if not (system.is_standard and system.is_2monadic and system.is_thue):
        raise PreconditionViolated("cdagger needs a standard 2-monadic Thue system")
    step = ref_steps(system, ())
    certs = {}
    for c in ref_shorts(system.alphabet, 2):
        if len(c) < 2:
            continue
        letters = sorted((s for s in step(c) if len(s) == 1), key=_shortlex)
        for pair in itertools.permutations(letters, 2):
            certs.setdefault(pair, c)
    return CyclicRuleSet(system, tuple(certs), certs)


def _outcome(run, system):
    """(extra, certificates, stage) of one engine, or the exception type
    that its precondition check or its stage bound raised."""
    try:
        result = run(system)
    except (PreconditionViolated, RuntimeError) as exc:
        return type(exc)
    crs, stage = result if isinstance(result, tuple) else (result, None)
    return tuple(crs.extra), crs.certificates, stage


ENGINES = {
    "cstar": (resolve_short_pairs, ref_cstar),
    "thue": (lambda s: thue_completion(s, check_confluence=False), ref_thue),
    "cdagger": (cdagger, ref_cdagger),
}
DIFFERENTIAL_SYSTEMS = corpus_pregroups() + [
    (f"hnn_z{n}_z{k}", hnn_cyclic(n, k)) for n, k in ((2, 1), (4, 1), (4, 2), (6, 2), (6, 3))
]


@pytest.fixture(scope="module", params=DIFFERENTIAL_SYSTEMS, ids=lambda e: e[0])
def s_eps(request):
    return derive_system(request.param[1], "S_eps")


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engines_match_set_based_references(s_eps, engine):
    # extra in order (each Thue stage's sorted), certificates and stage, on S_eps of the corpus and of HNN(Z_n, Z_k);
    # hnn_s3 is the largest (946 short cyclic words)
    run, ref = ENGINES[engine]
    assert _outcome(run, s_eps) == _outcome(ref, s_eps)


def test_short_graph_lists_cyclic_successors(s_eps):
    # every rotation of a short word names its id (so ids holds every word
    # of short length), and each id list is the word's cyclic_successors by
    # id, without the word, ascending
    shorts, succ = _short_graph(s_eps)
    numbered, ids = _number_short_words(s_eps.alphabet, s_eps.m_of)
    assert numbered == shorts
    k, top = len(s_eps.alphabet), 2 * s_eps.m_of - 2
    assert len(ids) == sum(k**n for n in range(top + 1))
    for i, c in enumerate(shorts):
        assert {ids[r] for r in rotations(c.canon)} == {i}
        got = [ids[d.canon] for d in cyclic_successors(c, s_eps)]
        assert succ[i] == sorted(set(got) - {i}) == [j for j in got if j != i]


def test_thue_pair_order_with_words_among_their_own_successors():
    # b c <-> c b returns the cycle b c to itself, which the engine leaves
    # out of the cycle's own successors; the pairs must not change, and
    # extra lists them in ascending (u, v) order.  The second system's
    # classes {a b} and {a e} both force (c, d), which extra lists once
    a = Alphabet.from_pairs("abc", [])
    w = a.word
    loop = RewriteSystem(
        a,
        [
            Rule(w("cb"), w("a")),
            Rule(w("bc"), w("cb"), symmetric=True),
            Rule(w("c"), ()),
            Rule(w("ca"), w("bc"), symmetric=True),
            Rule(w("b"), ()),
            Rule(w("ac"), w("cb"), symmetric=True),
        ],
    )
    a = Alphabet.from_pairs("abcde", [])
    w = a.word
    twice = RewriteSystem(
        a,
        [
            Rule(w("ab"), w("c")),
            Rule(w("ab"), w("d")),
            Rule(w("ae"), w("c")),
            Rule(w("ae"), w("d")),
        ],
    )
    cases = [
        (
            loop,
            [
                ((0,), (1,)),
                ((0,), (2,)),
                ((1,), (0,)),
                ((1,), (2,)),
                ((2,), (0,)),
                ((2,), (1,)),
            ],
        ),
        (twice, [((2,), (3,)), ((3,), (2,))]),
    ]
    run, ref = ENGINES["thue"]
    for s, pairs in cases:
        got = _outcome(run, s)
        assert got == _outcome(ref, s)
        assert [(u.canon, v.canon) for u, v in got[0]] == pairs
        assert got[2] == 1


_ABC = Alphabet.from_pairs("abc", [])
_w = _ABC.word

# Rule sets at the edges of how the confluence check and C-dagger read the
# rules that are not symmetric, each with the check's report, or the
# exception it raises, and C-dagger's pairs of letters, or the exception it
# raises:
# - a rule given twice has its target live twice, so the check meets a pair
#   y == z, which the one-step meet closes;
# - a symmetric rule beside a plain copy of one of its orientations, and two
#   opposite plain rules, have no live orientation between ab and ba, and
#   neither is a Thue system;
# - a whole-anchored a -> 1 fires on no cycle of two letters, while the
#   prefix-anchored b -> 1 takes the cycle a b to a.
EDGE_RULES = {
    "twice": (
        [Rule(_w("ab"), _w("c")), Rule(_w("ab"), _w("c")), Rule(_w("ba"), _w("a"))],
        ConfluenceReport(False, ((0, 1, 0), (2, 0), (0, 0))),
        [(0, 2), (2, 0)],
    ),
    "symmetric and a plain copy": (
        [Rule(_w("ab"), _w("ba"), symmetric=True), Rule(_w("ba"), _w("ab")), Rule(_w("ab"), _w("c"))],
        ConfluenceReport(True),
        PreconditionViolated,
    ),
    "opposite plain rules": (
        [Rule(_w("ab"), _w("ba")), Rule(_w("ba"), _w("ab")), Rule(_w("ab"), _w("c"))],
        ConfluenceReport(True),
        PreconditionViolated,
    ),
    "whole and prefix deletions": (
        [Rule(_w("a"), (), Anchor.WHOLE), Rule(_w("b"), (), Anchor.PREFIX), Rule(_w("ab"), _w("c"))],
        ValueError,
        [(0, 2), (2, 0)],
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_RULES))
def test_rule_reading_edge_cases(monkeypatch, case):
    # both engines against their references and the pins; where the check
    # runs, the pairs it searches are those of the live orientations alone
    rules, report, letter_pairs = EDGE_RULES[case]
    s = RewriteSystem(_ABC, rules)
    if report is ValueError:
        for check in (check_strong_confluence, ref_check_strong_confluence):
            with pytest.raises(ValueError):
                check(s)
    else:
        assert _tested_pairs(monkeypatch, s)[0] == ref_check_strong_confluence(s) == report
    got = _outcome(cdagger, s)
    assert got == _outcome(ref_cdagger, s)
    if got is not PreconditionViolated:
        got = [(u.canon[0], v.canon[0]) for u, v in got[0]]
    assert got == letter_pairs


def _random_standard_system(rng, m):
    """A small standard Thue system with m(S) = m over 2 or 3 letters, not
    S_eps: rules shortening by at least one letter, some anchored, some a
    single letter deleted (x -> ()), and symmetric length-2 rules."""
    a = Alphabet.from_pairs(rng.choice(["ab", "abc"]), [])

    def word(n):
        return tuple(rng.randrange(len(a)) for _ in range(n))

    rules = [Rule(word(m), word(rng.randrange(m)))]
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.25:
            rules.append(Rule(word(1), ()))
        elif kind < 0.5:
            lhs, rhs = word(2), word(2)
            if lhs != rhs:
                rules.append(Rule(lhs, rhs, rng.choice(list(Anchor)), symmetric=True))
        else:
            n = rng.randint(1, m)
            rules.append(Rule(word(n), word(rng.randrange(n)), rng.choice(list(Anchor))))
    return RewriteSystem(a, rules)


@pytest.fixture(scope="module")
def random_standard_corpus():
    """The 300 seed-20181 systems of _random_standard_system, each with its
    outcome under every engine of ENGINES, drawn and run once for the
    tests that read them."""
    rng = random.Random(20181)
    corpus = []
    for _ in range(300):
        s = _random_standard_system(rng, rng.choice([2, 2, 3]))
        corpus.append((s, {engine: _outcome(run, s) for engine, (run, _ref) in ENGINES.items()}))
    return corpus


def test_engines_match_references_on_random_systems(random_standard_corpus):
    # the pinned systems are all S_eps: no anchors, no x -> (); here C*, the
    # Thue completion and C-dagger meet both, against the references read
    # off their docstrings, extra in order, certificates and stage; some Thue runs
    # cross a stage boundary, where the order is sorted per stage, and some
    # C* runs add pairs in a sweep after the second, so the order of pairs
    # across sweeps is checked too
    seen = collections.Counter()
    for s, outcomes in random_standard_corpus:
        sweeps = []  # the pairs each sweep of the C* reference added
        for engine, (_run, ref) in ENGINES.items():
            if ref is ref_cstar:
                ref = functools.partial(ref_cstar, sweeps=sweeps)
            got = outcomes[engine]
            assert got == _outcome(ref, s), (engine, s.rules)
            if isinstance(got, tuple):
                seen[engine, "pairs"] += bool(got[0])
                seen[engine, "stage > 0"] += bool(got[2])
                seen[engine, "stage >= 2"] += (got[2] or 0) >= 2
            else:
                seen[engine, got.__name__] += 1
        seen["cstar sweeps >= 3"] += len(sweeps) >= 3
        for r in s.rules:
            seen[r.anchor] += 1
            seen["x -> ()"] += len(r.lhs) == 1 and not r.rhs
            seen["symmetric"] += r.symmetric
        if s.is_2monadic and any(len(r.lhs) == 1 for r in s.rules):
            # C-dagger reads the redexes of every lhs length
            rest = RewriteSystem(s.alphabet, [r for r in s.rules if len(r.lhs) == 2])
            seen["cdagger needs a 1-letter lhs"] += cdagger(s).extra != cdagger(rest).extra
    for kind in [
        *Anchor,
        "x -> ()",
        "symmetric",
        ("cstar", "pairs"),
        ("thue", "pairs"),
        ("thue", "stage > 0"),
        ("thue", "stage >= 2"),
        ("cdagger", "pairs"),
        ("cdagger", "PreconditionViolated"),
        "cdagger needs a 1-letter lhs",
    ]:
        assert seen[kind], (kind, seen)
    assert seen["cstar sweeps >= 3"] >= 60, seen


def _reach_lemma_pairs(crs):
    """The number of pairs (u, v) of distinct short words with |v| <= |u|
    and v reaching u under the base steps of crs plus its extra pairs, by
    brute force; asserts that u reaches each such v back.  thue_completion
    reads "u and v are mutually unreachable" off reach[u] alone on this
    lemma."""
    step = ref_steps(crs.base, crs.extra)
    reach = functools.cache(lambda c: ref_reach(c, step)[0])
    found = 0
    for v in ref_shorts(crs.base.alphabet, crs.base.m_of):
        for u in reach(v):
            if u != v and len(v) <= len(u):
                assert v in reach(u), (u, v)
                found += 1
    return found


def test_thue_reach_implies_coreach(s_eps):
    # the Thue completion's freshness test, on its own result
    crs, _stage = thue_completion(s_eps, check_confluence=False)
    assert _reach_lemma_pairs(crs)


def test_thue_reach_implies_coreach_on_random_systems(random_standard_corpus):
    # the reach lemma on the Thue results of the engines test's corpus
    found = 0
    for s, outcomes in random_standard_corpus:
        got = outcomes["thue"]
        if isinstance(got, tuple):
            found += _reach_lemma_pairs(CyclicRuleSet(s, got[0]))
    assert found
