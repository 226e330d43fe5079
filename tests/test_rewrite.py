import collections
import copy
import functools
import itertools
import math
import pickle
import random

import pytest

from cycrew import rewrite, samples
from cycrew.pregroup import derive_system
from cycrew.rewrite import (
    Anchor,
    BudgetExhausted,
    ConfluenceReport,
    JoinResult,
    RewriteSystem,
    Rule,
    _strongly_joinable,
    _SuccessorPool,
    check_strong_confluence,
    cyclic_joinable,
    cyclic_successors,
    reduce_greedy,
    word_successors,
)
from cycrew.words import Alphabet, CyclicWord, involute, rotations, shortlex_key

from conftest import check_strong_confluence_naive, hnn_cyclic, ref_joiner, ref_reach
from test_pregroup import random_small_table


def _ab():
    return Alphabet.from_pairs("ab", [])


class TestRuleAndSystem:
    def test_symmetric_rule_must_preserve_length(self):
        a = _ab()
        with pytest.raises(ValueError):
            Rule(a.word("ab"), a.word("a"), symmetric=True)

    def test_rule_is_an_immutable_value(self):
        r = Rule((0, 1), (1,))
        assert repr(r) == "Rule(lhs=(0, 1), rhs=(1,), anchor=<Anchor.NONE: 'none'>, symmetric=False)"
        assert repr(Rule((0,), (1,), Anchor.WHOLE, True)) == (
            "Rule(lhs=(0,), rhs=(1,), anchor=<Anchor.WHOLE: 'whole'>, symmetric=True)"
        )
        same = Rule(lhs=(0, 1), rhs=(1,), anchor=Anchor.NONE, symmetric=False)
        assert r == same and not r != same and hash(r) == hash(same)
        swap = Rule((0, 1), (1, 0))
        variants = [swap, Rule((0, 1), (1, 0), Anchor.PREFIX), Rule((0, 1), (1, 0), symmetric=True)]
        variants += [Rule((0, 1), (1, 0), Anchor.SUFFIX, True)]
        for i, u in enumerate(variants):
            for v in variants[i + 1 :]:
                assert u != v and not u == v
        assert len({*variants, *variants, Rule((0, 1), (1, 0))}) == 4
        for rule in (r, *variants):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(rule, protocol))
                assert back == rule and type(back) is Rule and hash(back) == hash(rule)
            before = repr(rule)
            for field, value in (("lhs", ()), ("rhs", ()), ("anchor", Anchor.WHOLE), ("symmetric", True)):
                with pytest.raises(AttributeError):
                    setattr(rule, field, value)
            assert repr(rule) == before
        with pytest.raises(ValueError, match="^symmetric rules must be length preserving$"):
            Rule((0, 1), (1,), Anchor.PREFIX, True)

    def test_every_rule_constructor_checks_the_symmetric_length(self):
        r = Rule((0, 1), (1, 0), Anchor.PREFIX, True)
        for built in (Rule._make(r), r._replace(), copy.copy(r), copy.deepcopy(r), Rule(*r)):
            assert built == r and type(built) is Rule
        assert r._replace(anchor=Anchor.WHOLE) == Rule((0, 1), (1, 0), Anchor.WHOLE, True)
        assert Rule((0,), (1, 0))._replace(rhs=(1,), symmetric=True) == Rule((0,), (1,), symmetric=True)
        for build in (
            lambda: Rule._make([(0, 1), (1,), Anchor.NONE, True]),
            lambda: r._replace(rhs=(1,)),
            lambda: Rule((0, 1), (1,))._replace(symmetric=True),
            lambda: Rule.__new__(Rule, (0,), (), Anchor.WHOLE, True),
            lambda: Rule(symmetric=True, rhs=(), lhs=(0,)),
        ):
            with pytest.raises(ValueError, match="^symmetric rules must be length preserving$"):
                build()

    def test_flags(self):
        s = samples.four_letter_cycle_system()
        assert s.m_of == 3
        assert s.is_standard
        assert not s.is_2monadic
        assert not s.is_thue  # length preserving but not symmetric

    def test_free_group_system_flags(self):
        s = samples.free_group_system(2)
        assert s.m_of == 2
        assert s.is_standard and s.is_2monadic and s.is_thue

    def test_oriented_pairs_cover_symmetric_both_ways(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("ba"), symmetric=True)])
        assert word_successors(a.word("ab"), s) == [a.word("ba")]
        assert word_successors(a.word("ba"), s) == [a.word("ab")]

    def test_length_increasing_flag_is_scanned_on_first_use(self):
        # construction (which derive_system times) does not scan the pairs
        a = _ab()
        for rules, want in [
            ([Rule(a.word("ab"), a.word("b"))], False),
            ([Rule(a.word("ab"), a.word("ba"), symmetric=True)], False),
            ([Rule(a.word("ab"), a.word("b")), Rule(a.word("b"), a.word("aa"))], True),
        ]:
            s = RewriteSystem(a, rules)
            assert "_length_increasing" not in vars(s)
            assert s.has_length_increasing_rules() is want
            assert vars(s)["_length_increasing"] is want


class TestWordSuccessors:
    def test_plain_rule_all_positions(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"))])
        succs = set(word_successors(a.word("abab"), s))
        assert succs == {a.word("bab"), a.word("abb")}

    def test_prefix_anchor_only_fires_at_start(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.PREFIX)])
        assert set(word_successors(a.word("abab"), s)) == {
            a.word("bab")
        }

    def test_suffix_anchor_only_fires_at_end(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.SUFFIX)])
        assert set(word_successors(a.word("abab"), s)) == {
            a.word("abb")
        }

    def test_whole_anchor_needs_exact_word(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.WHOLE)])
        assert word_successors(a.word("abab"), s) == []
        assert set(word_successors(a.word("ab"), s)) == {a.word("b")}

    def test_empty_lhs_inserts_at_every_gap(self):
        a = _ab()
        s = RewriteSystem(a, [Rule((), a.word("b"))])
        succs = word_successors(a.word("aa"), s)
        assert sorted(succs) == sorted(
            [a.word("baa"), a.word("aba"), a.word("aab")]
        )

    def test_each_orientation_counts_once_per_rule(self):
        # ab -> a given twice, and ba -> ab beside the symmetric ab <-> ba:
        # a word comes once per rule orientation that gives it, by lhs
        # length, position and rule order
        a = _ab()
        s = RewriteSystem(
            a,
            [
                Rule(a.word("ab"), a.word("ba"), symmetric=True),
                Rule(a.word("ba"), a.word("ab")),
                Rule(a.word("ab"), a.word("a")),
                Rule(a.word("ab"), a.word("a")),
                Rule(a.word("bb"), a.word("a")),
            ],
        )
        assert word_successors(a.word("aba"), s) == list(
            map(a.word, ["baa", "aa", "aa", "aab", "aab"])
        )
        assert word_successors(a.word("abb"), s) == list(map(a.word, ["bab", "ab", "ab", "aa"]))
        # ab <- abb -> aa is the first pair that does not join: aa is
        # irreducible, and ab never reaches it
        assert check_strong_confluence(s) == ConfluenceReport(
            False, (a.word("abb"), a.word("ab"), a.word("aa"))
        )


class TestCyclicSuccessors:
    def test_wrap_around_match(self):
        # lhs ab occurs only across the seam of the canonical rotation
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("aab"), a.word("b"))])
        c = CyclicWord.of(a.word("baa"))
        assert cyclic_successors(c, s) == [CyclicWord.of(a.word("b"))]

    def test_anchors_dissolve_on_cycles(self):
        a = _ab()
        plain = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"))])
        pre = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.PREFIX)])
        suf = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.SUFFIX)])
        c = CyclicWord.of(a.word("abab"))
        expect = cyclic_successors(c, plain)
        assert cyclic_successors(c, pre) == expect
        assert cyclic_successors(c, suf) == expect

    def test_whole_anchor_needs_full_rotation(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ba"), a.word("bb"), Anchor.WHOLE)])
        assert cyclic_successors(CyclicWord.of(a.word("ab")), s) == [
            CyclicWord.of(a.word("bb"))
        ]
        assert cyclic_successors(CyclicWord.of(a.word("aba")), s) == []

    def test_empty_lhs_whole_only_on_empty_cycle(self):
        a = _ab()
        s = RewriteSystem(a, [Rule((), a.word("ab"), Anchor.WHOLE)])
        assert cyclic_successors(CyclicWord.of(()), s) == [
            CyclicWord.of(a.word("ab"))
        ]
        assert cyclic_successors(CyclicWord.of(a.word("a")), s) == []

    def test_empty_lhs_unanchored_inserts_at_every_gap(self):
        a = _ab()
        s = RewriteSystem(a, [Rule((), a.word("b"))])
        c = CyclicWord.of(a.word("ab"))
        got = set(cyclic_successors(c, s))
        assert got == {CyclicWord.of(a.word("bab")), CyclicWord.of(a.word("abb"))}

    def test_rotation_invariance(self):
        s = samples.four_letter_cycle_system()
        a = s.alphabet
        w = a.word("cdab")
        base = cyclic_successors(CyclicWord.of(w), s)
        for k in range(1, len(w)):
            assert cyclic_successors(CyclicWord.of(w[k:] + w[:k]), s) == base


class TestExampleFourLetters:
    """The four-rule length-preserving system that is confluent on words but
    not on cyclic words."""

    def test_strongly_confluent_on_words(self):
        s = samples.four_letter_cycle_system()
        assert check_strong_confluence(s).ok

    def test_naive_oracle_agrees(self):
        s = samples.four_letter_cycle_system()
        assert check_strong_confluence_naive(s, 5).ok

    def test_two_distinct_irreducible_cyclic_successors(self):
        s = samples.four_letter_cycle_system()
        a = s.alphabet
        succs = cyclic_successors(CyclicWord.of(a.word("abcd")), s)
        assert set(succs) == {
            CyclicWord.of(a.word("bacd")),
            CyclicWord.of(a.word("bdca")),
        }
        assert len(succs) == 2
        for c in succs:
            assert cyclic_successors(c, s) == []

    def test_cyclic_divergence_is_disjoint(self):
        s = samples.four_letter_cycle_system()
        a = s.alphabet
        res = cyclic_joinable(
            CyclicWord.of(a.word("bacd")), CyclicWord.of(a.word("bdca")), s
        )
        assert res.status == "disjoint"

    def test_breaking_one_rule_breaks_word_confluence(self):
        # replacing the fourth rule spoils the swap pattern on words too
        a = Alphabet.from_pairs("abcd", [])
        w = a.word
        bad = RewriteSystem(
            a,
            [
                Rule(w("abc"), w("bac")),
                Rule(w("cda"), w("dca")),
                Rule(w("bad"), w("abd")),
                Rule(w("dcb"), w("cbd")),
            ],
        )
        rep = check_strong_confluence(bad)
        assert not rep.ok
        assert check_strong_confluence_naive(bad, 5).counterexample is not None


class TestExampleGrowingCycle:
    """ba -> abb terminates on words but grows forever on cyclic words."""

    def test_string_reduction_terminates(self):
        s = samples.growing_cycle_system()
        a = s.alphabet
        w = a.word("ba")
        while True:
            succs = word_successors(w, s)
            if not succs:
                break
            w = succs[0]
        assert w == a.word("abb")

    def test_cyclic_lengths_strictly_increase(self):
        s = samples.growing_cycle_system()
        a = s.alphabet
        c = CyclicWord.of(a.word("ba"))
        lengths = [len(c)]
        for _ in range(50):
            succs = cyclic_successors(c, s)
            assert succs
            c = succs[0]
            lengths.append(len(c))
        assert lengths == sorted(set(lengths))
        # each iterate is (b^k a) as a cyclic word
        assert c.canon.count(a.index("a")) == 1

    def test_termination_heuristic(self):
        assert samples.growing_cycle_system().has_length_increasing_rules()
        assert not samples.free_group_system().has_length_increasing_rules()


class TestReduceGreedy:
    def test_free_reduction(self):
        s = samples.free_group_system(2)
        a = s.alphabet
        assert reduce_greedy(a.word("aAbBb"), s) == a.word("b")

    def test_budget_exhaustion(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("a"))])
        long = a.word("a" * 5 + "b" * 50)
        with pytest.raises(BudgetExhausted):
            reduce_greedy(long, s, budget=3)

    def test_budget_counts_applications(self):
        # exactly budget applications reach the fixpoint
        s = samples.free_group_system(2)
        a = s.alphabet
        assert reduce_greedy(a.word("aA"), s, budget=1) == ()
        assert reduce_greedy(a.word("aAbB"), s, budget=2) == ()
        with pytest.raises(BudgetExhausted):
            reduce_greedy(a.word("aAbB"), s, budget=1)

    def test_budget_must_be_positive(self):
        s = samples.free_group_system()
        with pytest.raises(ValueError):
            reduce_greedy((), s, budget=0)


class TestCyclicJoinable:
    def test_trivially_joinable(self):
        s = samples.free_group_system()
        c = CyclicWord.of(s.alphabet.word("a"))
        assert cyclic_joinable(c, c, s).status == "joinable"
        assert cyclic_joinable(c, c, s)  # a JoinResult is true when joinable

    def test_join_through_reduction(self):
        s = samples.free_group_system()
        a = s.alphabet
        res = cyclic_joinable(
            CyclicWord.of(a.word("abB")), CyclicWord.of(a.word("aaA")), s
        )
        assert res.status == "joinable"
        assert res.witness == CyclicWord.of(a.word("a"))

    def test_disjoint(self):
        s = samples.free_group_system()
        a = s.alphabet
        res = cyclic_joinable(CyclicWord.of(a.word("a")), CyclicWord.of(a.word("b")), s)
        assert res.status == "disjoint"
        assert not res

    def test_memo_is_shared(self):
        s = samples.free_group_system()
        a = s.alphabet
        memo = {}
        cyclic_joinable(
            CyclicWord.of(a.word("abB")), CyclicWord.of(a.word("a")), s, memo=memo
        )
        assert memo
        before = len(memo)
        cyclic_joinable(
            CyclicWord.of(a.word("abB")), CyclicWord.of(a.word("a")), s, memo=memo
        )
        assert len(memo) == before


    def test_length_cut_search_is_exhausted_not_disjoint(self):
        # a b -> a b b is the one cyclic rewrite of a b; with a b b over the
        # length bound the search is cut, which decides nothing
        s = samples.growing_cycle_system()
        a = s.alphabet
        u, v = CyclicWord.of(a.word("ab")), CyclicWord.of(a.word("abb"))
        assert cyclic_successors(u, s) == [v]
        assert cyclic_joinable(u, v, s, max_len=2).status == "exhausted"
        assert cyclic_joinable(u, v, s, max_len=3) == JoinResult("joinable", v)

    def test_budget_caps_the_cycles_each_side_sees(self):
        # a -> b -> c -> d: the side from a sees 3 cycles besides a, the
        # side from e none; five cycles are expanded in all
        a = Alphabet.from_pairs("abcde", [])
        w = a.word
        s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in ["ab", "bc", "cd"]])
        u, v = CyclicWord.of(w("a")), CyclicWord.of(w("e"))
        assert cyclic_joinable(u, v, s, budget=4).status == "disjoint"
        assert cyclic_joinable(u, v, s, budget=3).status == "exhausted"
        with pytest.raises(ValueError, match="budget must be positive"):
            cyclic_joinable(u, v, s, budget=0)

    def test_answers_match_brute_force_closures(self):
        # random systems, anchored and lengthening rules included: a witness
        # lies in both closures within the length bound, "disjoint" needs
        # both closures complete and disjoint, and "exhausted" needs a
        # bound that cut a side
        rng = random.Random(20127)
        seen = collections.Counter()
        for _ in range(300):
            a = Alphabet.from_pairs(rng.choice(["ab", "abc"]), [])

            def word(lo, hi):
                return tuple(rng.randrange(len(a)) for _ in range(rng.randint(lo, hi)))

            rules = [
                Rule(word(0, 3), word(0, 4), rng.choice(list(Anchor)))
                for _ in range(rng.randint(1, 4))
            ]
            s = RewriteSystem(a, rules)
            memo = {}
            for _ in range(3):
                max_len = rng.randint(1, 5)
                budget = rng.choice([3, 10, 100_000])
                u, v = CyclicWord.of(word(0, max_len)), CyclicWord.of(word(0, max_len))
                res = cyclic_joinable(u, v, s, budget, max_len, rng.choice([None, memo]))
                # the cycles reachable through cycles of at most max_len
                # letters, and whether a successor was over the bound
                (cu, u_over, _), (cv, v_over, _) = (
                    ref_reach(x, lambda d: cyclic_successors(d, s), max_len) for x in (u, v)
                )
                complete = not (u_over or v_over)
                small = max(len(cu), len(cv)) <= budget
                if res.status == "joinable":
                    assert res.witness in cu and res.witness in cv
                elif res.status == "disjoint":
                    assert complete and cu.isdisjoint(cv)
                else:
                    assert res.status == "exhausted"
                    assert not (complete and small)
                    seen["cut by length"] += not complete
                    seen["cut by budget"] += not small
                if complete and small:
                    assert res.status == ("disjoint" if cu.isdisjoint(cv) else "joinable")
                seen[res.status] += 1
            seen["lengthening"] += s.has_length_increasing_rules()
            seen["anchored"] += s.has_anchored_rules()
        assert all(seen[k] > 20 for k in (
            "joinable", "disjoint", "exhausted", "cut by length", "cut by budget",
            "lengthening", "anchored",
        )), seen


class TestConfluenceChecker:
    def test_anchored_systems_rejected(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.PREFIX)])
        with pytest.raises(ValueError):
            check_strong_confluence(s)
        with pytest.raises(ValueError):
            check_strong_confluence_naive(s, 3)

    def test_pool_meets_are_the_plain_rewrites(self):
        # pool[w] is w and all of word_successors, empty left-hand sides
        # included
        rng = random.Random(20126)
        seen = collections.Counter()
        for _ in range(200):
            a = Alphabet.from_pairs(rng.choice(["ab", "abc"]), [])

            def word(lo, hi):
                return tuple(rng.randrange(len(a)) for _ in range(rng.randint(lo, hi)))

            rules = [Rule(word(0, 3), word(0, 3)) for _ in range(rng.randint(1, 4))]
            s = RewriteSystem(a, rules)
            pool = _SuccessorPool(s)
            for _ in range(4):
                w = word(0, 5)
                rewrites = word_successors(w, s)
                want = frozenset([w] + rewrites)
                assert pool[w] == want
                # in order: the node-capped searches expand in this order
                assert _SuccessorPool(s).descendants(w, math.inf).expand() == [
                    r for r in dict.fromkeys(rewrites) if r != w
                ]
                assert pool[w] is pool[w]
                seen["rewrites"] += len(want) > 1
            seen["empty lhs"] += any(not r.lhs for r in rules)
        assert seen["rewrites"] and seen["empty lhs"], seen

    def test_free_group_system(self):
        assert check_strong_confluence(samples.free_group_system(2)).ok

    def test_truncated_descendant_search_is_no_counterexample(self):
        # c b a a a <- c a a a -> d closes strongly (c b a a a -> c a b a a a
        # -> c c a a a -> c d <- d), but the descendant search from
        # c b a a a stops at its node bound before it reaches c d
        a = Alphabet.from_pairs("abcdefghij", [])
        w = a.word
        rules = [Rule(w("ab"), w("c")), Rule(w("ab"), w("d")), Rule(w("caaa"), w("d"))]
        s = RewriteSystem(a, rules + [Rule((), (x,)) for x in range(len(a))])
        with pytest.raises(BudgetExhausted):
            check_strong_confluence(s)
        # a meet inside the truncated set still proves the pair joinable
        assert _strongly_joinable(w("cbaaa"), w("ccaaa"), s, _SuccessorPool(s))

    def test_length_pruned_search_is_no_counterexample(self):
        # b <- a -> c closes strongly (b -> d e^10 -> ... -> d e -> d -> c),
        # but only through words longer than the searches' length bound
        a = Alphabet.from_pairs("abcde", [])
        w = a.word
        rules = [("a", "b"), ("a", "c"), ("b", "d" + "e" * 10), ("de", "d"), ("d", "c")]
        s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
        with pytest.raises(BudgetExhausted):
            check_strong_confluence(s)
        search = _SuccessorPool(s).descendants(w("b"), 5)
        assert not search.meets({w("c")})
        assert search.seen == {w("b")} and search.cut

    def test_descendant_memo_is_keyed_by_the_length_bound(self):
        a = Alphabet.from_pairs("abcde", [])
        w = a.word
        rules = [("b", "d" + "e" * 10), ("de", "d"), ("d", "c")]
        pool = _SuccessorPool(RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules]))
        short = pool.descendants(w("b"), 5)
        assert not short.meets(()) and short.cut
        # a set cut by a shorter bound is not read for a longer one
        full = pool.descendants(w("b"), 11)
        # the search stops at its first meet and resumes from there
        assert full.meets({w("de")}) and len(full.seen) < 22
        assert not full.meets(()) and not full.cut
        assert full.seen == {w("b")} | {w(x + "e" * i) for x in "cd" for i in range(11)}
        assert pool.descendants(w("b"), 5) is short

    def test_memoised_searches_match_the_parent_searches(self):
        # one pool per system, its searches resumed from pair to pair,
        # against ref_joiner, which searches afresh for each pair
        rng = random.Random(20125)
        seen = collections.Counter()
        for _ in range(150):
            a = Alphabet.from_pairs(rng.choice(["ab", "abc"]), [])

            def word(lo, hi):
                return tuple(rng.randrange(len(a)) for _ in range(rng.randint(lo, hi)))

            s = RewriteSystem(a, [Rule(word(0, 3), word(0, 4)) for _ in range(rng.randint(1, 4))])
            pool = _SuccessorPool(s)
            joinable = ref_joiner(s)
            for _ in range(3):
                succs = word_successors(word(1, 4), s)
                for y, z in zip(succs, succs[1:]):
                    got = _outcome(_strongly_joinable, y, z, s, pool)
                    assert got == _outcome(joinable, y, z)
                    seen[got] += 1
                    if got is BudgetExhausted:
                        cap = max(len(y), len(z)) + 2 * s.m_of
                        searches = [pool.descendants(x, cap) for x in (y, z)]
                        seen["length-pruned"] += any(d.pruned for d in searches)
                        seen["node-capped"] += any(d.queue for d in searches)
        for kind in [True, False, "node-capped", "length-pruned"]:
            assert seen[kind], (kind, seen)

    @staticmethod
    def _random_systems(rng, count, letters="ab"):
        a = Alphabet.from_pairs(letters, [])
        for _ in range(count):
            rules = []
            for _ in range(rng.randrange(1, 4)):
                lhs = tuple(rng.randrange(len(a)) for _ in range(rng.randrange(1, 4)))
                rhs = tuple(rng.randrange(len(a)) for _ in range(rng.randrange(0, len(lhs) + 1)))
                rules.append(Rule(lhs, rhs))
            yield RewriteSystem(a, rules)

    @pytest.mark.parametrize("letters, count", [("ab", 40), ("abc", 60), ("abc", 80)])
    def test_reports_match_the_naive_check(self, rng, letters, count):
        # the whole report, first counterexample included: overlap words
        # have at most 5 letters here, and every word up to 5 is scanned
        verdicts = set()
        for s in self._random_systems(rng, count, letters):
            report = check_strong_confluence(s)
            assert report == check_strong_confluence_naive(s, 5)
            verdicts.add(report.ok)
        assert verdicts == {True, False}


# One rewrite oracle read off system.rules, in place of the library's rule
# index: the scanners are checked against it, and the full scan
# ref_check_strong_confluence reads it too.


ANCHORS = list(Anchor)


def rule_targets(system):
    """lhs -> [(anchor rank, rule_id, rhs)] read off system.rules, a
    symmetric rule both ways, sorted: by the anchor's place in ANCHORS,
    then by rule."""
    targets = collections.defaultdict(list)
    for rid, r in enumerate(system.rules):
        rank = ANCHORS.index(r.anchor)
        targets[r.lhs].append((rank, rid, r.rhs))
        if r.symmetric and r.rhs != r.lhs:
            targets[r.rhs].append((rank, rid, r.lhs))
    return {lhs: sorted(ts) for lhs, ts in targets.items()}


def redexes(w, targets):
    """(pos, end, rhs, rule_id) for every rule orientation that fires on w
    at w[pos:end]: plain ones anywhere, prefix ones at pos 0, suffix ones
    at end len(w), whole ones on all of w.  Ordered by lhs length, then
    position, anchor and rule."""
    n = len(w)
    found = []
    for length in range(n + 1):
        for pos in range(n - length + 1):
            end = pos + length
            here = targets.get(w[pos:end])
            if here:
                fires = (True, pos == 0, end == n, pos == 0 and end == n)  # by rank
                found += [(pos, end, rhs, rid) for rank, rid, rhs in here if fires[rank]]
    return found


def _overlap_words(system):
    """The reference enumeration of the overlap words: every lhs on its own
    (same-position divergences and containments) and every word realising a
    genuine overlap of two lhs occurrences, a nonempty proper suffix of l1
    as a proper prefix of l2.  Left-hand sides are indexed by their proper
    prefixes, so each suffix of l1 looks up its partners directly."""
    lhss = sorted(rule_targets(system))
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


def _overlapping_pairs(system, keep=None):
    """(x, (a1, b1, y), (a2, b2, z)) for every pair of overlapping redexes
    of each overlap word x whose results y and z differ: the words in
    shortlex order, each word's pairs as combinations in redexes order.
    keep(x, a, b, y), when given, filters each word's redexes before they
    are paired, so the pairs are those of the redexes it keeps, in the same
    order.  ref_check_strong_confluence, _open_pairs and the side-back
    lemma of _scanned are filters over this one scan."""
    targets = rule_targets(system)
    for x in sorted(_overlap_words(system), key=shortlex_key):
        found = [(a, b, x[:a] + rhs + x[b:]) for a, b, rhs, _rid in redexes(x, targets)]
        if keep is not None:
            found = [(a, b, y) for a, b, y in found if keep(x, a, b, y)]
        for p, q in itertools.combinations(found, 2):
            (a1, b1, y), (a2, b2, z) = p, q
            if a2 < b1 and a1 < b2 and y != z:
                yield x, p, q


def ref_check_strong_confluence(system, max_nodes=2_000):
    """The full scan: the first pair of _overlapping_pairs that ref_joiner
    does not join is the counterexample."""
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    joinable = ref_joiner(system, max_nodes)
    for x, (_a1, _b1, y), (_a2, _b2, z) in _overlapping_pairs(system):
        if not joinable(y, z):
            return ConfluenceReport(False, (x, y, z))
    return ConfluenceReport(True)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, BudgetExhausted) as exc:
        return type(exc)


def _random_anchored_system(rng, letters):
    """Rules over 2-3 letters with every anchor, symmetric rules and empty
    left-hand sides.  About half the systems are unanchored; their rules do
    not lengthen, which keeps the confluence check's descendant searches
    small."""
    a = Alphabet.from_pairs(letters, [])
    anchored = rng.random() < 0.5
    anchors = list(Anchor) if anchored else [Anchor.NONE]

    def word(lo, hi):
        return tuple(rng.randrange(len(a)) for _ in range(rng.randint(lo, hi)))

    rules = []
    for _ in range(rng.randint(1, 5)):
        lhs = word(0, 3)
        symmetric = rng.random() < 0.2
        rhs = word(len(lhs), len(lhs)) if symmetric else word(0, 3 if anchored else len(lhs))
        rules.append(Rule(lhs, rhs, rng.choice(anchors), symmetric))
    return RewriteSystem(a, rules)


def greedy_path(w, targets):
    """The words from w to its reduce_greedy result: each step rewrites
    the leftmost, then shortest, shortening redex, the first of those in
    redexes order."""
    path = [w]
    while True:
        x = path[-1]
        shortening = [
            (pos, end, rhs) for pos, end, rhs, _rid in redexes(x, targets) if len(rhs) < end - pos
        ]
        if not shortening:
            return path
        pos, end, rhs = min(shortening, key=lambda redex: redex[:2])
        path.append(x[:pos] + rhs + x[end:])


class TestScannersMatchRuleOracle:
    def test_random_systems(self):
        # the scanners against the rule oracle
        rng = random.Random(20121)
        seen = collections.Counter()
        for count in range(2_000):
            s = _random_anchored_system(rng, "ab" if count % 2 else "abc")
            k = len(s.alphabet)
            for r in s.rules:
                seen[r.anchor] += 1
                seen["empty lhs"] += r.lhs == ()
                seen["symmetric"] += r.symmetric
            assert s.has_anchored_rules() == any(r.anchor is not Anchor.NONE for r in s.rules)
            targets = rule_targets(s)
            # the index, flattened: its tuples of right-hand sides are in
            # ANCHORS order, each in rule order
            index = {
                lhs: [(rank, rhs) for rank, rhss in enumerate(slots) for rhs in rhss]
                for lhs, slots in s._index.items()
            }
            assert index == {
                lhs: [(rank, rhs) for rank, _rid, rhs in ts] for lhs, ts in targets.items()
            }
            words = [()] + [
                tuple(rng.randrange(k) for _ in range(rng.randint(1, 5)))
                for _ in range(6)
            ]
            for w in words:
                assert word_successors(w, s) == [
                    w[:pos] + rhs + w[end:] for pos, end, rhs, _rid in redexes(w, targets)
                ]
                # on a cycle anchors dissolve: every rule fires at the start
                # of each rotation, a whole one where the rotation is its lhs
                c = CyclicWord.of(w)
                cycles = {
                    CyclicWord.of(rhs + rot[len(lhs):])
                    for rot in rotations(c.canon)
                    for lhs, ts in targets.items() if rot[: len(lhs)] == lhs
                    for rank, _rid, rhs in ts if ANCHORS[rank] is not Anchor.WHOLE or lhs == rot
                }
                assert cyclic_successors(c, s) == sorted(cycles, key=lambda d: shortlex_key(d.canon))
                path = greedy_path(w, targets)
                budget = rng.randint(1, 3)
                want = path[-1] if len(path) - 1 <= budget else BudgetExhausted
                assert _outcome(reduce_greedy, w, s, budget) == want
                seen["budget"] += want is BudgetExhausted
            report = _outcome(check_strong_confluence, s)
            assert report == _outcome(ref_check_strong_confluence, s)
            if isinstance(report, ConfluenceReport):
                seen[report.ok] += 1
        for kind in (*Anchor, "empty lhs", "symmetric", "budget", True, False):
            assert seen[kind], kind


def _closed_under_involute(system):
    """Whether the formal inverse maps the rule orientations, read from
    system.rules, onto themselves."""
    a = system.alphabet
    pairs = set()
    for r in system.rules:
        pairs.add((r.lhs, r.rhs))
        if r.symmetric:
            pairs.add((r.rhs, r.lhs))
    return pairs == {(involute(l, a), involute(r, a)) for l, r in pairs}


def _apply(g, w):
    """g(w) for a letter map g = (perm, rev): letters mapped, then the word
    reversed when rev."""
    perm, rev = g
    image = tuple(map(perm.__getitem__, w))
    return image[::-1] if rev else image


def _random_involutive_system(rng):
    """Unanchored rules over 2-4 letters whose involution pairs letters in
    most alphabets.  In about 90% of the systems the rules are closed under
    the formal inverse; the rest lack the image of their last rule.  About
    1.5% of the systems may lengthen (empty left-hand sides, longer
    right-hand sides): every failed one-step meet there runs a descendant
    search to its cap, so they are kept rare."""
    letters = "abcd"[: rng.randint(2, 4)]
    rest = list(letters)
    rng.shuffle(rest)
    pairs = []
    while len(rest) >= 2 and rng.random() < 0.8:
        pairs.append((rest.pop(), rest.pop()))
    a = Alphabet.from_pairs(letters, pairs)
    lengthen = rng.random() < 0.015

    def word(lo, hi):
        return tuple(rng.randrange(len(a)) for _ in range(rng.randint(lo, hi)))

    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = word(0 if lengthen else 1, 3)
        symmetric = rng.random() < 0.2
        rhs = word(len(lhs), len(lhs)) if symmetric else word(0, len(lhs) + lengthen)
        rules.append(Rule(lhs, rhs, symmetric=symmetric))
    closed = rng.random() < 0.9
    for r in rules[: None if closed else -1]:
        image = Rule(involute(r.lhs, a), involute(r.rhs, a), symmetric=r.symmetric)
        if image not in rules:
            rules.append(image)
    return RewriteSystem(a, rules)


def _random_symmetric_system(rng, max_lhs=3):
    """Unanchored rules over 2-5 letters closed under a random letter map g:
    a permutation, followed by word reversal in about half the systems.
    The alphabet's involution pairs letters in about half.  In about 10% of
    the systems the last rule is dropped, which can break the symmetry;
    about 3% may lengthen (empty left-hand sides, longer right-hand sides),
    where searches can reach their bounds.  Left-hand sides have at most
    max_lhs letters."""
    letters = "abcde"[: rng.randint(2, 5)]
    rest = list(letters)
    rng.shuffle(rest)
    pairs = []
    while len(rest) >= 2 and rng.random() < 0.5:
        pairs.append((rest.pop(), rest.pop()))
    a = Alphabet.from_pairs(letters, pairs)
    perm = list(range(len(a)))
    rng.shuffle(perm)
    g = (tuple(perm), rng.random() < 0.5)
    lengthen = rng.random() < 0.03

    def word(lo, hi):
        return tuple(rng.randrange(len(a)) for _ in range(rng.randint(lo, hi)))

    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = word(0 if lengthen else 1, max_lhs)
        symmetric = rng.random() < 0.2
        rhs = word(len(lhs), len(lhs)) if symmetric else word(0, len(lhs) + lengthen)
        rule = Rule(lhs, rhs, symmetric=symmetric)
        while rule not in rules:
            rules.append(rule)
            rule = Rule(_apply(g, rule.lhs), _apply(g, rule.rhs), symmetric=symmetric)
    if rng.random() < 0.1 and len(rules) > 1:
        rules.pop()
    return RewriteSystem(a, rules)


def _live_targets(system):
    """lhs -> the rhs of its live orientations, as rule_targets orders
    them: those that no rule rewrites back from rhs to lhs."""
    targets = rule_targets(system)
    return {
        lhs: [rhs for _rank, _rid, rhs in ts if lhs not in [b for _r, _i, b in targets.get(rhs, ())]]
        for lhs, ts in targets.items()
    }


def _open_pairs(system):
    """The pairs (x, (a1, b1, y), (a2, b2, z)) of _overlapping_pairs that
    check_strong_confluence searches, in its order: both redexes live (no
    rule rewrites the result back at the redex's span), their spans
    together cover x, and the one-step meets, read off word_successors,
    are disjoint.  The redexes that are not live are dropped before
    pairing."""
    live = _live_targets(system)

    def is_live(x, a, b, y):
        return y[a : len(y) - len(x) + b] in live[x[a:b]]

    @functools.cache
    def meet(y):
        return {y, *word_successors(y, system)}

    for x, p, q in _overlapping_pairs(system, is_live):
        (a1, b1, y), (a2, b2, z) = p, q
        if (a1 == 0 or a2 == 0) and len(x) in (b1, b2) and not meet(y) & meet(z):
            yield x, p, q


def _tested_pairs(monkeypatch, system):
    """The outcome of check_strong_confluence on system and the pairs of
    _open_pairs that reached _strongly_joinable, in order.  The pairs that
    reach it are the first pairs of _open_pairs, in its order: all of them
    when the check found the system confluent, else up to the one it
    stopped at, its counterexample when it found one."""
    searched = []
    joinable = rewrite._strongly_joinable

    def spy(y, z, system, pool):
        searched.append((y, z))
        return joinable(y, z, system, pool)

    with monkeypatch.context() as m:
        m.setattr(rewrite, "_strongly_joinable", spy)
        report = _outcome(check_strong_confluence, system)
    reference = _open_pairs(system)
    if report != ConfluenceReport(True):
        assert searched  # only a search fails or raises BudgetExhausted
        reference = itertools.islice(reference, len(searched))
    reference = list(reference)
    assert searched == [(y, z) for _x, (_a1, _b1, y), (_a2, _b2, z) in reference]
    if report not in (BudgetExhausted, ConfluenceReport(True)):
        x, (_a1, _b1, y), (_a2, _b2, z) = reference[-1]
        assert report.counterexample == (x, y, z)
    return report, reference


def _against_full_scan(monkeypatch, system, want, seen):
    """check_strong_confluence on system against want, the full scan's
    outcome: the reports are equal wherever the scan decides, and the
    check searches the pairs of _open_pairs.  seen counts the outcomes,
    and the searched pairs whose order the target numbers (i, j) of the
    check fix: a span with two or more live targets ("tie"), and an
    overlap whose longer left-hand side, at the start of x, comes second
    ("swapped").  Returns the check's report and searched pairs."""
    report, searched = _tested_pairs(monkeypatch, system)
    seen["full scan undecided"] += want is BudgetExhausted
    assert report == want or want is BudgetExhausted
    seen["m", system.m_of] += 1
    seen["searched"] += bool(searched)
    seen["lengthening"] += system.has_length_increasing_rules()
    if report is BudgetExhausted:
        seen["budget"] += 1
    else:
        seen["ok", report.ok] += 1
    live = _live_targets(system)
    for x, (a1, b1, _y), (a2, b2, _z) in searched:
        seen["tie"] += max(len(live[x[a1:b1]]), len(live[x[a2:b2]])) >= 2
        seen["swapped"] += a2 == 0 < a1 and b2 < len(x)
    return report, searched


def _scanned(systems):
    """Each system with the outcome of ref_check_strong_confluence on it,
    read with one ref_joiner in one pass over _overlapping_pairs that checks
    the reversible-side lemma on the way: every pair with a side that
    rewrites back to x in one step joins where the joiner decides, after the
    pair the scan stops at too.  The second result counts those pairs of all
    the systems by outcome, and a pair the joiner does not join under its
    (x, y, z)."""
    scanned, side_backs = [], collections.Counter()
    for system in systems:
        joinable = ref_joiner(system)
        step = functools.cache(lambda w, s=system: set(word_successors(w, s)))
        want = None
        for x, (_a1, _b1, y), (_a2, _b2, z) in _overlapping_pairs(system):
            back = x in step(y) or x in step(z)
            if back or want is None:
                got = _outcome(joinable, y, z)
                if back:
                    side_backs[got if got is True or got is BudgetExhausted else (x, y, z)] += 1
                if got is not True and want is None:
                    want = got if got is BudgetExhausted else ConfluenceReport(False, (x, y, z))
        scanned.append((system, ConfluenceReport(True) if want is None else want))
    return scanned, side_backs


@pytest.fixture(scope="module")
def s_eps_corpus():
    """S_eps of six pregroups.  hnn_s3 (|P| = 42) is left to
    test_05_pregroup_corpus_axioms: the full scan takes seconds there."""
    return _scanned(derive_system(p, "S_eps") for p in [
        samples.dihedral_infinity(),
        samples.z4_amalgam_z6(),
        samples.free_pregroup(2),
        samples.z4_table(),
        samples.s3_table(),
        hnn_cyclic(4, 2),
    ])


@pytest.fixture(scope="module")
def involutive_corpus():
    """2,000 systems drawn near closure under the formal inverse."""
    rng = random.Random(20122)
    return _scanned(_random_involutive_system(rng) for _ in range(2_000))


@pytest.fixture(scope="module")
def symmetric_corpus():
    """1,000 systems closed under a random letter map."""
    rng = random.Random(20123)
    return _scanned(_random_symmetric_system(rng) for _ in range(1_000))


class TestFormalInverseSkipMatchesFullScan:
    """On systems drawn near closure under the formal inverse, and on S_eps,
    the reports of check_strong_confluence equal those of the full scan
    ref_check_strong_confluence, and the pairs it searches are those of
    _open_pairs (the class is named after a skip the check no longer has)."""

    def test_random_involutive_systems(self, monkeypatch, involutive_corpus):
        seen = collections.Counter()
        for s, want in involutive_corpus[0]:
            report, _searched = _against_full_scan(monkeypatch, s, want, seen)
            assert report == want
            seen["invariant", _closed_under_involute(s)] += 1
            seen["paired"] += any(i != j for i, j in enumerate(s.alphabet.involution))
            seen["empty lhs"] += any(r.lhs == () for r in s.rules)
        assert seen["paired"] > 1_500 and seen["searched"] > 900, seen
        # searched pairs whose order the target numbers (i, j) fix
        assert seen["tie"] and seen["swapped"], seen
        assert 1_600 < seen["invariant", True] and seen["invariant", False] > 100
        assert seen["ok", True] and seen["ok", False]
        for kind in ("empty lhs", "lengthening"):
            assert seen[kind], kind

    def test_s_eps_corpus(self, monkeypatch, s_eps_corpus):
        # the one-step meet closes every pair of two live redexes
        for s, want in s_eps_corpus[0]:
            assert _closed_under_involute(s)
            report, searched = _against_full_scan(monkeypatch, s, want, collections.Counter())
            assert report.ok and searched == [] and report == want

    def test_s_eps_of_random_tables(self):
        rng = random.Random(1)
        seen = collections.Counter()
        large = 0  # non-invariant tables on 4-6 elements
        for _ in range(400):
            p = random_small_table(rng)
            s = derive_system(p, "S_eps")
            invariant = _closed_under_involute(s)
            report = check_strong_confluence(s)
            assert report == ref_check_strong_confluence(s)
            large += not invariant and len(p) > 3
            seen[invariant, report.ok] += 1
        assert len(seen) == 4, seen
        assert large > 200


class TestReversibleSides:
    """A critical pair y <- x -> z with a side that rewrites back to x in
    one step closes strongly (z -> x -> y gives y ->(0) y <-* z), so
    check_strong_confluence skips the pairs with a reversible side, one
    that a rule rewrites back at its own span.  On each corpus the pairs
    with a side back join wherever ref_joiner decides."""

    def test_s_eps_corpus(self, s_eps_corpus):
        side_backs = s_eps_corpus[1]
        assert set(side_backs) == {True} and side_backs[True] > 750_000, side_backs

    def test_random_involutive_systems(self, involutive_corpus):
        side_backs = involutive_corpus[1]
        assert set(side_backs) <= {True, BudgetExhausted} and side_backs[True] > 25_000, side_backs

    def test_random_symmetric_systems(self, symmetric_corpus):
        side_backs = symmetric_corpus[1]
        assert set(side_backs) <= {True, BudgetExhausted} and side_backs[True] > 40_000, side_backs

    @pytest.mark.parametrize("rules, counterexample", [
        # ab <-> ba as two plain rules: every pair has a reversible side
        ([("ab", "ba"), ("ba", "ab")], None),
        # aba and bab lead with pairs that have a reversible side; the
        # first pair of two redexes that are not reversible, bf <- bab -> c,
        # fails, ahead of c <- bab -> d
        ([("ab", "ba"), ("ba", "ab"), ("ab", "f"), ("bab", "c"), ("bab", "d")], ("bab", "bf", "c")),
    ])
    def test_opposite_rules_not_marked_symmetric(self, monkeypatch, rules, counterexample):
        a = Alphabet.from_pairs("abcdf", [])
        w = a.word
        s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
        report, searched = _tested_pairs(monkeypatch, s)
        want, searched_words = ConfluenceReport(True), []
        if counterexample is not None:
            want, searched_words = ConfluenceReport(False, tuple(map(w, counterexample))), [w("bab")]
        assert report == ref_check_strong_confluence(s) == want
        # the skipped pairs of aba (baa <- aba -> fa, say) do not reach
        # _strongly_joinable
        assert [x for x, _p, _q in searched] == searched_words


class TestCriticalPairs:
    """check_strong_confluence reads its critical pairs off the live rules
    alone; its reports equal those of the full scan
    ref_check_strong_confluence wherever that scan decides."""

    def test_random_symmetric_systems(self, monkeypatch, symmetric_corpus):
        seen = collections.Counter()
        for s, want in symmetric_corpus[0]:
            _against_full_scan(monkeypatch, s, want, seen)
        assert seen["ok", True] > 200 and seen["ok", False] > 200
        assert seen["searched"] > 450, seen
        # the full scan decides all but a few (2 of the 1,000 draws)
        assert seen["full scan undecided"] <= 10, seen
        for kind in ("lengthening", "budget"):
            assert seen[kind], kind

    def test_long_left_hand_sides(self, monkeypatch):
        # the random systems elsewhere have left-hand sides of at most 3
        # letters; abcd ends with bcd and starts as abce and abz do, but no
        # left-hand side is a prefix of it, so it is no overlap word
        a = Alphabet.from_pairs("abcdez", [])
        w = a.word
        s = RewriteSystem(a, [Rule(w(l), w("e")) for l in ("abce", "bcd", "abz")])
        assert w("abcd") not in _overlap_words(s)
        assert check_strong_confluence(s) == ref_check_strong_confluence(s)
        rng = random.Random(20127)
        seen = collections.Counter()
        for _ in range(300):
            s = _random_symmetric_system(rng, max_lhs=5)
            _against_full_scan(monkeypatch, s, _outcome(ref_check_strong_confluence, s), seen)
        assert seen["m", 4] and seen["m", 5], seen
        assert seen["ok", True] > 100 and seen["ok", False] > 150, seen
        assert seen["searched"] > 150, seen

    def test_target_numbers_order_the_pairs_of_two_spans(self):
        # a b has two targets at [0, 1) and two at [0, 2); eb <- ab -> c
        # meets in one step, and eb <- ab -> d and fb <- ab -> c both fail:
        # the first target at [0, 1) is tried against every target at
        # [0, 2) before the second is, so the counterexample is the former
        a = Alphabet.from_pairs("abcdef", [])
        w = a.word
        rules = [("ab", "c"), ("ab", "d"), ("a", "e"), ("a", "f"), ("e", "f"), ("eb", "c")]
        s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
        want = ConfluenceReport(False, (w("ab"), w("eb"), w("d")))
        assert check_strong_confluence(s) == ref_check_strong_confluence(s) == want

    def test_node_capped_search_is_unknown(self):
        # the full scan meets 'b c a' -> 'b d' after the pairs of its
        # shortlex predecessors were joined, and its search there stops at
        # the node bound; the check meets the pair at the same place and
        # raises too, where both would decide with a larger bound
        a = Alphabet.from_pairs("abcdefg", [])
        w = a.word
        rules = [("", x) for x in "bcdefg"]
        rules += [("ab", "db"), ("b", ""), ("ba", "bd")]
        s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
        for check in (ref_check_strong_confluence, check_strong_confluence):
            with pytest.raises(BudgetExhausted, match="'b c a' and 'b d'"):
                check(s)
        assert ref_check_strong_confluence(s, max_nodes=20_000) == ConfluenceReport(True)

    def test_empty_left_hand_sides_only(self):
        # m(S) = 0: the empty word is the one overlap word, with no pair
        a = _ab()
        for rhss in (["a"], ["a", "b"], ["ab", "ba"]):
            s = RewriteSystem(a, [Rule((), a.word(r)) for r in rhss])
            assert s.m_of == 0
            assert check_strong_confluence(s) == ref_check_strong_confluence(s)
        s = RewriteSystem(a, [])
        assert check_strong_confluence(s) == ref_check_strong_confluence(s) == ConfluenceReport(True)

    def test_one_letter_left_hand_sides(self):
        a = Alphabet.from_pairs("abc", [])
        w = a.word
        cases = [
            ([("a", "b"), ("a", "c")], False),  # b <- a -> c, both irreducible
            ([("a", "b"), ("a", "c"), ("b", "c")], True),
            ([("a", ""), ("b", ""), ("c", "a")], True),
        ]
        for rules, ok in cases:
            s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
            report = check_strong_confluence(s)
            assert report.ok == ok
            assert report == ref_check_strong_confluence(s)
        s = RewriteSystem(a, [Rule(w("a"), w("b")), Rule(w("a"), w("c"))])
        assert check_strong_confluence(s).counterexample == (w("a"), w("b"), w("c"))

    def test_no_letter_symmetry(self):
        # not closed under the formal inverse; no letter map fixes the rules
        a = Alphabet.from_pairs("abc", [("a", "b")])
        w = a.word
        for rules, ok in [
            ([("ab", "c"), ("bc", "a"), ("cc", "")], False),
            ([("ab", ""), ("ac", "c"), ("ccc", "c")], True),
        ]:
            s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
            report = check_strong_confluence(s)
            assert report.ok == ok
            assert report == ref_check_strong_confluence(s)
