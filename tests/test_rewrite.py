import pytest

from cycrew import samples
from cycrew.rewrite import (
    Anchor,
    BudgetExhausted,
    ConfluenceReport,
    RewriteSystem,
    Rule,
    _strongly_joinable,
    _successor_pool,
    check_strong_confluence,
    check_strong_confluence_naive,
    check_weak_termination_sufficient,
    cyclic_joinable,
    cyclic_successors,
    reduce_greedy,
    word_successors,
)
from cycrew.words import Alphabet, CyclicWord


def _ab():
    return Alphabet.from_pairs("ab", [])


class TestRuleAndSystem:
    def test_symmetric_rule_must_preserve_length(self):
        a = _ab()
        with pytest.raises(ValueError):
            Rule(a.word("ab"), a.word("a"), symmetric=True)

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
        pairs = {(l, r) for l, r, _i, _an in s.oriented_pairs()}
        assert pairs == {(a.word("ab"), a.word("ba")), (a.word("ba"), a.word("ab"))}


class TestWordSuccessors:
    def test_plain_rule_all_positions(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"))])
        succs = {r for r, _i, _p in word_successors(a.word("abab"), s)}
        assert succs == {a.word("bab"), a.word("abb")}

    def test_prefix_anchor_only_fires_at_start(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.PREFIX)])
        assert {r for r, _i, _p in word_successors(a.word("abab"), s)} == {
            a.word("bab")
        }

    def test_suffix_anchor_only_fires_at_end(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.SUFFIX)])
        assert {r for r, _i, _p in word_successors(a.word("abab"), s)} == {
            a.word("abb")
        }

    def test_whole_anchor_needs_exact_word(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.WHOLE)])
        assert word_successors(a.word("abab"), s) == []
        assert {r for r, _i, _p in word_successors(a.word("ab"), s)} == {a.word("b")}

    def test_empty_lhs_inserts_at_every_gap(self):
        a = _ab()
        s = RewriteSystem(a, [Rule((), a.word("b"))])
        succs = [r for r, _i, _p in word_successors(a.word("aa"), s)]
        assert sorted(succs) == sorted(
            [a.word("baa"), a.word("aba"), a.word("aab")]
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
            w = succs[0][0]
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
        assert not check_weak_termination_sufficient(samples.growing_cycle_system())
        assert check_weak_termination_sufficient(samples.free_group_system())


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

    def test_budget_must_be_positive(self):
        s = samples.free_group_system()
        with pytest.raises(ValueError):
            reduce_greedy((), s, budget=0)


class TestCyclicJoinable:
    def test_trivially_joinable(self):
        s = samples.free_group_system()
        c = CyclicWord.of(s.alphabet.word("a"))
        assert cyclic_joinable(c, c, s).status == "joinable"

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


class TestConfluenceChecker:
    def test_anchored_systems_rejected(self):
        a = _ab()
        s = RewriteSystem(a, [Rule(a.word("ab"), a.word("b"), Anchor.PREFIX)])
        with pytest.raises(ValueError):
            check_strong_confluence(s)

    def test_free_group_system(self):
        assert check_strong_confluence(samples.free_group_system(2)).ok

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

    def test_matches_naive_on_random_small_systems(self, rng):
        verdicts = []
        for s in self._random_systems(rng, 40):
            assert check_strong_confluence(s).ok == check_strong_confluence_naive(s, 5).ok
            verdicts.append(check_strong_confluence(s).ok)
        assert True in verdicts and False in verdicts

    def test_matches_naive_on_three_letters(self, rng):
        verdicts = []
        for s in self._random_systems(rng, 60, "abc"):
            assert check_strong_confluence(s).ok == check_strong_confluence_naive(s, 5).ok
            verdicts.append(check_strong_confluence(s).ok)
        assert True in verdicts and False in verdicts

    @staticmethod
    def _all_overlapping_pairs(system):
        # reference: every overlapping pair of redexes on every word made
        # by overlapping or nesting two left-hand sides, all-pairs scan
        lhss = sorted({lhs for lhs, _r, _i, _a in system.oriented_pairs()})
        words = set(lhss)
        for l1 in lhss:
            for l2 in lhss:
                for o in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - o :] == l2[:o]:
                        words.add(l1 + l2[o:])
        pool = _successor_pool(system)
        for x in sorted(words, key=lambda w: (len(w), w)):
            redexes = [
                (pos, pos + len(lhs), x[:pos] + rhs + x[pos + len(lhs) :])
                for length in system._lhs_lengths
                for pos in range(len(x) - length + 1)
                for lhs, rhs, _i, _a in system.oriented_pairs()
                if lhs == x[pos : pos + length]
            ]
            for i, (ai, bi, y) in enumerate(redexes):
                for aj, bj, z in redexes[i + 1 :]:
                    if y != z and ai < bj and aj < bi:
                        if not _strongly_joinable(y, z, system, pool):
                            return ConfluenceReport(False, (x, y, z))
        return ConfluenceReport(True)

    def test_critical_pairs_give_the_all_pairs_report(self, rng):
        # same verdict and the same first counterexample
        for s in self._random_systems(rng, 80, "abc"):
            assert check_strong_confluence(s) == self._all_overlapping_pairs(s)

    def test_counterexamples_replay(self, rng):
        # every reported divergence is real: both sides are one-step
        # rewrites of the source and they do not join strongly
        failures = 0
        for s in self._random_systems(rng, 80, "abc"):
            report = check_strong_confluence(s)
            if report.ok:
                continue
            failures += 1
            x, y, z = report.counterexample
            succs = {r for r, _rid, _pos in word_successors(x, s)}
            assert y in succs and z in succs and y != z
            assert not _strongly_joinable(y, z, s, _successor_pool(s))
        assert failures
