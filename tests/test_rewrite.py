import collections
import itertools
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
    _Descendants,
    _orbit_minima,
    _strongly_joinable,
    _SuccessorPool,
    _symmetries,
    check_strong_confluence,
    check_weak_termination_sufficient,
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
            assert check_weak_termination_sufficient(s) is not want


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
        # pool(w) reads the plain targets alone, which on an unanchored
        # system are all of word_successors, empty left-hand sides included
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
                rewrites = [r for r, _rid, _pos in word_successors(w, s)]
                want = frozenset([w] + rewrites)
                assert pool(w) == want
                # in order: the node-capped searches expand in this order
                assert list(pool.steps(w)) == rewrites
                assert pool(w) is pool(w)
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
        search = _Descendants(w("b"), _SuccessorPool(s).steps, 5)
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
                succs = [y for y, _rid, _pos in word_successors(word(1, 4), s)]
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
            assert not ref_joiner(s)(y, z)
        assert failures


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


def ref_check_strong_confluence(system, max_nodes=2_000):
    """Every pair of overlapping redexes of each overlap word, the words in
    shortlex order and the pairs in redexes order, joined by ref_joiner:
    the first pair that does not join is the counterexample."""
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    joinable = ref_joiner(system, max_nodes)
    targets = rule_targets(system)
    for x in sorted(_overlap_words(system), key=shortlex_key):
        found = [(a, b, x[:a] + rhs + x[b:]) for a, b, rhs, _rid in redexes(x, targets)]
        for (a1, b1, y), (a2, b2, z) in itertools.combinations(found, 2):
            if a2 < b1 and a1 < b2 and y != z and not joinable(y, z):
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


class TestOneIndexMatchesAnchorKeyedIndex:
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
            targets = rule_targets(s)
            pairs = [
                (lhs, rhs, rid, ANCHORS[rank]) for lhs, ts in targets.items() for rank, rid, rhs in ts
            ]
            assert sorted(s.oriented_pairs()) == sorted(pairs)
            words = [()] + [
                tuple(rng.randrange(k) for _ in range(rng.randint(1, 5)))
                for _ in range(6)
            ]
            for w in words:
                assert word_successors(w, s) == [
                    (w[:pos] + rhs + w[end:], rid, pos) for pos, end, rhs, rid in redexes(w, targets)
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


def _one_step_closed(x, system):
    """Every divergence y <- x -> z closes by the one-step meet."""

    def meet(y):
        return {y} | {w for w, _rid, _pos in word_successors(y, system)}

    succs = [y for y, _rid, _pos in word_successors(x, system)]
    return all(
        y == z or meet(y) & meet(z) for i, y in enumerate(succs) for z in succs[i + 1 :]
    )


def _apply(g, w):
    """g(w) for a letter map g = (perm, rev): letters mapped, then the word
    reversed when rev."""
    perm, rev = g
    image = tuple(map(perm.__getitem__, w))
    return image[::-1] if rev else image


def _is_symmetry(g, system, pairs=None):
    """g maps the set of oriented (lhs, rhs) pairs, given or read from
    system, onto itself."""
    if pairs is None:
        pairs = {(l, r) for l, r, _rid, _a in system.oriented_pairs()}
    return {(_apply(g, l), _apply(g, r)) for l, r in pairs} == pairs


def _brute_symmetries(system):
    """The group _symmetries finds, by brute force over all k! * 2 letter
    maps: those that fix every letter in no rule and satisfy _is_symmetry."""
    k = len(system.alphabet)
    pairs = {(l, r) for l, r, _rid, _a in system.oriented_pairs()}
    used = {x for pair in pairs for w in pair for x in w}
    return {
        (perm, rev)
        for perm in itertools.permutations(range(k))
        if all(perm[x] == x for x in range(k) if x not in used)
        for rev in (False, True)
        if _is_symmetry((perm, rev), system, pairs)
    }


def _skips_before(system, x0, group):
    """Some overlap word x before x0 has an image g(x), g in group, that
    comes before it and closes every divergence by the one-step meet: the
    checker may skip x on its way to x0."""
    words = _overlap_words(system)
    for x in sorted(words, key=shortlex_key):
        if shortlex_key(x) >= shortlex_key(x0):
            return False
        for g in group:
            gx = _apply(g, x)
            if gx in words and shortlex_key(gx) < shortlex_key(x) and _one_step_closed(gx, system):
                return True
    return False


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


def _has_images(words, group):
    """Some word of words has an image under group other than itself."""
    return any(_apply(g, x) != x for x in words for g in group)


def _closed(group):
    """group is closed under composition."""
    return all(
        (tuple(p[x] for x in q), r != t) in group for p, r in group for q, t in group
    )


def _brute_orbit_minima(system, group):
    """The shortlex-least word of each orbit of the reference overlap words
    under group, a group: each word not in the orbit of an earlier one."""
    assert _closed(group)
    minima, seen = [], set()
    for x in sorted(_overlap_words(system), key=shortlex_key):
        if x not in seen:
            minima.append(x)
            seen.update(_apply(g, x) for g in group)
    return minima


def _tested_words(monkeypatch, system):
    """The outcome of check_strong_confluence on system and the words it
    tested whose pairs reached _strongly_joinable.  The words it tests,
    those it takes from _orbit_minima, are the first orbit minima, all of
    them when it found the system confluent.  Each side of a pair
    y <- x -> z that reaches _strongly_joinable is the result of a redex
    of x that no rule rewrites back at its own span (read off
    rule_targets): the check skips the pairs with a reversible side, which
    close strongly."""
    tested, searched = [], []
    generate, joinable = rewrite._orbit_minima, rewrite._strongly_joinable
    targets = rule_targets(system)

    def spy_minima(system, symmetries):
        for x in generate(system, symmetries):
            tested.append(x)
            yield x

    def spy_joinable(y, z, system, pool):
        x = tested[-1]
        forward = {
            x[:a] + rhs + x[b:]
            for a, b, rhs, _rid in redexes(x, targets)
            if x[a:b] not in [back for _rank, _rid, back in targets.get(rhs, ())]
        }
        assert y in forward and z in forward, (x, y, z)
        if searched[-1:] != tested[-1:]:
            searched.append(x)
        return joinable(y, z, system, pool)

    with monkeypatch.context() as m:
        m.setattr(rewrite, "_orbit_minima", spy_minima)
        m.setattr(rewrite, "_strongly_joinable", spy_joinable)
        report = _outcome(check_strong_confluence, system)
    minima = _brute_orbit_minima(system, _symmetries(system))
    assert tested == minima[: len(tested)]
    if report == ConfluenceReport(True):
        assert tested == minima
    return report, searched


def _s_eps_corpus():
    """The pregroups whose S_eps the full scan checks.  hnn_s3 (|P| = 42)
    is left to test_05_pregroup_corpus_axioms: the reference scan alone
    takes seconds there."""
    return [
        samples.dihedral_infinity(),
        samples.z4_amalgam_z6(),
        samples.free_pregroup(2),
        samples.z4_table(),
        samples.s3_table(),
        hnn_cyclic(4, 2),
    ]


class TestFormalInverseSkipMatchesFullScan:
    """On systems drawn near closure under the formal inverse, whose letter
    symmetries include it when the rules are closed, check_strong_confluence
    tests the orbit minima alone, and its reports equal those of the full
    scan ref_check_strong_confluence.  The words it tests are the first
    orbit minima of the reference overlap words, in shortlex order."""

    def test_random_involutive_systems(self, monkeypatch):
        rng = random.Random(20122)
        seen = collections.Counter()
        for _ in range(2_000):
            s = _random_involutive_system(rng)
            report, searched = _tested_words(monkeypatch, s)
            assert report == _outcome(ref_check_strong_confluence, s)
            group = _symmetries(s)
            assert list(_orbit_minima(s, group)) == _brute_orbit_minima(s, group)
            # a minimum that needed _strongly_joinable stands for its images
            seen["searched images"] += _has_images(searched, group)
            seen["group > 1"] += len(group) > 1
            invariant = _closed_under_involute(s)
            seen["invariant", invariant] += 1
            seen["paired"] += any(i != j for i, j in enumerate(s.alphabet.involution))
            seen["empty lhs"] += any(r.lhs == () for r in s.rules)
            seen["lengthening"] += s.has_length_increasing_rules()
            if report is BudgetExhausted:
                continue
            seen["ok", report.ok] += 1
            if invariant and not report.ok:
                seen["skip before failure"] += _skips_before(
                    s, report.counterexample[0], _symmetries(s)
                )
        assert seen["paired"] > 1_500 and seen["group > 1"] > 1_500
        assert seen["searched images"] > 100, seen
        assert 1_600 < seen["invariant", True] and seen["invariant", False] > 100
        assert seen["ok", True] and seen["ok", False]
        for kind in ("empty lhs", "lengthening", "skip before failure"):
            assert seen[kind], kind

    def test_s_eps_corpus(self):
        for p in _s_eps_corpus():
            s = derive_system(p, "S_eps")
            assert _closed_under_involute(s)
            report = check_strong_confluence(s)
            assert report.ok
            assert report == ref_check_strong_confluence(s)

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


def _random_symmetric_system(rng, max_lhs=3):
    """Unanchored rules over 2-5 letters closed under a random letter map g,
    returned with g: a permutation, followed by word reversal in about half
    the systems.  The alphabet's involution pairs letters in about half.
    In about 10% of the systems the last rule is dropped, which can break
    the symmetry; about 3% may lengthen (empty left-hand sides, longer
    right-hand sides), where searches can reach their bounds.  Left-hand
    sides have at most max_lhs letters."""
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
    return RewriteSystem(a, rules), g


class TestLetterSymmetries:
    """_symmetries finds the letter maps that send the rules onto
    themselves; check_strong_confluence tests one word of each orbit under
    them, the orbit minima, and its reports equal those of the full scan
    ref_check_strong_confluence wherever that scan decides."""

    def test_random_symmetric_systems(self, monkeypatch):
        rng = random.Random(20123)
        seen = collections.Counter()
        for _ in range(1_000):
            s, g = _random_symmetric_system(rng)
            report, searched = _tested_words(monkeypatch, s)
            want = _outcome(ref_check_strong_confluence, s)
            seen["full scan undecided"] += want is BudgetExhausted
            assert report == want or want is BudgetExhausted
            group = _symmetries(s)
            assert group == _brute_symmetries(s)
            assert list(_orbit_minima(s, group)) == _brute_orbit_minima(s, group)
            planted = _is_symmetry(g, s)
            if planted:
                # letters in no rule stay fixed in the maps found
                used = {x for r in s.rules for x in r.lhs + r.rhs}
                assert any(
                    r == g[1] and all(p[x] == g[0][x] for x in used) for p, r in group
                )
            seen["planted", planted] += 1
            seen["reversing", g[1]] += planted
            seen["order > 2"] += len(group) > 2
            seen["lengthening"] += s.has_length_increasing_rules()
            seen["searched images"] += _has_images(searched, group)
            if report is BudgetExhausted:
                seen["budget"] += 1
                continue
            seen["ok", report.ok] += 1
            if not report.ok:
                seen["skip before failure"] += _skips_before(s, report.counterexample[0], group)
        assert seen["planted", True] > 850 and seen["planted", False]
        assert seen["reversing", True] > 350 and seen["reversing", False] > 350
        assert seen["ok", True] > 200 and seen["ok", False] > 200
        assert seen["searched images"] > 200, seen
        # the full scan decides all but a few (2 of the 1,000 draws)
        assert seen["full scan undecided"] <= 10, seen
        for kind in ("order > 2", "lengthening", "budget", "skip before failure"):
            assert seen[kind], kind

    def test_join_of_a_minimum_holds_for_its_images(self):
        # the full scan meets 'b c a' -> 'b d' at an image of a minimum
        # whose pairs were joined, and its search there stops at the node
        # bound; the check tests the minimum alone and decides, as the full
        # scan does once that bound is raised
        a = Alphabet.from_pairs("abcdefg", [])
        w = a.word
        rules = [("", x) for x in "bcdefg"]
        rules += [("ab", "db"), ("b", ""), ("ba", "bd")]
        s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
        assert len(_symmetries(s)) == 48
        with pytest.raises(BudgetExhausted, match="'b c a' and 'b d'"):
            ref_check_strong_confluence(s)
        assert check_strong_confluence(s) == ConfluenceReport(True)
        assert ref_check_strong_confluence(s, max_nodes=20_000) == ConfluenceReport(True)

    def test_s_eps_groups(self):
        # the orders of the pregroups' automorphism groups (the signed
        # permutations of two free letters; 32 on HNN(Z4, Z2), 48 on
        # HNN(Z6, Z3)), doubled by the formal inverse
        # (_is_symmetry tests every map of the two smaller groups, and every
        # twelfth of the largest, where one test takes about 30 ms)
        cases = [(samples.free_pregroup(2), 16, 1), (hnn_cyclic(4, 2), 64, 1), (hnn_cyclic(6, 3), 96, 12)]
        for p, order, step in cases:
            s = derive_system(p, "S_eps")
            group = _symmetries(s)
            assert len(group) == order
            assert sum(rev for _perm, rev in group) == order // 2
            assert (s.alphabet.involution, True) in group
            assert _closed(group)
            assert all(_is_symmetry(g, s) for g in sorted(group)[::step])

    def test_letters_in_no_rule_stay_fixed(self):
        # c <-> c over a b c d with a~ = b: the formal inverse swaps a and
        # b, which are in no rule, so it is tried as the identity reversed
        a = Alphabet.from_pairs("abcd", [("a", "b")])
        s = RewriteSystem(a, [Rule(a.word("c"), a.word("c"), symmetric=True)])
        assert _symmetries(s) == {((0, 1, 2, 3), False), ((0, 1, 2, 3), True)}
        assert _symmetries(s) == _brute_symmetries(s)

    def test_orientations_listed_twice(self):
        # the group is read off the set of oriented pairs: a rule given
        # twice, or a plain rule next to a symmetric one that holds it,
        # gives the group of the system without the repeat
        a = Alphabet.from_pairs("abcd", [("a", "b")])
        w = a.word
        once = [Rule(w("ab"), w("c")), Rule(w("ba"), w("d"))]
        twins = [
            (once + [Rule(w("ab"), w("c"))], once),
            (once + [Rule(w("cd"), w("dc")), Rule(w("cd"), w("dc"), symmetric=True)],
             once + [Rule(w("cd"), w("dc"), symmetric=True)]),
        ]
        for rules, deduplicated in twins:
            s, t = RewriteSystem(a, rules), RewriteSystem(a, deduplicated)
            pairs = [(l, r) for l, r, _rid, _a in s.oriented_pairs()]
            assert len(pairs) > len(set(pairs))  # an orientation listed twice
            assert _symmetries(s) == _symmetries(t) == _brute_symmetries(t)
            assert len(_symmetries(s)) > 1

    def test_alphabet_past_a_byte(self):
        # 300 letters, three of them in rules: the same group as over the
        # three letters alone, the other letters fixed
        rules = [Rule(l, r) for l, r in [((0,), (1,)), ((0,), (2,)), ((1, 2), (0,)), ((2, 1), (0,))]]
        small = RewriteSystem(Alphabet.from_pairs("abc", []), rules)
        wide = RewriteSystem(Alphabet.from_pairs([f"x{i}" for i in range(300)], []), rules)
        group = _symmetries(wide)
        assert all(perm[3:] == tuple(range(3, 300)) for perm, _rev in group)
        assert {(perm[:3], rev) for perm, rev in group} == _symmetries(small)
        assert _symmetries(small) == _brute_symmetries(small) and len(group) == 4


def _pairs_with_a_side_back(system):
    """Every critical pair y <- x -> z of system, read off redexes as in
    ref_check_strong_confluence, with a side that rewrites back to x in one
    step."""
    targets = rule_targets(system)
    for x in sorted(_overlap_words(system), key=shortlex_key):
        found = [(a, b, x[:a] + rhs + x[b:]) for a, b, rhs, _rid in redexes(x, targets)]
        back = {
            y for _a, _b, y in found if x in [w for w, _rid, _pos in word_successors(y, system)]
        }
        for (a1, b1, y), (a2, b2, z) in itertools.combinations(found, 2):
            if a2 < b1 and a1 < b2 and y != z and (y in back or z in back):
                yield x, y, z


class TestReversibleSides:
    """A critical pair y <- x -> z with a side that rewrites back to x in
    one step closes strongly (z -> x -> y gives y ->(0) y <-* z), so
    check_strong_confluence skips the pairs with a reversible side, one
    that a rule rewrites back at its own span."""

    @staticmethod
    def _joined_where_decided(systems):
        seen = collections.Counter()
        for s in systems:
            joinable = ref_joiner(s)
            for x, y, z in _pairs_with_a_side_back(s):
                got = _outcome(joinable, y, z)
                assert got is True or got is BudgetExhausted, (x, y, z)
                seen[got] += 1
        return seen

    def test_s_eps_corpus(self):
        seen = self._joined_where_decided(derive_system(p, "S_eps") for p in _s_eps_corpus())
        assert seen[True] > 750_000 and not seen[BudgetExhausted], seen

    def test_random_involutive_systems(self):
        rng = random.Random(20122)
        seen = self._joined_where_decided(_random_involutive_system(rng) for _ in range(2_000))
        assert seen[True] > 25_000, seen

    def test_random_symmetric_systems(self):
        rng = random.Random(20123)
        seen = self._joined_where_decided(_random_symmetric_system(rng)[0] for _ in range(1_000))
        assert seen[True] > 40_000, seen

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
        report, searched = _tested_words(monkeypatch, s)
        want, searched_words = ConfluenceReport(True), []
        if counterexample is not None:
            want, searched_words = ConfluenceReport(False, tuple(map(w, counterexample))), [w("bab")]
        assert report == ref_check_strong_confluence(s) == want
        # the skipped pairs of aba (baa <- aba -> fa, say) do not reach
        # _strongly_joinable
        assert searched == searched_words


class TestOrbitMinima:
    """_orbit_minima generates the shortlex-least word of each orbit of
    overlap words, the words check_strong_confluence tests."""

    def test_s_eps_corpus(self):
        counts = {"hnn": 1_734, "hnn42": 227}  # orbit minima on the larger systems
        pregroups = [
            ("dinf", samples.dihedral_infinity()),
            ("z4z6", samples.z4_amalgam_z6()),
            ("free", samples.free_pregroup(2)),
            ("s3-table", samples.s3_table()),
            ("hnn42", hnn_cyclic(4, 2)),
            ("hnn", samples.hnn_s3()),
        ]
        for name, p in pregroups:
            s = derive_system(p, "S_eps")
            group = _symmetries(s)
            minima = list(_orbit_minima(s, group))
            assert minima == _brute_orbit_minima(s, group), name
            assert len(minima) == counts.get(name, len(minima)), name

    def test_long_left_hand_sides(self):
        # the random systems elsewhere have left-hand sides of at most 3
        # letters; here a prefix can still be a left-hand side prefix when
        # a walk for a suffix, opened for a shorter left-hand side that it
        # then missed, completes (abcd: bcd, but neither abz nor abce)
        a = Alphabet.from_pairs("abcdez", [])
        w = a.word
        s = RewriteSystem(a, [Rule(w(l), w("e")) for l in ("abce", "bcd", "abz")])
        group = _symmetries(s)
        assert w("abcd") not in _overlap_words(s)
        assert list(_orbit_minima(s, group)) == _brute_orbit_minima(s, group)
        rng = random.Random(20127)
        seen = collections.Counter()
        for _ in range(300):
            s, _g = _random_symmetric_system(rng, max_lhs=5)
            group = _symmetries(s)
            assert list(_orbit_minima(s, group)) == _brute_orbit_minima(s, group)
            seen[s.m_of] += 1
            seen["group > 1"] += len(group) > 1
        assert seen[4] and seen[5] and seen["group > 1"] > 100, seen

    def test_empty_left_hand_sides_only(self):
        # m(S) = 0: the empty word is the one overlap word
        a = _ab()
        for rhss in (["a"], ["a", "b"], ["ab", "ba"]):
            s = RewriteSystem(a, [Rule((), a.word(r)) for r in rhss])
            assert s.m_of == 0
            assert list(_orbit_minima(s, _symmetries(s))) == [()]
            assert check_strong_confluence(s) == ref_check_strong_confluence(s)
        s = RewriteSystem(a, [])
        assert _symmetries(s) == {((0, 1), False)}  # no pair verifies a map
        assert list(_orbit_minima(s, _symmetries(s))) == []
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
            group = _symmetries(s)
            assert list(_orbit_minima(s, group)) == _brute_orbit_minima(s, group)
        # the first system's group swaps b and c, with and without reversal
        s = RewriteSystem(a, [Rule(w("a"), w("b")), Rule(w("a"), w("c"))])
        assert len(_symmetries(s)) == 4
        assert list(_orbit_minima(s, _symmetries(s))) == [w("a")]
        assert check_strong_confluence(s).counterexample == (w("a"), w("b"), w("c"))

    def test_trivial_symmetry_group(self):
        # not closed under the formal inverse; no letter map fixes the rules
        a = Alphabet.from_pairs("abc", [("a", "b")])
        w = a.word
        for rules, ok in [
            ([("ab", "c"), ("bc", "a"), ("cc", "")], False),
            ([("ab", ""), ("ac", "c"), ("ccc", "c")], True),
        ]:
            s = RewriteSystem(a, [Rule(w(l), w(r)) for l, r in rules])
            assert _symmetries(s) == {((0, 1, 2), False)}
            assert list(_orbit_minima(s, _symmetries(s))) == sorted(
                _overlap_words(s), key=shortlex_key
            )
            report = check_strong_confluence(s)
            assert report.ok == ok
            assert report == ref_check_strong_confluence(s)

    def test_cut_symmetry_search_returns_a_group(self, monkeypatch):
        # closing the group under a map that would pass the bound leaves it
        # as it was, so its orbits still partition the overlap words
        # (a group that just fits the bound is kept: 8 maps at bound 8)
        s = derive_system(samples.free_pregroup(2), "S_eps")
        want = ref_check_strong_confluence(s)
        sizes = []
        for bound in (1, 2, 3, 5, 8, 15):
            monkeypatch.setattr(rewrite, "_SYMMETRY_MAPS", bound)
            group = _symmetries(s)
            assert len(group) <= bound and _closed(group)
            assert all(_is_symmetry(g, s) for g in group)
            assert list(_orbit_minima(s, group)) == _brute_orbit_minima(s, group)
            assert check_strong_confluence(s) == want
            sizes.append(len(group))
        monkeypatch.undo()
        assert sizes == [1, 2, 2, 4, 8, 8], sizes
        # the node bound: a search cut at a few nodes returns the maps
        # verified so far, closed to a group (16 and 64 maps uncut); the
        # sizes at each bound are pinned, keyed by the alphabet size
        pinned = {5: [2, 2, 2, 4, 16], 20: [2, 2, 2, 16, 64]}
        for p in (samples.free_pregroup(2), hnn_cyclic(4, 2)):
            s = derive_system(p, "S_eps")
            full = len(_symmetries(s))
            want = check_strong_confluence(s)
            sizes = []
            for bound in (1, 2, 5, 10, 20):
                monkeypatch.setattr(rewrite, "_SYMMETRY_NODES", bound)
                group = _symmetries(s)
                assert _closed(group)
                assert all(_is_symmetry(g, s) for g in group)
                assert list(_orbit_minima(s, group)) == _brute_orbit_minima(s, group)
                assert check_strong_confluence(s) == want
                sizes.append(len(group))
            monkeypatch.undo()
            assert sizes[0] < full, sizes
            assert sizes == pinned[len(s.alphabet)], sizes
