import collections
import random

import pytest

from cycrew import rewrite, samples
from cycrew.pregroup import derive_system
from cycrew.rewrite import (
    Anchor,
    BudgetExhausted,
    ConfluenceReport,
    RewriteSystem,
    Rule,
    _Descendants,
    _overlap_words,
    _strongly_joinable,
    _SuccessorPool,
    _symmetries,
    check_strong_confluence,
    check_strong_confluence_naive,
    check_weak_termination_sufficient,
    cyclic_joinable,
    cyclic_successors,
    reduce_greedy,
    word_successors,
)
from cycrew.words import Alphabet, CyclicWord, involute, rotations, shortlex_key

from conftest import hnn_cyclic
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
                want = frozenset([w] + [r for r, _rid, _pos in word_successors(w, s)])
                assert pool(w) == want
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
        # one pool per system, its searches resumed from pair to pair; the
        # parent's searches drop rewrites over the length bound silently,
        # so they answer False where the pool raises BudgetExhausted
        rng = random.Random(20125)
        seen = collections.Counter()
        for _ in range(150):
            a = Alphabet.from_pairs(rng.choice(["ab", "abc"]), [])

            def word(lo, hi):
                return tuple(rng.randrange(len(a)) for _ in range(rng.randint(lo, hi)))

            s = RewriteSystem(a, [Rule(word(0, 3), word(0, 4)) for _ in range(rng.randint(1, 4))])
            pool = _SuccessorPool(s)
            for _ in range(3):
                succs = [y for y, _rid, _pos in word_successors(word(1, 4), s)]
                for y, z in zip(succs, succs[1:]):
                    got = _outcome(_strongly_joinable, y, z, s, pool)
                    want = _outcome(ref_strongly_joinable, y, z, s, _SuccessorPool(s))
                    if got != want:
                        assert (want, got) == (False, BudgetExhausted)
                        cap = max(len(y), len(z)) + 2 * s.m_of
                        assert pool.descendants(y, cap).pruned or pool.descendants(z, cap).pruned
                    seen[got, want] += 1
        for kind in [
            (True, True),
            (False, False),
            (BudgetExhausted, BudgetExhausted),
            (BudgetExhausted, False),
        ]:
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
        pool = _SuccessorPool(system)
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
            assert not _strongly_joinable(y, z, s, _SuccessorPool(s))
        assert failures


# The index-walking scanners of the (lhs, anchor)-keyed index, kept as
# references for the one-index scanners; each builds its own index.


def _ref_index(system):
    index = collections.defaultdict(list)
    for rid, r in enumerate(system.rules):
        index[(r.lhs, r.anchor)].append((rid, r.rhs))
        if r.symmetric and r.rhs != r.lhs:
            index[(r.rhs, r.anchor)].append((rid, r.lhs))
    return index, sorted({len(l) for (l, _a) in index})


def ref_oriented_pairs(system):
    index, _lengths = _ref_index(system)
    for (lhs, anchor), targets in index.items():
        for rid, rhs in targets:
            yield lhs, rhs, rid, anchor


def ref_word_successors(w, system):
    index, lhs_lengths = _ref_index(system)
    out = []
    n = len(w)
    for length in lhs_lengths:
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


def ref_cyclic_successors(c, system):
    index, lhs_lengths = _ref_index(system)
    results = set()
    canon = c.canon
    n = len(canon)
    rots = rotations(canon)
    for length in lhs_lengths:
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


def ref_reduce_greedy(w, system, budget=10_000):
    # raises once budget applications are made, before testing whether the
    # word is already irreducible
    if budget <= 0:
        raise ValueError("budget must be positive")
    index, lhs_lengths = _ref_index(system)
    lengths = [l for l in lhs_lengths if l > 0]
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


def ref_check_strong_confluence(system):
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    succ_or_self = _SuccessorPool(system)
    index, lhs_lengths = _ref_index(system)
    for x in sorted(_overlap_words(system), key=shortlex_key):
        n = len(x)
        spans = []  # (start, end, [(result word, its successors or self)])
        for length in lhs_lengths:
            for pos in range(n - length + 1):
                targets = index.get((x[pos : pos + length], Anchor.NONE))
                if targets:
                    results = [x[:pos] + rhs + x[pos + length :] for _rid, rhs in targets]
                    spans.append(
                        (pos, pos + length, [(y, succ_or_self(y)) for y in results])
                    )
        for i, (a1, b1, ys) in enumerate(spans):
            partners = [
                zs
                for a2, b2, zs in spans[i + 1 :]
                if a2 < b1 and a1 < b2 and min(a1, a2) == 0 and max(b1, b2) == n
            ]
            whole = a1 == 0 and b1 == n > 0
            for k, (y, sy) in enumerate(ys):
                for group in ([ys[k + 1 :]] if whole else []) + partners:
                    for z, sz in group:
                        if y == z or not sy.isdisjoint(sz):
                            continue
                        if not _strongly_joinable(y, z, system, succ_or_self):
                            return ConfluenceReport(False, (x, y, z))
    return ConfluenceReport(True)


# The parent's descendant searches, verbatim: no memo, and rewrites over
# the length bound are dropped without marking the search as cut.


def ref_bounded_descendants(w, system, max_nodes=2_000, max_len=None):
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
    return seen, bool(queue)


def ref_strongly_joinable(y, z, system, succ_or_self):
    sy = succ_or_self(y)
    sz = succ_or_self(z)
    if not sy.isdisjoint(sz):
        return True
    cap = max(len(y), len(z)) + 2 * system.m_of
    dy, cut_y = ref_bounded_descendants(y, system, max_len=cap)
    if not dy.isdisjoint(sz):
        return True
    dz, cut_z = ref_bounded_descendants(z, system, max_len=cap)
    if not dz.isdisjoint(sy):
        return True
    if cut_y or cut_z:
        fmt = system.alphabet.format
        raise BudgetExhausted(
            f"no strong join of {fmt(y)!r} and {fmt(z)!r} within the search bound"
        )
    return False


# The parent's scan, with the formal-inverse skip: verbatim but for the
# pool's name.  It calls the module's _strongly_joinable, so it differs from
# check_strong_confluence only in the words it tests.


def ref_sigma_check_strong_confluence(system):
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    succ_or_self = _SuccessorPool(system)
    index = system._index
    alphabet = system.alphabet
    pairs = {(lhs, rhs) for lhs, rhs, _rid, _a in system.oriented_pairs()}
    invariant = pairs == {
        (involute(lhs, alphabet), involute(rhs, alphabet)) for lhs, rhs in pairs
    }
    met = set()  # tested words whose pairs all closed by the one-step meet
    for x in sorted(_overlap_words(system), key=shortlex_key):
        if invariant and involute(x, alphabet) in met:
            continue
        n = len(x)
        spans = []  # (start, end, [(result word, its successors or self)])
        for length in system._lhs_lengths:
            for pos in range(n - length + 1):
                slots = index.get(x[pos : pos + length])
                if slots is not None:
                    # the system is unanchored: every target is plain
                    results = [x[:pos] + rhs + x[pos + length :] for _rid, rhs in slots[0]]
                    spans.append(
                        (pos, pos + length, [(y, succ_or_self(y)) for y in results])
                    )
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
                        if not _strongly_joinable(y, z, system, succ_or_self):
                            return ConfluenceReport(False, (x, y, z))
                        one_step = False
        if invariant and one_step:
            met.add(x)
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


class TestOneIndexMatchesAnchorKeyedIndex:
    def test_random_systems(self):
        rng = random.Random(20121)
        seen = collections.Counter()
        for count in range(2_000):
            s = _random_anchored_system(rng, "ab" if count % 2 else "abc")
            k = len(s.alphabet)
            for r in s.rules:
                seen[r.anchor] += 1
                seen["empty lhs"] += r.lhs == ()
                seen["symmetric"] += r.symmetric
            assert sorted(s.oriented_pairs()) == sorted(ref_oriented_pairs(s))
            words = [()] + [
                tuple(rng.randrange(k) for _ in range(rng.randint(1, 5)))
                for _ in range(6)
            ]
            for w in words:
                assert word_successors(w, s) == ref_word_successors(w, s)
                c = CyclicWord.of(w)
                assert cyclic_successors(c, s) == ref_cyclic_successors(c, s)
                budget = rng.randint(1, 3)
                got = _outcome(reduce_greedy, w, s, budget)
                want = _outcome(ref_reduce_greedy, w, s, budget)
                if got != want:
                    # the reference gives up one application early
                    assert want is BudgetExhausted
                    assert got == ref_reduce_greedy(w, s, budget + 1)
                    seen["budget fix"] += 1
            report = _outcome(check_strong_confluence, s)
            assert report == _outcome(ref_check_strong_confluence, s)
            if isinstance(report, ConfluenceReport):
                seen[report.ok] += 1
        for kind in (*Anchor, "empty lhs", "symmetric", "budget fix", True, False):
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
    image = tuple(perm[x] for x in w)
    return image[::-1] if rev else image


def _is_symmetry(g, system):
    pairs = {(l, r) for l, r, _rid, _a in system.oriented_pairs()}
    return {(_apply(g, l), _apply(g, r)) for l, r in pairs} == pairs


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


class TestFormalInverseSkipMatchesFullScan:
    """check_strong_confluence tests one word of each formal-inverse orbit
    on invariant systems; its reports equal those of the full scan
    ref_check_strong_confluence."""

    def test_random_involutive_systems(self):
        rng = random.Random(20122)
        seen = collections.Counter()
        for _ in range(2_000):
            s = _random_involutive_system(rng)
            report = _outcome(check_strong_confluence, s)
            assert report == _outcome(ref_check_strong_confluence, s)
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
        assert seen["paired"] > 1_500
        assert 1_600 < seen["invariant", True] and seen["invariant", False] > 100
        assert seen["ok", True] and seen["ok", False]
        for kind in ("empty lhs", "lengthening", "skip before failure"):
            assert seen[kind], kind

    def test_s_eps_corpus(self):
        # hnn_s3 (|P| = 42) is left to test_05_pregroup_corpus_axioms: the
        # reference scan alone takes seconds there
        pregroups = [
            samples.dihedral_infinity(),
            samples.z4_amalgam_z6(),
            samples.free_pregroup(2),
            samples.z4_table(),
            samples.s3_table(),
            hnn_cyclic(4, 2),
        ]
        for p in pregroups:
            s = derive_system(p, "S_eps")
            assert _closed_under_involute(s)
            report = check_strong_confluence(s)
            assert report.ok
            assert report == ref_check_strong_confluence(s)
            assert report == ref_sigma_check_strong_confluence(s)

    def test_s_eps_of_random_tables(self):
        rng = random.Random(1)
        seen = collections.Counter()
        large = 0  # non-invariant tables on 4-6 elements
        for _ in range(400):
            p = random_small_table(rng)
            s = derive_system(p, "S_eps")
            invariant = _closed_under_involute(s)
            report = check_strong_confluence(s)
            if invariant or len(p) <= 3:
                assert report == ref_check_strong_confluence(s)
            else:
                assert report == ref_sigma_check_strong_confluence(s)
                large += 1
            seen[invariant, report.ok] += 1
        assert len(seen) == 4, seen
        assert large > 200


def _random_symmetric_system(rng):
    """Unanchored rules over 2-5 letters closed under a random letter map g,
    returned with g: a permutation, followed by word reversal in about half
    the systems.  The alphabet's involution pairs letters in about half.
    In about 10% of the systems the last rule is dropped, which can break
    the symmetry; about 3% may lengthen (empty left-hand sides, longer
    right-hand sides), where searches can reach their bounds."""
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
        lhs = word(0 if lengthen else 1, 3)
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
    them, and its reports equal those of the parent's scan
    ref_sigma_check_strong_confluence."""

    def test_random_symmetric_systems(self):
        rng = random.Random(20123)
        seen = collections.Counter()
        for _ in range(1_000):
            s, g = _random_symmetric_system(rng)
            report = _outcome(check_strong_confluence, s)
            assert report == _outcome(ref_sigma_check_strong_confluence, s)
            group = _symmetries(s)
            assert (tuple(range(len(s.alphabet))), False) in group
            assert all(_is_symmetry(h, s) for h in group)
            if len(group) <= 24:  # closed under composition
                assert all(
                    (tuple(p[x] for x in q), r != t) in group for p, r in group for q, t in group
                )
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
            if report is BudgetExhausted:
                seen["budget"] += 1
                continue
            seen["ok", report.ok] += 1
            if not report.ok:
                seen["skip before failure"] += _skips_before(s, report.counterexample[0], group)
        assert seen["planted", True] > 850 and seen["planted", False]
        assert seen["reversing", True] > 350 and seen["reversing", False] > 350
        assert seen["ok", True] > 200 and seen["ok", False] > 200
        for kind in ("order > 2", "lengthening", "budget", "skip before failure"):
            assert seen[kind], kind

    def test_bounded_search_words_are_tested_in_every_image(self, monkeypatch):
        # a word that needed _strongly_joinable is never marked, so the pair
        # it passed to the search is passed again from every image word
        calls = []
        joinable = rewrite._strongly_joinable

        def spy(y, z, system, pool):
            calls.append((y, z))
            return joinable(y, z, system, pool)

        monkeypatch.setattr(rewrite, "_strongly_joinable", spy)
        rng = random.Random(20124)
        searched = 0
        for _ in range(600):
            s, _g = _random_symmetric_system(rng)
            calls.clear()
            if _outcome(check_strong_confluence, s) != ConfluenceReport(True):
                continue
            called = {frozenset(c) for c in calls}
            group = _symmetries(s)
            for y, z in calls:
                for g in group:
                    assert frozenset((_apply(g, y), _apply(g, z))) in called
            searched += bool(calls) and len(group) > 1
        assert searched > 20

    def test_s_eps_groups(self):
        # the orders of the pregroups' automorphism groups (the signed
        # permutations of two free letters; 32 on HNN(Z4, Z2)), doubled by
        # the formal inverse
        for p, order in [(samples.free_pregroup(2), 16), (hnn_cyclic(4, 2), 64)]:
            s = derive_system(p, "S_eps")
            group = _symmetries(s)
            assert len(group) == order
            assert (s.alphabet.involution, True) in group
            assert all(_is_symmetry(g, s) for g in group)
