import hashlib

import pytest

from cycrew import samples
from cycrew.completion import (
    CyclicRuleSet,
    InverseAssignment,
    PreconditionViolated,
    cdagger,
    check_inverse_assignment,
    circle_extension,
    enumerate_short_cyclic_words,
    hat_extension,
    resolve_short_pairs,
    thue_completion,
)
from cycrew.pregroup import derive_system, gamma_to_p
from cycrew.rewrite import (
    Anchor,
    BudgetExhausted,
    RewriteSystem,
    Rule,
    cyclic_joinable,
    reduce_greedy,
)
from cycrew.words import Alphabet, CyclicWord

from conftest import hnn_cyclic


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

    def test_growth_guard_and_override(self):
        s = samples.growing_cycle_system()
        with pytest.raises(PreconditionViolated):
            hat_extension(s)
        hat = hat_extension(s, allow_nonterminating=True)
        assert len(hat.rules) > len(s.rules)


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
        shorts = enumerate_short_cyclic_words(a, 2)
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
        shorts = enumerate_short_cyclic_words(a, 3)
        keys = [(len(c.canon), c.canon) for c in shorts]
        assert keys == sorted(keys)
        assert max(len(c) for c in shorts) == 4


class TestCyclicRuleSet:
    def test_one_step_merges_base_and_extra(self):
        s = samples.four_letter_cycle_system()
        a = s.alphabet
        u = CyclicWord.of(a.word("acdb"))
        v = CyclicWord.of(a.word("abdc"))
        crs = CyclicRuleSet(s, ((u, v),))
        assert v in crs.one_step(u)
        assert crs.one_step_descending(u) == {v}
        assert crs.one_step_descending(v) == set()


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
        p = samples.group_pregroup(samples.s3_table())
        s = derive_system(p, "S_eps")
        crs, stage = thue_completion(s)
        assert crs.extra
        assert 1 <= stage <= 2 * s.m_of - 2
        for u, v in crs.extra:
            assert len(u) == len(v) == 1

    def test_added_pairs_are_conjugate_letters(self):
        from cycrew.universal import UniversalContext, conjugate_quadratic

        p = samples.group_pregroup(samples.s3_table())
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

    def test_s3_pairs_with_certificates(self):
        p = samples.group_pregroup(samples.s3_table())
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
        table = samples.s3_table()
        p = samples.group_pregroup(table)
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
# on S_eps; the same values as COMPLETE_PINS in bench/workloads.py
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
        # extra lists the pairs member by member in shortlex order, each in
        # the order a search from the member meets its class's successors;
        # on HNN(Z4, 1) members of one class meet them in different orders
        s = derive_system(hnn_cyclic(4, 1), "S_eps")
        crs, stage = thue_completion(s, check_confluence=False)
        ordered = [(u.canon, v.canon) for u, v in crs.extra]
        digest = hashlib.sha256(repr(ordered).encode()).hexdigest()[:16]
        assert (stage, len(ordered), digest) == (1, 96, "99bc3344828b90a5")
