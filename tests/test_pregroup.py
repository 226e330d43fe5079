import collections
import random

import pytest

from cycrew import pregroup as pregroup_module
from cycrew import samples
from cycrew.constructions import FiniteGroupTable
from cycrew.pregroup import (
    AxiomReport,
    Pregroup,
    PregroupError,
    canonical_subgroup,
    check_axioms,
    check_p6,
    check_p7,
    check_p8,
    derive_system,
    full_alphabet,
    gamma_alphabet,
    gamma_to_p,
    is_reduced,
    key_lemma_check,
    p_to_gamma,
)
from cycrew.rewrite import Rule, check_strong_confluence
from cycrew.universal import UniversalContext

from conftest import hnn_cyclic, hnn_z10_z2, p6_failing, ref_check_axioms


def corpus():
    return [
        samples.dihedral_infinity(),
        samples.z4_amalgam_z6(),
        samples.hnn_s3(),
        samples.free_pregroup(2),
        samples.z4_table(),
        samples.s3_table(),
    ]


class TestConstruction:
    def test_epsilon_rows_synthesized(self):
        p = samples.free_pregroup(1)
        e = p.eps
        for i in range(len(p)):
            assert p.mul(e, i) == i and p.mul(i, e) == i

    def test_stated_epsilon_products_kept(self):
        # [e a] = A contradicts P1; it must reach check_axioms, not be
        # overwritten by the synthesised epsilon row
        p = Pregroup(
            ["e", "a", "A"],
            "e",
            {"a": "A", "A": "a"},
            {("a", "A"): "e", ("A", "a"): "e", ("e", "a"): "A"},
        )
        assert p.mul(0, 1) == 2
        assert p.mul(1, 0) == 1 and p.mul(0, 2) == 2
        assert check_axioms(p).violations["P1"] == [(1,)]

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(PregroupError):
            Pregroup(["e", "e"], "e", {}, {})

    def test_unknown_epsilon_rejected(self):
        with pytest.raises(PregroupError):
            Pregroup(["a"], "e", {}, {})

    @pytest.mark.parametrize(
        "involution, product, where",
        [
            ({"zz": "a"}, {}, "involution"),
            ({"a": "zz"}, {}, "involution"),
            ({}, {("zz", "a"): "e"}, "product"),
            ({}, {("a", "a"): "zz"}, "product"),
        ],
        ids=["involution-key", "involution-value", "product-key", "product-value"],
    )
    def test_unknown_token_named(self, involution, product, where):
        with pytest.raises(PregroupError, match=f"{where} names unknown token 'zz'"):
            Pregroup(["e", "a"], "e", involution, product)

    def test_involution_must_fix_epsilon(self):
        with pytest.raises(PregroupError):
            Pregroup(["e", "a"], "e", {"e": "a", "a": "e"}, {})

    def test_mul3_bracketing_agreement(self):
        for p in corpus():
            n = len(p)
            for i in range(n):
                for j in range(n):
                    ij = p.mul(i, j)
                    if ij is None:
                        continue
                    for k in range(n):
                        jk = p.mul(j, k)
                        if jk is None or p.mul(ij, k) is None:
                            continue
                        assert p.mul(ij, k) == p.mul(i, jk)


class TestAxioms:
    def test_corpus_passes(self):
        for p in corpus():
            rep = check_axioms(p)
            assert rep, rep.violations

    def test_corrupt_involution_gives_p2_witness(self):
        p = samples.free_pregroup(1)
        bad = Pregroup(p.elements, "e", {}, {})  # drop a <-> A
        rep = check_axioms(bad)
        assert not rep.ok("P2")
        assert rep.violations["P2"]

    @staticmethod
    def corrupt_z4():
        table = samples.z4_table()
        product = {
            (table.elements[i], table.elements[j]): table.elements[table.mul(i, j)]
            for i in range(4)
            for j in range(4)
        }
        product[("x", "x")] = "x"  # break inverse compatibility
        involution = {"x": "x3", "x3": "x", "x2": "x2"}
        return Pregroup(table.elements, "e", involution, product)

    def test_corrupt_product_gives_p3_witness(self):
        bad = self.corrupt_z4()
        rep = check_axioms(bad)
        assert not rep.ok()
        assert [bad.tokens(w) for w in rep.violations["P3"]] == [("x", "x"), ("x3", "x3")]

    def test_corrupt_product_gives_p4_witness(self):
        bad = self.corrupt_z4()
        rep = check_axioms(bad)
        assert [bad.tokens(w) for w in rep.violations["P4"]] == [
            ("x", "x", "x2"), ("x", "x", "x3"), ("x", "x2", "x3"), ("x", "x3", "x2"),
            ("x2", "x", "x"), ("x2", "x3", "x"), ("x3", "x", "x"), ("x3", "x2", "x"),
        ]
        assert rep.ok("P1") and rep.ok("P2") and rep.ok("P5")

    def test_p5_failure_detected(self):
        # a path a-b-c-d with both triple products undefined
        elements = ["e", "a", "b", "c", "d", "ab", "bc", "cd"]
        involution = {x: x for x in elements if x != "e"}
        product = {}

        def put(x, y, z):
            product[(x, y)] = z
            product[(y, x)] = z

        for x in elements[1:]:
            product[(x, x)] = "e"
        put("a", "b", "ab")
        put("b", "c", "bc")
        put("c", "d", "cd")
        bad = Pregroup(elements, "e", involution, product)
        rep = check_axioms(bad)
        assert [bad.tokens(w) for w in rep.violations["P5"]] == [
            ("a", "b", "a", "b"), ("a", "b", "c", "b"), ("a", "b", "c", "d"),
            ("b", "a", "b", "a"), ("b", "a", "b", "c"), ("b", "c", "b", "a"),
            ("b", "c", "b", "c"), ("b", "c", "d", "c"), ("c", "b", "a", "b"),
            ("c", "b", "c", "b"), ("c", "b", "c", "d"), ("c", "d", "c", "b"),
            ("c", "d", "c", "d"), ("d", "c", "b", "a"), ("d", "c", "b", "c"),
            ("d", "c", "d", "c"),
        ]


class TestHigherAxioms:
    def test_amalgams(self):
        for p in (samples.dihedral_infinity(), samples.z4_amalgam_z6()):
            assert check_p6(p)[0]
            assert check_p7(p)[0]

    def test_nontrivial_amalgam_fails_p8(self):
        ok, witnesses = check_p8(samples.z4_amalgam_z6())
        assert not ok and witnesses

    def test_hnn(self):
        p = samples.hnn_s3()
        assert check_p6(p)[0]
        assert check_p8(p)[0]
        assert not check_p7(p)[0]

    def test_free_pregroup(self):
        p = samples.free_pregroup(2)
        assert check_p6(p)[0]
        assert check_p8(p)[0]

    def test_p6_violation_witnessed(self):
        # raw table exercising the witness shape: (f,b) and (b,g) defined,
        # (f,g) not, with b outside G_P
        elements = ["e", "f", "g", "b", "q", "r"]
        involution = {x: x for x in elements if x != "e"}
        product = {("f", "b"): "q", ("b", "g"): "r"}
        p = Pregroup(elements, "e", involution, product)
        ok, witnesses = check_p6(p)
        assert not ok
        f, g, b = p.index["f"], p.index["g"], p.index["b"]
        assert (f, g, b) in witnesses


# Reference sweeps: the higher axiom checks as exhaustive quantifier sweeps
# through Pregroup.defined and mul (ref_check_axioms, for P1-P5, is in
# conftest).  The differential tests below require the row passes of
# cycrew.pregroup to return exactly their results, witness order included.


def ref_canonical_subgroup(p: Pregroup) -> frozenset:
    """G_P: the elements whose product with every element is defined both
    ways.  Raises PregroupError unless the result is a subgroup (closed
    under product and involution, containing epsilon), as it is in every
    pregroup."""
    n = len(p)
    g = frozenset(
        x
        for x in range(n)
        if all(p.defined(x, y) and p.defined(y, x) for y in range(n))
    )
    if p.eps not in g or any(
        p.inv[x] not in g or any(p.mul(x, y) not in g for y in g) for x in g
    ):
        raise PregroupError("G_P is not a subgroup: the table is not a pregroup")
    return g


def ref_check_p6(p: Pregroup):
    """(f,g) undefined, (f, inv b) and (b, g) defined => b in G_P."""
    gp = ref_canonical_subgroup(p)
    n = len(p)
    witnesses = []
    for b in range(n):
        if b in gp:
            continue
        for f in range(n):
            if not p.defined(f, p.inv[b]):
                continue
            for g in range(n):
                if p.defined(b, g) and not p.defined(f, g):
                    witnesses.append((f, g, b))
    return (not witnesses), witnesses


def ref_check_p7(p: Pregroup):
    """(y,z) defined, (x,[yz]) defined, [yz] not in G_P  =>  every s in
    {x, inv x}, t in {y, z} multiplies with the other both ways."""
    gp = ref_canonical_subgroup(p)
    witnesses = []
    for y, z in p.domain():
        yz = p.mul(y, z)
        if yz in gp:
            continue
        for x in range(len(p)):
            if not p.defined(x, yz):
                continue
            for s in {x, p.inv[x]}:
                for t in {y, z}:
                    if not (p.defined(s, t) and p.defined(t, s)):
                        witnesses.append((x, y, z, s, t))
    ok = not witnesses
    if ok:
        ok6, _ = ref_check_p6(p)
        if not ok6:
            raise PregroupError("P7 holds but P6 fails: the table is not a pregroup")
    return ok, witnesses


def ref_check_p8(p: Pregroup):
    """(a,b) defined => a, b or [ab] lies in G_P."""
    gp = ref_canonical_subgroup(p)
    witnesses = [
        (a, b)
        for a, b in p.domain()
        if a not in gp and b not in gp and p.mul(a, b) not in gp
    ]
    ok = not witnesses
    if ok:
        ok6, _ = ref_check_p6(p)
        if not ok6:
            raise PregroupError("P8 holds but P6 fails: the table is not a pregroup")
    return ok, witnesses


SMALL_PREGROUPS = (
    lambda: samples.z2_table(),
    lambda: FiniteGroupTable.cyclic(3),
    lambda: samples.z4_table(),
    lambda: FiniteGroupTable.cyclic(5),
    lambda: samples.z6_table(),
    lambda: samples.s3_table(),
    lambda: samples.free_pregroup(1),
    lambda: samples.free_pregroup(2),
    samples.dihedral_infinity,
)


def random_small_table(rng):
    """A table on 2-6 elements: a small pregroup with one or two entries
    changed, the epsilon row and column included, or a random partial
    product under a random involution."""
    if rng.random() < 0.5:
        p = rng.choice(SMALL_PREGROUPS)()
        n, eps, elements, inv = len(p), p.eps, p.elements, p.inv
        rows = [list(row) for row in p.table]
        for _ in range(rng.randrange(1, 3)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice([None, *range(n)])
    else:
        n, eps = rng.randrange(2, 7), 0
        elements = ["e"] + [f"x{i}" for i in range(1, n)]
        rest = list(range(1, n))
        rng.shuffle(rest)
        inv = list(range(n))
        while len(rest) >= 2 and rng.random() < 0.5:
            i, j = rest.pop(), rest.pop()
            inv[i], inv[j] = j, i
        density = rng.random()
        rows = [
            [
                j if i == eps else i if j == eps
                else rng.randrange(n) if rng.random() < density else None
                for j in range(n)
            ]
            for i in range(n)
        ]
    q = Pregroup(elements, elements[eps], {elements[i]: elements[j] for i, j in enumerate(inv)}, {})
    q.table = tuple(tuple(row) for row in rows)  # bypasses the epsilon synthesis
    return q


DIFFERENTIAL_PAIRS = (
    (check_axioms, ref_check_axioms),
    (canonical_subgroup, ref_canonical_subgroup),
    (check_p6, ref_check_p6),
    (check_p7, ref_check_p7),
    (check_p8, ref_check_p8),
)


def outcome(check, p):
    """A check's result in comparable form: witness lists keep their order."""
    try:
        got = check(p)
    except PregroupError as exc:
        return "raises", str(exc)
    if isinstance(got, AxiomReport):
        return got.checked, list(got.violations.items())
    return got


def assert_same_as_reference(p):
    outcomes = []
    for check, reference in DIFFERENTIAL_PAIRS:
        got = outcome(check, p)
        assert got == outcome(reference, p), check.__name__
        outcomes.append(got)
    return outcomes


class TestRowPassesMatchSweeps:
    def test_corpus(self):
        for p in corpus():
            assert_same_as_reference(p)

    def test_hnn_z10_z2(self):
        assert_same_as_reference(hnn_z10_z2())

    def test_census(self, census):
        # G_P is a subgroup of every census table, and P7 and P8 never hold
        # where P6 fails
        for p in census:
            _report, gp, _p6, p7, p8 = assert_same_as_reference(p)
            assert isinstance(gp, frozenset)
            assert p7[0] != "raises" and p8[0] != "raises"

    def test_random_small_tables(self):
        rng = random.Random(20240531)
        failed = set()
        gp_raised = 0
        for _ in range(360):
            report, gp, *higher = assert_same_as_reference(random_small_table(rng))
            failed.update(name for name, witnesses in report[1] if witnesses)
            if not isinstance(gp, frozenset):
                gp_raised += 1
                continue
            failed.update(
                name for name, got in zip(("P6", "P7", "P8"), higher)
                if got[0] is False
            )
        assert failed == {"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8"}
        assert gp_raised

    def test_gp_not_a_subgroup_still_raises(self):
        # G_P = {e, a} is not closed: [aa] = b
        bad = Pregroup(
            ("e", "a", "b"), "e", {}, {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "e"}
        )
        for check in (canonical_subgroup, check_p6, check_p7, check_p8):
            with pytest.raises(PregroupError, match="G_P is not a subgroup"):
                check(bad)
        assert not check_axioms(bad)

    def test_gp_computed_once(self):
        p = samples.hnn_s3()
        assert canonical_subgroup(p) is canonical_subgroup(p)

    def test_axioms_swept_once_per_pregroup(self, monkeypatch):
        # the self-checks of S3 and of its HNN extension, then the context
        # built on the extension: one sweep per pregroup
        swept = []
        sweep = pregroup_module._sweep_axioms
        monkeypatch.setattr(pregroup_module, "_sweep_axioms", lambda p: swept.append(p) or sweep(p))
        p = samples.hnn_s3()
        UniversalContext(p)
        assert check_axioms(p) is check_axioms(p)
        assert [len(q) for q in swept] == [6, 42]


class TestCensus:
    def test_counts(self, census):
        # labelled tables on n = 2..7 elements, and those where P6 fails;
        # the smallest of those, p6_failing, is one of the four on six
        sizes = collections.Counter(len(p) for p in census)
        p6_fails = collections.Counter(len(p) for p in census if not check_p6(p)[0])
        assert [sizes[n] for n in range(2, 8)] == [1, 3, 5, 15, 65, 261]
        assert [p6_fails[n] for n in range(2, 8)] == [0, 0, 0, 0, 4, 140]
        assert p6_failing().table in {p.table for p in census}


class TestCanonicalSubgroup:
    def test_group_table_is_its_own_gp(self):
        p = samples.s3_table()
        assert canonical_subgroup(p) == frozenset(range(len(p)))

    def test_free_pregroup_gp_is_trivial(self):
        p = samples.free_pregroup(2)
        assert canonical_subgroup(p) == frozenset({p.eps})

    def test_amalgam_gp_is_h(self):
        p = samples.z4_amalgam_z6()
        assert canonical_subgroup(p) == p.subgroup_h

    def test_hnn_gp_is_base(self):
        p = samples.hnn_s3()
        assert canonical_subgroup(p) == p.base_h


class TestKeyLemma:
    def test_corpus_passes(self):
        for p in corpus():
            ok, fails = key_lemma_check(p)
            assert ok, fails

    def test_corrupt_table_reports_witness(self):
        # a partial Z3 table with [aa] = A and [AA] undefined: part 1 needs
        # [[aa] inv(a)] = [AA] = a
        p = Pregroup(
            ("e", "a", "A"), "e", {"a": "A", "A": "a"},
            {("a", "A"): "e", ("A", "a"): "e", ("a", "a"): "A"},
        )
        a = p.index["a"]
        ok, fails = key_lemma_check(p)
        assert not ok
        assert fails == {1: [(a, a)], 2: [], 3: [], 4: [], 5: []}

    def test_census_passes(self, census):
        assert all(key_lemma_check(p)[0] for p in census)

    def test_random_tables_trip_every_part(self):
        # the first draw at seed 3 that fails each of parts 2-5, and its
        # witnesses there
        rng = random.Random(3)
        draws = [key_lemma_check(random_small_table(rng))[1] for _ in range(36)]
        first = {k: next(i for i, fails in enumerate(draws) if fails[k]) for k in (2, 3, 4, 5)}
        assert first == {2: 3, 3: 11, 4: 35, 5: 3}
        assert draws[3][2] == [(5, 4, 1), (5, 4, 2), (5, 4, 3), (5, 4, 5)]
        assert draws[11][3] == [(1, 2, 2, 0), (2, 2, 2, 0)]
        assert draws[35][4] == [(1, 4, 1, 2), (2, 4, 1, 2), (3, 4, 1, 2), (4, 1, 4, 1)]
        assert draws[3][5] == [(5, 5, 4, 4)]


class TestAlphabets:
    def test_gamma_excludes_epsilon(self):
        p = samples.z4_amalgam_z6()
        a = gamma_alphabet(p)
        assert len(a) == len(p) - 1
        assert p.elements[p.eps] not in a.letters

    def test_gamma_involution_matches_pregroup(self):
        p = samples.hnn_s3()
        a = gamma_alphabet(p)
        for g in range(len(a)):
            assert gamma_to_p(a.involution[g], p) == p.inv[gamma_to_p(g, p)]

    def test_index_round_trip(self):
        p = samples.z4_amalgam_z6()
        for x in range(len(p)):
            if x == p.eps:
                with pytest.raises(PregroupError):
                    p_to_gamma(x, p)
            else:
                assert gamma_to_p(p_to_gamma(x, p), p) == x

    def test_full_alphabet(self):
        p = samples.free_pregroup(1)
        assert len(full_alphabet(p)) == len(p)


def ref_derive_rules(p: Pregroup, variant: str) -> list:
    """The rules of derive_system, in its order, from p.mul for every
    (a, b, c)."""
    if variant == "S_eps":
        to_letter, letters, rules = (lambda x: x), range(len(p)), [Rule((p.eps,), ())]
    else:
        to_letter, rules = (lambda x: p_to_gamma(x, p)), []
        letters = [x for x in range(len(p)) if x != p.eps]
    seen_sym = set()
    for a in letters:
        for b in letters:
            ab = p.mul(a, b)
            lhs = (to_letter(a), to_letter(b))
            if ab is not None:
                rhs = () if ab == p.eps and variant == "S_of_P" else (to_letter(ab),)
                rules.append(Rule(lhs, rhs))
                if variant == "S_of_P":
                    continue
            for c in range(len(p)):
                ac, cb = p.mul(a, c), p.mul(p.inv[c], b)
                if ac is None or cb is None:
                    continue
                rhs = (to_letter(ac), to_letter(cb))
                if lhs != rhs and frozenset((lhs, rhs)) not in seen_sym:
                    seen_sym.add(frozenset((lhs, rhs)))
                    rules.append(Rule(lhs, rhs, symmetric=True))
    return rules


class TestDerivedSystems:
    def test_rules_equal_the_reference(self, census):
        # the rules are read from the table rows, ascending in c as the
        # reference loop over every c takes them
        pregroups = corpus() + [hnn_cyclic(4, 2), hnn_cyclic(6, 3)] + census
        cases = [(p, v) for p in pregroups for v in ("S_of_P", "S_eps")]
        for p, variant in cases + [(hnn_z10_z2(), "S_eps")]:
            assert derive_system(p, variant).rules == tuple(ref_derive_rules(p, variant))

    def test_s_of_p_shape(self):
        p = samples.free_pregroup(2)
        s = derive_system(p, "S_of_P")
        assert len(s.alphabet) == len(p) - 1
        assert s.is_standard and s.is_2monadic and s.is_thue
        # free pregroup: only the cancellation rules
        assert all(r.rhs == () for r in s.rules)
        assert len(s.rules) == 4

    def test_s_eps_has_epsilon_deletion(self):
        p = samples.dihedral_infinity()
        s = derive_system(p, "S_eps")
        assert len(s.alphabet) == len(p)
        eps_letter = s.alphabet.index(p.elements[p.eps])
        assert any(r.lhs == (eps_letter,) and r.rhs == () for r in s.rules)

    def test_s_of_p_symmetric_rules_only_off_domain(self):
        p = samples.z4_amalgam_z6()
        s = derive_system(p, "S_of_P")
        for r in s.rules:
            if r.symmetric:
                a, b = (gamma_to_p(l, p) for l in r.lhs)
                assert not p.defined(a, b)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            derive_system(samples.free_pregroup(1), "bogus")

    def test_s_eps_strongly_confluent_small(self):
        for p in (samples.dihedral_infinity(), samples.free_pregroup(2)):
            assert check_strong_confluence(derive_system(p, "S_eps")).ok


class TestIsReduced:
    def test_reduced_and_not(self):
        p = samples.free_pregroup(1)
        a = gamma_alphabet(p)
        assert is_reduced(a.word(["a", "a"]), p)
        assert not is_reduced(a.word(["a", "A"]), p)
        assert is_reduced((), p)
