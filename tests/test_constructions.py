import collections
import hashlib
import random

import pytest

from cycrew import constructions, samples
from cycrew import pregroup as pregroup_module
from cycrew.constructions import (
    AmalgamPregroup,
    FiniteGroupTable,
    HnnPregroup,
    InHSubgroup,
    InvalidEmbedding,
    NotAmalgamContext,
    NotHnnContext,
    amalgam_pregroup,
    hnn_pregroup,
    standard_cyclic_form,
    verify_collins,
    verify_mks,
)
from cycrew.fastconj import conjugate_linear
from cycrew.formats import emit_pg
from cycrew.pregroup import (
    AxiomReport,
    Pregroup,
    PregroupError,
    gamma_to_p,
    p_to_gamma,
)
from cycrew.universal import (
    CertificateError,
    UniversalContext,
    _interleaving_equal,
    conjugate_quadratic,
    cyclic_reduce,
    equal_in_U,
    shortlex_nf,
)
from cycrew.words import AlphabetError, CyclicWord, involute

from conftest import conjugated, random_word


class TestFiniteGroupTable:
    def test_cyclic(self):
        t = FiniteGroupTable.cyclic(4, "x")
        assert t.elements == ("e", "x", "x2", "x3")
        assert t.mul(1, 3) == 0
        assert t.inv[1] == 3

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroupTable(["e", "a"], "e", {("e", "e"): "e"})

    @pytest.mark.parametrize(
        "key, value", [(("e", "zz"), "e"), (("e", "e"), "zz")], ids=["key", "value"]
    )
    def test_unknown_token_named(self, key, value):
        product = {(x, y): "e" for x in "ea" for y in "ea"}
        product[key] = value
        with pytest.raises(ValueError, match="product names unknown token 'zz'"):
            FiniteGroupTable(["e", "a"], "e", product)

    def test_bad_identity_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroupTable(
                ["e", "a"], "e",
                {("e", "e"): "e", ("e", "a"): "e", ("a", "e"): "a", ("a", "a"): "e"},
            )

    def test_non_associative_rejected(self):
        # "subtraction table" on Z3: has identity-ish rows but no associativity
        names = ["e", "a", "b"]
        product = {
            (names[i], names[j]): names[(i - j) % 3]
            for i in range(3)
            for j in range(3)
        }
        with pytest.raises(ValueError):
            FiniteGroupTable(names, "e", product)


# the ways subgroup lists and a map phi fail to be an isomorphism between
# subgroups, as (HG, HK, phi, error) inside Z6
_Z6 = samples.z6_table().elements
_BAD_MAPPINGS = {
    "short": (["e", "y3"], ["e", "y3"], {"e": "e"}, "phi maps"),
    "long": (["e", "y3"], ["e", "y3"], {"e": "e", "y3": "y3", "y": "y"}, "phi maps"),
    "identity": (["e", "y3"], ["e", "y3"], {"e": "y3", "y3": "e"}, "not a homomorphism"),
    "not-injective": (["e", "y3"], ["e"], {"e": "e", "y3": "e"}, "phi is not injective"),
    "not-a-homomorphism": (
        _Z6, _Z6, dict(zip(_Z6, ["e", "y3", "y2", "y", "y4", "y5"])), r"not a homomorphism at \(y, y\)"
    ),
    "not-a-subgroup": (["e", "y"], ["e", "y"], {"e": "e", "y": "y"}, "is not a subgroup"),
    "unknown-token": (["e", "zz"], ["e", "y3"], {"e": "e", "zz": "y3"}, r"unknown elements \['zz'\]"),
}


class TestEmbedding:
    """The isomorphism between two subgroups that amalgam_pregroup and
    hnn_pregroup take, which one checker reads for both."""

    def test_valid(self):
        # Z6 *_Z2 Z6 identifies y3 with y3; HNN(Z6, t; t^-1 A t = A) with A
        # = {e, y2, y4} keeps phi in its given order, on indices
        z6 = samples.z6_table()
        assert len(amalgam_pregroup(z6, z6, ["e", "y3"], ["e", "y3"], {"e": "e", "y3": "y3"})) == 10
        sub = ["e", "y2", "y4"]
        p = hnn_pregroup(z6, sub, sub, {"y4": "y2", "e": "e", "y2": "y4"})
        assert p.phi == {4: 2, 0: 0, 2: 4} and list(p.phi) == [4, 0, 2]

    def test_partial_mapping_rejected(self):
        # phi names two of the three elements of A = {e, y2, y4} in Z6
        z6 = samples.z6_table()
        sub = ["e", "y2", "y4"]
        phi = {"e": "e", "y2": "y4"}
        with pytest.raises(InvalidEmbedding, match="phi maps"):
            amalgam_pregroup(z6, z6, sub, sub, phi)
        with pytest.raises(InvalidEmbedding, match="phi maps"):
            hnn_pregroup(z6, sub, sub, phi)

    @pytest.mark.parametrize("case", _BAD_MAPPINGS.values(), ids=_BAD_MAPPINGS)
    def test_bad_mapping_rejected(self, case):
        # both builders refuse each one alike: Z6 *_H Z6, and HNN(Z6, t)
        HG, HK, phi, match = case
        z6 = samples.z6_table()
        with pytest.raises(InvalidEmbedding, match=match):
            amalgam_pregroup(z6, z6, HG, HK, phi)
        with pytest.raises(InvalidEmbedding, match=match):
            hnn_pregroup(z6, HG, HK, phi)


class TestAmalgamPregroup:
    def test_dinf_shape(self, dinf):
        assert len(dinf) == 3
        assert dinf.tokens(sorted(dinf.factor_a)) == ("e", "a")
        assert dinf.tokens(sorted(dinf.factor_b)) == ("e", "b")
        assert dinf.subgroup_h == frozenset({dinf.eps})

    def test_z4z6_shape(self, z4z6):
        assert len(z4z6) == 4 + 6 - 2
        # the identified Z2 appears once, under its A-side token
        assert "x2" in z4z6.elements
        assert "y3" not in z4z6.elements
        assert z4z6.tokens(sorted(z4z6.subgroup_h)) == ("e", "x2")

    def test_products_within_factors_only(self, z4z6):
        x, y = z4z6.index["x"], z4z6.index["y"]
        assert z4z6.mul(x, y) is None
        assert z4z6.mul(x, x) == z4z6.index["x2"]
        assert z4z6.mul(y, y) == z4z6.index["y2"]

    def test_identified_subgroup_bridges_factors(self, z4z6):
        h = z4z6.index["x2"]  # equals y^3 on the B side
        y = z4z6.index["y"]
        assert z4z6.mul(h, y) == z4z6.index["y4"]

    def test_token_collision_renamed(self):
        A = samples.z2_table(("e", "a"))
        B = samples.z2_table(("e", "a"))  # same token on the B side
        p = amalgam_pregroup(A, B, ["e"], ["e"], {"e": "e"})
        assert set(p.elements) == {"e", "a", "a'"}

    def test_same_tokens_different_groups_rejected(self):
        # Z4 and the Klein group on the tokens e g g2 g3, identified whole
        # by the identity on tokens: equal token lists, different products
        z4 = FiniteGroupTable.cyclic(4)
        klein = FiniteGroupTable.from_function(
            z4.elements, "e", lambda x, y: z4.elements[z4.index[x] ^ z4.index[y]]
        )
        identity = {t: t for t in z4.elements}
        with pytest.raises(InvalidEmbedding, match="not a homomorphism"):
            amalgam_pregroup(z4, klein, z4.elements, klein.elements, identity)
        # an equal group built separately is identified with it
        z4_again = FiniteGroupTable.cyclic(4)
        assert len(amalgam_pregroup(z4, z4_again, z4.elements, z4.elements, identity)) == 4


class TestHnnPregroup:
    def test_shape(self, hnn):
        # 6 base elements plus 3 coset reps x 6 right parts per sign
        assert len(hnn) == 6 + 18 + 18
        assert hnn.tokens([hnn.t_plus]) == ("e|t|e",)
        assert hnn.tokens([hnn.t_minus]) == ("e|T|e",)

    def test_stable_letter_involution(self, hnn):
        assert hnn.inv[hnn.t_plus] == hnn.t_minus

    def test_coset_canonicalisation(self, hnn):
        # u a t v = u t phi(a) v: pushing a in A across t fixes the element
        H = samples.s3_table()
        for u_tok in H.elements:
            for a_tok in ("e", "s"):
                for v_tok in H.elements:
                    u, a, v = (H.index[x] for x in (u_tok, a_tok, v_tok))
                    ua = H.mul(u, a)
                    phi_a_v = H.mul(H.index[{"e": "e", "s": "s"}[a_tok]], v)
                    left = hnn.mul(
                        hnn.mul(ua, hnn.t_plus), v
                    )
                    right = hnn.mul(hnn.mul(u, hnn.t_plus), phi_a_v)
                    assert left == right

    def test_pinch_products(self, hnn):
        # t^-1 s t = phi(s) = s; t^-1 r t is no pinch
        s = hnn.index["s"]
        ts = hnn.mul(hnn.t_minus, hnn.mul(s, hnn.t_plus))
        assert ts == s
        r = hnn.index["r"]
        assert hnn.mul(hnn.mul(hnn.t_minus, r), hnn.t_plus) is None

    def test_non_subgroup_rejected(self):
        H = samples.s3_table()
        with pytest.raises(InvalidEmbedding):
            hnn_pregroup(H, ("e", "r"), ("e", "s"), {"e": "e", "r": "s"})

    def test_non_isomorphism_rejected(self):
        H = samples.z4_table()
        with pytest.raises(InvalidEmbedding):
            hnn_pregroup(H, ("e", "x2"), ("e", "x2"), {"e": "x2", "x2": "e"})

    @pytest.mark.parametrize("bad", [99, -1])
    def test_index_outside_h_rejected(self, bad):
        # elements are named by their tokens, so an index names none,
        # outside H or in its range
        H = samples.s3_table()
        with pytest.raises(InvalidEmbedding, match=rf"unknown elements \[0, {bad}\]"):
            hnn_pregroup(H, [0, bad], [0, 3], {0: 0, bad: 3})


def _constructions():
    """amalgam_pregroup and hnn_pregroup on their inputs, built ahead: Z4
    *_Z2 Z6, and HNN(S3, t; t^-1 A t = A) with A = {e, s}."""
    A, B = samples.z4_table(), samples.z6_table()
    s3, sub = samples.s3_table(), ("e", "s")
    return {
        "amalgam": lambda: amalgam_pregroup(A, B, ("e", "x2"), ("e", "y3"), {"e": "e", "x2": "y3"}),
        "HNN": lambda: hnn_pregroup(s3, sub, sub, {"e": "e", "s": "s"}),
    }


# a P1-P5 report that fails first at P4, at the elements 0, 1, 2
_FAILING_REPORT = AxiomReport({"P1": [], "P2": [], "P4": [(0, 1, 2), (1, 1, 1)], "P5": [(0, 0, 0, 0)]})


class TestSelfChecks:
    """Each self-check of the two constructions fires once the read it
    checks is broken: the element count, the P1-P5 report, P6 with P7 or
    P8, and G_P."""

    @pytest.mark.parametrize(
        "build, target, name, broken, message",
        [
            ("amalgam", AmalgamPregroup, "__len__", lambda p: len(p.elements) + 1,
             "amalgam self-check: wrong number of elements"),
            ("amalgam", pregroup_module, "check_axioms", lambda p: _FAILING_REPORT,
             "amalgam self-check: P4 fails at ('e', 'x', 'x2')"),
            ("amalgam", constructions, "check_p7", lambda p: (False, [(0, 0, 0, 0, 0)]),
             "amalgam self-check: P6 or P7 fails"),
            ("amalgam", constructions, "canonical_subgroup", lambda p: frozenset({p.eps}),
             "amalgam self-check: G_P is not the identified subgroup"),
            ("HNN", pregroup_module, "check_axioms", lambda p: _FAILING_REPORT,
             "HNN self-check: P4 fails at ('e', 'r', 'r2')"),
            ("HNN", constructions, "check_p8", lambda p: (False, [(0, 0)]),
             "HNN self-check: P6 or P8 fails"),
            ("HNN", constructions, "canonical_subgroup", lambda p: frozenset({p.eps}),
             "HNN self-check: G_P is not the base group"),
        ],
        ids=["amalgam-count", "amalgam-P1-P5", "amalgam-P6-P7", "amalgam-G_P",
             "hnn-P1-P5", "hnn-P6-P8", "hnn-G_P"],
    )
    def test_self_check_fires(self, monkeypatch, build, target, name, broken, message):
        construct = _constructions()[build]
        assert construct()
        monkeypatch.setattr(target, name, broken)
        with pytest.raises(PregroupError) as exc:
            construct()
        assert str(exc.value) == message


class TestStandardCyclicForm:
    def test_single_stable_letter(self, hnn_ctx):
        p = hnn_ctx.pregroup
        t = (p_to_gamma(p.t_plus, p),)
        c = cyclic_reduce(t, hnn_ctx)
        assert standard_cyclic_form(c, hnn_ctx) == t

    def test_base_letter_raises(self, hnn_ctx):
        p = hnn_ctx.pregroup
        c = CyclicWord.of((p_to_gamma(p.index["s"], p),))
        with pytest.raises(InHSubgroup):
            standard_cyclic_form(c, hnn_ctx)

    def test_form_is_standard_and_conjugate(self, hnn_ctx, rng):
        p = hnn_ctx.pregroup
        k = len(hnn_ctx.alphabet)
        done = 0
        while done < 25:
            w = random_word(rng, k, 6, min_len=1)
            c = cyclic_reduce(w, hnn_ctx)
            letters = [gamma_to_p(l, p) for l in c.canon]
            if not letters or any(x in p.base_h for x in letters):
                continue
            out = standard_cyclic_form(c, hnn_ctx)
            done += 1
            for l in out:
                u, _sign, _v = p.stable[gamma_to_p(l, p)]
                assert u == p.eps  # trivial left coset part
            assert conjugate_quadratic(c.canon, out, hnn_ctx).verdict

    def test_requires_hnn_context(self, z4z6_ctx):
        with pytest.raises(NotHnnContext):
            standard_cyclic_form(CyclicWord.of((0,)), z4z6_ctx)

    def test_britton_guard(self, hnn_ctx):
        # t t^-1 is not cyclically reduced: its standard form pinches at
        # the seam, which the Britton check refuses
        p = hnn_ctx.pregroup
        c = CyclicWord.of((p_to_gamma(p.t_plus, p), p_to_gamma(p.t_minus, p)))
        with pytest.raises(ValueError) as exc:
            standard_cyclic_form(c, hnn_ctx)
        assert str(exc.value) == "standard form violates the Britton condition"

    def test_conjugacy_guard(self, monkeypatch):
        # with t r standing in for t, the form of t is t r, which is not
        # t: the replay against the input refuses it
        p = samples.hnn_s3()
        ctx = UniversalContext(p)
        t = CyclicWord.of((p_to_gamma(p.t_plus, p),))
        assert standard_cyclic_form(t, ctx) == t.canon
        monkeypatch.setattr(p, "t_plus", p.index["e|t|r"])
        with pytest.raises(CertificateError) as exc:
            standard_cyclic_form(t, ctx)
        assert str(exc.value) == "standard form is not conjugate to its input"

    @pytest.mark.parametrize(
        "canon, error, match",
        [
            ((99,), AlphabetError, "out of range"),
            ((-1,), AlphabetError, "out of range"),
            ((0, 41), AlphabetError, "out of range"),
            ((), InHSubgroup, "empty cyclic word"),
            ((2, 5), ValueError, "not cyclically reduced"),  # s, then e|t|e
        ],
        ids=["canon0", "canon1", "canon2", "empty", "base-letter"],
    )
    def test_letters_outside_gamma_rejected(self, hnn_ctx, canon, error, match):
        with pytest.raises(error, match=match):
            standard_cyclic_form(CyclicWord(canon), hnn_ctx)


def replay_letter_chain(start, chain, p):
    """Each chain step (y, c) asserts y = [c x c~] from the previous node."""
    node = start
    for y, c in chain:
        assert p.mul3(c, node, p.inv[c]) == y
        node = y
    return node


def preconjugated(rot, c, p):
    """rot with c~ multiplied onto its first letter and c onto its last
    (onto both ends of a single letter); every product defined."""
    if len(rot) == 1:
        cand = (p.mul3(p.inv[c], rot[0], c),)
    else:
        cand = (p.mul(p.inv[c], rot[0]),) + tuple(rot[1:-1]) + (p.mul(rot[-1], c),)
    assert None not in cand
    return cand


# sha256 of repr of the (case, witness) lists that the verifier tests
# below collect, recorded before the conjugacy layer kept its words in P
# indices from entry to certificate
GOLDEN_WITNESSES = {
    "non-central": "043a8503406711c4c658ea9b56dcf745e7fa1c46d72cca8ebbb355c12a754040",
    "shared": "328b9d5aa5bf9847a95f833a5f88a253741def6d4fb4afa080d0423747ca2bb8",
}


def replay_mks(ver, g, f, ctx):
    """Replay a verify_mks verdict on (g, f): case 1 chains the letters of
    g and f to one letter h of H (or both are empty), case 2 gives a factor
    element a with [a~ g a] = f, and case 3 a rotation i of g that h
    preconjugates to an interleaving of f."""
    p = ctx.pregroup
    g_p, f_p = (ctx.to_p(cyclic_reduce(w, ctx).canon) for w in (g, f))
    w = ver.witness
    assert ver.theorem == "mks"
    if ver.case == 1 and not g_p:
        assert not f_p and w == {"h": p.eps, "chain_to_g": [], "chain_to_f": []}
    elif ver.case == 1:
        end_g = replay_letter_chain(g_p[0], w["chain_to_g"], p)
        assert end_g == replay_letter_chain(f_p[0], w["chain_to_f"], p) == w["h"]
    elif ver.case == 2:
        assert p.mul3(p.inv[w["a"]], g_p[0], w["a"]) == f_p[0]
    else:
        i = w["i"]
        assert _interleaving_equal(preconjugated(g_p[i:] + g_p[:i], w["h"], p), f_p, p)


class TestVerifyMks:
    def test_requires_amalgam(self, hnn_ctx):
        with pytest.raises(NotAmalgamContext):
            verify_mks((0,), (0,), hnn_ctx)

    def test_case1_chains_replay(self, z4z6_ctx):
        p = z4z6_ctx.pregroup
        # x2 (in H) conjugated across factors: pick g = y x2 y5
        y = p_to_gamma(p.index["y"], p)
        h = p_to_gamma(p.index["x2"], p)
        g = (y, h, z4z6_ctx.alphabet.involution[y])
        ver = verify_mks(g, (h,), z4z6_ctx)
        assert ver.case == 1
        replay_mks(ver, g, (h,), z4z6_ctx)

    def test_case2_factor_conjugator(self, z4z6_ctx):
        p = z4z6_ctx.pregroup
        # y and y5 = y^-1 are conjugate in Z6? no; use x vs x3 in Z4? also
        # not conjugate (abelian factors): conjugacy within a factor is
        # equality modulo H-conjugation, so pick g = f not in H
        x = p_to_gamma(p.index["x"], p)
        ver = verify_mks((x,), (x,), z4z6_ctx)
        assert ver.case == 2
        a = ver.witness["a"]
        assert p.mul3(p.inv[a], p.index["x"], a) == p.index["x"]

    def test_case3_rotation_and_h(self, z4z6_ctx, rng):
        k = len(z4z6_ctx.alphabet)
        done = 0
        while done < 20:
            u = random_word(rng, k, 5, min_len=2)
            v = conjugated(rng, z4z6_ctx, u)
            if len(cyclic_reduce(u, z4z6_ctx)) < 2:
                continue
            ver = verify_mks(u, v, z4z6_ctx)
            done += 1
            replay_mks(ver, u, v, z4z6_ctx)

    def test_non_conjugate_pair_raises(self, z4z6_ctx):
        p = z4z6_ctx.pregroup
        x = p_to_gamma(p.index["x"], p)
        y = p_to_gamma(p.index["y"], p)
        with pytest.raises(ValueError):
            verify_mks((x,), (y, x, y), z4z6_ctx)

    def test_non_central_h_chains_and_conjugators_replay(self, rng):
        # on z4z6 H is central and on dinf trivial, so there every chain is
        # empty and every h an involution.  Here H is not central: S3 *_Z2
        # S3 (H = {e, s} glued to {e, rs}, from _amalgam_inputs) and Z6 *_Z3
        # S3 (H = {e, y2, y4} glued to the rotations), so chains to H take
        # steps, and in the second a case-3 h can differ from its inverse.
        # Not so in S3 *_Z3 S3: a cyclically reduced word of length 2 or
        # more is an even product of reflections, which the rotations
        # commute with, so every case-3 h is e there.
        s3, z6 = samples.s3_table(), samples.z6_table()
        z3_glued = (z6, s3, ("e", "y2", "y4"), ("e", "r", "r2"), {"e": "e", "y2": "r", "y4": "r2"})
        seen = collections.Counter()
        verdicts = []
        for args in (_amalgam_inputs()[2], z3_glued):
            ctx = UniversalContext(amalgam_pregroup(*args))
            p = ctx.pregroup
            h_letters = [p_to_gamma(h, p) for h in p.subgroup_h - {p.eps}]
            for _ in range(200):
                u = random_word(rng, len(ctx.alphabet), 5, min_len=1)
                # conjugate by a letter of H too, which rotations alone miss
                h = rng.choice(h_letters)
                v = conjugated(rng, ctx, (ctx.alphabet.involution[h],) + u + (h,))
                ver = verify_mks(u, v, ctx)
                replay_mks(ver, u, v, ctx)
                verdicts.append((ver.case, ver.witness))
                w = ver.witness
                if ver.case == 1:
                    seen["chain_to_g"] += bool(w["chain_to_g"])
                    seen["chain_to_f"] += bool(w["chain_to_f"])
                elif ver.case == 3:
                    seen["h~ != h"] += p.inv[w["h"]] != w["h"]
        assert seen["chain_to_g"] and seen["chain_to_f"] and seen["h~ != h"], seen
        assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == GOLDEN_WITNESSES["non-central"]

    def test_letters_with_disjoint_closures_raise_value_error(self, z4z6_ctx):
        # x2's closure meets H at x2 itself; y5's closure does not contain it
        p = z4z6_ctx.pregroup
        x2 = p_to_gamma(p.index["x2"], p)
        y5 = p_to_gamma(p.index["y5"], p)
        with pytest.raises(ValueError, match="letter closures differ"):
            verify_mks((x2,), (y5,), z4z6_ctx)
        assert not conjugate_quadratic((x2,), (y5,), z4z6_ctx)

    def test_every_conjugate_pair_classified(self, z4z6_ctx, rng):
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(60):
            u = random_word(rng, len(z4z6_ctx.alphabet), 5)
            v = conjugated(rng, z4z6_ctx, u)
            ver = verify_mks(u, v, z4z6_ctx)
            replay_mks(ver, u, v, z4z6_ctx)
            counts[ver.case] += 1
        assert sum(counts.values()) == 60


def replay_collins(ver, g, f, ctx):
    """Replay a verify_collins verdict on (g, f): case 1 steps from the
    letter of f through A u B, each step phi or its inverse followed by
    conjugation by k, and h takes the last node to the letter of g (or
    both are empty); case 2 gives h in H with [h~ g h] = f, and case 3 a
    rotation j of the standard cyclic form of g that c preconjugates to an
    interleaving of that of f."""
    p = ctx.pregroup
    g_can, f_can = (cyclic_reduce(w, ctx).canon for w in (g, f))
    w = ver.witness
    assert ver.theorem == "collins"
    if ver.case == 1 and not g_can:
        assert not f_can and w == {"chain": [], "h": p.eps}
    elif ver.case == 1:
        phi_inv = {v: k for k, v in p.phi.items()}
        node = gamma_to_p(f_can[0], p)
        for nxt, k, delta in w["chain"]:
            mid = p.phi[node] if delta == 1 else phi_inv[node]
            assert p.mul3(p.inv[k], mid, k) == nxt
            node = nxt
        assert p.mul3(p.inv[w["h"]], node, w["h"]) == gamma_to_p(g_can[0], p)
    elif ver.case == 2:
        assert p.mul3(p.inv[w["h"]], *ctx.to_p(g_can), w["h"]) == gamma_to_p(f_can[0], p)
        # the letter closure of g: every [c x c~] defined from g on
        closure, todo = set(ctx.to_p(g_can)), list(ctx.to_p(g_can))
        while todo:
            x = todo.pop()
            for c in range(len(p)):
                y = p.mul3(c, x, p.inv[c])
                if y is not None and y not in closure:
                    closure.add(y)
                    todo.append(y)
        assert w["g_conjugate_into_ab"] == bool(closure & (p.sub_a | p.sub_b))
    else:
        g_std, f_std = (ctx.to_p(standard_cyclic_form(CyclicWord(c), ctx)) for c in (g_can, f_can))
        j = w["j"]
        assert _interleaving_equal(preconjugated(g_std[j:] + g_std[:j], w["c"], p), f_std, p)
        # a stable letter of sign -1 states A, of sign +1 states B
        stated = p.sub_a if p.stable[g_std[j]][1] == -1 else p.sub_b
        assert w["sign_constraint_met"] == (w["c"] in stated)


class TestVerifyCollins:
    def test_requires_hnn(self, z4z6_ctx):
        with pytest.raises(NotHnnContext):
            verify_collins((0,), (0,), z4z6_ctx)

    def test_case1_chain_replays(self, hnn_ctx):
        p = hnn_ctx.pregroup
        a = hnn_ctx.alphabet
        s = p_to_gamma(p.index["s"], p)
        t = p_to_gamma(p.t_plus, p)
        tbar = p_to_gamma(p.t_minus, p)
        r = p_to_gamma(p.index["r"], p)
        # g = r t^-1 s t r^-1 is conjugate to s through a pinch
        g = (r, tbar, s, t, a.involution[r])
        ver = verify_collins(g, (s,), hnn_ctx)
        assert ver.case == 1
        replay_collins(ver, g, (s,), hnn_ctx)

    def test_case1_chain_through_phi_replays(self):
        # phi is the identity on hnn_s3, so the chain above has no step;
        # here phi swaps g2 and g4, and the chain from g4 to g2 has one
        sub = ["e", "g2", "g4"]
        p = hnn_pregroup(
            FiniteGroupTable.cyclic(6, "g"), sub, sub, {"e": "e", "g2": "g4", "g4": "g2"}
        )
        g2, g4 = ((p_to_gamma(p.index[tok], p),) for tok in ("g2", "g4"))
        ctx = UniversalContext(p)
        ver = verify_collins(g2, g4, ctx)
        assert ver.case == 1 and ver.witness["chain"]
        replay_collins(ver, g2, g4, ctx)

    def test_case2_base_conjugator(self, hnn_ctx):
        p = hnn_ctx.pregroup
        r = p_to_gamma(p.index["r"], p)
        r2 = p_to_gamma(p.index["r2"], p)
        ver = verify_collins((r,), (r2,), hnn_ctx)
        assert ver.case == 2
        h = ver.witness["h"]
        assert p.mul3(p.inv[h], p.index["r"], h) == p.index["r2"]
        replay_collins(ver, (r,), (r2,), hnn_ctx)

    def test_case3_standard_form_conjugator(self, hnn_ctx, rng):
        p = hnn_ctx.pregroup
        k = len(hnn_ctx.alphabet)
        done = 0
        while done < 20:
            u = random_word(rng, k, 5, min_len=1)
            v = conjugated(rng, hnn_ctx, u)
            c = cyclic_reduce(u, hnn_ctx)
            letters = [gamma_to_p(l, p) for l in c.canon]
            if not letters or any(x in p.base_h for x in letters):
                continue
            ver = verify_collins(u, v, hnn_ctx)
            done += 1
            assert ver.case == 3
            replay_collins(ver, u, v, hnn_ctx)

    def test_non_involutive_case3_conjugator_replays(self, rng):
        # HNN(S3, t; t^-1 A t = A) over the rotations A = {e, r, r2}, phi
        # swapping r and r2 (one of _hnn_inputs): a case-3 conjugator c in
        # S3 can differ from its inverse
        rot = ("e", "r", "r2")
        p = hnn_pregroup(samples.s3_table(), rot, rot, {"e": "e", "r": "r2", "r2": "r"})
        ctx = UniversalContext(p)
        seen = collections.Counter()
        for _ in range(200):
            u = random_word(rng, len(ctx.alphabet), 5, min_len=1)
            v = conjugated(rng, ctx, u)
            ver = verify_collins(u, v, ctx)
            replay_collins(ver, u, v, ctx)
            if ver.case == 3:
                seen["c~ != c"] += p.inv[ver.witness["c"]] != ver.witness["c"]
        assert seen["c~ != c"], seen

    def test_every_conjugate_pair_classified(self, hnn_ctx, rng):
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(60):
            u = random_word(rng, len(hnn_ctx.alphabet), 5)
            v = conjugated(rng, hnn_ctx, u)
            ver = verify_collins(u, v, hnn_ctx)
            replay_collins(ver, u, v, hnn_ctx)
            counts[ver.case] += 1
        assert sum(counts.values()) == 60

    def test_length_mismatch_raises(self, hnn_ctx):
        p = hnn_ctx.pregroup
        t = p_to_gamma(p.t_plus, p)
        s = p_to_gamma(p.index["s"], p)
        with pytest.raises(ValueError):
            verify_collins((t,), (t, s, t), hnn_ctx)


class TestSharedSearchesMatchPerCallerLoops:
    def test_random_pairs(self, dinf_ctx, z4z6_ctx, hnn_ctx):
        # conjugate_quadratic decides as conjugate_linear does, its
        # conjugator replaying; a verifier returns a verdict exactly on the
        # conjugate pairs, and its witness replays
        rng = random.Random(20128)
        contexts = [
            ("dinf", dinf_ctx, verify_mks, replay_mks),
            ("z4z6", z4z6_ctx, verify_mks, replay_mks),
            ("hnn", hnn_ctx, verify_collins, replay_collins),
        ]
        seen = collections.Counter()
        verdicts = []
        for count in range(1_500):
            name, ctx, verify, replay = contexts[count % 3]
            k = len(ctx.alphabet)
            u = random_word(rng, k, 8)
            kind = rng.choice(["conjugated", "rotated", "unrelated"])
            if kind == "unrelated":
                v = random_word(rng, k, 8)
            else:
                w = u
                if kind == "rotated" and u:
                    i = rng.randrange(len(u))
                    w = u[i:] + u[:i]
                v = conjugated(rng, ctx, w)
            quad = conjugate_quadratic(u, v, ctx)
            assert quad.verdict == conjugate_linear(u, v, ctx).verdict, (name, u, v)
            if not quad.verdict:
                seen[(name, "not conjugate")] += 1
                with pytest.raises(ValueError):
                    verify(u, v, ctx)
                continue
            seen[(name, "conjugate")] += 1
            cert = quad.certificate
            assert equal_in_U(cert + u + involute(cert, ctx.alphabet), v, ctx)
            ver = verify(u, v, ctx)
            replay(ver, u, v, ctx)
            verdicts.append((name, ver.case, ver.witness))
            seen[(name, ver.case)] += 1
            for flag in ("g_conjugate_into_ab", "sign_constraint_met"):
                if flag in ver.witness:
                    seen[(name, flag, ver.witness[flag])] += 1
            if ver.case == 3 and ver.witness.get("i", ver.witness.get("j")) > 0:
                seen[(name, "rotated witness")] += 1
        for name in ("dinf", "z4z6", "hnn"):
            assert seen[(name, 1)] and seen[(name, 2)] and seen[(name, 3)], seen
            assert seen[(name, "conjugate")] and seen[(name, "not conjugate")], seen
        assert seen[("z4z6", "rotated witness")] and seen[("hnn", "rotated witness")], seen
        assert seen[("hnn", "g_conjugate_into_ab", True)], seen
        assert seen[("hnn", "g_conjugate_into_ab", False)], seen
        assert seen[("hnn", "sign_constraint_met", True)], seen
        assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == GOLDEN_WITNESSES["shared"]


# -- FiniteGroupTable is a Pregroup: the group laws by definition ---------


def group_laws(elements, identity, product):
    """The two-sided inverses, by element, when the product dict is a group
    table on elements with this identity: total, over known tokens only,
    with the identity law, inverses and associativity; None otherwise."""
    known = set(elements)
    if any(t not in known for key, value in product.items() for t in (*key, value)):
        return None
    if any((x, y) not in product for x in elements for y in elements):
        return None
    if any(product[identity, x] != x or product[x, identity] != x for x in elements):
        return None
    inverse = {
        x: y for x in elements for y in elements if product[x, y] == identity == product[y, x]
    }
    if len(inverse) != len(elements) or any(
        product[product[x, y], z] != product[x, product[y, z]]
        for x in elements for y in elements for z in elements
    ):
        return None
    return inverse


def _permutation_group(gens: dict, degree: int):
    """(elements, identity, mul) of the group the named permutations
    generate; each element is named by its shortest word in the generator
    names, ties broken by BFS order."""
    names = {tuple(range(degree)): "e"}
    frontier = [tuple(range(degree))]
    while frontier:
        nxt = []
        for perm in frontier:
            for g, q in gens.items():
                prod = tuple(perm[q[i]] for i in range(degree))
                if prod not in names:
                    word = names[perm]
                    names[prod] = g if word == "e" else word + g
                    nxt.append(prod)
        frontier = nxt
    by_name = {v: k for k, v in names.items()}

    def mul(x, y):
        px, py = by_name[x], by_name[y]
        return names[tuple(px[py[i]] for i in range(degree))]

    return list(names.values()), "e", mul


def _group_inputs():
    """(name, elements, identity, mul) of Z2..Z10, S3, Z2 x Z2 and D4."""
    out = []
    for n in range(2, 11):
        names = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
        out.append((f"Z{n}", names, "e", lambda x, y, n=n, names=names: names[
            (names.index(x) + names.index(y)) % n
        ]))
    out.append(("S3", *_permutation_group({"r": (1, 2, 0), "s": (1, 0, 2)}, 3)))
    out.append(("Z2xZ2", *_permutation_group({"a": (1, 0, 2, 3), "b": (0, 1, 3, 2)}, 4)))
    out.append(("D4", *_permutation_group({"r": (1, 2, 3, 0), "s": (0, 3, 2, 1)}, 4)))
    return out


def _corruptions(rng, elements, identity, product):
    """Seeded corruptions of a group's product dict, by kind."""
    inv = {x: y for x in elements for y in elements if product[x, y] == identity}
    keys = sorted(product)

    def other(value):
        return rng.choice([t for t in elements if t != value])

    def changed(key):
        bad = dict(product)
        bad[key] = other(product[key])
        return bad

    out = [("changed", changed(rng.choice(keys)))]
    removed = dict(product)
    del removed[rng.choice(keys)]
    out.append(("removed", removed))
    out.append(("identity row", changed((identity, rng.choice(elements)))))
    x, y = rng.choice(keys)
    as_key = dict(product)
    as_key[(x, "zz") if rng.random() < 0.5 else ("zz", y)] = as_key.pop((x, y))
    out.append(("unknown key", as_key))
    as_value = dict(product)
    as_value[rng.choice(keys)] = "zz"
    out.append(("unknown value", as_value))
    # identity and two-sided inverses kept, but a row is no longer a
    # permutation: associativity must fail (every 2-element table with an
    # identity is associative, so Z2 has no such corruption)
    spots = [
        (x, y) for x, y in keys if identity not in (x, y) and y != inv[x]
    ]
    if spots:
        out.append(("non-associative", changed(rng.choice(spots))))
    return out


def _construct(cls, elements, identity, product):
    try:
        return cls(elements, identity, product)
    except ValueError as exc:
        return exc


class TestGroupTableIsPregroup:
    def test_accepts_and_rejects_as_parent(self):
        # accepted exactly where the group laws hold, as the index table of
        # the product with the two-sided inverse for involution
        rng = random.Random(20131)
        seen = collections.Counter()
        for name, elements, identity, mul in _group_inputs():
            product = {(x, y): mul(x, y) for x in elements for y in elements}
            t = FiniteGroupTable.from_function(elements, identity, mul)
            assert isinstance(t, Pregroup)
            inputs = [("group", product)] + _corruptions(rng, elements, identity, product)
            for kind, prod in inputs:
                ours = _construct(FiniteGroupTable, elements, identity, prod)
                inverse = group_laws(elements, identity, prod)
                assert isinstance(ours, ValueError) == (inverse is None), (name, kind, ours)
                seen[kind, isinstance(ours, ValueError)] += 1
                if kind.startswith("unknown"):
                    assert str(ours) == "product names unknown token 'zz'"
                if inverse is None:
                    continue
                index = {x: i for i, x in enumerate(elements)}
                assert ours.elements == t.elements == tuple(elements)
                assert ours.index == index and ours.eps == index[identity]
                assert ours.inv == tuple(index[inverse[x]] for x in elements)
                assert ours.table == t.table == tuple(
                    tuple(index[prod[x, y]] for y in elements) for x in elements
                )
        assert seen["group", False] == 12
        for kind in ("removed", "identity row", "unknown key", "unknown value"):
            assert seen[kind, True] == 12 and not seen[kind, False], kind
        assert seen["non-associative", True] == 11 and not seen["non-associative", False]
        assert seen["changed", True] == 12

    def test_names_an_unknown_identity(self):
        with pytest.raises(PregroupError) as exc:
            FiniteGroupTable(["e"], "z", {("e", "e"): "e"})
        assert str(exc.value) == "identity 'z' not among elements"

    def test_universal_group_matches_parent_pregroup(self):
        # the universal group of the table and of a plain Pregroup on the
        # same product
        rng = random.Random(20132)
        pairs = []
        for name, elements, identity, mul in _group_inputs():
            t = FiniteGroupTable.from_function(elements, identity, mul)
            product = {(x, y): mul(x, y) for x in elements for y in elements}
            ref = Pregroup(elements, identity, group_laws(elements, identity, product), product)
            pairs.append((UniversalContext(t), UniversalContext(ref)))
        assert [len(c.alphabet) for c, _r in pairs] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 5, 3, 7]
        verdicts = collections.Counter()
        for count in range(200):
            ctx, ref_ctx = pairs[count % len(pairs)]
            assert ctx.alphabet.letters == ref_ctx.alphabet.letters
            k = len(ctx.alphabet)
            u = random_word(rng, k, 6)
            v = conjugated(rng, ctx, u) if rng.random() < 0.5 else random_word(rng, k, 6)
            assert shortlex_nf(u, ctx) == shortlex_nf(u, ref_ctx)
            assert shortlex_nf(v, ctx) == shortlex_nf(v, ref_ctx)
            got = conjugate_linear(u, v, ctx)
            want = conjugate_linear(u, v, ref_ctx)
            assert (got.verdict, got.certificate, got.method) == (
                want.verdict, want.certificate, want.method,
            )
            verdicts[got.verdict] += 1
        assert verdicts[True] > 50 and verdicts[False] > 20, verdicts


# -- Amalgam and HNN pregroups from one index map per group ---------------
# One digest of everything a builder sets, per fixed input, recorded from
# the builders before both wrote their group tables through
# constructions._write_group; the D4 and A4 extensions' from hnn_pregroup
# before it read its products off per-sign coset tables.

AMALGAM_DIGESTS = ["f7a278ad94c5b6f5", "03fe4b61297042c0", "1b5ad191124d8aad", "e796953cef8e3b1e"]
HNN_DIGESTS = [
    "32ad1bad3d0fe2d7", "9ccdc0ec25fb5af3", "44423b2fba0afe64", "e0b2c1fea1b111a2",
    "e61c71d800f66df3", "cf7c259f63de15fa", "1b0081609e6bcf05", "6f70e16956f86563",
    "7ecac70608260837", "150acf6b798f4db2", "ce864a7a2fdbd988", "6792b875fb46e39b",
    "18b230c7f843726d", "f3be6a71667bff73", "69b51f603071237b", "98415625187e5f24",
    "e9558e90a6342d1f", "a1207e4dff9f0384", "98afc362e0d83916", "a99c1a63f84bfbfb",
    "24b8fb255f2c7406", "baf50c2f421caede", "e01cc3571d449d01", "0fefad8f0350e51d",
    "24f8de62193fef45", "c0c0a0ec41c159c0", "f73b09ddc62e281d", "5f93c0dfadc3566b",
    "847138b4a5adaf0f", "cbfe321814e99422", "f9dbfffe72f65524", "e4cba39cb63f89f9",
    "74ceb39fba2dd551", "587bffc7b463f147", "ce013c82ee2d0d9d",
]


def _renamed(G, names):
    """G with its elements renamed, in order, to names."""
    n = range(len(G))
    return FiniteGroupTable(
        names, names[G.eps], {(names[x], names[y]): names[G.mul(x, y)] for x in n for y in n}
    )


def _amalgam_inputs():
    """(A, B, HA, HB, phi): the two sample amalgams, S3 *_Z2 S3 whose B
    tokens all collide with A's, and Z3 * Z3 on the tokens e a a' in both
    factors, whose B tokens once primed collide with A's and each other."""
    z2a, z2b = samples.z2_table(("e", "a")), samples.z2_table(("e", "b"))
    z4, z6 = samples.z4_table(), samples.z6_table()
    s3, s3b = samples.s3_table(), samples.s3_table()
    z3, z3b = (_renamed(FiniteGroupTable.cyclic(3), ["e", "a", "a'"]) for _ in "AB")
    return [
        (z2a, z2b, ("e",), ("e",), {"e": "e"}),
        (z4, z6, ("e", "x2"), ("e", "y3"), {"e": "e", "x2": "y3"}),
        (s3, s3b, ("e", "s"), ("e", "rs"), {"e": "e", "s": "rs"}),
        (z3, z3b, ("e",), ("e",), {"e": "e"}),
    ]


def _hnn_inputs():
    """(H, A, B, phi): every cyclic HNN(Zn, Zk) with k | n <= 10 and phi
    the identity, then extensions of S3 and Z6: the hnn_s3 sample, phi not
    the identity, trivial subgroups, and the Z2 of Z6; then two whose A and
    B differ and are not normal: <s> onto <sr> in D4 (|P| = 72), and <a>
    onto <b> in A4 = <a, b> (|P| = 108), a taken to bb."""
    out = []
    for n in range(1, 11):
        H = FiniteGroupTable.cyclic(n, "x")
        for k in range(1, n + 1):
            if n % k == 0:
                sub = [tok for i, tok in enumerate(H.elements) if i % (n // k) == 0]
                out.append((H, sub, sub, {tok: tok for tok in sub}))
    s3, z6 = samples.s3_table(), samples.z6_table()
    rot = ("e", "r", "r2")
    out += [
        (s3, ("e", "s"), ("e", "s"), {"e": "e", "s": "s"}),
        (s3, ("e", "s"), ("e", "rs"), {"e": "e", "s": "rs"}),
        (s3, rot, rot, {"e": "e", "r": "r2", "r2": "r"}),
        (s3, ("e",), ("e",), {"e": "e"}),
        (z6, ("e", "y2", "y4"), ("e", "y2", "y4"), {"e": "e", "y2": "y4", "y4": "y2"}),
        (z6, ["e", "y3"], ["e", "y3"], {"e": "e", "y3": "y3"}),
    ]
    d4, a4 = (
        FiniteGroupTable.from_function(*_permutation_group(gens, 4))
        for gens in ({"r": (1, 2, 3, 0), "s": (0, 3, 2, 1)}, {"a": (1, 2, 0, 3), "b": (1, 3, 2, 0)})
    )
    out += [
        (d4, ("e", "s"), ("e", "sr"), {"e": "e", "s": "sr"}),
        (a4, ("e", "a", "aa"), ("e", "b", "bb"), {"e": "e", "a": "bb", "aa": "b"}),
    ]
    return out


_BUILT_ATTRIBUTES = {
    AmalgamPregroup: ("factor_a", "factor_b", "subgroup_h"),
    HnnPregroup: ("base_h", "sub_a", "sub_b", "phi", "stable", "t_plus", "t_minus"),
}


def _built(p):
    """The digest of everything a builder sets on p, sets sorted and dicts
    as ordered item lists."""
    attrs = [getattr(p, name) for name in _BUILT_ATTRIBUTES[type(p)]]
    attrs = [
        list(a.items()) if isinstance(a, dict) else sorted(a) if isinstance(a, frozenset) else a
        for a in attrs
    ]
    built = (type(p).__name__, p.elements, p.eps, p.inv, p.table, attrs, emit_pg(p))
    return hashlib.sha256(repr(built).encode()).hexdigest()[:16]


class TestBuildersMatchParent:
    def test_amalgams(self):
        inputs = _amalgam_inputs()
        assert [_built(amalgam_pregroup(*args)) for args in inputs] == AMALGAM_DIGESTS
        assert amalgam_pregroup(*inputs[-1]).elements == ("e", "a", "a'", "a''", "a'''")

    def test_hnn_extensions(self):
        inputs = _hnn_inputs()
        assert len(inputs) == 27 + 8
        assert [_built(hnn_pregroup(*args)) for args in inputs] == HNN_DIGESTS
