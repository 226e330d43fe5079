import collections
import random
from typing import Optional, Sequence

import pytest

from cycrew import samples
from cycrew.constructions import (
    AmalgamPregroup,
    ClassificationVerdict,
    Embedding,
    FiniteGroupTable,
    HnnPregroup,
    InHSubgroup,
    InvalidEmbedding,
    NotAmalgamContext,
    NotHnnContext,
    _require_amalgam,
    _require_hnn,
    amalgam_pregroup,
    hnn_pregroup,
    standard_cyclic_form,
    verify_collins,
    verify_mks,
)
from cycrew.fastconj import conjugate_linear
from cycrew.formats import emit_pg
from cycrew.pregroup import (
    Pregroup,
    PregroupError,
    canonical_subgroup,
    check_axioms,
    check_p6,
    check_p7,
    check_p8,
    gamma_to_p,
    p_to_gamma,
)
from cycrew.universal import (
    ConjugacyAnswer,
    UniversalContext,
    _canonical_traced,
    _certify,
    _conjugacy_prelude,
    _interleaving_equal,
    _letter_closure_traced,
    _preconjugate_p,
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

    def test_subgroup_closure_and_membership(self):
        t = samples.s3_table()
        sub = t.subgroup_closure(["s"])
        assert sub == frozenset({t.index["e"], t.index["s"]})
        assert t.is_subgroup(sub)
        assert not t.is_subgroup({t.index["r"]})
        assert t.subgroup_closure(["r", "s"]) == frozenset(range(6))

    def test_subgroup_closure_unknown_token_named(self):
        with pytest.raises(ValueError, match="'zz'"):
            samples.s3_table().subgroup_closure(["zz"])


class TestEmbedding:
    def test_valid(self):
        h = samples.z2_table(("e", "h"))
        b = samples.z6_table()
        emb = Embedding.from_tokens(h, b, {"e": "e", "h": "y3"})
        assert emb.of(h.index["h"]) == b.index["y3"]

    def test_non_injective_rejected(self):
        h = samples.z2_table(("e", "h"))
        b = samples.z6_table()
        with pytest.raises(InvalidEmbedding):
            Embedding.from_tokens(h, b, {"e": "e", "h": "e"})

    def test_non_homomorphism_rejected(self):
        h = samples.z2_table(("e", "h"))
        b = samples.z6_table()
        with pytest.raises(InvalidEmbedding):
            Embedding.from_tokens(h, b, {"e": "e", "h": "y"})  # y has order 6

    def test_partial_mapping_rejected(self):
        h = samples.z2_table(("e", "h"))
        b = samples.z6_table()
        with pytest.raises(InvalidEmbedding):
            Embedding.from_tokens(h, b, {"e": "e"})

    @pytest.mark.parametrize(
        "tokens, match",
        [
            (("e",), "mapping size mismatch"),
            (("e", "y3", "y"), "mapping size mismatch"),
            (("y3", "e"), "identity is not preserved"),
        ],
        ids=["short", "long", "identity"],
    )
    def test_bad_mapping_rejected(self, tokens, match):
        # mappings that from_tokens cannot build, given to the constructor
        h = samples.z2_table(("e", "h"))
        b = samples.z6_table()
        with pytest.raises(InvalidEmbedding, match=match):
            Embedding(h, b, tuple(b.index[t] for t in tokens))


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
        H = samples.trivial_table()
        iA = Embedding.from_tokens(H, A, {"e": "e"})
        iB = Embedding.from_tokens(H, B, {"e": "e"})
        p = amalgam_pregroup(A, B, iA, iB)
        assert set(p.elements) == {"e", "a", "a'"}

    def test_mismatched_sources_rejected(self):
        A = samples.z4_table()
        B = samples.z6_table()
        iA = Embedding.from_tokens(samples.trivial_table(), A, {"e": "e"})
        iB = Embedding.from_tokens(
            samples.z2_table(("e", "h")), B, {"e": "e", "h": "y3"}
        )
        with pytest.raises(InvalidEmbedding):
            amalgam_pregroup(A, B, iA, iB)

    def test_same_tokens_different_groups_rejected(self):
        # Z4 and the Klein group on the tokens e g g2 g3, each embedded
        # onto itself: equal token lists, different products
        z4 = FiniteGroupTable.cyclic(4)
        klein = FiniteGroupTable.from_function(
            z4.elements, "e", lambda x, y: z4.elements[z4.index[x] ^ z4.index[y]]
        )
        iA = Embedding.from_tokens(z4, z4, {t: t for t in z4.elements})
        iB = Embedding.from_tokens(klein, klein, {t: t for t in z4.elements})
        with pytest.raises(InvalidEmbedding, match="same source H"):
            amalgam_pregroup(z4, klein, iA, iB)
        # an equal group built separately is still the same source
        z4_again = FiniteGroupTable.cyclic(4)
        iA2 = Embedding.from_tokens(z4_again, z4, {t: t for t in z4.elements})
        assert len(amalgam_pregroup(z4, z4, iA2, iA)) == 4


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
        H = samples.s3_table()
        with pytest.raises(InvalidEmbedding, match=f"unknown element {bad} of H"):
            hnn_pregroup(H, [0, bad], [0, 3], {0: 0, bad: 3})


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
        assert ver.theorem == "mks" and ver.case == 1
        g_can = cyclic_reduce(g, z4z6_ctx).canon
        target = ver.witness["h"]
        end_g = replay_letter_chain(gamma_to_p(g_can[0], p), ver.witness["chain_to_g"], p)
        end_f = replay_letter_chain(gamma_to_p(h, p), ver.witness["chain_to_f"], p)
        assert end_g == end_f == target

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
        p = z4z6_ctx.pregroup
        from cycrew.universal import _interleaving_equal
        from cycrew.universal import _canonical_traced

        k = len(z4z6_ctx.alphabet)
        done = 0
        while done < 20:
            u = random_word(rng, k, 5, min_len=2)
            v = conjugated(rng, z4z6_ctx, u)
            if len(cyclic_reduce(u, z4z6_ctx)) < 2:
                continue
            ver = verify_mks(u, v, z4z6_ctx)
            done += 1
            if ver.case != 3:
                continue
            h, i = ver.witness["h"], ver.witness["i"]
            g_can, _ = _canonical_traced(u, z4z6_ctx)
            f_can, _ = _canonical_traced(v, z4z6_ctx)
            rot = [gamma_to_p(l, p) for l in g_can[i:] + g_can[:i]]
            cand = [p.mul(p.inv[h], rot[0])] + rot[1:-1] + [p.mul(rot[-1], h)]
            assert all(x is not None for x in cand)
            assert _interleaving_equal(
                tuple(cand), tuple(gamma_to_p(l, p) for l in f_can), p
            )

    def test_non_conjugate_pair_raises(self, z4z6_ctx):
        p = z4z6_ctx.pregroup
        x = p_to_gamma(p.index["x"], p)
        y = p_to_gamma(p.index["y"], p)
        with pytest.raises(ValueError):
            verify_mks((x,), (y, x, y), z4z6_ctx)

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
            counts[ver.case] += 1
        assert sum(counts.values()) == 60


def replay_collins_case1(ver, f_p, g_p, p):
    """Replay a Collins case-1 witness from f_p: each chain step is phi or
    its inverse followed by conjugation by k, and h takes the last node
    to g_p."""
    assert ver.case == 1
    phi_inv = {v: k for k, v in p.phi.items()}
    node = f_p
    for nxt, k, delta in ver.witness["chain"]:
        mid = p.phi[node] if delta == 1 else phi_inv[node]
        assert p.mul3(p.inv[k], mid, k) == nxt
        node = nxt
    h = ver.witness["h"]
    assert p.mul3(p.inv[h], node, h) == g_p


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
        g_can = cyclic_reduce(g, hnn_ctx).canon
        replay_collins_case1(ver, p.index["s"], gamma_to_p(g_can[0], p), p)

    def test_case1_chain_through_phi_replays(self):
        # phi is the identity on hnn_s3, so the chain above has no step;
        # here phi swaps g2 and g4, and the chain from g4 to g2 has one
        sub = ["e", "g2", "g4"]
        p = hnn_pregroup(
            FiniteGroupTable.cyclic(6, "g"), sub, sub, {"e": "e", "g2": "g4", "g4": "g2"}
        )
        g2, g4 = p.index["g2"], p.index["g4"]
        ver = verify_collins((p_to_gamma(g2, p),), (p_to_gamma(g4, p),), UniversalContext(p))
        assert ver.witness["chain"]
        replay_collins_case1(ver, g4, g2, p)

    def test_case2_base_conjugator(self, hnn_ctx):
        p = hnn_ctx.pregroup
        r = p_to_gamma(p.index["r"], p)
        r2 = p_to_gamma(p.index["r2"], p)
        ver = verify_collins((r,), (r2,), hnn_ctx)
        assert ver.case == 2
        h = ver.witness["h"]
        assert p.mul3(p.inv[h], p.index["r"], h) == p.index["r2"]

    def test_case3_standard_form_conjugator(self, hnn_ctx, rng):
        p = hnn_ctx.pregroup
        from cycrew.universal import _interleaving_equal

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
            cc, j = ver.witness["c"], ver.witness["j"]
            g_std = [
                gamma_to_p(l, p)
                for l in standard_cyclic_form(cyclic_reduce(u, hnn_ctx), hnn_ctx)
            ]
            f_std = tuple(
                gamma_to_p(l, p)
                for l in standard_cyclic_form(cyclic_reduce(v, hnn_ctx), hnn_ctx)
            )
            rot = g_std[j:] + g_std[:j]
            if len(rot) == 1:
                cand = (p.mul3(p.inv[cc], rot[0], cc),)
            else:
                cand = tuple(
                    [p.mul(p.inv[cc], rot[0])] + rot[1:-1] + [p.mul(rot[-1], cc)]
                )
            assert all(x is not None for x in cand)
            assert _interleaving_equal(cand, f_std, p)

    def test_every_conjugate_pair_classified(self, hnn_ctx, rng):
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(60):
            u = random_word(rng, len(hnn_ctx.alphabet), 5)
            v = conjugated(rng, hnn_ctx, u)
            ver = verify_collins(u, v, hnn_ctx)
            counts[ver.case] += 1
        assert sum(counts.values()) == 60

    def test_length_mismatch_raises(self, hnn_ctx):
        p = hnn_ctx.pregroup
        t = p_to_gamma(p.t_plus, p)
        s = p_to_gamma(p.index["s"], p)
        with pytest.raises(ValueError):
            verify_collins((t,), (t, s, t), hnn_ctx)


# The rotation x preconjugator loops, BFS parent walks and pool scans of
# conjugate_quadratic, verify_mks and verify_collins as each wrote its own,
# kept as references for the shared _rotation_matches, _bfs_path and
# _pool_conjugator.


def ref_conjugate_quadratic(u, v, ctx):
    answer, g, f, zu, zv_inv = _conjugacy_prelude(u, v, ctx, "quadratic")
    if answer is not None:
        return answer
    p = ctx.pregroup
    g_p = ctx.to_p(g)
    f_p = ctx.to_p(f)
    for i in range(len(g)):
        rot = g_p[i:] + g_p[:i]
        prefix_inv = involute(g[:i], ctx.alphabet)
        for b in range(len(p)):
            cand = _preconjugate_p(rot, b, p)
            if cand is not None and _interleaving_equal(cand, f_p, p):
                b_word = (p_to_gamma(b, p),) if b != p.eps else ()
                x = zv_inv + b_word + prefix_inv + zu
                return ConjugacyAnswer(True, _certify(u, v, x, ctx), "quadratic")
    return ConjugacyAnswer(False, method="quadratic")


def ref_closure_path(parents: dict, target: int):
    path = []
    node = target
    while parents[node] is not None:
        prev, c = parents[node]
        path.append((node, c))
        node = prev
    path.reverse()
    return node, path


def ref_verify_mks(g, f, ctx):
    p = _require_amalgam(ctx)
    g_can, _zg = _canonical_traced(g, ctx)
    f_can, _zf = _canonical_traced(f, ctx)
    if len(g_can) != len(f_can):
        raise ValueError("pair is not conjugate (length mismatch)")
    n = len(g_can)
    if n == 0:
        return ClassificationVerdict("mks", 1, {"h": p.eps, "chain_to_g": [], "chain_to_f": []})
    h_letters = p.subgroup_h - {p.eps}
    if n == 1:
        g_p = gamma_to_p(g_can[0], p)
        f_p = gamma_to_p(f_can[0], p)
        closure, parents_g = _letter_closure_traced(g_can[0], ctx)
        closure_p = {gamma_to_p(l, p) for l in closure}
        in_h = sorted(closure_p & h_letters)
        if in_h:
            h = in_h[0]
            _root, chain_g = ref_closure_path(parents_g, h)
            _closure_f, parents_f = _letter_closure_traced(f_can[0], ctx)
            _root_f, chain_f = ref_closure_path(parents_f, h)
            return ClassificationVerdict(
                "mks", 1, {"h": h, "chain_to_g": chain_g, "chain_to_f": chain_f}
            )
        factor = p.factor_a if g_p in p.factor_a else p.factor_b
        if f_p not in factor:
            raise ValueError("pair is not conjugate (factors differ)")
        for a in sorted(factor):
            if p.mul3(p.inv[a], g_p, a) == f_p:
                return ClassificationVerdict("mks", 2, {"a": a})
        raise ValueError("pair is not conjugate in the common factor")
    f_p = ctx.to_p(f_can)
    for i in range(n):
        rot = ctx.to_p(g_can[i:] + g_can[:i])
        for h in sorted(p.subgroup_h):
            cand = _preconjugate_p(rot, p.inv[h], p)
            if cand is not None and _interleaving_equal(cand, f_p, p):
                return ClassificationVerdict("mks", 3, {"h": h, "i": i})
    raise ValueError("pair admits no amalgam case-3 witness; not conjugate?")


def ref_verify_collins(g, f, ctx):
    p = _require_hnn(ctx)
    H = p.base_h
    ab = p.sub_a | p.sub_b
    g_can, _zg = _canonical_traced(g, ctx)
    f_can, _zf = _canonical_traced(f, ctx)
    if len(g_can) != len(f_can):
        raise ValueError("pair is not conjugate (length mismatch)")
    if len(f_can) == 0:
        return ClassificationVerdict("collins", 1, {"chain": [], "h": p.eps})
    f_p = gamma_to_p(f_can[0], p) if len(f_can) == 1 else None
    g_p = gamma_to_p(g_can[0], p) if len(g_can) == 1 else None
    if f_p is not None and f_p in H:
        if f_p in ab:
            found = ref_collins_chain(f_p, g_p, p)
            if found is None:
                raise ValueError("no stable-letter conjugation chain found")
            chain, h = found
            return ClassificationVerdict("collins", 1, {"chain": chain, "h": h})
        for h in sorted(H):
            if p.mul3(p.inv[h], g_p, h) == f_p:
                closure, _parents = _letter_closure_traced(g_can[0], ctx)
                closure_p = {gamma_to_p(l, p) for l in closure}
                return ClassificationVerdict(
                    "collins",
                    2,
                    {"h": h, "g_conjugate_into_ab": bool(closure_p & ab)},
                )
        raise ValueError("pair is not conjugate by a base group element")
    g_std = ctx.to_p(standard_cyclic_form(CyclicWord(g_can), ctx))
    f_std = ctx.to_p(standard_cyclic_form(CyclicWord(f_can), ctx))
    n = len(g_std)
    for j in range(n):
        rot = g_std[j:] + g_std[:j]
        sign = p.stable[rot[0]][1]
        stated = p.sub_a if sign == -1 else p.sub_b
        for pool, constrained in ((sorted(stated), True), (sorted(H - stated), False)):
            for c in pool:
                cand = _preconjugate_p(rot, p.inv[c], p)
                if cand is not None and _interleaving_equal(cand, f_std, p):
                    return ClassificationVerdict(
                        "collins",
                        3,
                        {"c": c, "j": j, "sign_constraint_met": constrained},
                    )
    raise ValueError("pair admits no Collins case-3 witness; not conjugate?")


def ref_collins_chain(f_p: int, g_p: Optional[int], p):
    if g_p is None:
        return None
    ab = p.sub_a | p.sub_b
    if f_p not in ab:
        return None
    phi = p.phi
    phi_inv = {v: k for k, v in phi.items()}
    parents = {f_p: None}
    queue = collections.deque([f_p])
    order = [f_p]
    while queue:
        c = queue.popleft()
        moves = []
        if c in p.sub_a:
            moves.append((phi[c], 1))
        if c in p.sub_b:
            moves.append((phi_inv[c], -1))
        for mid, delta in moves:
            for k in sorted(p.base_h):
                y = p.mul(p.mul(p.inv[k], mid), k)
                if y in ab and y not in parents:
                    parents[y] = (c, k, delta)
                    queue.append(y)
                    order.append(y)
    target = h_final = None
    for c in order:
        for h in sorted(p.base_h):
            if p.mul3(p.inv[h], c, h) == g_p:
                target, h_final = c, h
                break
        if target is not None:
            break
    if target is None:
        return None
    steps = []
    node = target
    while parents[node] is not None:
        prev, k, delta = parents[node]
        steps.append((node, k, delta))
        node = prev
    steps.reverse()
    return steps, h_final


def _result(f, *args):
    """What a decision or verifier returns, or the type and message of what
    it raises."""
    try:
        r = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(r, ConjugacyAnswer):
        return r.verdict, r.certificate, r.method
    return r.theorem, r.case, r.witness


class TestSharedSearchesMatchPerCallerLoops:
    def test_random_pairs(self, dinf_ctx, z4z6_ctx, hnn_ctx):
        rng = random.Random(20128)
        contexts = [
            ("dinf", dinf_ctx, verify_mks, ref_verify_mks),
            ("z4z6", z4z6_ctx, verify_mks, ref_verify_mks),
            ("hnn", hnn_ctx, verify_collins, ref_verify_collins),
        ]
        seen = collections.Counter()
        for count in range(1_500):
            name, ctx, verify, ref_verify = contexts[count % 3]
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
            answer = _result(conjugate_quadratic, u, v, ctx)
            assert answer == _result(ref_conjugate_quadratic, u, v, ctx), (name, u, v)
            seen[(name, "conjugate" if answer[0] is True else "not conjugate")] += 1
            ours = _result(verify, u, v, ctx)
            ref = _result(ref_verify, u, v, ctx)
            if ref[0] is KeyError:
                # the parent walked a closure that does not contain h
                assert ours[0] is ValueError, (name, u, v, ours)
                seen["KeyError"] += 1
            else:
                assert ours == ref, (name, u, v)
            if isinstance(ours[0], str):
                _theorem, case, witness = ours
                seen[(name, case)] += 1
                if case == 3 and witness.get("i", witness.get("j")) > 0:
                    seen[(name, "rotated witness")] += 1
            else:
                seen[(name, "raises")] += 1
        for name in ("dinf", "z4z6", "hnn"):
            assert seen[(name, 1)] and seen[(name, 2)] and seen[(name, 3)], seen
            assert seen[(name, "raises")], seen
            assert seen[(name, "conjugate")] and seen[(name, "not conjugate")], seen
        assert seen[("z4z6", "rotated witness")] and seen[("hnn", "rotated witness")], seen
        assert seen["KeyError"], seen


# -- FiniteGroupTable is a Pregroup: differential against the parent ------


class ref_FiniteGroupTable:  # the parent's class, before it was a Pregroup
    def __init__(self, elements: Sequence[str], identity: str, product: dict):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element tokens")
        self.index = {tok: i for i, tok in enumerate(self.elements)}
        if identity not in self.index:
            raise ValueError(f"identity {identity!r} not among elements")
        self.identity = self.index[identity]
        n = len(self.elements)
        self.table = [[None] * n for _ in range(n)]
        try:
            for (x, y), z in product.items():
                self.table[self.index[x]][self.index[y]] = self.index[z]
        except KeyError as exc:
            raise ValueError(f"product names unknown token {exc.args[0]!r}") from None
        for i in range(n):
            for j in range(n):
                if self.table[i][j] is None:
                    raise ValueError(
                        f"product table incomplete at "
                        f"({self.elements[i]}, {self.elements[j]})"
                    )
        e = self.identity
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise ValueError(f"identity law fails at {self.elements[i]}")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == e and self.table[j][i] == e:
                    inv[i] = j
        if any(x is None for x in inv):
            raise ValueError("some element has no two-sided inverse")
        self.inv = tuple(inv)
        for i in range(n):
            for j in range(n):
                ij = self.table[i][j]
                for k in range(n):
                    if self.table[ij][k] != self.table[i][self.table[j][k]]:
                        raise ValueError(
                            "associativity fails at "
                            f"({self.elements[i]}, {self.elements[j]}, "
                            f"{self.elements[k]})"
                        )
        self.table = tuple(tuple(row) for row in self.table)

    def __len__(self):
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def ref_group_pregroup(table: ref_FiniteGroupTable) -> Pregroup:
    """A finite group seen as a pregroup with everywhere-defined product."""
    toks = table.elements
    involution = {toks[i]: toks[table.inv[i]] for i in range(len(table))}
    product = {
        (toks[i], toks[j]): toks[table.mul(i, j)]
        for i in range(len(table))
        for j in range(len(table))
    }
    return Pregroup(toks, toks[table.identity], involution, product)


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
        rng = random.Random(20131)
        seen = collections.Counter()
        for name, elements, identity, mul in _group_inputs():
            product = {(x, y): mul(x, y) for x in elements for y in elements}
            t = FiniteGroupTable.from_function(elements, identity, mul)
            assert isinstance(t, Pregroup)
            inputs = [("group", product)] + _corruptions(rng, elements, identity, product)
            for kind, prod in inputs:
                ours = _construct(FiniteGroupTable, elements, identity, prod)
                ref = _construct(ref_FiniteGroupTable, elements, identity, prod)
                assert isinstance(ours, ValueError) == isinstance(ref, ValueError), (
                    name, kind, ours, ref,
                )
                seen[kind, isinstance(ours, ValueError)] += 1
                if kind.startswith("unknown"):
                    assert str(ours) == str(ref) == "product names unknown token 'zz'"
                if kind == "non-associative":
                    assert str(ref).startswith("associativity fails"), (name, ref)
                if isinstance(ref, ValueError):
                    continue
                want = ref_group_pregroup(ref)
                assert ours.elements == want.elements == t.elements
                assert ours.index == want.index
                assert ours.eps == want.eps == ref.identity
                assert ours.inv == want.inv == ref.inv
                assert ours.table == want.table == t.table
        assert seen["group", False] == 12
        for kind in ("removed", "identity row", "unknown key", "unknown value"):
            assert seen[kind, True] == 12 and not seen[kind, False], kind
        assert seen["non-associative", True] == 11 and not seen["non-associative", False]
        assert seen["changed", True] == 12

    def test_universal_group_matches_parent_pregroup(self):
        rng = random.Random(20132)
        pairs = []
        for name, elements, identity, mul in _group_inputs():
            t = FiniteGroupTable.from_function(elements, identity, mul)
            product = {(x, y): mul(x, y) for x in elements for y in elements}
            ref = ref_group_pregroup(ref_FiniteGroupTable(elements, identity, product))
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


# -- Amalgam and HNN pregroups from one index map per group: differential --
# The parent's builders, kept verbatim, from before both wrote their group
# tables through constructions._write_group.


def ref_amalgam_pregroup(
    A: FiniteGroupTable, B: FiniteGroupTable, iA: Embedding, iB: Embedding
) -> AmalgamPregroup:
    """The pregroup P = A u B of the amalgam A *_H B, with iA(h) and iB(h)
    identified; products are defined exactly within a factor."""
    if iA.source is not iB.source and iA.source.elements != iB.source.elements:
        raise InvalidEmbedding("embeddings must share the same source H")
    if iA.target is not A or iB.target is not B:
        raise InvalidEmbedding("embedding targets must be A and B")
    h_size = len(iA.source)
    image_b = {iB.of(h): h for h in range(h_size)}
    b_only = [j for j in range(len(B)) if j not in image_b]

    tokens = list(A.elements)
    used = set(tokens)
    b_tokens = {}
    for j in b_only:
        tok = B.elements[j]
        while tok in used:
            tok += "'"
        used.add(tok)
        b_tokens[j] = tok
        tokens.append(tok)

    def b_to_p(j):
        if j in image_b:
            return iA.of(image_b[j])
        return len(A) + b_only.index(j)

    # B-element of a P index, when it has one
    in_b = [None] * len(tokens)
    a_in_h = {iA.of(h): h for h in range(h_size)}
    for i in range(len(A)):
        if i in a_in_h:
            in_b[i] = iB.of(a_in_h[i])
    for j in b_only:
        in_b[b_to_p(j)] = j

    product = {}
    involution = {}
    for i in range(len(A)):
        involution[tokens[i]] = tokens[A.inv[i]]
        for k in range(len(A)):
            product[(tokens[i], tokens[k])] = tokens[A.mul(i, k)]
    for pi in range(len(tokens)):
        bi = in_b[pi]
        if bi is None:
            continue
        if pi >= len(A):
            involution[tokens[pi]] = tokens[b_to_p(B.inv[bi])]
        for pk in range(len(tokens)):
            bk = in_b[pk]
            if bk is None:
                continue
            product[(tokens[pi], tokens[pk])] = tokens[b_to_p(B.mul(bi, bk))]

    p = AmalgamPregroup(tokens, A.elements[A.eps], involution, product)
    p.factor_a = frozenset(range(len(A)))
    p.factor_b = frozenset(i for i in range(len(tokens)) if in_b[i] is not None)
    p.subgroup_h = p.factor_a & p.factor_b
    if len(p) != len(A) + len(B) - h_size:
        raise PregroupError("amalgam self-check: wrong number of elements")
    if not check_axioms(p):
        raise PregroupError("amalgam self-check: P1-P5 fail")
    if not (check_p6(p)[0] and check_p7(p)[0]):
        raise PregroupError("amalgam self-check: P6 or P7 fails")
    if canonical_subgroup(p) != p.subgroup_h:
        raise PregroupError("amalgam self-check: G_P is not the identified subgroup")
    return p


def ref_hnn_pregroup(
    H: FiniteGroupTable, A, B, phi: dict
) -> HnnPregroup:
    """The pregroup P = H u Ht^-1H u HtH of HNN(H, t; t^-1 A t = B).

    A and B are subgroups given by element tokens (or indices); phi is an
    isomorphism A -> B as a token dict.  Double cosets are canonicalised on
    left transversals: each element of HtH is (u, +1, v) with u the least
    index in its coset uA (identifying u a t v = u t phi(a) v), each element
    of Ht^-1H is (u, -1, v) with u least in uB.  A token that is not an
    element of H raises InvalidEmbedding.
    """
    def element(x):
        if not isinstance(x, str):
            return x
        if x not in H.index:
            raise InvalidEmbedding(f"unknown element {x!r} of H")
        return H.index[x]

    a_set = frozenset(element(x) for x in A)
    b_set = frozenset(element(x) for x in B)
    if not H.is_subgroup(a_set) or not H.is_subgroup(b_set):
        raise InvalidEmbedding("A and B must be subgroups of H")
    phi_idx = {element(x): element(y) for x, y in phi.items()}
    if set(phi_idx) != set(a_set) or set(phi_idx.values()) != set(b_set):
        raise InvalidEmbedding("phi must be a bijection A -> B")
    for x in a_set:
        for y in a_set:
            if phi_idx[H.mul(x, y)] != H.mul(phi_idx[x], phi_idx[y]):
                raise InvalidEmbedding("phi is not a homomorphism")
    phi_inv = {v: k for k, v in phi_idx.items()}

    def coset_rep(u, sub):
        return min(H.mul(u, s) for s in sub)

    reps_a = sorted({coset_rep(u, a_set) for u in range(len(H))})
    reps_b = sorted({coset_rep(u, b_set) for u in range(len(H))})

    def canon(sign, u, v):
        if sign > 0:
            r = coset_rep(u, a_set)
            a = H.mul(H.inv[r], u)
            return (r, sign, H.mul(phi_idx[a], v))
        r = coset_rep(u, b_set)
        b = H.mul(H.inv[r], u)
        return (r, sign, H.mul(phi_inv[b], v))

    tokens = list(H.elements)
    stable = {}  # P index -> (u, sign, v)
    elem_of = {}  # (u, sign, v) canonical -> P index
    for sign, reps, mark in ((1, reps_a, "t"), (-1, reps_b, "T")):
        for u in reps:
            for v in range(len(H)):
                tok = f"{H.elements[u]}|{mark}|{H.elements[v]}"
                idx = len(tokens)
                tokens.append(tok)
                stable[idx] = (u, sign, v)
                elem_of[(u, sign, v)] = idx

    def stable_idx(sign, u, v):
        return elem_of[canon(sign, u, v)]

    involution = {}
    product = {}
    for i in range(len(H)):
        involution[tokens[i]] = tokens[H.inv[i]]
        for j in range(len(H)):
            product[(tokens[i], tokens[j])] = tokens[H.mul(i, j)]
    for idx, (u, sign, v) in stable.items():
        involution[tokens[idx]] = tokens[stable_idx(-sign, H.inv[v], H.inv[u])]
        for h in range(len(H)):
            product[(tokens[h], tokens[idx])] = tokens[stable_idx(sign, H.mul(h, u), v)]
            product[(tokens[idx], tokens[h])] = tokens[stable_idx(sign, u, H.mul(v, h))]
        for idx2, (u2, sign2, v2) in stable.items():
            if sign2 == sign:
                continue
            w = H.mul(v, u2)
            if sign > 0:
                if w not in b_set:
                    continue
                value = H.mul(H.mul(u, phi_inv[w]), v2)
            else:
                if w not in a_set:
                    continue
                value = H.mul(H.mul(u, phi_idx[w]), v2)
            product[(tokens[idx], tokens[idx2])] = tokens[value]

    p = HnnPregroup(tokens, H.elements[H.eps], involution, product)
    p.base_h = frozenset(range(len(H)))
    p.sub_a = a_set
    p.sub_b = b_set
    p.phi = dict(phi_idx)
    p.stable = dict(stable)
    e = H.eps
    p.t_plus = elem_of[canon(1, e, e)]
    p.t_minus = elem_of[canon(-1, e, e)]
    if not check_axioms(p):
        raise PregroupError("HNN self-check: P1-P5 fail")
    if not (check_p6(p)[0] and check_p8(p)[0]):
        raise PregroupError("HNN self-check: P6 or P8 fails")
    if canonical_subgroup(p) != p.base_h:
        raise PregroupError("HNN self-check: G_P is not the base group")
    return p


def _renamed(G, names):
    """G with its elements renamed, in order, to names."""
    n = range(len(G))
    return FiniteGroupTable(
        names, names[G.eps], {(names[x], names[y]): names[G.mul(x, y)] for x in n for y in n}
    )


def _amalgam_inputs():
    """(A, B, iA, iB): the two sample amalgams, S3 *_Z2 S3 whose B tokens
    all collide with A's, and Z3 * Z3 on the tokens e a a' in both
    factors, whose B tokens once primed collide with A's and each other."""
    z2h, triv = samples.z2_table(("e", "h")), samples.trivial_table()
    z2a, z2b = samples.z2_table(("e", "a")), samples.z2_table(("e", "b"))
    z4, z6 = samples.z4_table(), samples.z6_table()
    s3, s3b = samples.s3_table(), samples.s3_table()
    z3, z3b = (_renamed(FiniteGroupTable.cyclic(3), ["e", "a", "a'"]) for _ in "AB")
    cases = [
        (z2a, z2b, triv, {"e": "e"}, {"e": "e"}),
        (z4, z6, z2h, {"e": "e", "h": "x2"}, {"e": "e", "h": "y3"}),
        (s3, s3b, z2h, {"e": "e", "h": "s"}, {"e": "e", "h": "rs"}),
        (z3, z3b, triv, {"e": "e"}, {"e": "e"}),
    ]
    return [
        (A, B, Embedding.from_tokens(H, A, ia), Embedding.from_tokens(H, B, ib))
        for A, B, H, ia, ib in cases
    ]


def _hnn_inputs():
    """(H, A, B, phi): every cyclic HNN(Zn, Zk) with k | n <= 10 and phi
    the identity, then extensions of S3 and Z6: the hnn_s3 sample, phi not
    the identity, trivial subgroups, and subgroups given by indices."""
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
        (z6, [0, 3], [0, 3], {0: 0, 3: 3}),
    ]
    return out


_BUILT_ATTRIBUTES = {
    AmalgamPregroup: ("factor_a", "factor_b", "subgroup_h"),
    HnnPregroup: ("base_h", "sub_a", "sub_b", "phi", "stable", "t_plus", "t_minus"),
}


def _built(p):
    """Everything a builder sets on p, dicts as ordered item lists."""
    attrs = [getattr(p, name) for name in _BUILT_ATTRIBUTES[type(p)]]
    attrs = [list(a.items()) if isinstance(a, dict) else a for a in attrs]
    return type(p), p.elements, p.eps, p.inv, p.table, attrs, emit_pg(p)


class TestBuildersMatchParent:
    def test_amalgams(self):
        inputs = _amalgam_inputs()
        for args in inputs:
            assert _built(amalgam_pregroup(*args)) == _built(ref_amalgam_pregroup(*args))
        assert amalgam_pregroup(*inputs[-1]).elements == ("e", "a", "a'", "a''", "a'''")

    def test_hnn_extensions(self):
        inputs = _hnn_inputs()
        assert len(inputs) == 27 + 6
        for args in inputs:
            assert _built(hnn_pregroup(*args)) == _built(ref_hnn_pregroup(*args))
