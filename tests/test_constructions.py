import collections
import random
from typing import Optional

import pytest

from cycrew import samples
from cycrew.constructions import (
    ClassificationVerdict,
    Embedding,
    FiniteGroupTable,
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
from cycrew.pregroup import gamma_to_p, p_to_gamma
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

    @pytest.mark.parametrize("canon", [(99,), (-1,), (0, 41)])
    def test_letters_outside_gamma_rejected(self, hnn_ctx, canon):
        with pytest.raises(AlphabetError, match="out of range"):
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
        phi_inv = {v: k for k, v in p.phi.items()}
        node = p.index["s"]
        for nxt, k, delta in ver.witness["chain"]:
            mid = p.phi[node] if delta == 1 else phi_inv[node]
            assert p.mul3(p.inv[k], mid, k) == nxt
            node = nxt
        h = ver.witness["h"]
        g_can = cyclic_reduce(g, hnn_ctx).canon
        assert p.mul3(p.inv[h], node, h) == gamma_to_p(g_can[0], p)

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
