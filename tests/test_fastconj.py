import pytest
from hypothesis import given, strategies as st

from cycrew.fastconj import conjugate_linear, conjugate_oracle, kmp_search
from cycrew.universal import conjugate_quadratic, cyclic_reduce, equal_in_U
from cycrew.words import involute

from conftest import conjugated, random_word
from test_universal import interleave, random_reduced_p


def naive_search(pattern, text):
    return [
        i
        for i in range(len(text) - len(pattern) + 1)
        if text[i : i + len(pattern)] == pattern
    ]


class TestKmp:
    def test_basic(self):
        assert kmp_search((0, 1), (0, 1, 0, 1, 1)) == [0, 2]

    def test_empty_pattern(self):
        assert kmp_search((), (5, 6)) == [0, 1, 2]

    def test_pattern_longer_than_text(self):
        assert kmp_search((1, 2, 3), (1, 2)) == []

    def test_overlapping_matches(self):
        assert kmp_search((0, 0), (0, 0, 0, 0)) == [0, 1, 2]

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=6).map(tuple),
        st.lists(st.integers(0, 2), max_size=30).map(tuple),
    )
    def test_against_naive(self, pattern, text):
        assert kmp_search(pattern, text) == naive_search(pattern, text)


class TestOracle:
    def test_negative_max_len_rejected(self, dinf_ctx):
        with pytest.raises(ValueError):
            conjugate_oracle((), (), dinf_ctx, -1)

    def test_confirms_rotation(self, dinf_ctx):
        a = dinf_ctx.alphabet
        ans = conjugate_oracle(a.parse("a b"), a.parse("b a"), dinf_ctx, 2)
        assert ans is not None and ans.method == "oracle"
        cert = ans.certificate
        assert equal_in_U(
            cert + a.parse("a b") + involute(cert, a), a.parse("b a"), dinf_ctx
        )

    def test_inconclusive_within_budget(self, dinf_ctx):
        a = dinf_ctx.alphabet
        # conjugate, but every conjugator is longer than the bound
        assert conjugate_oracle(a.parse("a"), a.parse("b a b"), dinf_ctx, 0) is None

    def test_never_refutes(self, dinf_ctx):
        a = dinf_ctx.alphabet
        assert conjugate_oracle(a.parse("a"), a.parse("b"), dinf_ctx, 3) is None


class TestConjugateLinear:
    def test_empty_and_single(self, dinf_ctx):
        a = dinf_ctx.alphabet
        assert conjugate_linear((), (), dinf_ctx).verdict
        assert conjugate_linear(a.parse("a"), a.parse("b a b"), dinf_ctx).verdict
        assert not conjugate_linear(a.parse("a"), a.parse("b"), dinf_ctx).verdict

    def test_method_tag(self, dinf_ctx):
        assert conjugate_linear((), (), dinf_ctx).method == "linear"

    def test_rotations_are_conjugate(self, free_ctx):
        a = free_ctx.alphabet
        w = a.parse("a b a B")
        for k in range(1, len(w)):
            ans = conjugate_linear(w, w[k:] + w[:k], free_ctx)
            assert ans.verdict

    def test_agreement_with_quadratic_random(self, dinf_ctx, z4z6_ctx, hnn_ctx, rng):
        for ctx in (dinf_ctx, z4z6_ctx, hnn_ctx):
            k = len(ctx.alphabet)
            for _ in range(150):
                u = random_word(rng, k, 6)
                v = random_word(rng, k, 6)
                lin = conjugate_linear(u, v, ctx)
                quad = conjugate_quadratic(u, v, ctx)
                assert lin.verdict == quad.verdict

    def test_agreement_on_constructed_conjugates(self, dinf_ctx, z4z6_ctx, hnn_ctx, rng):
        for ctx in (dinf_ctx, z4z6_ctx, hnn_ctx):
            k = len(ctx.alphabet)
            for _ in range(60):
                u = random_word(rng, k, 6)
                v = conjugated(rng, ctx, u)
                lin = conjugate_linear(u, v, ctx)
                assert lin.verdict
                cert = lin.certificate
                assert equal_in_U(
                    cert + u + involute(cert, ctx.alphabet), v, ctx
                )

    def test_oracle_confirms_positives(self, z4z6_ctx, rng):
        k = len(z4z6_ctx.alphabet)
        confirmed = 0
        for _ in range(40):
            u = random_word(rng, k, 4)
            v = conjugated(rng, z4z6_ctx, u, max_conj=2)
            if conjugate_linear(u, v, z4z6_ctx).verdict:
                assert conjugate_oracle(u, v, z4z6_ctx, 3) is not None
                confirmed += 1
        assert confirmed > 0

    def test_length_is_conjugacy_invariant(self, hnn_ctx, rng):
        # cyclic reduction length differs => never conjugate
        k = len(hnn_ctx.alphabet)
        for _ in range(50):
            u = random_word(rng, k, 6)
            v = random_word(rng, k, 6)
            if len(cyclic_reduce(u, hnn_ctx)) != len(cyclic_reduce(v, hnn_ctx)):
                assert not conjugate_linear(u, v, hnn_ctx).verdict

    def test_interior_rotations_under_carries(self, hnn_ctx, rng):
        # v is an interior rotation of u (offset 3..n-1) interleaved by G_P
        # carries, so its rotation is found through the KMP scan of NF(g^2)
        p = hnn_ctx.pregroup
        pairs = 0
        while pairs < 60:
            pu = random_reduced_p(rng, p, rng.randint(6, 14))
            n = len(pu)
            if n < 6 or p.table[pu[-1]][pu[0]] is not None:
                continue  # not cyclically reduced
            k = rng.randrange(3, n)
            u = hnn_ctx.to_gamma(pu)
            v = hnn_ctx.to_gamma(interleave(rng, pu[k:] + pu[:k], p))
            lin = conjugate_linear(u, v, hnn_ctx)
            assert lin.verdict and conjugate_quadratic(u, v, hnn_ctx).verdict
            cert = lin.certificate
            assert equal_in_U(cert + u + involute(cert, hnn_ctx.alphabet), v, hnn_ctx)
            pairs += 1
