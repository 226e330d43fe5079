import collections
import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cycrew import UniversalContext, fastconj, samples
from cycrew.fastconj import conjugate_linear, conjugate_oracle, kmp_search
from cycrew.pregroup import canonical_subgroup, check_p6
from cycrew.universal import (
    _certify,
    _conjugacy_prelude,
    _interleaving_equal,
    _nf_carries,
    _preconjugate_p,
    _stack_reduce,
    conjugate_quadratic,
    cyclic_reduce,
    equal_in_U,
)
from cycrew.words import involute

from conftest import conjugated, hnn_cyclic, p6_failing, random_word
from test_pregroup import corpus
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


def cyclically_reduced_p(rng, p, n, tries=50):
    """A cyclically reduced P-index word over Gamma of length n, or None."""
    for _ in range(tries):
        pw = random_reduced_p(rng, p, n)
        if len(pw) == n and (n < 2 or p.table[pw[-1]][pw[0]] is None):
            return pw
    return None


class TestWindowLemma:
    def test_every_offset(self):
        # G = NF(g) for cyclically reduced g of length n >= 2, W = NF(G G)
        # with carries c: for every s < n, NF(G[s:] G[:s]) is W[s:s+n-1]
        # followed by the letter x with [x c_{s+n-1}] = W[s+n-1]; s = 0 is
        # the prefix lemma, and the carries before n-1 are epsilon.
        # conjugate_linear decides each KMP hit by this lemma alone
        rng = random.Random(9)
        checked = 0

        def check_offsets(p, pw):
            g_nf, _c = _nf_carries(pw, p)
            n = len(g_nf)
            big, carries = _nf_carries(g_nf + g_nf, p)
            assert big[: n - 1] == g_nf[: n - 1]
            assert set(carries[: n - 1]) <= {p.eps}
            for s in range(n):
                rot_nf, _rc = _nf_carries(g_nf[s:] + g_nf[:s], p)
                e = s + n - 1
                assert rot_nf[:-1] == big[s:e]
                assert p.table[rot_nf[-1]][carries[e]] == big[e]
            return n

        for p in corpus() + [hnn_cyclic(4, 2), hnn_cyclic(6, 3), hnn_cyclic(10, 2)]:
            for k in range(60):
                pw = cyclically_reduced_p(rng, p, rng.randint(2, 12))
                if pw is None:
                    break  # every product is defined: no such words
                if k % 4 == 0:
                    pw = pw + pw  # periodic: several starts below n match
                checked += check_offsets(p, pw)
        assert checked > 2000
        # words of the lengths the conj benchmark workload runs, one of
        # them periodic
        for p in (samples.hnn_s3(), hnn_cyclic(10, 2)):
            for n in (64, 100, 160, 256):
                assert check_offsets(p, cyclically_reduced_p(rng, p, n)) == n
            half = cyclically_reduced_p(rng, p, 128)
            assert check_offsets(p, half + half) == 256


class TestPassFromNMinusOne:
    def test_split_pass_is_the_full_pass(self, dp_ctx):
        # conjugate_linear runs the pass for W = NF(G G) from position n-1:
        # G[:n-1] followed by the pass over G[n-1:] G, and n-1 epsilon
        # carries followed by its carries, are the full pass's letters and
        # carries
        p = dp_ctx.pregroup
        rng = random.Random(len(p) + 31)
        checked = 0
        for k in range(60):
            pw = cyclically_reduced_p(rng, p, rng.randint(2, 24))
            if pw is None:
                continue  # no such word of that length (odd ones on dinf)
            if k % 4 == 0:
                pw = pw + pw  # periodic
            g_nf, _c = _nf_carries(pw, p)
            n = len(g_nf)
            tail, carries = _nf_carries(g_nf[n - 1 :] + g_nf, p)
            split = (g_nf[: n - 1] + tail, (p.eps,) * (n - 1) + carries)
            assert split == _nf_carries(g_nf + g_nf, p), pw
            checked += 1
        # s3 has no reduced word of two letters
        assert checked > 10 or len(random_reduced_p(rng, p, 2)) < 2


def least_match(u, v, ctx, bs=None):
    """(b, s, certificate) for the least b (of bs, default every element),
    then the least rotation s of NF(g), with b~ f b equal to that rotation,
    by direct comparison; None when there is none or the prelude decides."""
    answer, g_p, f_p, zu, zv_inv = _conjugacy_prelude(u, v, ctx, "linear")
    if answer is not None:
        return None
    p = ctx.pregroup
    g_nf, _c = _nf_carries(g_p, p)
    for b in range(len(p)) if bs is None else bs:
        fb = _stack_reduce((p.inv[b],) + f_p + (b,), p)
        for s in range(len(g_nf)):
            if _interleaving_equal(fb, g_nf[s:] + g_nf[:s], p):
                q_inv = tuple(p.inv[x] for x in reversed(g_nf[:s]))
                return b, s, _certify(u, v, zv_inv + (b,) + q_inv + zu, ctx)
    return None


def differential_pair(rng, ctx):
    """(u, v, n, periodic): u cyclically reduced of length n, possibly a
    power, wrapped in a conjugator; v a conjugated, interleaved and
    preconjugated rotation of u, or an unrelated word of the same length."""
    p = ctx.pregroup
    n = rng.choice((2, 3, rng.randint(4, 16)))
    periodic = rng.random() < 0.25
    if periodic:
        root = cyclically_reduced_p(rng, p, rng.choice((1, 2, 3)))
        pw = None if root is None else root * -(-n // len(root))
        if pw is None or p.table[pw[-1]][pw[0]] is not None:
            return None
    else:
        pw = cyclically_reduced_p(rng, p, n)
        if pw is None:
            return None
    n = len(pw)
    u = conjugated(rng, ctx, ctx.to_gamma(pw))
    if rng.random() < 0.25:
        other = cyclically_reduced_p(rng, p, n)
        return None if other is None else (u, ctx.to_gamma(other), n, periodic)
    s = rng.randrange(n)
    rot = interleave(rng, pw[s:] + pw[:s], p)
    pre = _preconjugate_p(rot, rng.randrange(len(p)), p)
    if pre is not None and len(_stack_reduce(pre, p)) == n:
        rot = pre
    return u, conjugated(rng, ctx, ctx.to_gamma(rot)), n, periodic


@pytest.fixture(scope="module")
def p6_failing_contexts(census):
    """Contexts of p6_failing, then of the census tables on which P6 fails
    (4 on six elements, p6_failing among them, and 140 on seven): the only
    inputs that can catch a b filter that drops a needed b."""
    return [UniversalContext(p6_failing())] + [
        UniversalContext(p) for p in census if not check_p6(p)[0]
    ]


class TestOnePassMatchesParent:
    def test_random_pairs(self, dinf_ctx, z4z6_ctx, hnn_ctx, p6_failing_contexts):
        # conjugate_linear against conjugate_quadratic and least_match
        rng = random.Random(2026)
        reached = collections.Counter()
        contexts = [
            (ctx, 150) for ctx in (dinf_ctx, z4z6_ctx, hnn_ctx, UniversalContext(hnn_cyclic(6, 3)))
        ] + [(p6_failing_contexts[0], 150)] + [(ctx, 5) for ctx in p6_failing_contexts[1:]]
        for ctx, pairs in contexts:
            done = 0
            while done < pairs:
                pair = differential_pair(rng, ctx)
                if pair is None:
                    continue
                u, v, n, periodic = pair
                lin = conjugate_linear(u, v, ctx)
                quad = conjugate_quadratic(u, v, ctx)
                assert lin.verdict == quad.verdict, (u, v)
                assert lin.method == "linear"
                done += 1
                reached["n=%d" % n] += 1
                reached["periodic"] += periodic
                if not lin.verdict:
                    reached["negative"] += 1
                    continue
                cert = lin.certificate
                assert equal_in_U(cert + u + involute(cert, ctx.alphabet), v, ctx)
                # the one pass returns the least rotation of the least b the
                # filter keeps; where P6 holds, and on p6_failing, that gives
                # least_match's certificate over every b
                b, s, cert = least_match(u, v, ctx)
                kept = split_preconjugators(u, v, ctx)[1]
                if b not in kept:
                    assert ctx in p6_failing_contexts, (u, v, b)
                    reached["least b skipped"] += 1
                    if ctx is not p6_failing_contexts[0]:
                        b, s, cert = least_match(u, v, ctx, kept)
                assert lin.certificate == cert, (u, v)
                reached["b!=eps"] += b != ctx.pregroup.eps
                if s == 0:
                    reached["s=0"] += 1
                elif s == 1:
                    reached["s=1"] += 1
                elif s == n - 1:
                    reached["s=n-1"] += 1
                else:
                    reached["interior"] += 1
        for key in ("n=2", "n=3", "periodic", "negative", "b!=eps",
                    "s=0", "s=1", "s=n-1", "interior", "least b skipped"):
            assert reached[key] > 0, (key, reached)


def defines_preconjugation(b, f_p, p):
    """Whether b passes conjugate_linear's filter: [b~ f_1] and [f_n b]
    both defined and not epsilon."""
    head, tail = p.table[p.inv[b]][f_p[0]], p.table[f_p[-1]][b]
    return head not in (None, p.eps) and tail not in (None, p.eps)


def split_preconjugators(u, v, ctx):
    """(f_p, kept, skipped) for a pair the prelude leaves undecided: kept
    are epsilon and the b that pass the filter with |stack_reduce(b~ f b)| =
    n, skipped the other b with that length; None when the prelude decides."""
    answer, _g, f_p, _zu, _zv = _conjugacy_prelude(u, v, ctx, "linear")
    if answer is not None:
        return None
    p = ctx.pregroup
    n = len(f_p)
    kept, skipped = [], []
    for b in range(len(p)):
        if len(_stack_reduce((p.inv[b],) + f_p + (b,), p)) != n:
            continue
        if b == p.eps or defines_preconjugation(b, f_p, p):
            kept.append(b)
        else:
            skipped.append(b)
    return f_p, kept, skipped


def cyclically_reduced_words(p, n):
    """Every cyclically reduced P-index word of length n >= 2 over Gamma."""
    table = p.table
    gamma = [x for x in range(len(p)) if x != p.eps]
    words = [(x,) for x in gamma]
    for _ in range(n - 1):
        words = [w + (x,) for w in words for x in gamma if table[w[-1]][x] is None]
    return [w for w in words if table[w[-1]][w[0]] is None]


class TestDefinedPreconjugations:
    def test_preconjugation_is_the_stack_reduction(self, census):
        # the lemma of _preconjugate_p: where the preconjugation of a
        # cyclically reduced f (n >= 2) is defined, it is b~ f b stack-reduced.
        # Amalgam words have even cyclic length, so HNN(Z4, Z2) brings n = 3.
        cases = [(p, (2, 3, 4)) for p in corpus() if len(p) <= 8]
        cases.append((hnn_cyclic(4, 2), (2, 3)))
        cases += [(p, (2, 3, 4)) for p in census]
        reached = collections.Counter()
        for p, lengths in cases:
            for n in lengths:
                for f in cyclically_reduced_words(p, n):
                    for b in range(len(p)):
                        fb = _preconjugate_p(f, p.inv[b], p)
                        if fb is None:
                            continue
                        assert fb == _stack_reduce((p.inv[b],) + f + (b,), p), (p.table, f, b)
                        assert len(fb) == n
                        reached[n] += b != p.eps
        for n in (2, 3, 4):
            assert reached[n] > 0, (n, reached)

    def test_no_dropped_b_was_needed(self, dinf_ctx, z4z6_ctx, hnn_ctx, p6_failing_contexts):
        # least_match tries every b.  Where P6 holds, the least b that
        # matches is always epsilon or a b the filter keeps, although
        # skipped b often give words of length n.  On the P6-failing
        # pregroups some positives have their least b outside G_P, so a b
        # loop over G_P alone would answer "not conjugate" there.  That b
        # may be one the filter skips.  On p6_failing its b~ f b is then a
        # rotation of f and conjugate_linear still certifies least_match's
        # conjugator; on the other census tables it need not be, and the
        # certificate is that of the least b the filter keeps.  On a
        # negative least_match finds no b either
        rng = random.Random(15)
        contexts = [
            (ctx, 400) for ctx in [dinf_ctx, z4z6_ctx, hnn_ctx] + [
                UniversalContext(hnn_cyclic(n, k)) for n, k in ((4, 2), (6, 3), (10, 2))
            ]
        ] + [(p6_failing_contexts[0], 400)] + [(ctx, 5) for ctx in p6_failing_contexts[1:]]
        reached = collections.Counter()
        for ctx, pairs in contexts:
            p = ctx.pregroup
            done = 0
            while done < pairs:
                pair = differential_pair(rng, ctx)
                if pair is None:
                    continue
                u, v, _n, _periodic = pair
                lin = conjugate_linear(u, v, ctx)
                assert lin.verdict == conjugate_quadratic(u, v, ctx).verdict, (u, v)
                done += 1
                split = split_preconjugators(u, v, ctx)
                if split is None:
                    continue
                f_p, kept, skipped = split
                reached["skipped"] += len(skipped)
                if not lin.verdict:
                    if ctx in p6_failing_contexts:
                        assert least_match(u, v, ctx) is None, (u, v)
                    continue
                b, _s, cert = least_match(u, v, ctx)
                if not (b == p.eps or defines_preconjugation(b, f_p, p)):
                    assert ctx in p6_failing_contexts, (u, v, b)
                    fb = _stack_reduce((p.inv[b],) + f_p + (b,), p)
                    rotation = any(fb == f_p[i:] + f_p[:i] for i in range(len(f_p)))
                    reached["skipped least b", rotation] += 1
                    if ctx is p6_failing_contexts[0]:
                        assert rotation, (u, v, b)
                    else:
                        _b, _s, cert = least_match(u, v, ctx, kept)
                assert lin.certificate == cert, (u, v)
                reached["positive"] += 1
                reached["b!=eps"] += b != p.eps
                if ctx in p6_failing_contexts:
                    reached["P6 fails: b outside G_P"] += b not in canonical_subgroup(p)
        for key in (
            "skipped", "positive", "b!=eps", "P6 fails: b outside G_P",
            ("skipped least b", True), ("skipped least b", False),
        ):
            assert reached[key] > 0, (key, reached)

    def test_normal_forms_per_negative_decision(self, hnn_ctx, monkeypatch):
        # a negative decision makes two full passes for g, NF(g) (n letters)
        # and NF(g g) from position n-1 (n + 1 letters), then per kept b a
        # head pass of k + 1 letters, and a full pass of n letters only if
        # the head's first k letters are a window of the KMP text; it makes
        # none for the b the filter skips
        calls = []

        def counted(pw, p):
            calls.append(pw)
            return _nf_carries(pw, p)

        monkeypatch.setattr(fastconj, "_nf_carries", counted)
        p = hnn_ctx.pregroup
        rng = random.Random(2027)
        negatives = skipped_total = kept_total = passed_total = 0
        while negatives < 30:
            pair = differential_pair(rng, hnn_ctx)
            if pair is None:
                continue
            u, v, n, _periodic = pair
            split = split_preconjugators(u, v, hnn_ctx)
            if split is None:
                continue
            calls.clear()
            if conjugate_linear(u, v, hnn_ctx).verdict:
                continue
            f_p, kept, skipped = split
            g_p = _conjugacy_prelude(u, v, hnn_ctx, "linear")[1]
            g_nf, _c = _nf_carries(g_p, p)
            k = min(fastconj._HEAD_LETTERS, n - 1)
            windows = {_nf_carries(g_nf + g_nf, p)[0][s : s + k] for s in range(n)}
            passes = [g_p, g_nf[n - 1 :] + g_nf]  # the two full passes for g
            passed = 0
            for b in kept:
                fb = _stack_reduce((p.inv[b],) + f_p + (b,), p)
                passes.append(fb[: k + 1])  # its head pass
                if _nf_carries(fb, p)[0][:k] in windows:
                    passes.append(fb)  # its full pass
                    passed += 1
            assert calls == passes, (u, v)
            assert len(calls) == 2 + len(kept) + passed
            assert sum(map(len, calls)) == n + (n + 1) + (k + 1) * len(kept) + n * passed
            negatives += 1
            skipped_total += len(skipped)
            kept_total += len(kept)
            passed_total += passed
        assert skipped_total > 0
        # the head test lets some b through to a full pass, and drops others
        assert 0 < passed_total < kept_total, (passed_total, kept_total)


class TestHeadTest:
    def test_dropped_b_have_no_hit(
        self, dinf_ctx, z4z6_ctx, hnn_ctx, p6_failing_contexts, monkeypatch
    ):
        # the row read meets the b that a loop over all of P, in ascending
        # order, finds a preconjugation for, and no b that the head test
        # drops has a KMP hit, on positives, negatives and periodic pairs.
        # The normal-form passes of conjugate_linear are those of the b
        # loop as specified, up to the b that matches
        calls = []

        def recorded(pw, p):
            calls.append(pw)
            return _nf_carries(pw, p)

        monkeypatch.setattr(fastconj, "_nf_carries", recorded)
        rng = random.Random(41)
        contexts = [
            (ctx, 150) for ctx in (dinf_ctx, z4z6_ctx, hnn_ctx, UniversalContext(hnn_cyclic(10, 2)))
        ] + [(p6_failing_contexts[0], 150)] + [(ctx, 3) for ctx in p6_failing_contexts[1:]]
        reached = collections.Counter()
        for ctx, pairs in contexts:
            p = ctx.pregroup
            done = 0
            while done < pairs:
                pair = differential_pair(rng, ctx)
                if pair is None:
                    continue
                u, v, _n, periodic = pair
                done += 1
                answer, g_p, f_p, _zu, _zv = _conjugacy_prelude(u, v, ctx, "linear")
                if answer is not None:
                    continue
                n = len(f_p)
                fbs = {b: _preconjugate_p(f_p, p.inv[b], p) for b in range(len(p))}
                every = [b for b, fb in fbs.items() if fb is not None]
                assert [b for b, _z in p.rows[f_p[-1]] if fbs[b] is not None] == every
                g_nf, _c = _nf_carries(g_p, p)
                text = _nf_carries(g_nf + g_nf, p)[0][: 2 * n - 2]
                k = min(fastconj._HEAD_LETTERS, n - 1)
                case = "n=2" if n == 2 else "n<=K+1" if k == n - 1 else "n>K+1"
                windows = {text[s : s + k] for s in range(n)}
                passes = [g_p, g_nf[n - 1 :] + g_nf]
                for b in every:
                    fb_nf, _fc = _nf_carries(fbs[b], p)
                    passes.append(fbs[b][: k + 1])
                    if fb_nf[:k] in windows:
                        passes.append(fbs[b])
                        reached[case, "passed"] += 1
                    else:
                        assert kmp_search(fb_nf[:-1], text) == [], (u, v, b)
                        reached[case, "dropped"] += 1
                calls.clear()
                lin = conjugate_linear(u, v, ctx)
                if lin.verdict:
                    assert calls == passes[: len(calls)] and calls[-1] in fbs.values(), (u, v)
                else:
                    assert calls == passes, (u, v)
                kind = "periodic" if periodic else "positive" if lin.verdict else "negative"
                reached[case, kind] += 1
        for case in ("n=2", "n<=K+1", "n>K+1"):
            for kind in ("passed", "dropped", "positive", "negative", "periodic"):
                assert reached[case, kind] > 0, (case, kind, reached)


# sha256 of repr(answers) in test_answers_are_pinned, recorded before the
# conjugacy layer kept its words in P indices from entry to certificate
GOLDEN_ANSWERS = "abdcf745f57720a3199351552bba3bf3581854219e77eb14b57bec4a208795ac"


def test_answers_are_pinned(dinf_ctx, z4z6_ctx, hnn_ctx):
    # (verdict, certificate, method) of both decisions on a seeded corpus:
    # least_match shares the prelude and _certify with them, so only a pin
    # sees a certificate that changes for all three at once.  Short words
    # and their conjugates reach the prelude's cases of length 0 and 1
    rng = random.Random(38)
    answers = []
    reached = collections.Counter()
    for ctx in (dinf_ctx, z4z6_ctx, hnn_ctx, UniversalContext(hnn_cyclic(10, 2))):
        k = len(ctx.alphabet)
        done = 0
        while done < 150:
            if done % 3:
                pair = differential_pair(rng, ctx)
                if pair is None:
                    continue
                u, v = pair[:2]
            else:
                u = random_word(rng, k, 2)
                v = conjugated(rng, ctx, u) if rng.random() < 0.5 else random_word(rng, k, 2)
            done += 1
            lin, quad = conjugate_linear(u, v, ctx), conjugate_quadratic(u, v, ctx)
            assert lin.verdict == quad.verdict, (u, v)
            answers.append((u, v) + tuple((a.verdict, a.certificate, a.method) for a in (lin, quad)))
            reached[min(len(cyclic_reduce(u, ctx)), 2), lin.verdict] += 1
    for key in itertools.product((0, 1, 2), (True, False)):
        assert reached[key] > 0, (key, reached)
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == GOLDEN_ANSWERS
