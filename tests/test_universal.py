import collections
import functools
import itertools
import os
import random
import statistics
import subprocess
import sys
import textwrap
import time

import pytest

import cycrew
from cycrew import samples
from cycrew.pregroup import (
    PregroupError,
    canonical_subgroup,
    check_p6,
    gamma_to_p,
    is_reduced,
    p_to_gamma,
)
from cycrew.universal import (
    UniversalContext,
    CertificateError,
    _canonical_traced,
    _certify,
    _interleaving_equal,
    _nf_carries,
    _stack_reduce,
    conjugate_quadratic,
    cyclic_reduce,
    equal_in_U,
    letter_conjugacy_closure,
    preconjugate,
    reduce_word,
    shortlex_nf,
)
from cycrew.fastconj import conjugate_linear
from cycrew.words import AlphabetError, CyclicWord, involute, least_rotation_offset

from conftest import conjugated, hnn_cyclic, random_word
from test_pregroup import corpus


def free_reduce_tokens(word, alphabet):
    """Independent free group oracle over a letter/inverse-letter alphabet."""
    out = []
    for x in word:
        if out and out[-1] == alphabet.involution[x]:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_cyclic_reduce_tokens(word, alphabet):
    w = free_reduce_tokens(word, alphabet)
    while len(w) >= 2 and w[0] == alphabet.involution[w[-1]]:
        w = w[1:-1]
    return w


@pytest.fixture(scope="module")
def s3_ctx():
    return UniversalContext(samples.s3_table())


def s3_eval(word, ctx):
    """Multiply a gamma word out in S3."""
    p = ctx.pregroup
    acc = p.eps
    for l in word:
        acc = p.mul(acc, gamma_to_p(l, p))
    return acc


class TestContext:
    def test_invalid_pregroup_rejected(self):
        from cycrew.pregroup import Pregroup

        bad = Pregroup(["e", "a"], "e", {}, {})  # a lacks an inverse
        with pytest.raises(ValueError):
            UniversalContext(bad)

    def test_letter_conversion_round_trip(self, z4z6_ctx):
        w = tuple(range(len(z4z6_ctx.alphabet)))
        assert z4z6_ctx.to_gamma(z4z6_ctx.to_p(w)) == w

    def test_to_gamma_matches_p_to_gamma(self, dinf_ctx, z4z6_ctx, hnn_ctx, free_ctx):
        for ctx in (dinf_ctx, z4z6_ctx, hnn_ctx, free_ctx):
            p = ctx.pregroup
            letters = [x for x in range(len(p)) if x != p.eps]
            assert ctx.to_gamma(letters) == tuple(p_to_gamma(x, p) for x in letters)
            for x in letters:
                assert ctx.to_gamma((x,)) == (p_to_gamma(x, p),)
            for pw in [(p.eps,), (letters[0], p.eps), [p.eps, letters[-1]]]:
                with pytest.raises(PregroupError, match="epsilon is not a Gamma letter"):
                    ctx.to_gamma(pw)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda ctx: shortlex_nf((-1,), ctx), AlphabetError),
            (lambda ctx: reduce_word((-1, 0), ctx), AlphabetError),
            (lambda ctx: cyclic_reduce((7,), ctx), AlphabetError),
            (lambda ctx: letter_conjugacy_closure(-1, ctx), AlphabetError),
            (lambda ctx: equal_in_U((0,), (0, 7), ctx), AlphabetError),
            (lambda ctx: conjugate_quadratic((2,), (2, -3), ctx), AlphabetError),
            (lambda ctx: conjugate_linear((-1, 2), (6, 2), ctx), AlphabetError),
            (lambda ctx: conjugate_linear((99,), (0,), ctx), AlphabetError),
            (lambda ctx: preconjugate(CyclicWord.of((0,)), -1, ctx), PregroupError),
            (lambda ctx: preconjugate(CyclicWord.of((0,)), 99, ctx), PregroupError),
        ],
        ids=[
            "shortlex_nf", "reduce_word", "cyclic_reduce", "closure",
            "equal_in_U", "quadratic", "linear", "linear-99",
            "preconjugate-element", "preconjugate-element-99",
        ],
    )
    def test_letters_outside_gamma_rejected(self, z4z6_ctx, call, error):
        # z4_amalgam_z6 has 7 Gamma letters, 0..6, and 8 pregroup elements
        with pytest.raises(error, match="out of range"):
            call(z4z6_ctx)


class TestReduceWord:
    def test_output_is_reduced(self, z4z6_ctx, rng):
        for _ in range(200):
            w = random_word(rng, len(z4z6_ctx.alphabet), 8)
            r = reduce_word(w, z4z6_ctx)
            assert is_reduced(r, z4z6_ctx.pregroup)
            assert equal_in_U(r, w, z4z6_ctx)

    def test_free_group_agrees_with_oracle(self, free_ctx, rng):
        a = free_ctx.alphabet
        for _ in range(200):
            w = random_word(rng, len(a), 10)
            assert reduce_word(w, free_ctx) == free_reduce_tokens(w, a)

    def test_group_table_reduces_to_single_element(self, s3_ctx, rng):
        p = s3_ctx.pregroup
        for _ in range(100):
            w = random_word(rng, len(s3_ctx.alphabet), 6)
            r = reduce_word(w, s3_ctx)
            assert len(r) <= 1
            got = s3_eval(r, s3_ctx)
            assert got == s3_eval(w, s3_ctx)


# The stack reduction that merges each incoming letter into the top replaced
# this loop, kept verbatim as a reference: it pushes every letter, then pops
# the top two while their product is defined.
def ref_stack_reduce(pw, p):
    table = p.table
    eps = p.eps
    out = []
    for x in pw:
        out.append(x)
        while len(out) >= 2:
            q = table[out[-2]][out[-1]]
            if q is None:
                break
            out.pop()
            out.pop()
            if q != eps:
                out.append(q)
    return tuple(out)


class TestStackReduce:
    def test_matches_parent_on_epsilon_free_words(self, dinf, z4z6, hnn):
        rng = random.Random(1919)
        for p in (hnn, z4z6, dinf):
            letters = [x for x in range(len(p)) if x != p.eps]
            seen = collections.Counter()
            for _ in range(3_000):
                pw = tuple(rng.choice(letters) for _ in range(rng.randrange(41)))
                if rng.random() < 0.3:  # cancel a random suffix
                    pw += tuple(p.inv[x] for x in reversed(pw))[: rng.randrange(len(pw) + 1)]
                got = _stack_reduce(pw, p)
                assert got == ref_stack_reduce(pw, p), pw
                seen["shorter"] += len(got) < len(pw)
                seen["emptied"] += len(pw) > 0 and got == ()
            assert seen["shorter"] and seen["emptied"], seen

    def test_epsilon_alone_reduces_to_empty(self, hnn):
        assert _stack_reduce((hnn.eps,), hnn) == ()


class TestEqualInU:
    def test_free_group_oracle(self, free_ctx, rng):
        a = free_ctx.alphabet
        for _ in range(300):
            u = random_word(rng, len(a), 7)
            v = random_word(rng, len(a), 7)
            expect = free_reduce_tokens(u, a) == free_reduce_tokens(v, a)
            assert equal_in_U(u, v, free_ctx) == expect

    def test_s3_oracle(self, s3_ctx, rng):
        for _ in range(300):
            u = random_word(rng, len(s3_ctx.alphabet), 5)
            v = random_word(rng, len(s3_ctx.alphabet), 5)
            expect = s3_eval(u, s3_ctx) == s3_eval(v, s3_ctx)
            assert equal_in_U(u, v, s3_ctx) == expect

    def test_interleaving_beyond_letterwise_rewriting(self, z4z6_ctx):
        # x . y = (x . h) . (h~ . y) for h in the identified Z2
        p = z4z6_ctx.pregroup
        a = z4z6_ctx.alphabet
        h = p.index["x2"]
        x, y = p.index["x"], p.index["y"]
        u = (p_to_gamma(x, p), p_to_gamma(y, p))
        v = (p_to_gamma(p.mul(x, h), p), p_to_gamma(p.mul(h, y), p))
        assert u != v
        assert is_reduced(u, p) and is_reduced(v, p)
        assert equal_in_U(u, v, z4z6_ctx)
        assert not equal_in_U(u, involute(v, a), z4z6_ctx)


class TestShortlexNf:
    def test_equal_and_reduced(self, z4z6_ctx, rng):
        for _ in range(200):
            w = random_word(rng, len(z4z6_ctx.alphabet), 7)
            nf = shortlex_nf(w, z4z6_ctx)
            assert is_reduced(nf, z4z6_ctx.pregroup)
            assert equal_in_U(nf, w, z4z6_ctx)

    def test_idempotent(self, z4z6_ctx, rng):
        for _ in range(100):
            w = random_word(rng, len(z4z6_ctx.alphabet), 6)
            nf = shortlex_nf(w, z4z6_ctx)
            assert shortlex_nf(nf, z4z6_ctx) == nf

    def test_minimality_by_enumeration(self, z4z6_ctx):
        # nf must be the shortlex-least word among all equal words of the
        # same length (shorter ones are excluded since reduced = geodesic)
        k = len(z4z6_ctx.alphabet)
        for w in itertools.product(range(k), repeat=2):
            nf = shortlex_nf(w, z4z6_ctx)
            if len(nf) != 2:
                continue
            for cand in itertools.product(range(k), repeat=2):
                if cand < nf:
                    assert not equal_in_U(cand, w, z4z6_ctx)

    def test_canonical_for_equality(self, z4z6_ctx, rng):
        # equal words get the same normal form
        for _ in range(50):
            w = random_word(rng, len(z4z6_ctx.alphabet), 5)
            x = random_word(rng, len(z4z6_ctx.alphabet), 2)
            u = x + involute(x, z4z6_ctx.alphabet) + w
            assert shortlex_nf(u, z4z6_ctx) == shortlex_nf(w, z4z6_ctx)


def cyclically_reduced_p(c, p):
    w = c.canon
    if len(w) <= 1:
        return True
    pw = [gamma_to_p(l, p) for l in w]
    return all(
        p.table[pw[i]][pw[(i + 1) % len(pw)]] is None for i in range(len(pw))
    )


class TestCyclicReduce:
    def test_result_is_cyclically_reduced(self, z4z6_ctx, rng):
        for _ in range(200):
            w = random_word(rng, len(z4z6_ctx.alphabet), 8)
            c = cyclic_reduce(w, z4z6_ctx)
            assert cyclically_reduced_p(c, z4z6_ctx.pregroup)

    def test_free_group_oracle(self, free_ctx, rng):
        a = free_ctx.alphabet
        for _ in range(200):
            w = random_word(rng, len(a), 8)
            expect = CyclicWord.of(free_cyclic_reduce_tokens(w, a))
            assert cyclic_reduce(w, free_ctx) == expect

    def test_conjugation_invariant_on_free(self, free_ctx, rng):
        for _ in range(100):
            w = random_word(rng, len(free_ctx.alphabet), 6)
            v = conjugated(rng, free_ctx, w)
            assert cyclic_reduce(v, free_ctx) == cyclic_reduce(w, free_ctx)


# The two-step cyclic reduction that the one-pass _canonical_traced
# replaced, kept verbatim as a reference: it re-runs _stack_reduce over the
# whole word after every letter it moves, and canonicalises separately.
def ref_cyclic_reduce_traced(w, ctx):
    p = ctx.pregroup
    cur = _stack_reduce(ctx.to_p(w), p)
    z = ()
    while len(cur) >= 2:
        if p.table[cur[-1]][cur[0]] is None:
            break
        # rotate the last letter to the front (conjugation by it), reduce
        z = (p_to_gamma(cur[-1], p),) + z
        cur = _stack_reduce((cur[-1],) + cur[:-1], p)
    return cur, z


def ref_canonical_traced(w, ctx):
    rep, z = ref_cyclic_reduce_traced(w, ctx)
    g = ctx.to_gamma(rep)
    k = least_rotation_offset(g)
    if k:
        z = involute(g[:k], ctx.alphabet) + z
    return g[k:] + g[:k], z


def differential_words(rng, ctx, count):
    """Words that cancel completely, periodic words, random words, and
    conjugates x g inv(x) with |x| up to 40, in turn."""
    letters = range(len(ctx.alphabet))

    def word(max_len, min_len=0):
        return tuple(rng.choices(letters, k=rng.randint(min_len, max_len)))

    for i in range(count):
        kind = i % 4
        if kind == 0:
            x = word(12)
            yield x + involute(x, ctx.alphabet)
        elif kind == 1:
            yield word(5, 1) * rng.randint(2, 4)
        elif kind == 2:
            yield word(16)
        else:
            x = word(40)
            yield x + word(8) + involute(x, ctx.alphabet)


class TestOnePassCyclicReduction:
    def test_matches_two_step_reference(self):
        rng = random.Random(10)
        pregroups = corpus() + [hnn_cyclic(4, 2), hnn_cyclic(6, 3), hnn_cyclic(10, 2)]
        checked = 0
        passes = collections.Counter()  # by |reduce_word(w)| - |canon|, sampled
        for p in pregroups:
            ctx = UniversalContext(p)
            for i, w in enumerate(differential_words(rng, ctx, 1120)):
                canon, z = (ctx.to_gamma(pw) for pw in _canonical_traced(w, ctx))
                assert (canon, z) == ref_canonical_traced(w, ctx)
                assert cyclic_reduce(w, ctx) == CyclicWord(canon)
                assert equal_in_U(canon, z + w + involute(z, ctx.alphabet), ctx)
                checked += 1
                if i % 9 == 0:  # 9 is prime to the 4 kinds of word
                    shrink = len(reduce_word(w, ctx)) - len(canon)
                    size = "none" if shrink == 0 else "short" if shrink < 5 else "long"
                    passes[size] += 1
        assert checked >= 10_000
        assert min(passes["none"], passes["short"], passes["long"]) > 50

    def test_linear_in_conjugator_length(self, hnn_ctx):
        # x g inv(x) is reduced, so every letter of x is moved once; the
        # two-step reduction re-reduces the whole word per move and gives
        # a ratio of about 15 here
        p = hnn_ctx.pregroup
        rng = random.Random(11)
        g = random_reduced_p(rng, p, 64)
        while p.table[g[-1]][g[0]] is not None:
            g = random_reduced_p(rng, p, 64)
        x = random_reduced_p(rng, p, 8192)
        while (
            p.table[x[-1]][g[0]] is not None
            or p.table[g[-1]][p.inv[x[-1]]] is not None
        ):
            x = random_reduced_p(rng, p, 8192)
        core = hnn_ctx.to_gamma(g)

        def trial(n):
            xg = hnn_ctx.to_gamma(x[-n:])
            u = xg + core + involute(xg, hnn_ctx.alphabet)
            t0 = time.perf_counter()
            ans = conjugate_linear(u, core[1:] + core[:1], hnn_ctx)
            dt = time.perf_counter() - t0
            assert ans.verdict
            return dt

        # alternate the sizes, so a slower phase of the host hits both
        small, big = [], []
        for _ in range(10):
            small.append(trial(2048))
            big.append(trial(8192))
        assert statistics.median(big) / statistics.median(small) < 8


class TestPreconjugate:
    def test_epsilon_is_identity(self, z4z6_ctx):
        c = cyclic_reduce((0, 3), z4z6_ctx)
        assert preconjugate(c, z4z6_ctx.pregroup.eps, z4z6_ctx) == c

    def test_preserves_length_and_reducedness(self, z4z6_ctx, rng):
        p = z4z6_ctx.pregroup
        for _ in range(100):
            w = random_word(rng, len(z4z6_ctx.alphabet), 6)
            c = cyclic_reduce(w, z4z6_ctx)
            for b in range(len(p)):
                d = preconjugate(c, b, z4z6_ctx)
                if d is None:
                    continue
                assert len(d) == len(c)
                assert cyclically_reduced_p(d, p)

    def test_stays_in_conjugacy_class(self, z4z6_ctx):
        p = z4z6_ctx.pregroup
        c = cyclic_reduce((0, 3), z4z6_ctx)
        for b in range(len(p)):
            d = preconjugate(c, b, z4z6_ctx)
            if d is None or d == c:
                continue
            assert conjugate_quadratic(c.canon, d.canon, z4z6_ctx).verdict


class TestLetterClosure:
    def test_group_table_closure_is_conjugacy_class(self, s3_ctx):
        p = s3_ctx.pregroup
        for g in range(len(s3_ctx.alphabet)):
            closure = letter_conjugacy_closure(g, s3_ctx)
            x = gamma_to_p(g, p)
            expect = {
                p.mul3(c, x, p.inv[c]) for c in range(len(p))
            }
            assert closure == frozenset(p_to_gamma(y, p) for y in expect)

    def test_free_pregroup_closure_is_trivial(self, free_ctx):
        for g in range(len(free_ctx.alphabet)):
            assert letter_conjugacy_closure(g, free_ctx) == frozenset({g})


class TestConjugateQuadratic:
    def test_free_group_oracle(self, free_ctx, rng):
        a = free_ctx.alphabet
        for _ in range(150):
            u = random_word(rng, len(a), 6)
            v = random_word(rng, len(a), 6)
            expect = CyclicWord.of(
                free_cyclic_reduce_tokens(u, a)
            ) == CyclicWord.of(free_cyclic_reduce_tokens(v, a))
            ans = conjugate_quadratic(u, v, free_ctx)
            assert ans.verdict == expect
            if ans.verdict:
                cert = ans.certificate
                assert equal_in_U(cert + u + involute(cert, a), v, free_ctx)

    def test_constructed_conjugates_accepted(self, z4z6_ctx, rng):
        for _ in range(60):
            u = random_word(rng, len(z4z6_ctx.alphabet), 5)
            v = conjugated(rng, z4z6_ctx, u)
            ans = conjugate_quadratic(u, v, z4z6_ctx)
            assert ans.verdict
            cert = ans.certificate
            assert equal_in_U(
                cert + u + involute(cert, z4z6_ctx.alphabet), v, z4z6_ctx
            )

    def test_s3_oracle(self, s3_ctx, rng):
        p = s3_ctx.pregroup
        for _ in range(150):
            u = random_word(rng, len(s3_ctx.alphabet), 4)
            v = random_word(rng, len(s3_ctx.alphabet), 4)
            gu, gv = s3_eval(u, s3_ctx), s3_eval(v, s3_ctx)
            expect = any(p.mul3(c, gu, p.inv[c]) == gv for c in range(len(p)))
            assert conjugate_quadratic(u, v, s3_ctx).verdict == expect

    def test_empty_words(self, z4z6_ctx):
        ans = conjugate_quadratic((), (), z4z6_ctx)
        assert ans.verdict and ans.certificate == ()

    def test_certify_refuses_a_wrong_conjugator(self, z4z6_ctx, rng):
        # the replay check behind every positive answer: a conjugator that
        # does not take u to v raises, whichever procedure built it
        ctx = z4z6_ctx
        k = len(ctx.alphabet)
        refused = 0
        for _ in range(20):
            u = random_word(rng, k, 5, min_len=1)
            v = conjugated(rng, ctx, u)
            cert = conjugate_quadratic(u, v, ctx).certificate
            assert _certify(u, v, ctx.to_p(cert), ctx) == cert
            for letter in range(k):
                x = cert + (letter,)
                if equal_in_U(x + u + involute(x, ctx.alphabet), v, ctx):
                    continue
                with pytest.raises(CertificateError, match="does not take"):
                    _certify(u, v, ctx.to_p(x), ctx)
                refused += 1
        assert refused


def random_reduced_p(rng, p, n):
    """A reduced P-index word over Gamma, of length n unless no letter can
    extend it."""
    gamma = [x for x in range(len(p)) if x != p.eps]
    out = []
    for _ in range(n):
        choices = [x for x in gamma if not out or p.table[out[-1]][x] is None]
        if not choices:
            break
        out.append(rng.choice(choices))
    return tuple(out)


def interleave(rng, pw, p):
    """([c_0~ a_1 c_1], ..., [c_{n-1}~ a_n c_n]) with c_0 = c_n = epsilon
    and the other carries drawn from G_P: a word equal to pw in U(P)."""
    carriers = sorted(canonical_subgroup(p))
    cs = [p.eps] + [rng.choice(carriers) for _ in pw[1:]] + [p.eps]
    return tuple(p.mul3(p.inv[cs[i]], a, cs[i + 1]) for i, a in enumerate(pw))


class TestCarryDPs:
    def test_nf_carries_replay(self, dp_ctx, rng):
        p = dp_ctx.pregroup
        for _ in range(30):
            pw = random_reduced_p(rng, p, 12)
            nf, carries = _nf_carries(pw, p)
            assert len(nf) == len(carries) == len(pw)
            if pw:
                assert carries[-1] == p.eps
            prev = p.eps
            for a, b, c in zip(pw, nf, carries):
                assert b == p.mul3(p.inv[prev], a, c)
                prev = c

    def test_interleaving_leaves_normal_form_unchanged(self, dp_ctx, rng):
        p = dp_ctx.pregroup
        for _ in range(30):
            pw = random_reduced_p(rng, p, 12)
            mixed = interleave(rng, pw, p)
            assert shortlex_nf(dp_ctx.to_gamma(mixed), dp_ctx) == shortlex_nf(
                dp_ctx.to_gamma(pw), dp_ctx
            )

    def test_interleaving_equal_matches_normal_forms(self, dp_ctx, rng):
        p = dp_ctx.pregroup
        gamma = [x for x in range(len(p)) if x != p.eps]
        verdicts = set()
        for trial in range(60):
            pu = random_reduced_p(rng, p, 10)
            kind = trial % 4
            if kind == 0:
                pv = _nf_carries(pu, p)[0]
            elif kind == 1:
                pv = interleave(rng, pu, p)
            elif kind == 2 and pu:
                i = rng.randrange(len(pu))
                pv = _stack_reduce(pu[:i] + (rng.choice(gamma),) + pu[i + 1 :], p)
            else:
                pv = random_reduced_p(rng, p, len(pu))
            same_nf = _nf_carries(pu, p)[0] == _nf_carries(pv, p)[0]
            assert _interleaving_equal(pu, pv, p) == same_nf
            verdicts.add(same_nf)
        assert verdicts == {True, False}


@functools.cache
def dense_step(p, cp, a):
    """{(letter, c)}: the letters [inv(cp) a c] that are defined and not
    epsilon, with their carries c, by a sweep over every c."""
    out = set()
    for c in range(len(p)):
        letter = p.mul3(p.inv[cp], a, c)
        if letter is not None and letter != p.eps:
            out.add((letter, c))
    return frozenset(out)


def oracle_feasible(pw, p):
    """feasible[i]: the set of carries after i letters from which the rest
    of pw can be matched, ending in epsilon, computed right to left with
    explicit sets."""
    targets = functools.cache(lambda cp, a: {c for _letter, c in dense_step(p, cp, a)})
    n = len(pw)
    feasible = [set() for _ in range(n + 1)]
    feasible[n] = {p.eps}
    for i in range(n - 1, -1, -1):
        feasible[i] = {
            cp
            for cp in range(len(p))
            if not targets(cp, pw[i]).isdisjoint(feasible[i + 1])
        }
    return feasible


def oracle_nf_carries(pw, p):
    """Shortlex normal form and carries with explicit carry sets: each
    position takes the least letter over the steps from the current carry
    into the next feasible set."""
    feasible = oracle_feasible(pw, p)
    if pw and p.eps not in feasible[0]:
        raise ValueError("no carry sequence")
    letters, carries = [], []
    cp = p.eps
    for i, a in enumerate(pw):
        letter, cp = min(
            (letter, c) for letter, c in dense_step(p, cp, a) if c in feasible[i + 1]
        )
        letters.append(letter)
        carries.append(cp)
    return tuple(letters), tuple(carries)


def transducer_entries(p):
    """{(a, cp, nxt): step} of the normal-form transducer, whose int keys
    are (a * n + cp) * n + nxt with n = |P|."""
    n = len(p)
    out = {}
    for key, step in p._nf_steps.items():
        a_cp, nxt = divmod(key, n)
        out[(*divmod(a_cp, n), nxt)] = step
    return out


def check_transducer(p, words):
    """Run _nf_carries over words, then check every transducer entry of p:
    it is at an (a, cp) with [cp~ a] defined, so its miss read a table row
    (lemma (i) of _nf_carries), and it is the least step (letter, c) of the
    dense sweep dense_step(p, cp, a) with [c~ nxt] defined.  Returns the
    number of entries."""
    for pw in words:
        _nf_carries(pw, p)
    entries = transducer_entries(p)
    for (a, cp, nxt), step in entries.items():
        assert p.mul(p.inv[cp], a) is not None, (a, cp, nxt)
        least = min(st for st in dense_step(p, cp, a) if p.mul(p.inv[st[1]], nxt) is not None)
        assert step == least, (a, cp, nxt)
    return len(entries)


def random_gamma_p(rng, p, n):
    """A P-index word over Gamma of n letters, reduced or not."""
    gamma = [x for x in range(len(p)) if x != p.eps]
    return tuple(rng.choice(gamma) for _ in range(n))


def local_test(pw, i, c, p):
    """The feasibility lemma of _nf_carries: whether a step to carry c at
    position i of the reduced word pw can be completed, read off the next
    two letters."""
    n = len(pw)
    if i == n - 1:
        return c == p.eps
    y = p.mul(p.inv[c], pw[i + 1])
    return y not in (None, p.eps) and (i + 2 == n or p.mul(y, pw[i + 2]) is None)


class TestCompiledCarrySteps:
    def test_steps_match_dense_definition(self, dp_ctx):
        # lemma (i): on words without epsilon, reduced or not, the pass
        # reaches only (a, cp) with [cp~ a] defined, so it reads no
        # undefined row; the entries it fills are the dense sweep's
        p = dp_ctx.pregroup
        rng = random.Random(len(p) + 51)
        words = [random_gamma_p(rng, p, n) for n in range(2, 41)]
        assert any(_stack_reduce(pw, p) != pw for pw in words)
        assert check_transducer(p, words)

    def test_rows_defined_on_p6_failing_census(self, census):
        # lemma (i) on the census tables on which P6 fails, over words
        # that are mostly not reduced
        tables = [p for p in census if not check_p6(p)[0]]
        rng = random.Random(51)
        unreduced = 0
        for p in tables:
            words = [random_gamma_p(rng, p, n) for n in (2, 3, 5, 8, 13)]
            unreduced += sum(_stack_reduce(pw, p) != pw for pw in words)
            assert check_transducer(p, words)
        assert unreduced > len(tables)

    def test_nf_carries_compiles_only_the_steps_it_reads(self, dp_ctx, monkeypatch):
        # _interleaving_equal compiles nothing; _nf_carries compiles the
        # transducer entries of the (a_i, c_{i-1}, a_{i+1}) of its
        # positions i < n-1, no other entry, and a second pass over the
        # same words reads no table row and adds nothing
        p = dp_ctx.pregroup
        rng = random.Random(len(p) + 27)
        p._nf_steps.clear()
        words = [random_reduced_p(rng, p, n) for n in (0, 1, 2, 3, 24, 24, 40)]
        for pw in words:
            assert _interleaving_equal(pw, interleave(rng, pw, p), p)
        assert p._nf_steps == {}
        visited = set()
        cold = []
        for pw in words:
            cold.append(_nf_carries(pw, p))
            visited.update(zip(pw[:-1], (p.eps,) + cold[-1][1][:-1], pw[1:]))
            assert set(transducer_entries(p)) == visited
        # s3 has no reduced word of two letters
        assert visited or max(map(len, words)) < 2
        entries = dict(p._nf_steps)

        class RowsFail:
            def __getitem__(self, x):
                raise AssertionError(f"row {x} read on a warm pass")

        monkeypatch.setitem(vars(p), "rows", RowsFail())
        assert [_nf_carries(pw, p) for pw in words] == cold
        assert p._nf_steps == entries

    def test_transducer_entries_are_the_first_passing_steps(self, dp_ctx):
        p = dp_ctx.pregroup
        rng = random.Random(len(p) + 30)
        words = [random_reduced_p(rng, p, n) for n in range(2, 41)]
        # s3 has no reduced word of two letters
        assert check_transducer(p, words) or max(map(len, words)) < 2

    def test_transducer_on_p6_failing_census(self, census):
        # the census tables on which P6 fails, 4 on six elements and 140 on
        # seven; entries other tests filled are checked as well
        tables = [p for p in census if not check_p6(p)[0]]
        assert len(tables) == 144
        rng = random.Random(144)
        filled = [
            check_transducer(p, [random_reduced_p(rng, p, n) for n in (2, 3, 5, 8, 13, 21)])
            for p in tables
        ]
        assert all(filled), filled.count(0)

    def test_local_test_is_exactly_feasibility(self, dp_ctx):
        # at each (i, cp) the forward pass reaches, the steps the lemma's
        # local test accepts are exactly those into the oracle's feasible
        # set, and the pass takes the least of them
        p = dp_ctx.pregroup
        rng = random.Random(len(p) + 26)
        reached = collections.Counter()
        for n in [1, 2, 3, 24] + [rng.randrange(2, 25) for _ in range(16)]:
            pw = random_reduced_p(rng, p, n)
            feasible = oracle_feasible(pw, p)
            letters, carries = _nf_carries(pw, p)
            reached["two letters"] += len(pw) > 1
            cp = p.eps
            for i, a in enumerate(pw):
                steps = dense_step(p, cp, a)
                accepted = {step for step in steps if local_test(pw, i, step[1], p)}
                # the lemma's corollary: where y = [c~ a_{i+1}] is defined, the
                # rest of the test holds, so _nf_carries tests y alone
                if i < len(pw) - 1:
                    defined = {st for st in steps if p.mul(p.inv[st[1]], pw[i + 1]) is not None}
                    assert accepted == defined, (pw, i, cp)
                assert accepted == {step for step in steps if step[1] in feasible[i + 1]}, (
                    pw, i, cp,
                )
                assert (letters[i], carries[i]) == min(accepted)
                reached["rejected"] += len(steps) - len(accepted)
                reached["carry"] += carries[i] != p.eps
                cp = carries[i]
        # free2 and dinf offer one step per position and s3 has no reduced
        # word of two letters; every other sample rejects steps and carries
        if len(p) > 5 and reached["two letters"]:
            assert reached["rejected"] and reached["carry"], reached

    def test_nf_carries_matches_set_oracle(self, dp_ctx):
        p = dp_ctx.pregroup
        rng = random.Random(len(p))
        lengths = [0, 1, 64] + [rng.randrange(2, 65) for _ in range(9)]
        for n in lengths:
            pw = random_reduced_p(rng, p, n)
            assert _nf_carries(pw, p) == oracle_nf_carries(pw, p)
            # no caller passes a word containing epsilon: it is refused
            i = rng.randrange(len(pw) + 1)
            with pytest.raises(ValueError):
                _nf_carries(pw[:i] + (p.eps,) + pw[i:], p)
        with pytest.raises(ValueError):
            _nf_carries((p.eps,), p)


def test_checks_survive_optimised_python():
    code = textwrap.dedent(
        """
        from cycrew import UniversalContext, samples
        from cycrew.pregroup import Pregroup, PregroupError, canonical_subgroup, check_axioms
        from cycrew.universal import CertificateError, _certify, _nf_carries

        if __debug__:
            raise SystemExit("not running under -O")
        ctx = UniversalContext(samples.z4_amalgam_z6())
        p = ctx.pregroup
        try:
            _certify((0,), (1,), (), ctx)
        except CertificateError:
            pass
        else:
            raise SystemExit("wrong conjugator accepted")
        try:
            _nf_carries((p.eps,), p)
        except ValueError:
            pass
        else:
            raise SystemExit("epsilon letter accepted")
        # G_P = {e, a} is not closed: [aa] = b
        bad = Pregroup(("e", "a", "b"), "e", {}, {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "e"})
        try:
            canonical_subgroup(bad)
        except PregroupError:
            pass
        else:
            raise SystemExit("G_P that is not a subgroup accepted")
        # a path a-b-c-d: [abc] and [bcd] are both undefined
        elements = ["e", "a", "b", "c", "d", "ab", "bc", "cd"]
        product = {(x, x): "e" for x in elements[1:]}
        for x, y in (("a", "b"), ("b", "c"), ("c", "d")):
            product[(x, y)] = product[(y, x)] = x + y
        path = Pregroup(elements, "e", {x: x for x in elements[1:]}, product)
        a, b, c, d = (path.index[x] for x in "abcd")
        if (a, b, c, d) not in check_axioms(path).violations["P5"]:
            raise SystemExit("P5 violation missed")
        print("ok")
        """
    )
    src = os.path.dirname(os.path.dirname(cycrew.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "ok"
