"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test records "ACCEPTANCE <n> <tag>: PASS" (or FAIL); the lines are
echoed in the terminal summary so the gate is readable in any pytest run.
"""

import itertools
import random
import statistics
import time

import pytest

import conftest
from conftest import corpus_pregroups, ref_reach

from cycrew import samples
from cycrew.completion import (
    cdagger,
    circle_extension,
    hat_extension,
    thue_completion,
    _short_graph,
)
from cycrew.constructions import verify_collins, verify_mks
from cycrew.fastconj import conjugate_linear, conjugate_oracle
from cycrew.pregroup import (
    canonical_subgroup,
    check_axioms,
    check_p6,
    check_p7,
    check_p8,
    derive_system,
    gamma_to_p,
)
from cycrew.rewrite import (
    check_strong_confluence,
    cyclic_joinable,
    cyclic_successors,
    word_successors,
)
from cycrew.universal import (
    UniversalContext,
    conjugate_quadratic,
    cyclic_reduce,
    equal_in_U,
    letter_conjugacy_closure,
    preconjugate,
)
from cycrew.words import CyclicWord, involute


def report(num, tag, ok):
    line = f"ACCEPTANCE {num} {tag}: {'PASS' if ok else 'FAIL'}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def contexts():
    return {name: UniversalContext(p) for name, p in corpus_pregroups()}


def test_01_four_letter_cycle_example():
    t0 = time.perf_counter()
    ok = True
    s = samples.four_letter_cycle_system()
    a = s.alphabet
    ok &= check_strong_confluence(s).ok
    succs = cyclic_successors(CyclicWord.of(a.word("abcd")), s)
    ok &= set(succs) == {
        CyclicWord.of(a.word("bacd")),
        CyclicWord.of(a.word("bdca")),
    }
    ok &= all(cyclic_successors(c, s) == [] for c in succs)
    ok &= (time.perf_counter() - t0) < 1.0
    report(1, "word-confluent-cycle-divergent", ok)


def test_02_growing_cycle_example():
    t0 = time.perf_counter()
    ok = True
    s = samples.growing_cycle_system()
    a = s.alphabet
    # string reduction terminates
    w = a.word("ba")
    for _ in range(10):
        nxt = word_successors(w, s)
        if not nxt:
            break
        w = nxt[0]
    ok &= word_successors(w, s) == []
    # cyclic iteration grows strictly through (b^k a) for k = 1..50
    c = CyclicWord.of(a.word("ba"))
    b_idx, a_idx = a.index("b"), a.index("a")
    for k in range(1, 51):
        ok &= c.canon == (a_idx,) + (b_idx,) * k
        nxt = cyclic_successors(c, s)
        ok &= len(nxt) == 1
        ok &= len(nxt[0]) == len(c) + 1
        c = nxt[0]
    ok &= (time.perf_counter() - t0) < 1.0
    report(2, "terminating-word-growing-cycle", ok)


def test_03_hat_circle_free_group_completeness():
    t0 = time.perf_counter()
    ok = True
    s = samples.free_group_system(2)
    a = s.alphabet

    def free_cyc_red(w):
        out = []
        for x in w:
            if out and out[-1] == a.involution[x]:
                out.pop()
            else:
                out.append(x)
        w = tuple(out)
        while len(w) >= 2 and w[0] == a.involution[w[-1]]:
            w = w[1:-1]
        return CyclicWord.of(w)

    shorts = sorted(
        {
            CyclicWord.of(w)
            for n in range(6)
            for w in itertools.product(range(4), repeat=n)
        },
        key=lambda c: (len(c.canon), c.canon),
    )
    truth = {c: free_cyc_red(c.canon) for c in shorts}
    cap = 7  # insertions never need to grow past max length + 2

    for system in (hat_extension(s), circle_extension(s)):
        memo = {}

        def succs(c):
            got = memo.get(c)
            if got is None:
                got = [x for x in cyclic_successors(c, system) if len(x) <= cap]
                memo[c] = got
            return got

        desc = {c: frozenset(ref_reach(c, succs)[0]) for c in shorts}
        # joinable iff conjugate, over every pair
        for i, u in enumerate(shorts):
            for v in shorts[i + 1 :]:
                ok &= (not desc[u].isdisjoint(desc[v])) == (truth[u] == truth[v])
        # spot-check the search itself on all conjugate pairs and a sample
        # of non-conjugate ones
        by_class = {}
        for c in shorts:
            by_class.setdefault(truth[c], []).append(c)
        jmemo = {}
        for cls in by_class.values():
            for x, y in zip(cls, cls[1:]):
                res = cyclic_joinable(x, y, system, 100_000, max_len=cap, memo=jmemo)
                ok &= res.status == "joinable"
        rng = random.Random(3)
        for _ in range(300):
            x, y = rng.choice(shorts), rng.choice(shorts)
            if truth[x] != truth[y]:
                res = cyclic_joinable(x, y, system, 100_000, max_len=cap, memo=jmemo)
                ok &= res.status != "joinable"
    ok &= (time.perf_counter() - t0) < 120.0
    report(3, "hat-circle-free-group-complete", ok)


def test_04_thue_completion_bound():
    ok = True
    for _name, p in corpus_pregroups():
        s = derive_system(p, "S_eps")
        # the chain-length bound is also asserted inside thue_completion
        _crs, stage = thue_completion(s, check_confluence=False)
        ok &= stage <= 2 * s.m_of - 2
    report(4, "thue-completion-stage-bound", ok)


def test_05_pregroup_corpus_axioms():
    t0 = time.perf_counter()
    ok = True
    for name, p in corpus_pregroups():
        ok &= bool(check_axioms(p))
        ok &= check_strong_confluence(derive_system(p, "S_eps")).ok
    dinf = samples.dihedral_infinity()
    z4z6 = samples.z4_amalgam_z6()
    hnn = samples.hnn_s3()
    for p in (dinf, z4z6):
        ok &= check_p6(p)[0] and check_p7(p)[0]
    # the trivial-subgroup amalgam D-infinity satisfies P8 vacuously (every
    # defined product of involutions lands in G_P), so the P8 failure is
    # witnessed on the amalgam with nontrivial identified subgroup
    ok &= not check_p8(z4z6)[0]
    ok &= check_p6(hnn)[0] and check_p8(hnn)[0]
    ok &= (time.perf_counter() - t0) < 30.0
    report(5, "pregroup-corpus-validation", ok)


def _sample_pairs(rng, k, count, max_len=6):
    for _ in range(count):
        u = tuple(rng.randrange(k) for _ in range(rng.randrange(max_len + 1)))
        v = tuple(rng.randrange(k) for _ in range(rng.randrange(max_len + 1)))
        yield u, v


def _agreement_sweep(contexts):
    """Shared sweep for criteria 6 and 7: (disagreements, positives,
    bad_certificates)."""
    disagree = 0
    positives = 0
    bad_certs = 0
    unconfirmed = 0
    rng = random.Random(6)
    for name, ctx in contexts.items():
        k = len(ctx.alphabet)
        if k <= 2:
            # exhaustive: all pairs of words of length <= 6
            words = [
                w
                for n in range(7)
                for w in itertools.product(range(k), repeat=n)
            ]
            pairs = itertools.product(words, words)
        else:
            pairs = _sample_pairs(rng, k, 10_000)
        for u, v in pairs:
            lin = conjugate_linear(u, v, ctx)
            quad = conjugate_quadratic(u, v, ctx)
            if lin.verdict != quad.verdict:
                disagree += 1
                continue
            if lin.verdict:
                positives += 1
                for ans in (lin, quad):
                    cert = ans.certificate
                    if cert is None or not equal_in_U(
                        cert + u + involute(cert, ctx.alphabet), v, ctx
                    ):
                        bad_certs += 1
                if conjugate_oracle(u, v, ctx, 4) is None:
                    unconfirmed += 1
    return disagree, positives, bad_certs, unconfirmed


@pytest.fixture(scope="module")
def sweep(contexts):
    return _agreement_sweep(contexts)


def test_06_three_way_agreement(sweep):
    disagree, positives, _bad, unconfirmed = sweep
    ok = disagree == 0 and unconfirmed == 0 and positives > 0
    report(6, "linear-quadratic-oracle-agreement", ok)


def test_07_certificates(sweep):
    _disagree, positives, bad_certs, _unconfirmed = sweep
    ok = positives > 0 and bad_certs == 0
    report(7, "conjugator-certificates", ok)


def test_08_classical_criteria(contexts):
    ok = True
    rng = random.Random(8)

    def conj(ctx, w):
        x = tuple(rng.randrange(len(ctx.alphabet)) for _ in range(rng.randrange(4)))
        return x + w + involute(x, ctx.alphabet)

    counts = {"mks": 0, "collins": 0}
    for name in ("dinf", "z4z6"):
        ctx = contexts[name]
        for _ in range(120):
            u = tuple(
                rng.randrange(len(ctx.alphabet)) for _ in range(rng.randrange(6))
            )
            v = conj(ctx, u)
            try:
                ver = verify_mks(u, v, ctx)
            except ValueError:
                ok = False
                continue
            ok &= ver.case in (1, 2, 3)
            counts["mks"] += 1
    ctx = contexts["hnn"]
    for _ in range(240):
        u = tuple(rng.randrange(len(ctx.alphabet)) for _ in range(rng.randrange(6)))
        v = conj(ctx, u)
        try:
            ver = verify_collins(u, v, ctx)
        except ValueError:
            ok = False
            continue
        ok &= ver.case in (1, 2, 3)
        counts["collins"] += 1
    ok &= counts["mks"] == 240 and counts["collins"] == 240
    report(8, "amalgam-hnn-case-classification", ok)


def test_09_linear_scaling(contexts):
    ctx = contexts["dinf"]
    a_idx, b_idx = 0, 1

    def trial(n):
        w = tuple(a_idx if i % 2 == 0 else b_idx for i in range(n))
        v = w[1:] + w[:1]
        t0 = time.perf_counter()
        ans = conjugate_linear(w, v, ctx)
        dt = time.perf_counter() - t0
        assert ans.verdict
        return dt

    # the two sizes alternate, so a phase of slower host speed hits both
    # medians alike
    small, big = [], []
    for _ in range(10):
        small.append(trial(2**14))
        big.append(trial(2**15))
    ratio = statistics.median(big) / statistics.median(small)
    ok = ratio <= 2.5
    report(9, f"scaling-ratio-{ratio:.2f}", ok)


def test_10_lemma_level_properties(contexts):
    ok = True
    rng = random.Random(10)

    # preconjugation preserves cyclic reducedness and length
    def cyc_reduced(c, p):
        w = c.canon
        if len(w) <= 1:
            return True
        pw = [gamma_to_p(l, p) for l in w]
        return all(
            p.table[pw[i]][pw[(i + 1) % len(pw)]] is None for i in range(len(pw))
        )

    for name, ctx in contexts.items():
        p = ctx.pregroup
        k = len(ctx.alphabet)
        cycles = [CyclicWord.of((g,)) for g in range(k)]
        for _ in range(100):
            w = tuple(rng.randrange(k) for _ in range(rng.randrange(1, 7)))
            cycles.append(cyclic_reduce(w, ctx))
        for c in cycles:
            if not c.canon:
                continue
            for b in range(len(p)):
                d = preconjugate(c, b, ctx)
                if d is None:
                    continue
                ok &= len(d) == len(c)
                ok &= cyc_reduced(d, p)

    # common preconjugates collapse when the axiom family of amalgams holds
    def one_step_preconj(a, p):
        out = set()
        for c in range(len(p)):
            y = p.mul3(c, a, p.inv[c])
            if y is not None:
                out.add(y)
        return out

    for name in ("dinf", "z4z6"):
        p = contexts[name].pregroup
        h = canonical_subgroup(p)
        pre = {a: one_step_preconj(a, p) for a in range(len(p))}
        for a in range(len(p)):
            for b in range(len(p)):
                for c in pre[a] & pre[b]:
                    ok &= (c in h) or (b in pre[a])

    # on the HNN side: preconjugates of a non-base element come from the
    # base, and conjugacy implies preconjugacy
    hctx = contexts["hnn"]
    hp = hctx.pregroup
    hh = canonical_subgroup(hp)
    from cycrew.pregroup import p_to_gamma

    for a in range(len(hp)):
        if a in hh:
            continue
        reachable = one_step_preconj(a, hp)
        for b in reachable:
            ok &= any(hp.mul3(hp.inv[h], a, h) == b for h in hh)
        closure = letter_conjugacy_closure(p_to_gamma(a, hp), hctx)
        for b in range(len(hp)):
            if b == hp.eps:
                continue
            conj = conjugate_quadratic(
                (p_to_gamma(a, hp),), (p_to_gamma(b, hp),), hctx
            ).verdict
            if conj:
                ok &= p_to_gamma(b, hp) in closure

    # the letter-pair extension of each S_eps is confluent on short cycles:
    # on the ids of the short cyclic words, any two successors of a word
    # reach a common word through the base steps and cdagger's pairs
    for name, p in corpus_pregroups():
        s = derive_system(p, "S_eps")
        shorts, succ = _short_graph(s)
        index = {c: i for i, c in enumerate(shorts)}
        steps = [set(x) for x in succ]
        for u, v in cdagger(s).extra:
            steps[index[u]].add(index[v])
        reach = [ref_reach(i, steps.__getitem__)[0] for i in range(len(shorts))]
        for nxt in steps:
            for a, b in itertools.combinations(nxt, 2):
                ok &= not reach[a].isdisjoint(reach[b])
    report(10, "lemma-level-properties", ok)
