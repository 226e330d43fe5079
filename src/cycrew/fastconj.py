"""Linear-time conjugacy for universal groups of finite pregroups.

The decision procedure cyclically reduces both inputs, handles lengths at
most one by the letter conjugacy closure, and for longer inputs matches the
shortlex normal form of candidate conjugates against the normal form of g
squared with Knuth-Morris-Pratt, using the carry sequence of that normal
form to test the last-letter condition at each match in constant time.
Interior match offsets come from KMP; the boundary offsets 1, 2 and n are
handled by direct equality checks.
"""

from __future__ import annotations

import itertools

from .pregroup import gamma_to_p, p_to_gamma
from .universal import (
    ConjugacyAnswer,
    UniversalContext,
    _certify,
    _conjugacy_prelude,
    _interleaving_equal,
    _nf_carries,
    _stack_reduce,
    equal_in_U,
)
from .words import Word, involute, prefix_function

__all__ = [
    "ConjugacyAnswer",
    "kmp_search",
    "conjugate_linear",
    "conjugate_oracle",
]


def kmp_search(pattern: Word, text: Word) -> list:
    """All start positions of pattern in text, left to right, in
    O(|pattern| + |text|).  An empty pattern matches at every position."""
    m, n = len(pattern), len(text)
    if m == 0:
        return list(range(n + 1))
    fail = prefix_function(pattern)
    out = []
    k = 0
    for i in range(n):
        while k and text[i] != pattern[k]:
            k = fail[k - 1]
        if text[i] == pattern[k]:
            k += 1
        if k == m:
            out.append(i - m + 1)
            k = fail[k - 1]
    return out


def conjugate_oracle(u: Word, v: Word, ctx: UniversalContext, max_len: int):
    """Brute force: try every conjugator x over Gamma with |x| <= max_len.

    Returns a positive ConjugacyAnswer or None (inconclusive); the oracle
    can confirm conjugacy but never refute it.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    k = len(ctx.alphabet)
    inv = ctx.alphabet.involution
    for n in range(max_len + 1):
        for x in itertools.product(range(k), repeat=n):
            xbar = tuple(inv[i] for i in reversed(x))
            if equal_in_U(x + u + xbar, v, ctx):
                return ConjugacyAnswer(True, x, "oracle")
    return None


def conjugate_linear(u: Word, v: Word, ctx: UniversalContext) -> ConjugacyAnswer:
    answer, g_can, f_can, zu, zv_inv = _conjugacy_prelude(u, v, ctx, "linear")
    if answer is not None:
        return answer
    p = ctx.pregroup
    alphabet = ctx.alphabet
    n = len(g_can)

    # normal forms keep cyclic reducedness: the element has full cyclic
    # reduction length n, so its geodesics do too
    g, _c = _nf_carries(tuple(gamma_to_p(l, p) for l in g_can), p)
    f_p = tuple(gamma_to_p(l, p) for l in f_can)
    big, carries = _nf_carries(g + g, p)
    # carry sequence a_i, read off the normal form of g squared
    a = tuple(p.inv[carries[n + i - 2]] for i in range(1, n + 1))
    inv = p.inv
    table = p.table

    def success(b, i):
        q_inv = involute(
            tuple(p_to_gamma(l, p) for l in g[: i - 1]), alphabet
        )
        b_word = (p_to_gamma(b, p),) if b != p.eps else ()
        x = zv_inv + b_word + q_inv + zu
        return ConjugacyAnswer(True, _certify(u, v, x, ctx), "linear")

    prefix_ok = big[: n - 1] == g[: n - 1]
    for b in range(len(p)):
        if b == p.eps:
            fb = f_p
        else:
            fb = _stack_reduce((inv[b],) + f_p + (b,), p)
        if len(fb) != n:
            continue
        for i in (1, 2, n) if n > 2 else (1, 2):
            rot = g[i - 1 :] + g[: i - 1]
            if _interleaving_equal(fb, rot, p):
                return success(b, i)
        if n <= 3:
            continue
        if not prefix_ok:
            # defensive fallback: scan the remaining rotations directly
            for i in range(3, n):
                rot = g[i - 1 :] + g[: i - 1]
                if _interleaving_equal(fb, rot, p):
                    return success(b, i)
            continue
        fb_nf, _fc = _nf_carries(fb, p)
        head, last = fb_nf[:-1], fb_nf[-1]
        for start in kmp_search(head, big):
            i = start + 1
            if not 2 < i < n:
                continue
            # last-letter condition: [last a_i~] = [a_{i-1} g_{i-1} a_i~]
            ai_inv = inv[a[i - 1]]
            lhs = table[last][ai_inv]
            rhs = p.mul3(a[i - 2], g[i - 2], ai_inv)
            if lhs is None or rhs is None or lhs != rhs:
                continue
            rot = g[i - 1 :] + g[: i - 1]
            if _interleaving_equal(fb, rot, p):
                return success(b, i)
    return ConjugacyAnswer(False, method="linear")
