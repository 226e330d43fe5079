"""Linear-time conjugacy for universal groups of finite pregroups.

The decision procedure cyclically reduces both inputs, handles lengths at
most one by the letter conjugacy closure, and for longer inputs preconjugates
f by each pregroup element b for which the preconjugation is defined
(universal._preconjugate_p builds it, reduced, from two table reads) and
matches all but the last letter of the shortlex normal form of f^b against
the first 2n - 2 letters of the normal form of g squared with
Knuth-Morris-Pratt.  The carry sequence of that normal form tests the last
letter at each match in constant time, and that test alone decides the
match.  The matches that pass it, at starts 0 .. n-1, are exactly the
rotations of NF(g) equal to f^b (see conjugate_linear for the proof), so
one pass decides every offset.
The b are read off the table row of f's last letter, not all of P (the row
read), and a b whose normal form does not begin with one of the k-letter
windows of that text is dropped after k + 1 letters, before its full
normal form and KMP pass are built (the head test).
"""

from __future__ import annotations

import itertools

from .universal import (
    ConjugacyAnswer,
    UniversalContext,
    _certify,
    _conjugacy_prelude,
    _nf_carries,
    _p_inverse,
    _preconjugate_p,
    equal_in_U,
)
from .words import Word

__all__ = [
    "ConjugacyAnswer",
    "kmp_search",
    "conjugate_linear",
    "conjugate_oracle",
]

# K of the head test in conjugate_linear: the letters of NF(f^b) checked
# against the windows of the KMP text before the whole normal form is built.
# Over the decisions of 4 seeds x 8 cycles of the conj benchmark workload
# (hnn_s3, n from 16 to 256), K = 6 made the fewest normal-form letters
# (164k; 187k at K = 4, 167k at 5, 170k at 8) and tied with K = 8 for the
# least time, ahead of K = 4 and 5 (CPython 3.11, 2-core x86-64 host)
_HEAD_LETTERS = 6


def prefix_function(w: Word) -> list:
    """The KMP failure function: entry i is the length of the longest
    proper border (a prefix that is also a suffix) of w[:i + 1]."""
    border = [0] * len(w)
    b = 0
    for i in range(1, len(w)):
        while b and w[i] != w[b]:
            b = border[b - 1]
        if w[i] == w[b]:
            b += 1
        border[i] = b
    return border


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
    """Decide conjugacy with one KMP pass per reduced preconjugation of f
    whose head passes the head test.

    After the prelude, g and f are cyclically reduced of length n >= 2.
    Words are indexed from 0, x~ is the inverse of x and [x y] the pregroup
    product.

    Which b are tried.  Two cyclically reduced conjugates of length >= 2
    differ by a rotation and one preconjugation (the pregroup form of the
    conjugacy theorems for amalgams and HNN extensions; Lyndon and Schupp,
    Combinatorial Group Theory, IV.2; conjugate_quadratic searches the same
    set).  G = NF(g) is itself cyclically reduced (proved below), so with
    G for g: f and G are conjugate exactly when some rotation of G equals,
    in U(P), f itself (b = epsilon) or the preconjugation
    ([b~ f[0]], f[1], ..., f[n-2], [f[n-1] b]), whose end products are
    defined and not epsilon.  The loop builds each such f^b as
    universal._preconjugate_p(f, b~, p), which is None for every other b;
    by its lemma f^b is reduced, of length n, and equal to b~ f b.  A
    skipped b is either no preconjugation of f, or its b~ f b may still
    have length n as a rotation of f with merged ends (b = f[0] gives
    f[1:] f[:1]); the criterion never needs it, since epsilon or a b that
    passes already matches whenever f and G are conjugate.  The surviving
    b keep ascending order, so the least of them that matches is found
    first.  Every b that passes must be kept: a loop over G_P alone, the b
    that multiply with every element, is wrong on pregroups where P6
    fails.  The smallest counterexample (p6_failing in tests/conftest.py)
    has six elements, epsilon, x, x~, y, y~ and z = z~, with [xz] = y,
    [x~y] = z, [yz] = x, [y~x] = z, [zx~] = y~ and [zy~] = x~; there
    G_P = {epsilon}, and some conjugate pairs match under no rotation with
    b = epsilon.

    The row read.  A b passes only if z = [f[n-1] b] is defined, so the
    loop reads its b off p.rows[f[n-1]], the columns with a defined
    product, ascending, epsilon among them as [x epsilon] = x.  It meets
    the same b in the same order as a loop over all of P, at the cost of
    the row, not of |P|.

    For f^b = b~ f b of length n, f^b equals a rotation of NF(g)
    exactly when KMP finds NF(f^b)[:n-1] at a start s < n of NF(g g) and a
    constant-time test on its last letter holds, so one pass covers every
    rotation; the proof follows.  A match of those n - 1 letters starts at
    s <= n - 1 exactly when it ends by index 2n - 3, so KMP scans only the
    first 2n - 2 letters of NF(g g) and every match it reports is a
    rotation.  By the window lemma the last-letter test decides each hit,
    with no other check; _certify replays the conjugator of the hit taken
    and raises CertificateError should it fail.

    Facts used: reduced words are geodesics in U(P) (Stallings), and a
    factor of a shortlex normal form is a normal form.  Let G = NF(g)
    (g_nf below).  As g is cyclically reduced, g g is reduced of length 2n,
    so G G, of the same length, is a geodesic and hence reduced: G and its
    rotations r_s = G[s:] G[:s] are cyclically reduced geodesics.  The
    carries c_k of NF(X) satisfy NF(X)[:k+1] = X[:k+1] c_k in U(P).

    Lemma.  Let U = NF(u) have length n, let U T be a geodesic, and let
    N = NF(U T) with carries c_k; write c = c_{n-1}.  Then
    N[:n-1] = U[:n-1] and [U[n-1] c] = N[n-1].
    Proof.  N <= U T in shortlex order, so N[:n-1] <= U[:n-1].  Next,
    u = N[:n] c~.  If [N[n-1] c~] were undefined, N[:n] c~ would be a
    reduced word of length n + 1; so y = [N[n-1] c~] is defined, and y is
    not epsilon, else u = N[:n-1].  Then N[:n-1] y is a geodesic of u, so
    U <= N[:n-1] y and U[:n-1] <= N[:n-1].  Hence the prefixes agree,
    U[n-1] = y, and [y c] = N[n-1].

    Prefix lemma (U = T = G): W = NF(G G) has W[:n-1] = G[:n-1], so its
    carries c_0 .. c_{n-2} are epsilon.  So the pass for W starts at
    position n-1: the normal-form pass reads no letter before the one it
    is at (see universal._nf_carries), so from there on it is the pass
    over (G G)[n-1:] = G[n-1:] G.  Below, (tail, carries) is that pass:
    W = G[:n-1] tail, and c_e = carries[e-n+1] for e >= n-1.

    Window lemma: for s < n and e = s + n - 1, NF(r_s)[:n-1] = W[s:e] and
    [NF(r_s)[n-1] c_e] = W[e], where c_e = carries[s] and W[e] = tail[s].
    By the prefix lemma W[:s] = G[:s], so W[s:] is the normal form of
    r_s G[s:], of which NF(r_s) G[s:] is a geodesic, and its carry after n
    letters is c_e; apply the lemma with U = NF(r_s), T = G[s:].
    Conversely, a KMP hit at s that passes [NF(f^b)[n-1] c_e] = W[e]
    gives NF(f^b) c_e = W[s:e+1] = NF(r_s) c_e, so f^b = r_s in U(P):
    the test is exact.

    Head lemma.  Let k = min(K, n - 1), K = _HEAD_LETTERS.  A KMP hit in
    text = W[:2n-2] starts at some s <= n - 1 and has NF(f^b)[:k] =
    W[s:s+k].  The normal-form pass at a position i < n - 1 reads only the
    letters i and i + 1 and the carry (see universal._nf_carries), so for
    i < k it takes the same steps on f^b[:k+1] as on f^b:
    NF(f^b)[:k] = NF(f^b[:k+1])[:k].  So a b whose head NF(f^b[:k+1])[:k]
    is none of the windows W[s:s+k], s < n, has no KMP hit, and the loop
    drops it after the normal form of fb[: k + 1], before it builds
    NF(f^b) and a failure function; that changes no verdict, certificate
    or method.  When k + 1 = n the head is all of f^b.  On negatives
    nearly every b fails within a few letters.
    """
    answer, g, f, zu, zv_inv = _conjugacy_prelude(u, v, ctx, "linear")
    if answer is not None:
        return answer
    p = ctx.pregroup
    n = len(g)
    g_nf, _c = _nf_carries(g, p)
    tail, carries = _nf_carries(g_nf[n - 1 :] + g_nf, p)
    text = g_nf[: n - 1] + tail[: n - 1]  # W[:2n-2], see the prefix lemma
    inv, table = p.inv, p.table
    k = min(_HEAD_LETTERS, n - 1)
    heads = {text[s : s + k] for s in range(n)}

    for b, _z in p.rows[f[-1]]:
        fb = _preconjugate_p(f, inv[b], p)
        if fb is None:
            continue  # not a preconjugation of f
        if _nf_carries(fb[: k + 1], p)[0][:k] not in heads:
            continue  # the head lemma: no KMP hit
        fb_nf, _fc = _nf_carries(fb, p)
        last = fb_nf[-1]
        for s in kmp_search(fb_nf[:-1], text):
            if table[last][carries[s]] == tail[s]:  # the window lemma
                x = zv_inv + (b,) + _p_inverse(g_nf[:s], p) + zu
                return ConjugacyAnswer(True, _certify(u, v, x, ctx), "linear")
    return ConjugacyAnswer(False, method="linear")
