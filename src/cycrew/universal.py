"""Computation in the universal group of a finite pregroup.

Words handed to these operations are over Gamma = P minus epsilon, encoded
as indices into the context's alphabet.  Internally a word is a tuple of
pregroup element indices (a P word), from its one UniversalContext.to_p at
a public entry point, which rejects a letter outside Gamma with
AlphabetError, until a result leaves through UniversalContext.to_gamma.
The conjugacy procedures here, in fastconj and in constructions keep this
rule: cyclic reduction, letter closures, preconjugation, the carry passes
and the conjugators they build all read and return P words, and only
_certify turns the finished conjugator into Gamma letters.

Cyclic reduction and the choice of canonical rotation are one linear pass,
_canonical_traced: stack-reduce once, then merge the last letter into the
front while their product is defined.

Equality of reduced words and the shortlex normal form are decided by
forward passes over interleaving carries b_i = [inv(c_{i-1}) a_i c_i].
Both follow a single carry.  Equality reads it off the table as
c_i = [inv(a_i) c_{i-1} b_i] (see _interleaving_equal).  The normal form
takes the least of the steps of (a_i, c_{i-1}) to a carry c whose inverse
multiplies the next letter, a local test that says exactly when the step
can be completed (see _nf_carries).  Those steps are one sparse row of the
table, that of [inv(a_i) c_{i-1}], already in ascending letter.  So the
step taken is a function of (a_i, c_{i-1}, a_{i+1}): the pass is a
finite-state transducer, each entry filled on first use from that row and
then read with one lookup per letter.  Unlike a search over the symmetric
rules of S(P), both terminate for certain.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Optional

from .pregroup import (
    Pregroup,
    PregroupError,
    _require_pregroup,
    gamma_alphabet,
    gamma_to_p,
    p_to_gamma,
)
from .words import CyclicWord, Word, involute, least_rotation_offset, validate_word


@dataclass(frozen=True)
class ConjugacyAnswer:
    """Verdict plus, for positive answers, a conjugator word x over Gamma
    with x u inv(x) = v in U(P)."""

    verdict: bool
    certificate: Optional[Word] = None
    method: str = "quadratic"

    def __bool__(self):
        return self.verdict


class CertificateError(RuntimeError):
    """A conjugator found by a decision procedure failed its replay check."""


class UniversalContext:
    """Immutable bundle of a validated pregroup and its alphabet."""

    def __init__(self, pregroup: Pregroup):
        _require_pregroup(pregroup, "pregroup axiom")
        self.pregroup = pregroup
        self.alphabet = gamma_alphabet(pregroup)
        self._p_of = tuple(gamma_to_p(i, pregroup) for i in range(len(self.alphabet)))
        self._gamma_of = tuple(
            None if x == pregroup.eps else p_to_gamma(x, pregroup)
            for x in range(len(pregroup))
        )

    def to_p(self, w: Word) -> tuple:
        """P indices of a Gamma word; AlphabetError (a ValueError) on a
        letter outside Gamma.  Every entry point converts through here,
        once per input word; inside, words stay P words."""
        validate_word(w, self.alphabet)
        return tuple(map(self._p_of.__getitem__, w))

    def to_gamma(self, pw) -> Word:
        """Gamma letters of P indices; PregroupError on epsilon, which is
        no Gamma letter."""
        w = tuple(map(self._gamma_of.__getitem__, pw))
        if None in w:
            raise PregroupError("epsilon is not a Gamma letter")
        return w


def _stack_reduce(pw, p: Pregroup):
    """Left-to-right reduction over P indices; output has no adjacent
    defined products and no epsilon.  Each incoming letter is merged into
    the top of the stack while their product is defined and not epsilon."""
    table = p.table
    eps = p.eps
    out = []
    for x in pw:
        while out and x != eps:
            q = table[out[-1]][x]
            if q is None:
                break
            out.pop()
            x = q
        if x != eps:
            out.append(x)
    return tuple(out)


def _p_inverse(pw, p: Pregroup) -> tuple:
    """The inverse of a P-index word: its letters inverted, in reverse."""
    return tuple(map(p.inv.__getitem__, reversed(pw)))


def reduce_word(w: Word, ctx: UniversalContext) -> Word:
    """Greedy length reduction to a reduced (hence geodesic) word."""
    return ctx.to_gamma(_stack_reduce(ctx.to_p(w), ctx.pregroup))


def _interleaving_equal(pu, pv, p: Pregroup) -> bool:
    """Carry DP: pu equals pv in U(P), both reduced over Gamma and of equal
    length.

    Write c~ for inv(c).  The carry after i letters is (a_1..a_i)^-1
    b_1..b_i in U(P), and P embeds in U(P), so at most one carry fits each
    prefix and the DP follows a single carry: from cp, letter b of pv
    follows letter a of pu exactly when (b, c) is a step of (a, cp), that
    is b = [cp~ a c] for some c, and then c = [a~ cp b].  So the DP reads
    its carry off the table; only _nf_carries reads steps, as table rows.

    Lemma.  For x, y, z in P, the product [x y z] is defined (under either
    bracketing) exactly when xyz lies in P in U(P), and then they are
    equal.
    Proof.  A defined product is the product in U(P), since P embeds in
    U(P).  Conversely, let xyz lie in P.  If [x y] = d is defined, then dz
    lies in P; were [d z] undefined, d and z would not be epsilon, and
    (d, z) would be a reduced word, hence a geodesic (Stallings, Group
    Theory and Three-Dimensional Manifolds, 1971, 3.A), of length 2 equal
    to an element of P, which has length at most 1.  Likewise when [y z]
    is defined.  If neither is, no letter is epsilon and (x, y, z) is a
    reduced word of length 3 equal to an element of P, again impossible.
    So for b not epsilon, b = [cp~ a c] holds exactly when b = cp~ a c in
    U(P), that is c = a~ cp b; by the lemma, with c in P, that is exactly
    when [a~ cp b] is defined, and then c is that product.
    """
    if len(pu) != len(pv):
        return False
    inv, mul3 = p.inv, p.mul3
    cp = p.eps
    for a, b in zip(pu, pv):
        cp = mul3(inv[a], cp, b)
        if cp is None:
            return False
    return cp == p.eps


def equal_in_U(u: Word, v: Word, ctx: UniversalContext) -> bool:
    """Word problem: reduce both sides, then run the interleaving DP."""
    p = ctx.pregroup
    return _interleaving_equal(
        _stack_reduce(ctx.to_p(u), p), _stack_reduce(ctx.to_p(v), p), p
    )


def _nf_carries(pw, p: Pregroup):
    """Shortlex normal form of a reduced P-index word, with its carry
    sequence.

    Write c~ for inv(c).  Every word of the same geodesic length equal to
    pw = a_0 .. a_{n-1} is an interleaving b_i = [c_{i-1}~ a_i c_i] with
    c_{-1} = c_{n-1} = epsilon, and since P embeds in U(P) the carry
    c_i = (a_0 .. a_i)^-1 b_0 .. b_i is fixed by the prefix (Stallings,
    Group Theory and Three-Dimensional Manifolds, 1971, 3.A).  So the
    normal form is found greedily in one forward pass: at each position,
    from carry cp, take the least of the steps of (a_i, cp), the (letter,
    c) with letter = [cp~ a_i c] defined and not epsilon, that can still be
    completed.

    Lemma.  Let pw be reduced, and take a step (letter, c) from a carry cp
    that the pass reaches at position i.  For i < n-1 the step can be
    completed exactly when y = [c~ a_{i+1}] is defined, and then y is not
    epsilon and either i+2 = n or [y a_{i+2}] is undefined.  For i = n-1
    it can be completed exactly when c = epsilon.
    Proof.  The steps taken so far and this one give b_0 .. b_i =
    a_0 .. a_i c in U(P), so pw = b_0 .. b_i s with s = c~ a_{i+1} ..
    a_{n-1}.  Reduced words are geodesics, so pw has length n and s has
    length at least n-1-i.  A completion is a word of n-1-i letters equal
    to s, so if one exists, s has length exactly n-1-i.  Conversely, if it
    has, then b_0 .. b_i followed by a geodesic of s is a word of length n
    equal to pw, hence an interleaving of pw; its carry after i+1 letters
    is c, as the prefix fixes it, so its remaining letters complete the
    step.  It remains to read the length of s off the next letters.  For
    i = n-1, s = c~ is a letter of P, of length 0 exactly when c =
    epsilon.  For i < n-1, if [c~ a_{i+1}] is undefined, then c is not
    epsilon and c~ a_{i+1} .. a_{n-1} is reduced, a geodesic of n-i
    letters.  If y is defined, s = y a_{i+2} .. a_{n-1} has at most n-1-i
    letters, hence exactly n-1-i; so y is not epsilon and [y a_{i+2}] is
    undefined, as either would give a shorter word for s.
    The step with c = epsilon always passes: [epsilon a_{i+1}] = a_{i+1}.
    It is among the steps, since its letter [cp~ a_i] is a_0 at i = 0,
    and for i > 0 it is the y of the previous step, defined and not
    epsilon by the lemma.  So some step passes at every position, and at
    the last one the step with c = epsilon, letter [cp~ a_{n-1}], is the
    only one.

    Lemma (i).  On any word without epsilon, reduced or not, the pass
    reaches only pairs (a_i, cp) with [cp~ a_i] defined, so it reads no
    undefined row.
    Proof.  At i = 0, cp = epsilon and [epsilon a_0] = a_0.  At i > 0, cp
    is the carry c of the step taken at i-1, which passed, so [c~ a_i] is
    defined, provided some step passed there.  One always does: with y =
    [cp~ a_{i-1}], if y is not epsilon, then (y, epsilon) is an entry of
    the row of y~ by P2, and [epsilon a_i] is defined; if y is epsilon,
    the row of epsilon holds (a_i, a_i), and [a_i~ a_i] is defined.

    Lemma (ii).  Let y = [cp~ a] be defined.  The steps of (a, cp) are the
    entries (t, c) of p.rows[y~] with t not epsilon, in ascending letter t
    as the row is; y~ = [a~ cp] by P3.
    Proof.  By the lemma of _interleaving_equal, t = [cp~ a c] exactly when
    t = [y c].  If [y c] = t, then [y~ y] = epsilon (P2) and [[y~ y] c] = c
    are defined, so by P4 [y~ [y c]] = [y~ t] is defined and equals c.  The
    converse is the same argument with y and y~, and c and t, exchanged.

    The step taken at position i < n-1 reads a_i, cp and a_{i+1} alone, so
    the pass is a finite-state transducer from state cp on the input pair
    (a_i, a_{i+1}), the finite-state view of shortlex normal forms in
    automatic groups (Epstein et al., Word Processing in Groups, 1992).
    Its entries are compiled on first use: on a miss the pass scans the
    row of [a_i~ cp] (lemma (ii)) for the first step that passes and
    stores it in p._nf_steps under the int (a_i |P| + cp) |P| + a_{i+1};
    a hit costs one dict lookup.  The pass reads no letter before a_i
    either, so where c_{i-1} = epsilon, the pass over a_i .. a_{n-1} takes
    the steps of the full pass from position i on.

    Returns (nf letters, carries c_0 .. c_{n-1}) with c_{n-1} = epsilon.
    Raises ValueError when pw contains epsilon; on a word that is not
    reduced the result is not a normal form.
    """
    eps = p.eps
    if eps in pw:
        raise ValueError(f"{pw} contains epsilon: it is not a word over Gamma")
    table, inv, rows = p.table, p.inv, p.rows
    n = len(table)
    steps = p._nf_steps
    letters = []
    carries = []
    cp = eps
    for a, nxt in zip(pw, pw[1:]):
        key = (a * n + cp) * n + nxt
        step = steps.get(key)
        if step is None:
            for step in rows[table[inv[a]][cp]]:
                if step[0] != eps and table[inv[step[1]]][nxt] is not None:
                    break
            steps[key] = step
        letter, cp = step
        letters.append(letter)
        carries.append(cp)
    if pw:
        letters.append(table[inv[cp]][pw[-1]])
        carries.append(eps)
    return tuple(letters), tuple(carries)


def shortlex_nf(w: Word, ctx: UniversalContext) -> Word:
    """The shortlex-least word equal to w in U(P)."""
    pw = _stack_reduce(ctx.to_p(w), ctx.pregroup)
    nf, _carries = _nf_carries(pw, ctx.pregroup)
    return ctx.to_gamma(nf)


def _canonical_traced(w: Word, ctx: UniversalContext):
    """(canon, z): the canonical cyclically reduced form of the Gamma word
    w and a conjugator z with canon = z w inv(z) in U(P), both as P-index
    words, in one linear pass.  w is converted with ctx.to_p here, once;
    callers keep canon and z as P words and convert only what they hand
    back (cyclic_reduce its canon, _certify a conjugator).

    w is stack-reduced once to r.  While the last and first letters of the
    word multiply, the last letter x is moved to the front (conjugation by
    x) and merged there: x = [x first] while that product is defined and x
    is not epsilon.  The rest of the word stays reduced, so merges happen
    only at the front and each step shortens the word: the pass is linear
    in |r|.  Only the front letter is ever a product, so the k letters
    moved are r's last k letters, and z = inv(g[:o]) r[m-k:] for the
    least-rotation offset o of the result g and m = |r|.  gamma_to_p is
    increasing, so o is also the least-rotation offset of g's Gamma
    letters.  This is the classical one-pass argument for free groups
    (Lyndon & Schupp, Combinatorial Group Theory, 1977) carried over to
    pregroup words.
    """
    p = ctx.pregroup
    table = p.table
    r = _stack_reduce(ctx.to_p(w), p)
    cur = collections.deque(r)
    k = 0
    while len(cur) >= 2 and table[cur[-1]][cur[0]] is not None:
        x = cur.pop()
        k += 1
        while x != p.eps and cur and table[x][cur[0]] is not None:
            x = table[x][cur.popleft()]
        if x != p.eps:
            cur.appendleft(x)
    g = tuple(cur)
    o = least_rotation_offset(g)
    return g[o:] + g[:o], _p_inverse(g[:o], p) + r[len(r) - k :]


def cyclic_reduce(w: Word, ctx: UniversalContext) -> CyclicWord:
    """Cyclically reduced form of w, as a canonical cyclic word over
    Gamma."""
    return CyclicWord(ctx.to_gamma(_canonical_traced(w, ctx)[0]))


def _preconjugate_p(a: tuple, b: int, p: Pregroup) -> Optional[tuple]:
    """Preconjugation of a nonempty P-index word by pregroup element b.

    Write c~ for inv(c).  For |a| = n >= 2 the result is
    (y, a_1, ..., a_{n-2}, z) with y = [b a_0] and z = [a_{n-1} b~]; for a
    single letter u it is ([b u b~],).  None when a needed product is
    undefined or epsilon.  For b = epsilon, P1 gives y = a_0 and
    z = a_{n-1} (and [epsilon u epsilon] = u), so a word with no epsilon
    letter comes back unchanged.  It is the one preconjugation builder: its
    callers are preconjugate, fastconj.conjugate_linear and
    _rotation_matches, through which conjugate_quadratic and
    constructions.verify_mks and verify_collins read it.

    Lemma.  Let a be cyclically reduced with n >= 2, and let y and z be
    defined and not epsilon.  Then the result is reduced, and it is exactly
    _stack_reduce((b,) + a + (b~,)).  The proof uses only
      P4: if [uv] and [vw] are defined, then [[uv] w] is defined exactly
          when [u [vw]] is, and then they are equal;
      P5: if [uv], [vw] and [wx] are defined, then [uvw] or [vwx] is.
    By P4, [b~ y] = a_0 and [z b] = a_{n-1}.
    Left seam: if [y a_1] were defined, P5 on (a_{n-1}, b~, y, a_1) would
    define [a_{n-1} b~ y] = [a_{n-1} a_0] or [b~ y a_1] = [a_0 a_1]; both
    are undefined, as a is cyclically reduced.
    Right seam: likewise P5 on (a_{n-2}, z, b, a_0) rules out [a_{n-2} z],
    which would define [a_{n-2} a_{n-1}] or [a_{n-1} a_0].
    For n = 2 both seams hold, so P5 on (b~, y, z, b) rules out [y z],
    which would define [b~ y z] = [a_0 z] or [y z b] = [y a_1].
    The interior products are those of a, undefined, and no letter is
    epsilon, so the result is reduced.  _stack_reduce merges b and a_0 into
    y on an empty stack, pushes a_1 .. a_{n-1} unmerged (left seam, then a
    reduced), merges a_{n-1} and b~ into z, and pushes z (right seam; for
    n = 2 the top is y).
    Stallings, Group Theory and Three-Dimensional Manifolds (1971), 3.A.
    """
    eps, b_inv = p.eps, p.inv[b]
    if len(a) == 1:
        y = p.mul3(b, a[0], b_inv)
        return None if y is None or y == eps else (y,)
    y, z = p.table[b][a[0]], p.table[a[-1]][b_inv]
    if y is None or z is None or y == eps or z == eps:
        return None
    return (y,) + a[1:-1] + (z,)


def _rotation_matches(g_p: tuple, f_p: tuple, candidates, p: Pregroup):
    """The (i, b) with the preconjugation of rotation i of g_p by b equal
    to f_p in U(P), rotation-major, where b runs through candidates(rotation)
    in its order.  Every rotation x preconjugator search reads this one
    loop, so callers taking the first hit get the least pair.  g_p and f_p
    are cyclically reduced, so each rotation is too, and by the lemma of
    _preconjugate_p every preconjugation read here is reduced, as
    _interleaving_equal requires."""
    for i in range(len(g_p)):
        rot = g_p[i:] + g_p[:i]
        for b in candidates(rot):
            cand = _preconjugate_p(rot, b, p)
            if cand is not None and _interleaving_equal(cand, f_p, p):
                yield i, b


def preconjugate(c: CyclicWord, b: int, ctx: UniversalContext) -> Optional[CyclicWord]:
    """Preconjugation of the canonical representative by pregroup element b
    (see _preconjugate_p); None when it is not defined.  PregroupError
    when b is no element of the pregroup."""
    if not 0 <= b < len(ctx.pregroup):
        raise PregroupError(f"pregroup element {b} out of range")
    if len(c) == 0:
        return c
    out = _preconjugate_p(ctx.to_p(c.canon), b, ctx.pregroup)
    if out is None:
        return None
    return CyclicWord.of(ctx.to_gamma(out))


def letter_conjugacy_closure(letter: int, ctx: UniversalContext) -> frozenset:
    """All Gamma letters reachable from `letter` by preconjugations
    x -> [c x inv(c)]."""
    (start,) = ctx.to_p((letter,))
    return frozenset(ctx.to_gamma(_letter_closure_traced(start, ctx.pregroup)))


def _letter_closure_traced(start: int, p: Pregroup) -> dict:
    """The BFS tree of the closure of P element start under x -> [c x
    inv(c)], start not epsilon: it maps each P index reached to (previous
    P index, conjugating c), the start to None, so its keys are the
    closure."""
    inv, eps, mul3 = p.inv, p.eps, p.mul3

    def moves(x):
        for c in range(len(inv)):
            y = mul3(c, x, inv[c])
            if y is not None and y != eps:
                yield y, c

    return _bfs_tree(start, moves)


def _bfs_tree(start, moves) -> dict:
    """The BFS tree from start, where moves(x) yields the steps (y, *label)
    out of node x: it maps each node reached to (previous node, *label) and
    start to None, in the order found, so a node's path never changes once
    it is in the tree.  A step is unpacked only when it reaches a new node,
    as most steps of the letter closure do not."""
    parents = {start: None}
    queue = [start]  # grows while it is read: BFS order
    for x in queue:
        for step in moves(x):
            y = step[0]
            if y not in parents:
                parents[y] = (x, *step[1:])
                queue.append(y)
    return parents


def _bfs_path(parents: dict, target) -> list:
    """Steps (node, *label) from the root of a BFS tree to target, root
    side first; parents maps each node to (previous node, *label) and the
    root to None."""
    path = []
    node = target
    while parents[node] is not None:
        prev, *label = parents[node]
        path.append((node, *label))
        node = prev
    path.reverse()
    return path


def _closure_conjugator(parents: dict, target: int) -> tuple:
    """P word x with x . start . inv(x) = target in U(P), from the BFS
    tree of start's closure (see _letter_closure_traced)."""
    # target = c_k ( ... (c_1 . start . inv(c_1)) ... ) inv(c_k); no c is
    # epsilon, since conjugating by epsilon reaches no new element
    return tuple(c for _y, c in reversed(_bfs_path(parents, target)))


def _certify(u: Word, v: Word, x, ctx: UniversalContext) -> Word:
    """The conjugator x, a P-index word, reduced and turned into Gamma
    letters, after checking that it conjugates the Gamma words u to v in
    U(P).  This is where a conjugacy decision leaves P indices: the
    stack reduction drops every epsilon in x, and ctx.to_gamma is the one
    conversion back."""
    cert = ctx.to_gamma(_stack_reduce(x, ctx.pregroup))
    if not equal_in_U(cert + u + involute(cert, ctx.alphabet), v, ctx):
        raise CertificateError(f"conjugator {cert} does not take {u} to {v}")
    return cert


def _conjugacy_prelude(u: Word, v: Word, ctx: UniversalContext, method: str):
    """The steps every conjugacy procedure shares: cyclic reduction of both
    sides, the length test, and the cases of length 0 and 1, which the
    letter conjugacy closure settles.

    Returns (answer, g, f, zu, zv_inv), all but answer P-index words: g, f
    the canonical cyclically reduced forms, g = zu u inv(zu) and f = zv v
    inv(zv) in U(P).  The Gamma words u and v are converted once, by
    _canonical_traced; a conjugator built from these words goes to
    _certify as it is.  answer is None when g and f have the same length
    n >= 2.
    """
    p = ctx.pregroup
    g, zu = _canonical_traced(u, ctx)
    f, zv = _canonical_traced(v, ctx)
    zv_inv = _p_inverse(zv, p)
    answer = None
    if len(g) != len(f):
        answer = ConjugacyAnswer(False, method=method)
    elif len(g) == 0:
        answer = ConjugacyAnswer(True, _certify(u, v, (), ctx), method)
    elif len(g) == 1:
        parents = _letter_closure_traced(g[0], p)
        if f[0] not in parents:
            answer = ConjugacyAnswer(False, method=method)
        else:
            x = zv_inv + _closure_conjugator(parents, f[0]) + zu
            answer = ConjugacyAnswer(True, _certify(u, v, x, ctx), method)
    return answer, g, f, zu, zv_inv


def conjugate_quadratic(u: Word, v: Word, ctx: UniversalContext) -> ConjugacyAnswer:
    """Reference conjugacy decision: cyclic reduction, then rotations times
    preconjugators, each checked with the interleaving DP."""
    answer, g, f, zu, zv_inv = _conjugacy_prelude(u, v, ctx, "quadratic")
    if answer is not None:
        return answer
    p = ctx.pregroup
    every = range(len(p))
    for i, b in _rotation_matches(g, f, lambda _rot: every, p):
        x = zv_inv + (b,) + _p_inverse(g[:i], p) + zu
        return ConjugacyAnswer(True, _certify(u, v, x, ctx), "quadratic")
    return ConjugacyAnswer(False, method="quadratic")
