"""Computation in the universal group of a finite pregroup.

Words handed to these operations are over Gamma = P minus epsilon, encoded
as indices into the context's alphabet.  Internally letters are converted
to pregroup element indices by UniversalContext.to_p, which rejects a
letter outside Gamma with AlphabetError.

Cyclic reduction and the choice of canonical rotation are one linear pass,
_canonical_traced: stack-reduce once, then merge the last letter into the
front while their product is defined.

Equality of reduced words and the shortlex normal form are decided by
dynamic programs over interleaving carries b_i = [inv(c_{i-1}) a_i c_i].
Both read one compiled carry step per letter (see _carry_step) and follow
a single carry; the suffix feasibility sets of the normal form are int
bitmasks, advanced through tables of CHUNK-bit chunks (the "Four Russians"
method of Arlazarov, Dinic, Kronrod and Faradzev, 1970), so a pass costs
O(n ceil(|P| / CHUNK)) table reads.  Unlike a search over the symmetric
rules of S(P), both terminate for certain.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Optional

from .pregroup import (
    Pregroup,
    PregroupError,
    check_axioms,
    gamma_alphabet,
    gamma_to_p,
    p_to_gamma,
)
from .words import CyclicWord, Word, involute, least_rotation_offset, validate_word

# bits of a carry mask read per table lookup in _nf_carries; a letter's
# chunk tables hold 2**CHUNK entries per chunk
CHUNK = 6


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
        report = check_axioms(pregroup)
        if not report:
            bad = {k: v for k, v in report.violations.items() if v}
            raise ValueError(f"pregroup fails axioms: {bad}")
        self.pregroup = pregroup
        self.alphabet = gamma_alphabet(pregroup)
        self._p_of = tuple(gamma_to_p(i, pregroup) for i in range(len(self.alphabet)))
        self._gamma_of = tuple(
            None if x == pregroup.eps else p_to_gamma(x, pregroup)
            for x in range(len(pregroup))
        )
        self._closure_cache = {}

    def to_p(self, w: Word) -> tuple:
        """P indices of a Gamma word; AlphabetError (a ValueError) on a
        letter outside Gamma.  Every entry point converts through here."""
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


def reduce_word(w: Word, ctx: UniversalContext) -> Word:
    """Greedy length reduction to a reduced (hence geodesic) word."""
    return ctx.to_gamma(_stack_reduce(ctx.to_p(w), ctx.pregroup))


def _carry_step(p: Pregroup, a: int):
    """The carry step of letter a, compiled on first use and cached on p.

    Returns (steps, chunks).  steps[cp] is the tuple of (letter, c) with
    letter = [inv(cp) a c], leaving out undefined and epsilon products, in
    ascending letter: for a fixed cp the map c -> [inv(cp) a c] is
    injective, since P embeds in U(P), so the letters are distinct and the
    first entry whose c is feasible holds the least letter.  chunks[j][b],
    for b < 2**CHUNK, is the bitmask of the carries cp that step to some
    c = CHUNK * j + k with bit k set in b: the OR of pred[c] over those c,
    pred[c] being the bitmask of the cp with c among steps[cp].  Both are
    read from the sparse rows of p.
    """
    got = p._carry_steps.get(a)
    if got is not None:
        return got
    table = p.table
    rows = p.rows
    eps = p.eps
    arow = rows[a]
    steps = []
    pred = [0] * (-(-len(table) // CHUNK) * CHUNK)
    for cp, x in enumerate(p.inv):
        xa = table[x][a]
        if xa is not None:
            out = [(t, c) for c, t in rows[xa] if t != eps]
        else:
            # [x a] undefined: by P4 only [x [a c]] can be defined
            xrow = table[x]
            out = [(t, c) for c, ac in arow if (t := xrow[ac]) is not None and t != eps]
        out.sort()
        bit = 1 << cp
        for _letter, c in out:
            pred[c] |= bit
        steps.append(tuple(out))
    chunks = []
    for j in range(0, len(pred), CHUNK):
        # entries 2**k .. 2**(k+1) - 1 are entries 0 .. 2**k - 1 with bit k
        row = [0]
        for k in range(CHUNK):
            bits = pred[j + k]
            row += [r | bits for r in row]
        chunks.append(tuple(row))
    got = p._carry_steps[a] = (tuple(steps), tuple(chunks))
    return got


def _interleaving_equal(pu, pv, p: Pregroup) -> bool:
    """Carry DP: pu equals pv in U(P), both reduced over Gamma and of equal
    length.

    The carry after i letters is (a_1..a_i)^-1 b_1..b_i in U(P), and P
    embeds in U(P), so at most one carry fits each prefix and the DP
    follows a single carry.
    """
    if len(pu) != len(pv):
        return False
    cp = p.eps
    for a, b in zip(pu, pv):
        for letter, c in _carry_step(p, a)[0][cp]:
            if letter == b:
                cp = c
                break
        else:
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

    Every word of the same geodesic length equal to pw is an interleaving
    b_i = [inv(c_{i-1}) a_i c_i] with boundary carries epsilon, so the
    normal form is found greedily: at each position emit the least letter
    whose carry can still be completed.  The suffix feasibility sets are
    bitmasks computed right to left, CHUNK bits of the mask per read of
    the compiled chunk tables.  As in _interleaving_equal, the emitted
    prefix fixes the carry, so the greedy pass follows a single carry, and
    since the compiled steps are in ascending letter, the first step to a
    feasible carry is the one taken.

    Returns (nf letters, carries c_1..c_n) with c_n = epsilon.  Raises
    ValueError when no carry sequence exists, which can happen only when pw
    contains epsilon.
    """
    n = len(pw)
    if n == 0:
        return (), ()
    eps = p.eps
    compiled = [_carry_step(p, a) for a in pw]

    chunk_bits = (1 << CHUNK) - 1
    feasible = [0] * (n + 1)
    mask = feasible[n] = 1 << eps
    for i in range(n - 1, -1, -1):
        cur = 0
        for row in compiled[i][1]:
            cur |= row[mask & chunk_bits]
            mask >>= CHUNK
            if not mask:
                break
        feasible[i] = mask = cur
    if not feasible[0] >> eps & 1:
        raise ValueError(f"no carry sequence for {pw}: it is not a word over Gamma")

    letters = []
    carries = []
    cp = eps
    for i in range(n):
        nxt_feasible = feasible[i + 1]
        for letter, c in compiled[i][0][cp]:
            if nxt_feasible >> c & 1:
                break
        else:
            raise RuntimeError(f"carry DP found no feasible letter at position {i}")
        letters.append(letter)
        carries.append(c)
        cp = c
    return tuple(letters), tuple(carries)


def shortlex_nf(w: Word, ctx: UniversalContext) -> Word:
    """The shortlex-least word equal to w in U(P)."""
    pw = _stack_reduce(ctx.to_p(w), ctx.pregroup)
    nf, _carries = _nf_carries(pw, ctx.pregroup)
    return ctx.to_gamma(nf)


def _canonical_traced(w: Word, ctx: UniversalContext):
    """(canonical cyclically reduced Gamma word, z) with canon = z w inv(z)
    in U(P), in one linear pass.

    w is stack-reduced once to r.  While the last and first letters of the
    word multiply, the last letter x is moved to the front (conjugation by
    x) and merged there: x = [x first] while that product is defined and x
    is not epsilon.  The rest of the word stays reduced, so merges happen
    only at the front and each step shortens the word: the pass is linear
    in |r|.  Only the front letter is ever a product, so the k letters
    moved are r's last k letters, and z = inv(g[:o]) r[m-k:] for the
    least-rotation offset o of the result g and m = |r|.  This is the
    classical one-pass argument for free groups (Lyndon & Schupp,
    Combinatorial Group Theory, 1977) carried over to pregroup words.
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
    g = ctx.to_gamma(cur)
    o = least_rotation_offset(g)
    z = involute(g[:o], ctx.alphabet) + ctx.to_gamma(r[len(r) - k :])
    return g[o:] + g[:o], z


def cyclic_reduce(w: Word, ctx: UniversalContext) -> CyclicWord:
    """Cyclically reduced form of w, as a canonical cyclic word over
    Gamma."""
    return CyclicWord(_canonical_traced(w, ctx)[0])


def _preconjugate_p(a: tuple, b: int, p: Pregroup) -> Optional[tuple]:
    """Preconjugation of a nonempty P-index word by pregroup element b.

    For |a| >= 2 the result is ([b a_1], a_2, ..., [a_n inv(b)]); for a
    single letter u it is ([b u inv(b)],).  None when a needed product is
    undefined (or would leave Gamma).
    """
    if b == p.eps:
        return a
    if len(a) == 1:
        first = last = p.mul3(b, a[0], p.inv[b])
        out = (first,)
    else:
        first = p.mul(b, a[0])
        last = p.mul(a[-1], p.inv[b])
        out = (first,) + a[1:-1] + (last,)
    if first is None or last is None or first == p.eps or last == p.eps:
        return None
    return out


def _rotation_matches(g_p: tuple, f_p: tuple, candidates, p: Pregroup):
    """The (i, b) with the preconjugation of rotation i of g_p by b equal
    to f_p in U(P), rotation-major, where b runs through candidates(rotation)
    in its order.  Every rotation x preconjugator search reads this one
    loop, so callers taking the first hit get the least pair."""
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
    x -> [c x inv(c)]; cached per context."""
    closure, _parents = _letter_closure_traced(letter, ctx)
    return closure


def _letter_closure_traced(letter: int, ctx: UniversalContext):
    cached = ctx._closure_cache.get(letter)
    if cached is not None:
        return cached
    p = ctx.pregroup
    (start,) = ctx.to_p((letter,))
    parents = {start: None}  # P idx -> (previous P idx, conjugating c)
    queue = collections.deque([start])
    while queue:
        x = queue.popleft()
        for c in range(len(p)):
            y = p.mul3(c, x, p.inv[c])
            if y is None or y == p.eps or y in parents:
                continue
            parents[y] = (x, c)
            queue.append(y)
    closure = frozenset(p_to_gamma(x, p) for x in parents)
    result = (closure, parents)
    ctx._closure_cache[letter] = result
    return result


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


def _closure_conjugator(letter: int, target: int, ctx: UniversalContext) -> Word:
    """Gamma word x with x . letter . inv(x) = target, from the closure
    BFS tree."""
    p = ctx.pregroup
    _closure, parents = _letter_closure_traced(letter, ctx)
    path = _bfs_path(parents, gamma_to_p(target, p))
    # target = c_k ( ... (c_1 . letter . inv(c_1)) ... ) inv(c_k); no c is
    # epsilon, since conjugating by epsilon reaches no new element
    return tuple(p_to_gamma(c, p) for _y, c in reversed(path))


def _certify(u, v, x, ctx) -> Word:
    """x reduced, after checking that it conjugates u to v in U(P)."""
    cert = reduce_word(x, ctx)
    if not equal_in_U(cert + u + involute(cert, ctx.alphabet), v, ctx):
        raise CertificateError(f"conjugator {cert} does not take {u} to {v}")
    return cert


def _conjugacy_prelude(u: Word, v: Word, ctx: UniversalContext, method: str):
    """The steps every conjugacy procedure shares: cyclic reduction of both
    sides, the length test, and the cases of length 0 and 1, which the
    letter conjugacy closure settles.

    Returns (answer, g, f, zu, zv_inv) with g, f the canonical cyclically
    reduced forms, g = zu u inv(zu) and f = zv v inv(zv) in U(P); answer is
    None when g and f have the same length n >= 2.
    """
    g, zu = _canonical_traced(u, ctx)
    f, zv = _canonical_traced(v, ctx)
    zv_inv = involute(zv, ctx.alphabet)
    answer = None
    if len(g) != len(f):
        answer = ConjugacyAnswer(False, method=method)
    elif len(g) == 0:
        answer = ConjugacyAnswer(True, _certify(u, v, (), ctx), method)
    elif len(g) == 1:
        if f[0] not in letter_conjugacy_closure(g[0], ctx):
            answer = ConjugacyAnswer(False, method=method)
        else:
            x = zv_inv + _closure_conjugator(g[0], f[0], ctx) + zu
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
    for i, b in _rotation_matches(ctx.to_p(g), ctx.to_p(f), lambda _rot: every, p):
        b_word = (p_to_gamma(b, p),) if b != p.eps else ()
        x = zv_inv + b_word + involute(g[:i], ctx.alphabet) + zu
        return ConjugacyAnswer(True, _certify(u, v, x, ctx), "quadratic")
    return ConjugacyAnswer(False, method="quadratic")
