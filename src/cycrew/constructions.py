"""Pregroups from finite group data: amalgams, HNN extensions, and the
classical conjugacy criteria as replayable diagnostics.

An amalgamated product A *_H B yields the pregroup P = A u B with products
defined exactly within a factor.  An HNN extension HNN(H, t; t^-1 A t = B)
yields P = H u Ht^-1H u HtH, where the double cosets are stored canonically
as (u, sign, v) with u a fixed left-transversal representative (the least
element index of its coset).  Both builders take their edge group the same
way: two subgroups as token lists and an isomorphism phi between them as a
token dict, which one checker, _isomorphism, turns into an index map.

The verify_* functions classify conjugate pairs into the cases of the
classical amalgam / HNN conjugacy theorems; they are oracles for testing,
not the primary decision path.  Their rotation x preconjugator searches and
BFS path walks are those of conjugate_quadratic (universal._rotation_matches
and universal._bfs_path), run over the subgroup pools that each theorem
names, and Collins' chain through A u B builds its BFS tree with
universal._bfs_tree, as the letter conjugacy closure does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .pregroup import (
    Pregroup,
    PregroupError,
    _require_pregroup,
    canonical_subgroup,
    check_p7,
    check_p8,
)
from .universal import (
    CertificateError,
    UniversalContext,
    _bfs_path,
    _bfs_tree,
    _canonical_traced,
    _interleaving_equal,
    _letter_closure_traced,
    _rotation_matches,
    _stack_reduce,
)
from .words import CyclicWord, Word


class InvalidEmbedding(ValueError):
    """Subgroup token lists and a map phi, as amalgam_pregroup and
    hnn_pregroup take them, that are not an isomorphism between subgroups;
    or a --map or --phi value that the CLI cannot read as phi."""


class NotAmalgamContext(TypeError):
    pass


class NotHnnContext(TypeError):
    pass


class InHSubgroup(ValueError):
    """The cyclic word lies in the base subgroup; use letter machinery."""


class FiniteGroupTable(Pregroup):
    """A finite group given by a full multiplication table: a pregroup whose
    product is defined everywhere, so that U(P) is the group itself.

    The involution is the two-sided inverse.  On a total table P1 is the
    identity law, P2 the inverse law and P4 associativity, so the group laws
    are checked by check_axioms on construction.  Elements are string tokens;
    indices give the element order used for transversal choices.
    """

    def __init__(self, elements: Sequence[str], identity: str, product: dict):
        elements = tuple(elements)
        known = set(elements)
        if identity not in known:
            raise PregroupError(f"identity {identity!r} not among elements")
        for (x, y), z in product.items():
            for tok in (x, y, z):
                if tok not in known:
                    raise ValueError(f"product names unknown token {tok!r}")
        for x in elements:
            for y in elements:
                if (x, y) not in product:
                    raise ValueError(f"product table incomplete at ({x}, {y})")
        # an element without a two-sided inverse is left fixed by the
        # involution, and P2 then fails at it
        inverse = {
            x: y
            for x in elements
            for y in elements
            if product[x, y] == identity == product[y, x]
        }
        super().__init__(elements, identity, inverse, product)
        _require_pregroup(self, "group law")

    @classmethod
    def from_function(cls, elements: Sequence[str], identity: str, mul) -> "FiniteGroupTable":
        product = {(x, y): mul(x, y) for x in elements for y in elements}
        return cls(elements, identity, product)

    @classmethod
    def cyclic(cls, n: int, prefix: str = "g") -> "FiniteGroupTable":
        """Z/nZ with elements e, g, g2, ..."""
        names = ["e"] + [prefix if k == 1 else f"{prefix}{k}" for k in range(1, n)]
        product = {
            (names[i], names[j]): names[(i + j) % n]
            for i in range(n)
            for j in range(n)
        }
        return cls(names, "e", product)


class AmalgamPregroup(Pregroup):
    """Pregroup of A *_H B; factor membership kept for the diagnostics."""

    factor_a: frozenset
    factor_b: frozenset
    subgroup_h: frozenset


class HnnPregroup(Pregroup):
    """Pregroup of HNN(H, t; t^-1 A t = B).

    base_h / sub_a / sub_b are P-index sets; phi maps sub_a to sub_b;
    stable maps each stable-letter index to its (u, sign, v) double-coset
    form with u, v base indices.
    """

    base_h: frozenset
    sub_a: frozenset
    sub_b: frozenset
    phi: dict
    stable: dict
    t_plus: int
    t_minus: int


def _write_group(G: FiniteGroupTable, to_p, tokens, product: dict, involution: dict):
    """Write G's products and inverses into the token tables of a pregroup,
    element x of G standing for the P index to_p[x]."""
    for x in range(len(G)):
        involution[tokens[to_p[x]]] = tokens[to_p[G.inv[x]]]
        for y in range(len(G)):
            product[(tokens[to_p[x]], tokens[to_p[y]])] = tokens[to_p[G.mul(x, y)]]


def _isomorphism(G: FiniteGroupTable, HG, K: FiniteGroupTable, HK, phi: dict) -> dict:
    """phi, a token map from the subgroup HG of G onto the subgroup HK of K,
    as an index map in phi's insertion order.  Raises InvalidEmbedding for a
    token that names no element, a list that is not a subgroup, a phi whose
    keys are not HG or whose values are not HK, and a phi that is not
    injective or not a homomorphism."""
    for group, sub in ((G, HG), (K, HK)):
        unknown = [tok for tok in sub if tok not in group.index]
        if unknown:
            raise InvalidEmbedding(f"unknown elements {unknown} in {list(sub)}")
        if not group.is_subgroup(group.index[tok] for tok in sub):
            raise InvalidEmbedding(f"{list(sub)} is not a subgroup")
    if set(phi) != set(HG) or set(phi.values()) != set(HK):
        raise InvalidEmbedding(
            f"phi maps {list(phi)} to {list(phi.values())}, not {list(HG)} onto {list(HK)}"
        )
    if len(set(phi.values())) != len(phi):
        raise InvalidEmbedding("phi is not injective")
    m = {G.index[x]: K.index[y] for x, y in phi.items()}
    for x in m:
        for y in m:
            if m[G.mul(x, y)] != K.mul(m[x], m[y]):
                raise InvalidEmbedding(
                    f"phi is not a homomorphism at ({G.elements[x]}, {G.elements[y]})"
                )
    return m


def amalgam_pregroup(
    A: FiniteGroupTable, B: FiniteGroupTable, HA, HB, phi: dict
) -> AmalgamPregroup:
    """The pregroup P = A u B of the amalgam A *_H B, where H is the
    subgroup HA of A identified with the subgroup HB of B by phi, an
    isomorphism HA -> HB given as a token dict; products are defined
    exactly within a factor.  An unknown token, a list that is not a
    subgroup, or a phi that is no isomorphism raises InvalidEmbedding.

    A keeps its indices and tokens.  An element phi(h) of B takes the index
    of h; every other element of B takes the next index in B's order, its
    token primed until it differs from every token before it."""
    h_of_b = {b: h for h, b in _isomorphism(A, HA, B, HB, phi).items()}
    tokens = list(A.elements)
    used = set(tokens)
    b_to_p = []
    for j, tok in enumerate(B.elements):
        if j in h_of_b:
            b_to_p.append(h_of_b[j])
            continue
        while tok in used:
            tok += "'"
        used.add(tok)
        b_to_p.append(len(tokens))
        tokens.append(tok)

    product = {}
    involution = {}
    _write_group(A, range(len(A)), tokens, product, involution)
    _write_group(B, b_to_p, tokens, product, involution)

    p = AmalgamPregroup(tokens, A.elements[A.eps], involution, product)
    p.factor_a = frozenset(range(len(A)))
    p.factor_b = frozenset(b_to_p)
    p.subgroup_h = p.factor_a & p.factor_b
    if len(p) != len(A) + len(B) - len(h_of_b):
        raise PregroupError("amalgam self-check: wrong number of elements")
    _require_pregroup(p, "amalgam self-check:")
    if not check_p7(p)[0]:  # raises itself when P7 holds and P6 fails
        raise PregroupError("amalgam self-check: P6 or P7 fails")
    if canonical_subgroup(p) != p.subgroup_h:
        raise PregroupError("amalgam self-check: G_P is not the identified subgroup")
    return p


def hnn_pregroup(
    H: FiniteGroupTable, A, B, phi: dict
) -> HnnPregroup:
    """The pregroup P = H u Ht^-1H u HtH of HNN(H, t; t^-1 A t = B).

    A and B are subgroups of H given by element tokens; phi is an
    isomorphism A -> B as a token dict, checked as amalgam_pregroup checks
    its own.  Double cosets are canonicalised on left transversals: each
    element of HtH is (u, +1, v) with u the least index in its coset uA
    (identifying u a t v = u t phi(a) v), each element of Ht^-1H is
    (u, -1, v) with u least in uB.

    Every product of a stable letter with an element of H, and every
    involution, is read off a per-sign |H| x |H| table of the tokens of
    u t^sign v, built with 2|H|^2 calls of canon.  A stable letter
    u t^s v pinches with exactly the |H| letters u2 t^-s v2 whose u2
    represents the coset v^-1 S, S the subgroup that t^-s absorbs, so no
    pair of stable letters is tested.  A fresh build, its self-check
    included, takes 0.80-0.91 ms at hnn_s3 (|P| = 42), 3.7-4.2 ms at
    HNN(Z10, Z2) (|P| = 110) and 157-175 ms at HNN(Z20, Z2) (|P| = 420),
    where the axiom sweep's per-c loop above 255 elements takes nearly all
    of it: the least of 61 calls (10 at 420) in each of six rounds,
    CPython 3.11 on a 2-core shared x86-64 host.
    """
    phi_idx = _isomorphism(H, A, H, B, phi)
    a_set, b_set = frozenset(phi_idx), frozenset(phi_idx.values())
    # sign -> (the subgroup a stable letter of that sign absorbs on its
    # left, the map that carries it across to the right)
    side = {1: (a_set, phi_idx), -1: (b_set, {v: k for k, v in phi_idx.items()})}

    mul = H.table
    # least[sign][u]: the least index in uA (sign 1) or uB (sign -1)
    least = {
        sign: [min(mul[u][s] for s in sub) for u in range(len(H))]
        for sign, (sub, _across) in side.items()
    }

    def canon(sign, u, v):
        r = least[sign][u]
        return (r, sign, mul[side[sign][1][mul[H.inv[r]][u]]][v])

    tokens = list(H.elements)
    elem_of = {}  # (u, sign, v) canonical -> P index
    for sign, mark in ((1, "t"), (-1, "T")):
        for u in sorted({canon(sign, x, H.eps)[0] for x in range(len(H))}):
            for v in range(len(H)):
                elem_of[(u, sign, v)] = len(tokens)
                tokens.append(f"{H.elements[u]}|{mark}|{H.elements[v]}")
    stable = {idx: key for key, idx in elem_of.items()}
    n, inv = len(H), H.inv
    # named[sign][u][v]: the token of the element u t^sign v of P
    named = {
        sign: [[tokens[elem_of[canon(sign, u, v)]] for v in range(n)] for u in range(n)]
        for sign in side
    }

    involution = {}
    product = {}
    _write_group(H, range(n), tokens, product, involution)
    for idx, (u, sign, v) in stable.items():
        tok, named_s = tokens[idx], named[sign]
        involution[tok] = named[-sign][inv[v]][inv[u]]
        # h (u t^s v) = [hu] t^s v and (u t^s v) h = u t^s [vh]
        for h, row_h, vh in zip(H.elements, mul, mul[v]):
            product[(h, tok)] = named_s[row_h[u]][v]
            product[(tok, h)] = named_s[u][vh]
        # (u t^s v)(u2 t^-s v2) pinches to u [t^s w t^-s] v2 when w = v u2
        # lies in the subgroup that t^-s absorbs: exactly when u2 is the
        # representative of that subgroup's coset v^-1 sub
        u2 = least[-sign][inv[v]]
        pinched = mul[mul[u][side[-sign][1][mul[v][u2]]]]
        for tok2, uwv2 in zip(named[-sign][u2], pinched):
            product[(tok, tok2)] = tokens[uwv2]

    p = HnnPregroup(tokens, H.elements[H.eps], involution, product)
    p.base_h = frozenset(range(len(H)))
    p.sub_a = a_set
    p.sub_b = b_set
    p.phi = phi_idx
    p.stable = stable
    e = H.eps
    p.t_plus = elem_of[canon(1, e, e)]
    p.t_minus = elem_of[canon(-1, e, e)]
    _require_pregroup(p, "HNN self-check:")
    if not check_p8(p)[0]:  # raises itself when P8 holds and P6 fails
        raise PregroupError("HNN self-check: P6 or P8 fails")
    if canonical_subgroup(p) != p.base_h:
        raise PregroupError("HNN self-check: G_P is not the base group")
    return p


def _require_hnn(ctx: UniversalContext) -> HnnPregroup:
    if not isinstance(ctx.pregroup, HnnPregroup):
        raise NotHnnContext("operation needs a context over an HNN pregroup")
    return ctx.pregroup


def _require_amalgam(ctx: UniversalContext) -> AmalgamPregroup:
    if not isinstance(ctx.pregroup, AmalgamPregroup):
        raise NotAmalgamContext("operation needs a context over an amalgam pregroup")
    return ctx.pregroup


def standard_cyclic_form(c: CyclicWord, ctx: UniversalContext) -> Word:
    """Rewrite a cyclically reduced cyclic word over an HNN pregroup into
    the standard form t^{e_1} z_1 ... t^{e_n} z_n (each letter a stable
    letter with trivial left coset part), checking the Britton seam
    condition cyclically.  The output is conjugate to the input by an
    element of the base group."""
    p = _require_hnn(ctx)
    return ctx.to_gamma(_standard_form(ctx.to_p(c.canon), p))


def _standard_form(letters: tuple, p: HnnPregroup) -> tuple:
    """standard_cyclic_form over P indices, from the P letters of the
    canonical representative."""
    if not letters:
        raise InHSubgroup("the empty cyclic word lies in the base group")
    if len(letters) == 1 and letters[0] in p.base_h:
        raise InHSubgroup("cyclic word lies in the base group")
    if any(x in p.base_h for x in letters):
        raise ValueError("cyclic word is not cyclically reduced over P")
    parts = [p.stable[x] for x in letters]
    n = len(parts)
    word = []
    for i in range(n):
        _u, sign, v = parts[i]
        u_next = parts[(i + 1) % n][0]
        z = p.mul(v, u_next)  # base products are total
        t_elem = p.t_plus if sign > 0 else p.t_minus
        word.append(p.mul(t_elem, z))  # the element t^{sign} z
    for i in range(n):
        if p.mul(word[i], word[(i + 1) % n]) is not None:
            raise ValueError("standard form violates the Britton condition")
    # conjugacy guard: word = u1^-1 . rep . u1 in U(P), decided as
    # equal_in_U decides it
    u1 = parts[0][0]
    rep = _stack_reduce((p.inv[u1],) + letters + (u1,), p)
    if not _interleaving_equal(rep, _stack_reduce(word, p), p):
        raise CertificateError("standard form is not conjugate to its input")
    return tuple(word)


@dataclass(frozen=True)
class ClassificationVerdict:
    """Outcome of verify_mks / verify_collins: the case number and the
    witness data needed to replay it."""

    theorem: str
    case: int
    witness: dict = field(default_factory=dict)


def _pool_conjugator(pool, x: int, y: int, p: Pregroup) -> Optional[int]:
    """The least h in pool with [h~ x h] = y, or None."""
    return next((h for h in sorted(pool) if p.mul3(p.inv[h], x, h) == y), None)


def _canonical_pair(g: Word, f: Word, ctx: UniversalContext):
    """The canonical forms of g and f, which the verifiers classify; a
    pair of different lengths is not conjugate: ValueError."""
    g_can, _zg = _canonical_traced(g, ctx)
    f_can, _zf = _canonical_traced(f, ctx)
    if len(g_can) != len(f_can):
        raise ValueError("pair is not conjugate (length mismatch)")
    return g_can, f_can


def verify_mks(g: Word, f: Word, ctx: UniversalContext) -> ClassificationVerdict:
    """Classify a conjugate pair over an amalgam pregroup into the cases of
    the classical amalgam conjugacy theorem, with replayable witnesses."""
    p = _require_amalgam(ctx)
    g_can, f_can = _canonical_pair(g, f, ctx)
    n = len(g_can)
    if n == 0:
        return ClassificationVerdict("mks", 1, {"h": p.eps, "chain_to_g": [], "chain_to_f": []})
    h_letters = p.subgroup_h - {p.eps}
    if n == 1:
        (g_p,), (f_p,) = g_can, f_can
        parents_g = _letter_closure_traced(g_p, p)
        in_h = sorted(parents_g.keys() & h_letters)
        if in_h:
            h = in_h[0]
            parents_f = _letter_closure_traced(f_p, p)
            # letter closures are conjugacy classes: one without h is disjoint
            if h not in parents_f:
                raise ValueError("pair is not conjugate (letter closures differ)")
            # chains run root -> h; reversing a step (x -> [c x c~]) uses c~
            chains = {"chain_to_g": _bfs_path(parents_g, h), "chain_to_f": _bfs_path(parents_f, h)}
            return ClassificationVerdict("mks", 1, {"h": h, **chains})
        factor = p.factor_a if g_p in p.factor_a else p.factor_b
        if f_p not in factor:
            raise ValueError("pair is not conjugate (factors differ)")
        a = _pool_conjugator(factor, g_p, f_p, p)
        if a is None:
            raise ValueError("pair is not conjugate in the common factor")
        return ClassificationVerdict("mks", 2, {"a": a})
    pre = [p.inv[h] for h in sorted(p.subgroup_h)]
    for i, b in _rotation_matches(g_can, f_can, lambda _rot: pre, p):
        return ClassificationVerdict("mks", 3, {"h": p.inv[b], "i": i})
    raise ValueError("pair admits no amalgam case-3 witness; not conjugate?")


def verify_collins(g: Word, f: Word, ctx: UniversalContext) -> ClassificationVerdict:
    """Classify a conjugate pair over an HNN pregroup into the cases of
    Collins' conjugacy criterion, with replayable witnesses."""
    p = _require_hnn(ctx)
    H = p.base_h
    ab = p.sub_a | p.sub_b
    g_can, f_can = _canonical_pair(g, f, ctx)
    if len(f_can) == 0:
        return ClassificationVerdict("collins", 1, {"chain": [], "h": p.eps})
    if len(f_can) == 1 and f_can[0] in H:
        (g_p,), (f_p,) = g_can, f_can
        if f_p in ab:
            found = _collins_chain(f_p, g_p, p)
            if found is None:
                raise ValueError("no stable-letter conjugation chain found")
            chain, h = found
            return ClassificationVerdict("collins", 1, {"chain": chain, "h": h})
        # case 2: conjugate within the base group
        h = _pool_conjugator(H, g_p, f_p, p)
        if h is None:
            raise ValueError("pair is not conjugate by a base group element")
        parents = _letter_closure_traced(g_p, p)
        return ClassificationVerdict(
            "collins", 2, {"h": h, "g_conjugate_into_ab": not ab.isdisjoint(parents)}
        )
    # case 3: nontrivial t-sequence
    g_std, f_std = _standard_form(g_can, p), _standard_form(f_can, p)

    def stated(letter):  # the pool the sign of a stable letter asks for
        return p.sub_a if p.stable[letter][1] == -1 else p.sub_b

    def pools(rot):
        return [p.inv[c] for c in sorted(stated(rot[0])) + sorted(H - stated(rot[0]))]

    for j, b in _rotation_matches(g_std, f_std, pools, p):
        c = p.inv[b]
        return ClassificationVerdict(
            "collins", 3, {"c": c, "j": j, "sign_constraint_met": c in stated(g_std[j])}
        )
    raise ValueError("pair admits no Collins case-3 witness; not conjugate?")


def _collins_chain(f_p: int, g_p: int, p: HnnPregroup):
    """BFS chain f = c_0, ..., c_l within A u B, each step
    c_i = k^-1 t^-d c_{i-1} t^d k, with a final h in H such that
    h^-1 c_l h = g.  Returns ((c_i, k_i, d_i) step list, h) or None."""
    ab = p.sub_a | p.sub_b
    phi_inv = {v: k for k, v in p.phi.items()}

    def moves(c):
        # phi maps A onto B, so c is in A exactly when phi takes it across
        for mid, delta in ((p.phi.get(c), 1), (phi_inv.get(c), -1)):
            if mid is not None:
                for k in sorted(p.base_h):
                    y = p.mul(p.mul(p.inv[k], mid), k)
                    if y in ab:
                        yield y, k, delta

    parents = _bfs_tree(f_p, moves)
    # endpoint: the first chain element, in BFS order, conjugate to g by
    # some h in H (h = eps when g itself lies in A u B)
    for c in parents:
        h = _pool_conjugator(p.base_h, c, g_p, p)
        if h is not None:
            return _bfs_path(parents, c), h
    return None
