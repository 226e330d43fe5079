"""Pregroups from finite group data: amalgams, HNN extensions, and the
classical conjugacy criteria as replayable diagnostics.

An amalgamated product A *_H B yields the pregroup P = A u B with products
defined exactly within a factor.  An HNN extension HNN(H, t; t^-1 A t = B)
yields P = H u Ht^-1H u HtH, where the double cosets are stored canonically
as (u, sign, v) with u a fixed left-transversal representative (the least
element index of its coset).  The verify_* functions classify conjugate
pairs into the cases of the classical amalgam / HNN conjugacy theorems;
they are oracles for testing, not the primary decision path.  Their
rotation x preconjugator searches and BFS path walks are those of
conjugate_quadratic (universal._rotation_matches and universal._bfs_path),
run over the subgroup pools that each theorem names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .pregroup import (
    Pregroup,
    PregroupError,
    canonical_subgroup,
    check_axioms,
    check_p7,
    check_p8,
    gamma_to_p,
    p_to_gamma,
)
from .universal import (
    CertificateError,
    UniversalContext,
    _bfs_path,
    _canonical_traced,
    _letter_closure_traced,
    _rotation_matches,
    equal_in_U,
)
from .words import CyclicWord, Word, involute


class InvalidEmbedding(ValueError):
    pass


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
        report = check_axioms(self)
        for name, witnesses in report.violations.items():
            if witnesses:
                raise PregroupError(
                    f"group law {name} fails at {self.tokens(witnesses[0])}"
                )

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

    def subgroup_closure(self, gens) -> frozenset:
        got = {self.eps}
        stack = [self.eps]
        try:
            gens = [self.index[g] if isinstance(g, str) else g for g in gens]
        except KeyError as exc:
            raise ValueError(f"generator names unknown token {exc.args[0]!r}") from None
        while stack:
            x = stack.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(x, self.inv[g])):
                    if y not in got:
                        got.add(y)
                        stack.append(y)
        return frozenset(got)


@dataclass(frozen=True)
class Embedding:
    """An injective homomorphism, given element-index-wise."""

    source: FiniteGroupTable
    target: FiniteGroupTable
    mapping: tuple  # source index -> target index

    def __post_init__(self):
        m = self.mapping
        if len(m) != len(self.source):
            raise InvalidEmbedding("mapping size mismatch")
        if len(set(m)) != len(m):
            raise InvalidEmbedding("mapping is not injective")
        if m[self.source.eps] != self.target.eps:
            raise InvalidEmbedding("identity is not preserved")
        for x in range(len(self.source)):
            for y in range(len(self.source)):
                if m[self.source.mul(x, y)] != self.target.mul(m[x], m[y]):
                    raise InvalidEmbedding(
                        f"not a homomorphism at "
                        f"({self.source.elements[x]}, {self.source.elements[y]})"
                    )

    @classmethod
    def from_tokens(cls, source: FiniteGroupTable, target: FiniteGroupTable, pairs: dict) -> "Embedding":
        mapping = [None] * len(source)
        for s_tok, t_tok in pairs.items():
            if s_tok not in source.index or t_tok not in target.index:
                raise InvalidEmbedding(f"unknown element in pair {s_tok}:{t_tok}")
            mapping[source.index[s_tok]] = target.index[t_tok]
        if any(x is None for x in mapping):
            raise InvalidEmbedding("mapping does not cover the source")
        return cls(source, target, tuple(mapping))

    def of(self, i: int) -> int:
        return self.mapping[i]


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


def amalgam_pregroup(
    A: FiniteGroupTable, B: FiniteGroupTable, iA: Embedding, iB: Embedding
) -> AmalgamPregroup:
    """The pregroup P = A u B of the amalgam A *_H B, with iA(h) and iB(h)
    identified; products are defined exactly within a factor.

    A keeps its indices and tokens.  An element iB(h) of B takes the index
    of iA(h); every other element of B takes the next index in B's order,
    its token primed until it differs from every token before it."""
    hA, hB = iA.source, iB.source
    if hA is not hB and (hA.elements != hB.elements or hA.table != hB.table):
        raise InvalidEmbedding("embeddings must share the same source H")
    if iA.target is not A or iB.target is not B:
        raise InvalidEmbedding("embedding targets must be A and B")
    h_size = len(iA.source)
    h_of_b = {iB.of(h): h for h in range(h_size)}
    tokens = list(A.elements)
    used = set(tokens)
    b_to_p = []
    for j, tok in enumerate(B.elements):
        if j in h_of_b:
            b_to_p.append(iA.of(h_of_b[j]))
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
    if len(p) != len(A) + len(B) - h_size:
        raise PregroupError("amalgam self-check: wrong number of elements")
    if not check_axioms(p):
        raise PregroupError("amalgam self-check: P1-P5 fail")
    if not check_p7(p)[0]:  # raises itself when P7 holds and P6 fails
        raise PregroupError("amalgam self-check: P6 or P7 fails")
    if canonical_subgroup(p) != p.subgroup_h:
        raise PregroupError("amalgam self-check: G_P is not the identified subgroup")
    return p


def hnn_pregroup(
    H: FiniteGroupTable, A, B, phi: dict
) -> HnnPregroup:
    """The pregroup P = H u Ht^-1H u HtH of HNN(H, t; t^-1 A t = B).

    A and B are subgroups given by element tokens (or indices); phi is an
    isomorphism A -> B as a token dict.  Double cosets are canonicalised on
    left transversals: each element of HtH is (u, +1, v) with u the least
    index in its coset uA (identifying u a t v = u t phi(a) v), each element
    of Ht^-1H is (u, -1, v) with u least in uB.  A token or index that names
    no element of H raises InvalidEmbedding.
    """
    def element(x):
        i = H.index.get(x) if isinstance(x, str) else x
        if i not in range(len(H)):
            raise InvalidEmbedding(f"unknown element {x!r} of H")
        return i

    a_set = frozenset(element(x) for x in A)
    b_set = frozenset(element(x) for x in B)
    if not H.is_subgroup(a_set) or not H.is_subgroup(b_set):
        raise InvalidEmbedding("A and B must be subgroups of H")
    phi_idx = {element(x): element(y) for x, y in phi.items()}
    if set(phi_idx) != set(a_set) or set(phi_idx.values()) != set(b_set):
        raise InvalidEmbedding("phi must be a bijection A -> B")
    for x in a_set:
        for y in a_set:
            if phi_idx[H.mul(x, y)] != H.mul(phi_idx[x], phi_idx[y]):
                raise InvalidEmbedding("phi is not a homomorphism")
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

    involution = {}
    product = {}
    _write_group(H, range(len(H)), tokens, product, involution)
    for idx, (u, sign, v) in stable.items():
        involution[tokens[idx]] = tokens[elem_of[canon(-sign, H.inv[v], H.inv[u])]]
        for h in range(len(H)):
            product[(tokens[h], tokens[idx])] = tokens[elem_of[canon(sign, mul[h][u], v)]]
            product[(tokens[idx], tokens[h])] = tokens[elem_of[canon(sign, u, mul[v][h])]]
        # (u t^s v)(u2 t^-s v2) pinches to u [t^s w t^-s] v2 when w = v u2
        # lies in the subgroup that t^-s absorbs
        sub, across = side[-sign]
        for idx2, (u2, sign2, v2) in stable.items():
            w = mul[v][u2]
            if sign2 != sign and w in sub:
                product[(tokens[idx], tokens[idx2])] = tokens[mul[mul[u][across[w]]][v2]]

    p = HnnPregroup(tokens, H.elements[H.eps], involution, product)
    p.base_h = frozenset(range(len(H)))
    p.sub_a = a_set
    p.sub_b = b_set
    p.phi = dict(phi_idx)
    p.stable = stable
    e = H.eps
    p.t_plus = elem_of[canon(1, e, e)]
    p.t_minus = elem_of[canon(-1, e, e)]
    if not check_axioms(p):
        raise PregroupError("HNN self-check: P1-P5 fail")
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
    letters = ctx.to_p(c.canon)
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
    result = tuple(p_to_gamma(x, p) for x in word)
    # conjugacy guard: result = u1^-1 . rep . u1 in U(P)
    u1 = parts[0][0]
    conj = () if u1 == p.eps else (p_to_gamma(p.inv[u1], p),)
    if not equal_in_U(conj + c.canon + involute(conj, ctx.alphabet), result, ctx):
        raise CertificateError("standard form is not conjugate to its input")
    return result


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


def verify_mks(g: Word, f: Word, ctx: UniversalContext) -> ClassificationVerdict:
    """Classify a conjugate pair over an amalgam pregroup into the cases of
    the classical amalgam conjugacy theorem, with replayable witnesses."""
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
        _closure, parents_g = _letter_closure_traced(g_can[0], ctx)
        in_h = sorted(parents_g.keys() & h_letters)
        if in_h:
            h = in_h[0]
            _closure_f, parents_f = _letter_closure_traced(f_can[0], ctx)
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
    for i, b in _rotation_matches(ctx.to_p(g_can), ctx.to_p(f_can), lambda _rot: pre, p):
        return ClassificationVerdict("mks", 3, {"h": p.inv[b], "i": i})
    raise ValueError("pair admits no amalgam case-3 witness; not conjugate?")


def verify_collins(g: Word, f: Word, ctx: UniversalContext) -> ClassificationVerdict:
    """Classify a conjugate pair over an HNN pregroup into the cases of
    Collins' conjugacy criterion, with replayable witnesses."""
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
            found = _collins_chain(f_p, g_p, p)
            if found is None:
                raise ValueError("no stable-letter conjugation chain found")
            chain, h = found
            return ClassificationVerdict("collins", 1, {"chain": chain, "h": h})
        # case 2: conjugate within the base group
        h = _pool_conjugator(H, g_p, f_p, p)
        if h is None:
            raise ValueError("pair is not conjugate by a base group element")
        _closure, parents = _letter_closure_traced(g_can[0], ctx)
        return ClassificationVerdict(
            "collins", 2, {"h": h, "g_conjugate_into_ab": not ab.isdisjoint(parents)}
        )
    # case 3: nontrivial t-sequence
    g_std = ctx.to_p(standard_cyclic_form(CyclicWord(g_can), ctx))
    f_std = ctx.to_p(standard_cyclic_form(CyclicWord(f_can), ctx))

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
    phi = p.phi
    phi_inv = {v: k for k, v in phi.items()}
    parents = {f_p: None}
    queue = [f_p]  # grows while it is read: BFS order
    for c in queue:
        # endpoint: a chain element conjugate to g by some h in H
        # (h = eps when g itself lies in A u B)
        h = _pool_conjugator(p.base_h, c, g_p, p)
        if h is not None:
            return _bfs_path(parents, c), h
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
    return None
