"""Finite Stallings pregroups: axiom checking and derived rewriting systems.

The partial product is stored as a dense n x n table with None for
undefined entries; axiom checks are exhaustive quantifier sweeps over the
table, which is fine for the table sizes this library targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .rewrite import RewriteSystem, Rule
from .words import Alphabet, Word


class PregroupError(ValueError):
    pass


class Pregroup:
    """A finite set with distinguished epsilon, involution and partial
    product.

    elements are arbitrary distinct tokens; indices into ``elements`` are
    used everywhere internally.  The epsilon row/column is synthesised from
    axiom P1 if missing from the supplied table.
    """

    def __init__(self, elements: Sequence[str], epsilon, involution: dict, product: dict):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PregroupError("duplicate element tokens")
        self.index = {tok: i for i, tok in enumerate(self.elements)}
        if epsilon not in self.index:
            raise PregroupError(f"epsilon {epsilon!r} not among elements")
        self.eps = self.index[epsilon]
        n = len(self.elements)
        inv = list(range(n))
        for x, y in involution.items():
            inv[self.index[x]] = self.index[y]
        for i, j in enumerate(inv):
            if inv[j] != i:
                raise PregroupError("involution is not self-inverse")
        if inv[self.eps] != self.eps:
            raise PregroupError("involution must fix epsilon")
        self.inv = tuple(inv)
        self.table = [[None] * n for _ in range(n)]
        for (x, y), z in product.items():
            i, j, k = self.index[x], self.index[y], self.index[z]
            self.table[i][j] = k
        # synthesise epsilon rows/columns from P1
        for i in range(n):
            self.table[self.eps][i] = i
            self.table[i][self.eps] = i
        self.table = tuple(tuple(row) for row in self.table)
        # letter -> compiled carry step, built on first use by
        # cycrew.universal._carry_step; safe to cache since the table is
        # immutable
        self._carry_steps = {}

    def __len__(self):
        return len(self.elements)

    def mul(self, i: int, j: int) -> Optional[int]:
        """[ij], or None when undefined."""
        return self.table[i][j]

    def defined(self, i: int, j: int) -> bool:
        return self.table[i][j] is not None

    def mul3(self, i: int, j: int, k: int) -> Optional[int]:
        """[ijk] under either bracketing (they agree by P4 when both are
        defined)."""
        ij = self.table[i][j]
        if ij is not None:
            r = self.table[ij][k]
            if r is not None:
                return r
        jk = self.table[j][k]
        if jk is not None:
            return self.table[i][jk]
        return None

    def domain(self):
        n = len(self.elements)
        return [
            (i, j)
            for i in range(n)
            for j in range(n)
            if self.table[i][j] is not None
        ]

    def tokens(self, indices):
        return tuple(self.elements[i] for i in indices)


@dataclass
class AxiomReport:
    """Verdicts per axiom with violation witnesses (element-index tuples)."""

    violations: dict = field(default_factory=dict)  # axiom name -> list of tuples
    checked: tuple = ()

    def ok(self, axiom: Optional[str] = None) -> bool:
        if axiom is not None:
            return not self.violations.get(axiom)
        return all(not v for v in self.violations.values())

    def __bool__(self):
        return self.ok()


def check_axioms(p: Pregroup) -> AxiomReport:
    """Exhaustively verify P1-P5.

    P3 is implied by P1, P2 and P4 but is still swept as a table-consistency
    diagnostic.  Violations are collected with witnesses, not raised.
    """
    n = len(p)
    rep = AxiomReport(checked=("P1", "P2", "P3", "P4", "P5"))
    v = rep.violations
    for name in rep.checked:
        v[name] = []
    for a in range(n):
        if p.mul(a, p.eps) != a or p.mul(p.eps, a) != a:
            v["P1"].append((a,))
        if p.mul(p.inv[a], a) != p.eps or p.mul(a, p.inv[a]) != p.eps:
            v["P2"].append((a,))
    dom = p.domain()
    for a, b in dom:
        if p.mul(p.inv[b], p.inv[a]) != p.inv[p.mul(a, b)]:
            v["P3"].append((a, b))
    by_left = [[] for _ in range(n)]
    for a, b in dom:
        by_left[a].append(b)
    for a, b in dom:
        ab = p.mul(a, b)
        for c in by_left[b]:
            bc = p.mul(b, c)
            left = p.mul(ab, c)
            right = p.mul(a, bc)
            if (left is None) != (right is None):
                v["P4"].append((a, b, c))
            elif left is not None and left != right:
                v["P4"].append((a, b, c))
    for a, b in dom:
        for c in by_left[b]:
            for d in by_left[c]:
                if p.mul3(a, b, c) is None and p.mul3(b, c, d) is None:
                    v["P5"].append((a, b, c, d))
    return rep


def canonical_subgroup(p: Pregroup) -> frozenset:
    """G_P: the elements whose product with every element is defined both
    ways.  Raises PregroupError unless the result is a subgroup (closed
    under product and involution, containing epsilon), as it is in every
    pregroup."""
    n = len(p)
    g = frozenset(
        x
        for x in range(n)
        if all(p.defined(x, y) and p.defined(y, x) for y in range(n))
    )
    if p.eps not in g or any(
        p.inv[x] not in g or any(p.mul(x, y) not in g for y in g) for x in g
    ):
        raise PregroupError("G_P is not a subgroup: the table is not a pregroup")
    return g


def check_p6(p: Pregroup):
    """(f,g) undefined, (f, inv b) and (b, g) defined => b in G_P."""
    gp = canonical_subgroup(p)
    n = len(p)
    witnesses = []
    for b in range(n):
        if b in gp:
            continue
        for f in range(n):
            if not p.defined(f, p.inv[b]):
                continue
            for g in range(n):
                if p.defined(b, g) and not p.defined(f, g):
                    witnesses.append((f, g, b))
    return (not witnesses), witnesses


def check_p7(p: Pregroup):
    """(y,z) defined, (x,[yz]) defined, [yz] not in G_P  =>  every s in
    {x, inv x}, t in {y, z} multiplies with the other both ways."""
    gp = canonical_subgroup(p)
    witnesses = []
    for y, z in p.domain():
        yz = p.mul(y, z)
        if yz in gp:
            continue
        for x in range(len(p)):
            if not p.defined(x, yz):
                continue
            for s in {x, p.inv[x]}:
                for t in {y, z}:
                    if not (p.defined(s, t) and p.defined(t, s)):
                        witnesses.append((x, y, z, s, t))
    ok = not witnesses
    if ok:
        ok6, _ = check_p6(p)
        if not ok6:
            raise PregroupError("P7 holds but P6 fails: the table is not a pregroup")
    return ok, witnesses


def check_p8(p: Pregroup):
    """(a,b) defined => a, b or [ab] lies in G_P."""
    gp = canonical_subgroup(p)
    witnesses = [
        (a, b)
        for a, b in p.domain()
        if a not in gp and b not in gp and p.mul(a, b) not in gp
    ]
    ok = not witnesses
    if ok:
        ok6, _ = check_p6(p)
        if not ok6:
            raise PregroupError("P8 holds but P6 fails: the table is not a pregroup")
    return ok, witnesses


def key_lemma_check(p: Pregroup):
    """Verify the five consequences of Stallings' key lemma on the table.

    All parts hold in any valid pregroup; a failure means the table is
    corrupt.  Returns (ok, dict part -> witness list).
    """
    n = len(p)
    fails = {k: [] for k in (1, 2, 3, 4, 5)}
    dom = p.domain()
    for a, b in dom:
        ab = p.mul(a, b)
        if p.mul(ab, p.inv[b]) != a:
            fails[1].append((a, b))
    for a in range(n):
        for b in range(n):
            if p.defined(a, b):
                continue
            for c in range(n):
                if not p.defined(a, c):
                    continue
                if not p.defined(p.inv[c], b):
                    continue
                if p.defined(p.mul(a, c), p.mul(p.inv[c], b)):
                    fails[2].append((a, b, c))
                # part 4 needs bd defined as well
                for d in range(n):
                    if p.defined(b, d) and p.mul3(p.inv[c], b, d) is None:
                        fails[4].append((a, b, c, d))
    # part 3: abc reduced, a inv(d) and d b defined => [a inv d][d b] c reduced
    for a in range(n):
        for b in range(n):
            if p.defined(a, b) or a == p.eps or b == p.eps:
                continue
            for c in range(n):
                if p.defined(b, c) or c == p.eps:
                    continue
                for d in range(n):
                    if not (p.defined(a, p.inv[d]) and p.defined(d, b)):
                        continue
                    x, y = p.mul(a, p.inv[d]), p.mul(d, b)
                    if p.defined(x, y) or p.defined(y, c):
                        fails[3].append((a, b, c, d))
    # part 5
    for g, b in dom:
        for h in range(n):
            if not p.defined(p.inv[b], h) or p.defined(g, h):
                continue
            for c in range(n):
                if p.mul3(g, b, c) is None:
                    continue
                if p.mul3(p.inv[c], p.inv[b], h) is None:
                    continue
                if not p.defined(b, c):
                    fails[5].append((g, b, c, h))
    ok = all(not v for v in fails.values())
    return ok, fails


def is_reduced(w: Word, p: Pregroup) -> bool:
    """True iff no adjacent product is defined (letters are Gamma indices
    shifted past epsilon; see gamma_alphabet)."""
    for i in range(len(w) - 1):
        if p.defined(gamma_to_p(w[i], p), gamma_to_p(w[i + 1], p)):
            return False
    return True


def gamma_alphabet(p: Pregroup) -> Alphabet:
    """The alphabet Gamma = P minus epsilon, ordered by element order."""
    letters = [tok for i, tok in enumerate(p.elements) if i != p.eps]
    lookup = {tok: k for k, tok in enumerate(letters)}
    pairs = []
    for tok in letters:
        inv_tok = p.elements[p.inv[p.index[tok]]]
        if inv_tok in lookup:
            pairs.append((tok, inv_tok))
    return Alphabet.from_pairs(letters, pairs)


def full_alphabet(p: Pregroup) -> Alphabet:
    """The alphabet of all of P, epsilon included, ordered by element
    order."""
    pairs = [(p.elements[i], p.elements[p.inv[i]]) for i in range(len(p))]
    return Alphabet.from_pairs(p.elements, pairs)


def gamma_to_p(letter: int, p: Pregroup) -> int:
    """Gamma letter index -> P element index (skips the epsilon slot)."""
    return letter if letter < p.eps else letter + 1


def p_to_gamma(x: int, p: Pregroup) -> int:
    if x == p.eps:
        raise PregroupError("epsilon is not a Gamma letter")
    return x if x < p.eps else x - 1


def derive_system(p: Pregroup, variant: str = "S_of_P") -> RewriteSystem:
    """The Thue system S(P) over Gamma, or S_eps over all of P.

    S(P): ab -> 1 when [ab] = eps; ab -> [ab] when defined otherwise;
    ab <-> [ac][inv(c) b] for every linking c when (a,b) is undefined.
    S_eps adds the letter eps, the rule eps -> 1, and drops the
    (a,b)-undefined restriction on the symmetric rules.
    """
    if variant not in ("S_of_P", "S_eps"):
        raise ValueError(f"unknown variant {variant!r}")
    n = len(p)
    rules = []
    if variant == "S_eps":
        alphabet = full_alphabet(p)
        to_letter = lambda x: x
        letters = range(n)
        rules.append(Rule((p.eps,), ()))
    else:
        alphabet = gamma_alphabet(p)
        to_letter = lambda x: p_to_gamma(x, p)
        letters = [x for x in range(n) if x != p.eps]
    seen_sym = set()
    for a in letters:
        for b in letters:
            ab = p.mul(a, b)
            if ab is not None:
                if ab == p.eps and variant == "S_of_P":
                    rules.append(Rule((to_letter(a), to_letter(b)), ()))
                else:
                    rules.append(Rule((to_letter(a), to_letter(b)), (to_letter(ab),)))
            if ab is not None and variant == "S_of_P":
                continue  # symmetric rules only where (a,b) is undefined
            for c in range(n):
                ac = p.mul(a, c)
                cb = p.mul(p.inv[c], b)
                if ac is None or cb is None:
                    continue
                if variant == "S_of_P" and (ac == p.eps or cb == p.eps):
                    continue  # rhs must stay inside Gamma
                lhs = (to_letter(a), to_letter(b))
                rhs = (to_letter(ac), to_letter(cb))
                if lhs == rhs:
                    continue
                key = frozenset((lhs, rhs))
                if key in seen_sym:
                    continue
                seen_sym.add(key)
                rules.append(Rule(lhs, rhs, symmetric=True))
    return RewriteSystem(alphabet, rules)
