"""Finite Stallings pregroups: axiom checking and derived rewriting systems.

The partial product is stored as a dense n x n table with None for
undefined entries.  Axiom checks are exhaustive, but run as passes over the
rows of the table rather than as nested quantifier sweeps: P1-P5 cost
O(|dom| * deg) table reads, where dom is the set of defined pairs and deg
the largest number of defined products in a row, and P6-P8 use per-row
bitmasks of the defined products.
"""

from __future__ import annotations

import functools
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
    used everywhere internally.  Entries of the epsilon row and column that
    the supplied table leaves out are synthesised from axiom P1; stated
    ones are kept, so check_axioms reports any that break P1.
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
        try:
            for x, y in involution.items():
                inv[self.index[x]] = self.index[y]
        except KeyError as exc:
            raise PregroupError(f"involution names unknown token {exc.args[0]!r}") from None
        for i, j in enumerate(inv):
            if inv[j] != i:
                raise PregroupError("involution is not self-inverse")
        if inv[self.eps] != self.eps:
            raise PregroupError("involution must fix epsilon")
        self.inv = tuple(inv)
        self.table = [[None] * n for _ in range(n)]
        # synthesise the epsilon row and column from P1 first, so that the
        # products stated below replace them and check_axioms sees those
        for i in range(n):
            self.table[self.eps][i] = i
            self.table[i][self.eps] = i
        try:
            for (x, y), z in product.items():
                i, j, k = self.index[x], self.index[y], self.index[z]
                self.table[i][j] = k
        except KeyError as exc:
            raise PregroupError(f"product names unknown token {exc.args[0]!r}") from None
        self.table = tuple(tuple(row) for row in self.table)
        # (letter a, carry cp) -> the carry steps, the (letter, c) with
        # letter = [inv(cp) a c] in ascending letter, each entry built on
        # first use by cycrew.universal._carry_step; like rows, safe to
        # cache since the table is immutable.  They stay beside the
        # transducer below because its miss path, which scans them, is hot
        # on the conj benchmark: compiling the steps on each miss without
        # storing them, or filling each entry straight from rows, cost
        # 19-32% of conj ops/s (bench/run.py --seconds 5, seed 1, against
        # this layout on a 2-core shared host); cli was level
        self._carry_steps = {}
        # the normal-form transducer, each entry built on first use by
        # cycrew.universal._nf_carries: the int (a * n + cp) * n + nxt ->
        # the carry step that the normal form takes at letter a from carry
        # cp when nxt follows; one dict with int keys, so the collector
        # tracks one object however many entries it holds
        self._nf_steps = {}

    @functools.cached_property
    def rows(self) -> tuple:
        """The sparse rows of the table: rows[x] is the tuple of (c, [xc])
        over the c with [xc] defined, ascending in c.  Built once, on first
        use; check_axioms, the bitmask checks and the compiled carry steps
        all read these."""
        return tuple(
            tuple([(c, t) for c, t in enumerate(row) if t is not None])
            for row in self.table
        )

    @functools.cached_property
    def masks(self) -> tuple:
        """Per row x, the int bitmask of the y with [xy] defined.  Built
        once, on first use; G_P and the P6 and P7 checks read these."""
        return tuple(sum(1 << y for y, _xy in row) for row in self.rows)

    @functools.cached_property
    def _axiom_report(self) -> "AxiomReport":
        """The report of check_axioms, built once, on first use."""
        return _sweep_axioms(self)

    @functools.cached_property
    def _canonical_subgroup(self) -> frozenset:
        """G_P, as canonical_subgroup describes it.  Built once, on first
        use; a table that fails the subgroup test raises on every use."""
        full = (1 << len(self)) - 1
        masks = self.masks
        full_columns = full
        for mask in masks:
            full_columns &= mask
        g = frozenset(x for x in _bits(full_columns) if masks[x] == full)
        if not self.is_subgroup(g):
            raise PregroupError("G_P is not a subgroup: the table is not a pregroup")
        return g

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

    def is_subgroup(self, subset) -> bool:
        """Whether the element indices in subset contain epsilon and are
        closed under the involution and under products, each of which must
        be defined."""
        s = frozenset(subset)
        return (
            self.eps in s
            and all(self.inv[x] in s for x in s)
            and all(self.table[x][y] in s for x in s for y in s)
        )


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
    """Exhaustively verify P1-P5 in O(|dom| * deg) table reads plus one
    step per witness, deg the largest number of defined products in a row.
    Computed once per pregroup, since the table is immutable: a
    construction's self-check and the UniversalContext built on its result
    share one sweep, and every call returns the same report.

    P3 is implied by P1, P2 and P4 but is still swept as a table-consistency
    diagnostic.  Violations are collected with witnesses, not raised: P1
    and P2 as (a,), P3 as (a, b) in domain order, P4 as (a, b, c) and P5
    as (a, b, c, d) with each later index ascending.

    P5 is not a sweep over quadruples: [xyz] is undefined exactly when
    both bracketings are, so the P4 pass keeps, per (a, b) in the domain,
    the bitmask of the c in row(b) with [abc] undefined: the c with [(ab)
    c] undefined, read off the row masks, less the P4 witnesses among them.
    P5 fails at (a, b, c, d) exactly when c is in the mask of (a, b) and d
    in that of (b, c).
    """
    return p._axiom_report


def _sweep_axioms(p: Pregroup) -> AxiomReport:
    table = p.table
    inv = p.inv
    eps = p.eps
    rep = AxiomReport(checked=("P1", "P2", "P3", "P4", "P5"))
    v = rep.violations
    for name in rep.checked:
        v[name] = []
    p1, p2, p3, p4, p5 = (v[name] for name in rep.checked)
    for a, row in enumerate(table):
        if row[eps] != a or table[eps][a] != a:
            p1.append((a,))
        if table[inv[a]][a] != eps or row[inv[a]] != eps:
            p2.append((a,))
    rows = p.rows
    masks = p.masks
    undefined = []  # undefined[a][b]: the mask of c with [abc] undefined
    for a, row_a in enumerate(table):
        undefined_a = {}
        for b, ab in rows[a]:
            if table[inv[b]][inv[a]] != inv[ab]:
                p3.append((a, b))
            row_ab = table[ab]
            mask = masks[b] & ~masks[ab]
            for c, bc in rows[b]:
                left = row_ab[c]
                if left != row_a[bc]:
                    p4.append((a, b, c))
                    if left is None:
                        mask ^= 1 << c
            undefined_a[b] = mask
        undefined.append(undefined_a)
    # continued[b]: the mask of c in row(b) with some [bcd] undefined
    continued = [sum(1 << c for c, mask in u.items() if mask) for u in undefined]
    for a, undefined_a in enumerate(undefined):
        for b, mask in undefined_a.items():
            for c in _bits(mask & continued[b]):
                p5.extend([(a, b, c, d) for d in _bits(undefined[b][c])])
    return rep


def _bits(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canonical_subgroup(p: Pregroup) -> frozenset:
    """G_P: the elements whose product with every element is defined both
    ways.  Raises PregroupError unless the result is a subgroup (closed
    under product and involution, containing epsilon), as it is in every
    pregroup.  Computed once per pregroup; the table is immutable."""
    return p._canonical_subgroup


def check_p6(p: Pregroup):
    """(f,g) undefined, (f, inv b) and (b, g) defined => b in G_P.

    Witnesses (f, g, b) ascend in b, then f, then g."""
    gp = canonical_subgroup(p)
    masks = p.masks
    witnesses = []
    for b, mask_b in enumerate(masks):
        if b in gp:
            continue
        bit = 1 << p.inv[b]
        for f, mask_f in enumerate(masks):
            if mask_f & bit:
                witnesses.extend((f, g, b) for g in _bits(mask_b & ~mask_f))
    return (not witnesses), witnesses


def check_p7(p: Pregroup):
    """(y,z) defined, (x,[yz]) defined, [yz] not in G_P  =>  every s in
    {x, inv x}, t in {y, z} multiplies with the other both ways."""
    gp = canonical_subgroup(p)
    table = p.table
    inv = p.inv
    masks = p.masks
    # both[s]: the t with [st] and [ts] defined
    columns = [0] * len(p)
    for x, mask in enumerate(masks):
        for y in _bits(mask):
            columns[y] |= 1 << x
    both = [m & c for m, c in zip(masks, columns)]
    # fine[t]: the x such that x and inv x both multiply with t both ways
    fine = [m & sum(1 << inv[x] for x in _bits(m)) for m in both]
    witnesses = []
    for y, row_y in enumerate(table):
        for z in _bits(masks[y]):
            yz = row_y[z]
            if yz in gp:
                continue
            ts = {y, z}
            for x in _bits(columns[yz] & ~(fine[y] & fine[z])):
                for s in {x, inv[x]}:
                    for t in ts:
                        if not both[s] >> t & 1:
                            witnesses.append((x, y, z, s, t))
    return _unless_p6_fails(p, "P7", witnesses)


def check_p8(p: Pregroup):
    """(a,b) defined => a, b or [ab] lies in G_P."""
    gp = canonical_subgroup(p)
    witnesses = [
        (a, b)
        for a, row in enumerate(p.table)
        if a not in gp
        for b, ab in enumerate(row)
        if ab is not None and b not in gp and ab not in gp
    ]
    return _unless_p6_fails(p, "P8", witnesses)


def _unless_p6_fails(p: Pregroup, axiom: str, witnesses: list):
    """(ok, witnesses) for the check of axiom, P7 or P8.  A table on which
    axiom holds but P6 fails is not a pregroup: PregroupError."""
    if witnesses or check_p6(p)[0]:
        return not witnesses, witnesses
    raise PregroupError(f"{axiom} holds but P6 fails: the table is not a pregroup")


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
    table, inv, rows = p.table, p.inv, p.rows
    seen_sym = set()
    for a in letters:
        for b in letters:
            ab = table[a][b]
            if ab is not None:
                if ab == p.eps and variant == "S_of_P":
                    rules.append(Rule((to_letter(a), to_letter(b)), ()))
                else:
                    rules.append(Rule((to_letter(a), to_letter(b)), (to_letter(ab),)))
            if ab is not None and variant == "S_of_P":
                continue  # symmetric rules only where (a,b) is undefined
            for c, ac in rows[a]:  # the c with [ac] defined, ascending
                cb = table[inv[c]][b]
                # in S(P), [ab] is undefined here, so neither product is
                # eps: [ac] = eps forces c = inv(a) and [inv(c) b] = [ab]
                if cb is None:
                    continue
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
