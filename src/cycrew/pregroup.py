"""Finite Stallings pregroups: axiom checking and derived rewriting systems.

The partial product is stored as a dense n x n table with None for
undefined entries.  Axiom checks are exhaustive, but run as passes over the
rows of the table rather than as nested quantifier sweeps: P1-P5 cost
O(|dom| * deg) table reads, where dom is the set of defined pairs and deg
the largest number of defined products in a row.  Up to 255 elements the
P4 reads of a defined pair are one comparison of byte strings in C, so
Python steps once per pair rather than once per triple: on a fresh table,
its sparse rows and masks included, the sweep takes 0.38-0.45 ms on hnn_s3
(|P| = 42) and 1.9-2.3 ms on HNN(Z10, Z2) (|P| = 110), the least of 61
calls in each of six rounds, CPython 3.11 on a 2-core shared x86-64 host.
Only check_axioms reports on a table that fails P1-P5: every other reader
that needs a pregroup (derive_system, UniversalContext, the constructions)
refuses it through _require_pregroup, which names the first failing axiom
and its first witness.
G_P, P6 and P7 read the int bitmasks of the defined products, one per row
(Pregroup.masks) and one per column (Pregroup.columns); P8 reads G_P and
the sparse rows.  P6-P8 and G_P mean something only on a table that
satisfies P1-P5.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

from .rewrite import Anchor, RewriteSystem, Rule
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
        use; check_axioms, the bitmask checks and the normal-form
        transducer, which fills each entry from one row, all read these."""
        return tuple(
            tuple([(c, t) for c, t in enumerate(row) if t is not None])
            for row in self.table
        )

    @functools.cached_property
    def masks(self) -> tuple:
        """Per row x, the int bitmask of the y with [xy] defined.  Built
        once, on first use; with the column bitmasks (columns), G_P and the
        P6 and P7 checks read these."""
        return tuple(sum(1 << y for y, _xy in row) for row in self.rows)

    @functools.cached_property
    def columns(self) -> tuple:
        """Per column y, the int bitmask of the x with [xy] defined: the
        transpose of masks.  Built once, on first use."""
        columns = [0] * len(self)
        for x, row in enumerate(self.rows):
            bit = 1 << x
            for y, _xy in row:
                columns[y] |= bit
        return tuple(columns)

    @functools.cached_property
    def _axiom_report(self) -> "AxiomReport":
        """The report of check_axioms, built once, on first use."""
        return _sweep_axioms(self)

    @functools.cached_property
    def _canonical_subgroup(self) -> frozenset:
        """G_P, as canonical_subgroup describes it.  Built once, on first
        use; a table that fails the subgroup test raises on every use."""
        full = (1 << len(self)) - 1
        g = frozenset(x for x, row in enumerate(self.masks) if row == self.columns[x] == full)
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
    Up to 255 elements the deg reads of P4 at a defined pair (a, b) are made
    in C, as one comparison of two byte strings, and Python visits the c of
    that pair only when they differ, to list its witnesses; the strings and
    translation tables of each row are built in C too.  Computed once
    per pregroup, since the table is immutable: a construction's self-check
    and the UniversalContext built on its result share one sweep, and every
    call returns the same report.

    P3 follows from P1, P2 and P4 (Stallings 1971, 3.A), so it is swept,
    as a table-consistency diagnostic, only on a table where one of them
    has a witness; on any other table its witness list is empty.  With c =
    [ab], each step reads [x~ x] = [x x~] = eps (P2) and [eps x] = [x eps]
    = x (P1):
      P4 on (a~, a, b) gives [a~ c] = b, since [eps b] = b;
      P4 on (a, b, b~) gives [c b~] = a, since [a eps] = a;
      P4 on (c~, c, b~) gives [c~ a] = b~, since [eps b~] = b~;
      P4 on (c~, a, a~) gives [b~ a~] = c~, since [c~ eps] = c~,
    which is P3 at (a, b).  Violations are collected with witnesses, not
    raised: P1 and P2 as (a,), P3 as (a, b) in domain order, P4 as (a, b,
    c) and P5 as (a, b, c, d) with each later index ascending.

    P5 is not a sweep over quadruples: [xyz] is undefined exactly when
    both bracketings are, so the P4 pass keeps, per (a, b) in the domain,
    the bitmask of the c in row(b) with [abc] undefined: the c with [(ab)
    c] undefined, read off the row masks, less the P4 witnesses among them.
    P5 fails at (a, b, c, d) exactly when c is in the mask of (a, b) and d
    in that of (b, c).  So a pair whose mask meets none of the c in row(b)
    with a nonzero mask of (b, c) is passed with one test; on a pregroup
    every pair is.
    """
    return p._axiom_report


def _require_pregroup(p: Pregroup, what: str) -> None:
    """Raise PregroupError "{what} {axiom} fails at {witness}" unless p
    satisfies P1-P5, for the first failing axiom and its first witness, in
    element tokens.  Reads the report of check_axioms, which is cached."""
    for name, witnesses in check_axioms(p).violations.items():
        if witnesses:
            raise PregroupError(f"{what} {name} fails at {p.tokens(witnesses[0])}")


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
    # Up to 255 elements, P4 at (a, b) is one comparison of bytes: row b's
    # columns c mapped through row [ab], against its values [bc] mapped
    # through row a, 255 standing for undefined on both sides.  The per-c
    # loop below then runs only where they differ, to list the witnesses.
    by_bytes = len(table) <= 255
    if by_bytes:
        every = bytes(range(256))
        first, second = itemgetter(0), itemgetter(1)
        cols = [bytes(map(first, row)) for row in rows]
        vals = [bytes(map(second, row)) for row in rows]
        trans = [
            bytes.maketrans(col + every.translate(None, col), val.ljust(256, b"\xff"))
            for col, val in zip(cols, vals)
        ]
    undefined = []  # undefined[a][b]: the mask of c with [abc] undefined
    for a, row_a in enumerate(table):
        undefined_a = {}
        for b, ab in rows[a]:
            mask = masks[b] & ~masks[ab]
            if not by_bytes or cols[b].translate(trans[ab]) != vals[b].translate(trans[a]):
                row_ab = table[ab]
                for c, bc in rows[b]:
                    left = row_ab[c]
                    if left != row_a[bc]:
                        p4.append((a, b, c))
                        if left is None:
                            mask ^= 1 << c
            undefined_a[b] = mask
        undefined.append(undefined_a)
    if p1 or p2 or p4:  # else P3 holds: see check_axioms
        p3.extend(
            (a, b)
            for a, row in enumerate(rows)
            for b, ab in row
            if table[inv[b]][inv[a]] != inv[ab]
        )
    # continued[b]: the mask of c in row(b) with some [bcd] undefined
    continued = [sum(1 << c for c, mask in u.items() if mask) for u in undefined]
    for a, undefined_a in enumerate(undefined):
        for b, mask in undefined_a.items():
            mask &= continued[b]
            if mask:
                for c in _bits(mask):
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
    columns = p.columns
    # an f in G_P multiplies with every g, so only the f outside it can fail
    outside = sum(1 << f for f in range(len(p)) if f not in gp)
    witnesses = []
    for b, mask_b in enumerate(masks):
        if b in gp:
            continue
        for f in _bits(columns[p.inv[b]] & outside):
            missing = mask_b & ~masks[f]
            if missing:
                witnesses.extend((f, g, b) for g in _bits(missing))
    return (not witnesses), witnesses


def check_p7(p: Pregroup):
    """(y,z) defined, (x,[yz]) defined, [yz] not in G_P  =>  every s in
    {x, inv x}, t in {y, z} multiplies with the other both ways."""
    gp = canonical_subgroup(p)
    table = p.table
    inv = p.inv
    masks = p.masks
    columns = p.columns
    # both[s]: the t with [st] and [ts] defined
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
        for a, row in enumerate(p.rows)
        if a not in gp
        for b, ab in row
        if b not in gp and ab not in gp
    ]
    return _unless_p6_fails(p, "P8", witnesses)


def _unless_p6_fails(p: Pregroup, axiom: str, witnesses: list):
    """(ok, witnesses) for the check of axiom, P7 or P8.  A table on which
    axiom holds but P6 fails is not a pregroup: PregroupError."""
    if witnesses or check_p6(p)[0]:
        return not witnesses, witnesses
    raise PregroupError(f"{axiom} holds but P6 fails: the table is not a pregroup")


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
    pairs = [(tok, p.elements[p.inv[p.index[tok]]]) for tok in letters]
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
    (a,b)-undefined restriction on the symmetric rules.  Both are defined
    for pregroups (Stallings 1971, 3.A): a table that fails P1-P5 raises
    PregroupError naming the first failing axiom.

    On a pregroup each symmetric pair turns up from both of its ends: by
    P4, inv(c) takes ([ac], [inv(c) b]) back to (a, b).  In S(P) the far
    end is undefined too, since [[ac][inv(c) b]] defined would make [ab]
    defined; and there [ac] is never eps, which would force c = inv(a)
    and [inv(c) b] = [ab].  The far end comes after (a, b) in letter order
    exactly when [ac] > a: [ac] = a only at c = eps (by P4, [inv(a) [ac]]
    = c), where the far end is the pair itself.  So a link c is kept only
    when [ac] > a, a test made once per (a, c) before the loop over b, and
    each pair is kept once, from its lesser end, with lhs < rhs.  The rules
    of letter pairs are built by tuple.__new__, and the RewriteSystem checks
    them (see Rule).
    S_eps takes 1.2-1.6 ms at |P| = 20 (HNN(Z4, Z2), 1,321 rules),
    3.4-3.7 ms at |P| = 30 (HNN(Z6, Z3), 4,447 rules), 6.2-6.6 ms at
    |P| = 42 (hnn_s3, 7,687 rules) and 62-69 ms at |P| = 110 (HNN(Z10,
    Z2), 77,551 rules), the least of 15 calls (7 at 110) in each of five
    runs, on a table whose axioms are already checked, CPython 3.11 on a
    2-core shared x86-64 host.
    """
    if variant not in ("S_of_P", "S_eps"):
        raise ValueError(f"unknown variant {variant!r}")
    _require_pregroup(p, "pregroup axiom")
    n, eps = len(p), p.eps
    table, inv = p.table, p.inv
    gamma = variant == "S_of_P"
    new, none = tuple.__new__, Anchor.NONE
    if gamma:
        alphabet = gamma_alphabet(p)
        letters = [x for x in range(n) if x != eps]
        letter = [x - (x > eps) for x in range(n)]  # Gamma letters; eps has none
        rules = []
    else:
        alphabet = full_alphabet(p)
        letters = letter = range(n)
        rules = [Rule((eps,), ())]
    for a in letters:
        row, la = table[a], letter[a]
        # (letter of [ac], row of inv(c)) for the c with [ac] > a, ascending
        links = [(letter[ac], table[inv[c]]) for c, ac in p.rows[a] if ac > a]
        for b in letters:
            ab, lhs = row[b], (la, letter[b])
            if ab is not None:
                if gamma:
                    rules.append(new(Rule, (lhs, () if ab == eps else (letter[ab],), none, False)))
                    continue  # symmetric rules only where (a,b) is undefined
                rules.append(new(Rule, (lhs, (ab,), none, False)))
            for l_ac, inv_c_row in links:
                cb = inv_c_row[b]
                if cb is not None:
                    rules.append(new(Rule, (lhs, (l_ac, letter[cb]), none, True)))
    return RewriteSystem(alphabet, rules)
