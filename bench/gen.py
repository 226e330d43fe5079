"""Seeded input generation and the benchmark's own answer checks.

Everything here is a pure function of its ``random.Random`` argument, so the
same seed always yields the same inputs.  The conjugacy invariants below are
group homomorphisms U(P) -> K x Z computed from the pregroup tables alone;
they prove non-conjugacy of generated negatives and re-check certificates
without calling the decision procedure under test.
"""

from __future__ import annotations

import hashlib
import math

from cycrew.constructions import AmalgamPregroup, HnnPregroup
from cycrew.pregroup import gamma_to_p, p_to_gamma
from cycrew.words import involute


def digest(obj) -> str:
    """Short stable digest of a repr-able input structure."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def log_uniform_strata(rng, lo: int, hi: int, k: int, cycle: int = 0) -> list:
    """k integers log-uniform in [lo, hi], one from each of k equal strata
    of log n, so every draw of k covers the whole range.  Each draw falls in
    one eighth of its stratum, the eighth whose index is `cycle` mod 8 with
    its three bits reversed, so any 8 consecutive cycles cover every stratum
    evenly and the lengths of a run vary little from seed to seed.  Without
    an rng each is the geometric midpoint of its stratum."""
    span = math.log(hi / lo)
    eighth = int(f"{cycle % 8:03b}"[::-1], 2)

    def position():
        return 0.5 if rng is None else (eighth + rng.random()) / 8

    return [min(hi, max(lo, round(lo * math.exp(span * (j + position()) / k)))) for j in range(k)]


class ReducedWords:
    """Random cyclically reduced words over a pregroup, in P indices."""

    def __init__(self, p):
        self.p = p
        letters = [x for x in range(len(p)) if x != p.eps]
        self.follow = {
            x: [y for y in letters if p.table[x][y] is None] for x in letters
        }
        self.starts = [x for x in letters if self.follow[x]]
        if not self.starts:
            raise ValueError("pregroup has no reduced words of length 2")

    def cyclically_reduced(self, rng, n: int, tries: int = 1000) -> tuple:
        table = self.p.table
        for _ in range(tries):
            w = [rng.choice(self.starts)]
            while len(w) < n:
                w.append(rng.choice(self.follow[w[-1]]))
            if table[w[-1]][w[0]] is None:
                return tuple(w)
        raise ValueError(f"no cyclically reduced word of length {n} found")


def to_gamma(pw, p) -> tuple:
    return tuple(p_to_gamma(x, p) for x in pw)


def to_p(gw, p) -> tuple:
    return tuple(gamma_to_p(x, p) for x in gw)


def random_gamma(rng, k: int, max_len: int) -> tuple:
    return tuple(rng.randrange(k) for _ in range(rng.randint(0, max_len)))


def carriers(p) -> list:
    """G_P: the elements whose products with every element are defined."""
    size = range(len(p))
    return [c for c in size if all(p.table[c][y] is not None and p.table[y][c] is not None
                                   for y in size)]


def interleave(rng, pw, p, carry) -> tuple:
    """A random cyclic interleaving ([c_n^-1 a_1 c_1], ..., [c_{n-1}^-1 a_n c_n])
    of a cyclically reduced word, carries drawn from G_P.  The result equals
    c_n^-1 pw c_n in U(P) and is again cyclically reduced."""
    n = len(pw)
    if n < 2:
        return pw
    cs = [rng.choice(carry) for _ in range(n)]
    return tuple(p.mul3(p.inv[cs[i - 1]], pw[i], cs[i]) for i in range(n))


def conjugate_of(rng, pg, p, alphabet, carry, max_conj: int = 8) -> tuple:
    """A random conjugate of the P-index word pg, as an unreduced Gamma word:
    a random rotation, randomly interleaved, wrapped in a random conjugator."""
    i = rng.randrange(len(pg)) if pg else 0
    core = to_gamma(interleave(rng, pg[i:] + pg[:i], p, carry), p)
    x = random_gamma(rng, len(alphabet), max_conj)
    return x + core + involute(x, alphabet)


class Invariant:
    """A homomorphism from U(P) onto K x Z for a finite group K.

    ``letter_image[x]`` is the image (k, z) of pregroup element x; K is given
    by its multiplication table ``mul`` and inverses ``inv``.  Conjugate
    elements of U(P) have images with equal Z part and K-conjugate K part.
    """

    def __init__(self, letter_image, mul, inv, identity):
        self.letter_image = letter_image
        self.mul = mul
        self.inv = inv
        self.identity = identity
        size = len(mul)
        self.klass = [
            frozenset(mul[mul[g][x]][inv[g]] for g in range(size))
            for x in range(size)
        ]

    def image(self, pw) -> tuple:
        k, z = self.identity, 0
        mul = self.mul
        for x in pw:
            kx, zx = self.letter_image[x]
            k = mul[k][kx]
            z += zx
        return k, z

    def separates(self, pu, pv) -> bool:
        """True when the images prove pu and pv non-conjugate."""
        (ku, zu), (kv, zv) = self.image(pu), self.image(pv)
        return zu != zv or kv not in self.klass[ku]

    def certifies(self, px, pu, pv) -> bool:
        """x u inv(x) = v holds in the image."""
        (kx, _), (ku, zu), (kv, zv) = self.image(px), self.image(pu), self.image(pv)
        mul = self.mul
        return zu == zv and mul[mul[kx][ku]][self.inv[kx]] == kv


def invariant_for(p) -> Invariant:
    """The invariant used for the pregroups this benchmark generates.

    For HNN(H, t; t^-1 A t = A) with phi the identity on A it is
    t -> (1, 1), h -> (h, 0) into H x Z.  For an amalgam of two cyclic
    groups of orders a and b it is the map into Z_m, m = lcm(a, b), sending
    the generators to m / a and m / b; it is defined when the two images of
    the amalgamated subgroup agree, which is checked.
    """
    if isinstance(p, HnnPregroup):
        if any(a != b for a, b in p.phi.items()):
            raise ValueError("invariant needs phi to be the identity")
        base = sorted(p.base_h)
        mul = [[p.table[a][b] for b in base] for a in base]
        inv = [p.inv[a] for a in base]
        image = {}
        for x in range(len(p)):
            if x in p.base_h:
                image[x] = (x, 0)
            else:
                u, sign, v = p.stable[x]
                image[x] = (p.table[u][v], sign)
        return Invariant(image, mul, inv, p.eps)
    if isinstance(p, AmalgamPregroup):
        return _cyclic_amalgam_invariant(p)
    raise ValueError(f"no invariant for {type(p).__name__}")


def _cyclic_amalgam_invariant(p) -> Invariant:
    # each factor is cyclic; find a generator of each and its order
    def generator(factor):
        members = sorted(factor)
        for g in members:
            seen, x = [p.eps], g
            while x != p.eps:
                seen.append(x)
                x = p.table[x][g]
            if len(seen) == len(members):
                return seen  # seen[k] = g^k
        raise ValueError("amalgam factor is not cyclic")

    powers_a = generator(p.factor_a)
    powers_b = generator(p.factor_b)
    na, nb = len(powers_a), len(powers_b)
    m = math.lcm(na, nb)
    image = {}
    for powers, n in ((powers_a, na), (powers_b, nb)):
        for k, x in enumerate(powers):
            val = (k * (m // n)) % m
            if image.setdefault(x, val) != val:
                raise ValueError("amalgamated subgroup is not identified by powers")
    mul = [[(a + b) % m for b in range(m)] for a in range(m)]
    inv = [(-a) % m for a in range(m)]
    return Invariant({x: (k, 0) for x, k in image.items()}, mul, inv, 0)


def negative_for(rng, words: ReducedWords, inv: Invariant, pg: tuple, tries: int = 1000):
    """A cyclically reduced word of the same length as pg that the
    invariant proves non-conjugate to it."""
    for _ in range(tries):
        pv = words.cyclically_reduced(rng, len(pg))
        if inv.separates(pg, pv):
            return pv
    raise ValueError("invariant never separated the pair")


def periodic_word(rng, words: ReducedWords, n: int) -> tuple:
    """w^k with 2 <= |w| <= 6 and k |w| close to n; w^k is cyclically
    reduced because w is.  Lengths |w| without cyclically reduced words
    (odd lengths over an amalgam) are redrawn."""
    for _ in range(100):
        try:
            w = words.cyclically_reduced(rng, rng.randint(2, 6), tries=50)
        except ValueError:
            continue
        return w * max(2, round(n / len(w)))
    raise ValueError("no periodic word found")
