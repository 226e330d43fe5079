"""Ready-made systems, groups and pregroups used in the documentation and
the test suite."""

from __future__ import annotations

from .constructions import (
    AmalgamPregroup,
    Embedding,
    FiniteGroupTable,
    HnnPregroup,
    amalgam_pregroup,
    hnn_pregroup,
)
from .pregroup import Pregroup
from .rewrite import RewriteSystem, Rule
from .words import Alphabet

_LOWER = "abcdefghij"


def free_group_alphabet(rank: int = 2) -> Alphabet:
    """Letters a, A, b, B, ... with a <-> A paired."""
    letters = []
    pairs = []
    for i in range(rank):
        lo = _LOWER[i]
        letters += [lo, lo.upper()]
        pairs.append((lo, lo.upper()))
    return Alphabet.from_pairs(letters, pairs)


def free_group_system(rank: int = 2) -> RewriteSystem:
    """The strongly confluent, terminating system a A -> 1 for each pair."""
    a = free_group_alphabet(rank)
    rules = [Rule((i, a.involution[i]), ()) for i in range(len(a))]
    return RewriteSystem(a, rules)


def four_letter_cycle_system() -> RewriteSystem:
    """Four length-preserving rules over {a,b,c,d}: confluent on words but
    not on cyclic words."""
    a = Alphabet.from_pairs("abcd", [])
    w = a.word
    rules = [
        Rule(w("abc"), w("bac")),
        Rule(w("cda"), w("dca")),
        Rule(w("bad"), w("abd")),
        Rule(w("dcb"), w("cdb")),
    ]
    return RewriteSystem(a, rules)


def growing_cycle_system() -> RewriteSystem:
    """ba -> abb: terminating on words, non-terminating on cyclic words."""
    a = Alphabet.from_pairs("ab", [])
    return RewriteSystem(a, [Rule(a.word("ba"), a.word("abb"))])


def z2_table(names=("e", "a")) -> FiniteGroupTable:
    e, a = names
    return FiniteGroupTable(
        [e, a], e, {(e, e): e, (e, a): a, (a, e): a, (a, a): e}
    )


def z4_table() -> FiniteGroupTable:
    return FiniteGroupTable.cyclic(4, "x")


def z6_table() -> FiniteGroupTable:
    return FiniteGroupTable.cyclic(6, "y")


def s3_table() -> FiniteGroupTable:
    """Symmetric group on 3 points; r = (123), s = (12)."""
    perms = {
        "e": (0, 1, 2),
        "r": (1, 2, 0),
        "r2": (2, 0, 1),
        "s": (1, 0, 2),
        "rs": (2, 1, 0),
        "r2s": (0, 2, 1),
    }
    by_perm = {v: k for k, v in perms.items()}

    def mul(x, y):
        px, py = perms[x], perms[y]
        return by_perm[tuple(px[py[i]] for i in range(3))]

    return FiniteGroupTable.from_function(list(perms), "e", mul)


def trivial_table() -> FiniteGroupTable:
    return FiniteGroupTable(["e"], "e", {("e", "e"): "e"})


def dihedral_infinity() -> AmalgamPregroup:
    """Z2 * Z2 over the trivial subgroup: the 3-element pregroup of the
    infinite dihedral group."""
    A = z2_table(("e", "a"))
    B = z2_table(("e", "b"))
    H = trivial_table()
    iA = Embedding.from_tokens(H, A, {"e": "e"})
    iB = Embedding.from_tokens(H, B, {"e": "e"})
    return amalgam_pregroup(A, B, iA, iB)


def z4_amalgam_z6() -> AmalgamPregroup:
    """Z4 *_{Z2} Z6 with the Z2 identified as x^2 = y^3; 8 elements."""
    A = z4_table()
    B = z6_table()
    H = z2_table(("e", "h"))
    iA = Embedding.from_tokens(H, A, {"e": "e", "h": "x2"})
    iB = Embedding.from_tokens(H, B, {"e": "e", "h": "y3"})
    return amalgam_pregroup(A, B, iA, iB)


def hnn_s3() -> HnnPregroup:
    """HNN(S3, t; t^-1 <s> t = <s>) with phi the identity on <s>."""
    H = s3_table()
    sub = ("e", "s")
    return hnn_pregroup(H, sub, sub, {"e": "e", "s": "s"})


def free_pregroup(rank: int = 1) -> Pregroup:
    """The (2 rank + 1)-element pregroup of the free group of given rank:
    only products with epsilon and inverse pairs are defined."""
    tokens = ["e"]
    involution = {}
    product = {}
    for i in range(rank):
        lo, up = _LOWER[i], _LOWER[i].upper()
        tokens += [lo, up]
        involution[lo] = up
        involution[up] = lo
        product[(lo, up)] = "e"
        product[(up, lo)] = "e"
    return Pregroup(tokens, "e", involution, product)

