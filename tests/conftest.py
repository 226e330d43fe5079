import collections
import functools
import itertools
import math
import random

import pytest

from cycrew import UniversalContext, samples
from cycrew.constructions import FiniteGroupTable, hnn_pregroup
from cycrew.pregroup import AxiomReport, Pregroup
from cycrew.rewrite import BudgetExhausted, ConfluenceReport, RewriteSystem, word_successors

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def corpus_pregroups():
    return [
        ("dinf", samples.dihedral_infinity()),
        ("z4z6", samples.z4_amalgam_z6()),
        ("hnn", samples.hnn_s3()),
        ("free", samples.free_pregroup(2)),
        ("z4-table", samples.z4_table()),
        ("s3-table", samples.s3_table()),
    ]


def hnn_cyclic(n, k):
    """HNN(Z_n, t; t^-1 A t = A), A the subgroup of order k, phi the
    identity."""
    H = FiniteGroupTable.cyclic(n, "x")
    sub = [tok for i, tok in enumerate(H.elements) if i % (n // k) == 0]
    return hnn_pregroup(H, sub, sub, {tok: tok for tok in sub})


def hnn_z10_z2():
    """HNN(Z10, t; t^-1 A t = A) with A of order 2; |P| = 110."""
    return hnn_cyclic(10, 2)


def p6_failing():
    """The smallest pregroup on which P6 fails: epsilon, x, x~, y, y~ and
    z = z~, with [xz] = y, [x~y] = z, [yz] = x, [y~x] = z, [zx~] = y~ and
    [zy~] = x~ besides the epsilon and inverse entries.  P1-P5 hold, G_P =
    {epsilon}, and check_p6 gives the witness (f, g, b) = (x, y~, z)."""
    inverse = {"x": "X", "X": "x", "y": "Y", "Y": "y", "z": "z"}
    product = {(a, b): "e" for a, b in inverse.items()}
    product.update({
        ("x", "z"): "y", ("X", "y"): "z", ("y", "z"): "x",
        ("Y", "x"): "z", ("z", "X"): "Y", ("z", "Y"): "X",
    })
    return Pregroup(("e", "x", "X", "y", "Y", "z"), "e", inverse, product)


def ref_reach(start, step, max_len=math.inf, max_nodes=math.inf, goal=frozenset()):
    """Breadth-first search from start, where step(node) lists the
    successors of node: nodes are expanded first in, first out, and the
    successors of each in the order step lists them.  A successor longer
    than max_len is dropped, and the search expands no node once it has
    seen max_nodes nodes, or a node of goal.

    Returns (seen, over_length, unexpanded): the set of nodes reached,
    whether some successor was dropped for its length, and whether seen
    nodes were left unexpanded when the search stopped.  It shares no code
    with rewrite._Descendants, the search it checks; with max_len at its
    default, the nodes need no length."""
    seen = {start}
    queue = collections.deque([start])
    over_length = False
    met = start in goal
    while queue and len(seen) < max_nodes and not met:
        for s in step(queue.popleft()):
            if max_len < math.inf and len(s) > max_len:
                over_length = True
            elif s not in seen:
                seen.add(s)
                queue.append(s)
                met = met or s in goal
    return seen, over_length, bool(queue)


def ref_joiner(system, max_nodes=2_000):
    """joinable(y, z) for the words of system: whether y and z join
    strongly, some w with y ->(<=1) w <-* z or y ->* w <-(<=1) z.  It tries
    the one-step meet first, then a search from y for the one-step meet of
    z and one from z for that of y, over words of at most
    max(|y|, |z|) + 2 m(S) letters and max_nodes nodes.  When neither
    search meets and a bound cut either one, nothing is decided and
    BudgetExhausted is raised."""

    @functools.cache
    def step(w):
        return [y for y, _rid, _pos in word_successors(w, system)]

    @functools.cache
    def meet(w):
        return frozenset([w, *step(w)])

    def joinable(y, z):
        if not meet(y).isdisjoint(meet(z)):
            return True
        cap = max(len(y), len(z)) + 2 * system.m_of
        cut = False
        for a, b in ((y, z), (z, y)):
            seen, over_length, unexpanded = ref_reach(a, step, cap, max_nodes, meet(b))
            if not seen.isdisjoint(meet(b)):
                return True
            cut = cut or over_length or unexpanded
        if cut:
            fmt = system.alphabet.format
            raise BudgetExhausted(
                f"no strong join of {fmt(y)!r} and {fmt(z)!r} within the search bound"
            )
        return False

    return joinable


def check_strong_confluence_naive(system: RewriteSystem, max_len: int) -> ConfluenceReport:
    """Enumerate every word up to max_len and test all its divergences
    with ref_joiner.  Exponential; the oracle for check_strong_confluence
    on small systems."""
    if system.has_anchored_rules():
        raise ValueError("strong confluence check requires an unanchored system")
    joinable = ref_joiner(system)
    k = len(system.alphabet)
    for n in range(max_len + 1):
        for x in itertools.product(range(k), repeat=n):
            succs = [y for y, _i, _p in word_successors(x, system)]
            for y, z in itertools.combinations(succs, 2):
                if y != z and not joinable(y, z):
                    return ConfluenceReport(False, (x, y, z))
    return ConfluenceReport(True)


def ref_check_axioms(p: Pregroup) -> AxiomReport:
    """Exhaustively verify P1-P5 as quantifier sweeps through Pregroup.mul,
    mul3 and domain; the row passes of check_axioms must return exactly
    its results, witness order included.

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


def census_tables(n):
    """Every labelled pregroup table on n elements e, x1, ..., with epsilon
    e and, for each number k of swapped pairs, the involution that swaps
    x1 x2, ..., x(2k-1) x(2k) and fixes the rest.  Not reduced up to
    isomorphism.

    A backtracking search fills the cells (a, b) off the epsilon row and
    column and off [a a~] = e (P1, P2), each with its P3 partner
    [b~ a~] = [ab]~, by undefined or a letter (never e: [ab] = e forces
    b = a~ by P4).  Each filled pair of cells is pruned by P4 on every
    triple whose four products are filled, and a full table is kept when
    ref_check_axioms passes it."""
    found = []
    elements = ["e"] + [f"x{i}" for i in range(1, n)]
    for pairs in range((n - 1) // 2 + 1):
        inv = list(range(n))
        for i in range(1, 2 * pairs, 2):
            inv[i], inv[i + 1] = i + 1, i
        table = [[None] * n for _ in range(n)]
        filled = [[False] * n for _ in range(n)]
        for a in range(n):
            table[0][a] = table[a][0] = a
            table[a][inv[a]] = 0
            filled[0][a] = filled[a][0] = filled[a][inv[a]] = True
        cells = [
            (a, b) for a in range(1, n) for b in range(1, n)
            if b != inv[a] and (a, b) <= (inv[b], inv[a])
        ]

        def p4(a, b, c):
            """P4 holds at (a, b, c), or a product it reads is not filled."""
            ab, bc = table[a][b], table[b][c]
            if ab is None or bc is None or not (filled[ab][c] and filled[a][bc]):
                return True
            return table[ab][c] == table[a][bc]

        def p4_around(a, b):
            """P4 at every triple that reads the cell (a, b)."""
            r = range(n)
            return (
                all(p4(a, b, z) and p4(z, a, b) for z in r)
                and all(p4(x, y, b) for x in r for y in r if table[x][y] == a)
                and all(p4(a, y, z) for y in r for z in r if table[y][z] == b)
            )

        def fill(i):
            if i == len(cells):
                product = {
                    (elements[a], elements[b]): elements[c]
                    for a, row in enumerate(table) for b, c in enumerate(row) if c is not None
                }
                involution = {elements[a]: elements[b] for a, b in enumerate(inv)}
                p = Pregroup(elements, "e", involution, product)
                if ref_check_axioms(p):
                    found.append(p)
                return
            a, b = cells[i]
            a2, b2 = inv[b], inv[a]
            for c in (None, *range(1, n)):
                c2 = None if c is None else inv[c]
                if (a, b) == (a2, b2) and c != c2:
                    continue
                table[a][b], table[a2][b2] = c, c2
                filled[a][b] = filled[a2][b2] = True
                if p4_around(a, b) and p4_around(a2, b2):
                    fill(i + 1)
                filled[a][b] = filled[a2][b2] = False
            table[a][b] = table[a2][b2] = None

        fill(0)
    return found


@pytest.fixture(scope="session")
def census():
    """Every labelled pregroup table on 2-7 elements (census_tables), 350
    in all, by size."""
    return [p for n in range(2, 8) for p in census_tables(n)]


@pytest.fixture(scope="session")
def dinf():
    return samples.dihedral_infinity()


@pytest.fixture(scope="session")
def z4z6():
    return samples.z4_amalgam_z6()


@pytest.fixture(scope="session")
def hnn():
    return samples.hnn_s3()


@pytest.fixture(scope="session")
def dinf_ctx(dinf):
    return UniversalContext(dinf)


@pytest.fixture(scope="session")
def z4z6_ctx(z4z6):
    return UniversalContext(z4z6)


@pytest.fixture(scope="session")
def hnn_ctx(hnn):
    return UniversalContext(hnn)


@pytest.fixture(scope="session")
def free_ctx():
    return UniversalContext(samples.free_pregroup(2))


DP_SAMPLES = {
    "free2": lambda: samples.free_pregroup(2),
    "s3": lambda: samples.s3_table(),
    "dinf": samples.dihedral_infinity,
    "z4z6": samples.z4_amalgam_z6,
    "hnn_s3": samples.hnn_s3,
    "hnn_z10_z2": hnn_z10_z2,
    "p6_failing": p6_failing,
}


@pytest.fixture(scope="module", params=sorted(DP_SAMPLES))
def dp_ctx(request):
    """A context over each pregroup the carry passes are tested on."""
    return UniversalContext(DP_SAMPLES[request.param]())


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_word(rng, k, max_len, min_len=0):
    n = rng.randrange(min_len, max_len + 1)
    return tuple(rng.randrange(k) for _ in range(n))


def conjugated(rng, ctx, w, max_conj=3):
    """w conjugated by a random short word, as an unreduced gamma word."""
    from cycrew.words import involute

    x = random_word(rng, len(ctx.alphabet), max_conj)
    return x + w + involute(x, ctx.alphabet)
