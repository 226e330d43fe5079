import collections
import functools
import itertools
import math
import random
import re

import pytest

from cycrew import UniversalContext, samples
from cycrew.constructions import FiniteGroupTable, hnn_pregroup
from cycrew.formats import ParseError
from cycrew.pregroup import AxiomReport, Pregroup
from cycrew.rewrite import Anchor, BudgetExhausted, ConfluenceReport, RewriteSystem, Rule, word_successors
from cycrew.words import Alphabet, CyclicWord

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
        return word_successors(w, system)

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
            succs = word_successors(x, system)
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


def ref_key_lemma(p: Pregroup):
    """Check the five consequences of Stallings' key lemma on the table.

    All parts hold in any valid pregroup, as P1-P5 imply each of them; a
    failure means the table is corrupt.  Returns (ok, dict part -> witness
    list).
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


def ref_hat(system, inverses):
    """The rules of S-hat as the hat_extension docstring states them, for
    the formal inverses inverses (an InverseAssignment): S, then the added
    rules of each rule in order, of a symmetric rule for l -> r first and
    then r -> l.  For each cut l = pq, p and q nonempty and p shortest
    first, the prefix rule q -> inv(p) r and then the suffix rule
    p -> r inv(q); then for each cut l = puq, p and q nonempty, p shortest
    first and then u shortest first, the whole-word rule
    u -> inv(p) r inv(q).  An added rule equal to one added before it is
    dropped, and so is one whose two sides are equal."""

    def inv(w):
        return tuple(x for a in reversed(w) for x in inverses.words[a])

    added, seen = [], set()
    for r in system.rules:
        for lhs, rhs in [(r.lhs, r.rhs)] + ([(r.rhs, r.lhs)] if r.symmetric else []):
            n = len(lhs)
            new = []
            for i in range(1, n):
                p, q = lhs[:i], lhs[i:]
                new.append(Rule(q, inv(p) + rhs, Anchor.PREFIX))
                new.append(Rule(p, rhs + inv(q), Anchor.SUFFIX))
            for i in range(1, n):
                for j in range(i, n):
                    p, u, q = lhs[:i], lhs[i:j], lhs[j:]
                    new.append(Rule(u, inv(p) + rhs + inv(q), Anchor.WHOLE))
            for rule in new:
                if rule.lhs != rule.rhs and rule not in seen:
                    seen.add(rule)
                    added.append(rule)
    return list(system.rules) + added


def ref_sections(text):
    r"""The sections of a .rws, .pg or .grp text as {header: [(lineno,
    line)]}, read one line at a time as the formats module states them.
    Lines end at "\n", "\r\n" or "\r"; '#' starts a comment that runs
    to the end of its line; what is left is stripped of whitespace and
    skipped when blank.  A line "[name]" starts the section name, and a
    header given twice adds to the one section; a line before any header
    is an error."""
    sections, current = {}, None
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.partition("#")[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), [])
        elif line and current is None:
            raise ParseError(f"content before any section: {line!r}", lineno)
        elif line:
            current.append((lineno, line))
    return sections


def _ref_entry(entries, key):
    """(lineno, value) of the one 'key:' line of a section."""
    found = [(no, line[len(key) + 1 :].strip()) for no, line in entries if line.startswith(key + ":")]
    if not found:
        raise ParseError(f"missing {key!r} entry")
    if len(found) > 1:
        raise ParseError(f"{key!r} entry repeated (first given on line {found[0][0]})", found[1][0])
    return found[0]


def _ref_pairs(entries):
    """The (lineno, x, y) of the token pairs of the 'pairs:' lines, "x y"
    each, comma separated."""
    pairs = []
    for no, line in entries:
        if line.startswith("pairs:") and line[6:].strip():
            for chunk in line[6:].split(","):
                if len(chunk.split()) != 2:
                    raise ParseError(f"bad involution pair {chunk.strip()!r}", no)
                pairs.append((no, *chunk.split()))
    return pairs


def _ref_built(build, pairs, head):
    """build(pairs), or the ParseError of its fault at the line of the entry
    at fault: read the head entry, on line head, and then the pairs one at
    a time, and take the first after which build, given the pairs read so
    far, fails with the message of the whole."""
    try:
        return build(pairs)
    except ValueError as exc:
        message = str(exc)
    for k, no in enumerate([head] + [no for no, _x, _y in pairs]):
        try:
            build(pairs[:k])
        except ValueError as exc:
            if str(exc) == message:
                raise ParseError(message, no) from None


def _ref_side(index, tokens, no):
    """A rule side: "1" alone is the empty word, no token is an error."""
    if tokens == ["1"]:
        return ()
    if not tokens:
        raise ParseError("rule side is empty; write '1' for the empty word", no)
    for tok in tokens:
        if tok not in index:
            raise ParseError(f"unknown letter {tok!r}", no)
    return tuple(index[tok] for tok in tokens)


def ref_parse_rws(text):
    """A .rws text as (letters, involution, rules, cyclic pairs), rules as
    (lhs, rhs, anchor, symmetric) tuples, read one line at a time; the
    reference that formats.parse_rws is compared against.

    [alphabet] has one 'letters:' line and 'pairs:' lines.  Checked in
    this order, no letter is the reserved token "1", holds ":" or is a rule
    arrow "->" or "<->", and no letter starts with "[" beside one that ends
    with "]" (a rule "[a -> b]" would read as a header); the alphabet
    built from them and the pairs is refused at the line of the entry at
    fault (_ref_built).  A [rules] line is
    "lhs -> rhs" or "lhs <-> rhs", maybe after a tag "prefix:", "suffix:"
    or "whole:" (space before the colon allowed); it has exactly one arrow
    token.  A [cyclic-rules] line is "u -> v", cut at its first "->"."""
    sections = ref_sections(text)
    if "alphabet" not in sections:
        raise ParseError("missing [alphabet] section")
    no, letters = _ref_entry(sections["alphabet"], "letters")
    letters = letters.split()
    if "1" in letters:
        raise ParseError("'1' is reserved for the empty word", no)
    if any(":" in tok for tok in letters):
        raise ParseError("':' is reserved for anchor tags", no)
    for tok in letters:
        if tok in ("->", "<->"):
            raise ParseError(f"{tok!r} is reserved for rule arrows", no)
    if any(tok.startswith("[") for tok in letters) and any(tok.endswith("]") for tok in letters):
        raise ParseError("a letter starts with '[' and a letter ends with ']'", no)
    alphabet = _ref_built(
        lambda pairs: Alphabet.from_pairs(letters, [(x, y) for _no, x, y in pairs]),
        _ref_pairs(sections["alphabet"]),
        no,
    )
    index = {tok: i for i, tok in enumerate(letters)}
    tags = {"prefix": Anchor.PREFIX, "suffix": Anchor.SUFFIX, "whole": Anchor.WHOLE}
    rules = []
    for no, line in sections.get("rules", []):
        tag, colon, rest = line.partition(":")
        anchor = tags.get(tag.strip(), Anchor.NONE) if colon else Anchor.NONE
        tokens = (rest if anchor is not Anchor.NONE else line).split()
        plain, symmetric = tokens.count("->"), tokens.count("<->")
        if plain and symmetric:
            raise ParseError("rule has both '->' and '<->'", no)
        arrow = "<->" if symmetric else "->"
        if plain + symmetric != 1:
            raise ParseError(f"rule needs exactly one {arrow!r}", no)
        cut = tokens.index(arrow)
        lhs = _ref_side(index, tokens[:cut], no)
        rhs = _ref_side(index, tokens[cut + 1 :], no)
        if symmetric and len(lhs) != len(rhs):
            raise ParseError("symmetric rules must be length preserving", no)
        rules.append((lhs, rhs, anchor, bool(symmetric)))
    cyclic = []
    for no, line in sections.get("cyclic-rules", []):
        tokens = line.split()
        if "->" not in tokens:
            raise ParseError("cyclic rule needs '->'", no)
        cut = tokens.index("->")
        u, v = _ref_side(index, tokens[:cut], no), _ref_side(index, tokens[cut + 1 :], no)
        cyclic.append((CyclicWord.of(u).canon, CyclicWord.of(v).canon))
    return alphabet.letters, alphabet.involution, rules, cyclic


def ref_parse_pg(text):
    """A .pg text as (elements, epsilon, involution, table), read one line
    at a time; the reference that formats.parse_pg is compared against.

    [pregroup] has one 'elements:' and one 'epsilon:' line and 'pairs:'
    lines.  A [product] line is "x y = z" of known elements, and a
    product given twice has one result.  The pregroup built from them is
    refused at the line of the entry at fault (_ref_built)."""
    sections = ref_sections(text)
    if "pregroup" not in sections:
        raise ParseError("missing [pregroup] section")
    entries = sections["pregroup"]
    elements_no, elements = _ref_entry(entries, "elements")
    elements = elements.split()
    epsilon_no, epsilon = _ref_entry(entries, "epsilon")
    pairs = _ref_pairs(entries)
    product = {}
    for no, line in sections.get("product", []):
        tokens = line.split()
        if len(tokens) != 4 or tokens[2] != "=":
            raise ParseError(f"expected 'x y = z', got {line!r}", no)
        for tok in tokens[:2] + tokens[3:]:
            if tok not in elements:
                raise ParseError(f"unknown element {tok!r}", no)
        x, y, _eq, z = tokens
        if product.get((x, y), z) != z:
            raise ParseError(f"product {x} {y} given as both {product[x, y]} and {z}", no)
        product[x, y] = z

    def build(pairs):
        involution = {}
        for _no, x, y in pairs:
            involution[x], involution[y] = y, x
        return Pregroup(elements, epsilon, involution, product)

    # the head entry at fault: the elements if one repeats, else epsilon
    head = elements_no if len(set(elements)) != len(elements) else epsilon_no
    p = _ref_built(build, pairs, head)
    return p.elements, p.eps, p.inv, p.table


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
