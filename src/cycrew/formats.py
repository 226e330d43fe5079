"""Line-oriented text formats: .rws (rewriting systems), .pg (pregroup
tables), .grp (finite group tables).

All three formats are UTF-8, '#' starts a comment, sections are bracketed
headers.  Words are whitespace-separated letter tokens; the bare token "1"
denotes the empty word on either side of a rule, so "1" is reserved and may
not be used as a letter name.
"""

from __future__ import annotations

from typing import Optional

from .constructions import FiniteGroupTable
from .pregroup import Pregroup
from .rewrite import Anchor, RewriteSystem, Rule
from .words import Alphabet, CyclicWord


# the tags a [rules] line may start with, "prefix:" and the like; a rule
# with no tag is Anchor.NONE
_ANCHOR_TAGS = {a.value: a for a in Anchor if a is not Anchor.NONE}


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _lines(text: str):
    """(lineno, stripped content) for every nonblank, non-comment line."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _sections(text: str):
    """Split into [header] -> list of (lineno, line)."""
    out = {}
    current = None
    for no, line in _lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            out.setdefault(current, [])
        elif current is None:
            raise ParseError(f"content before any section: {line!r}", no)
        else:
            out[current].append((no, line))
    return out


def _keyed(entries, key: str):
    """(lineno, value) of the one 'key:' entry; a missing or repeated key
    is a ParseError.  A section header given twice merges its lines, so a
    repeated block repeats its keys too."""
    tag = key + ":"
    found = [(no, line[len(tag) :].strip()) for no, line in entries if line.startswith(tag)]
    if not found:
        raise ParseError(f"missing {key!r} entry")
    if len(found) > 1:
        (first, _), (again, _) = found[:2]
        raise ParseError(f"{key!r} entry repeated (first given on line {first})", again)
    return found[0]


def _parse_pairs(text: str, no: int):
    pairs = []
    if not text:
        return pairs
    for chunk in text.split(","):
        toks = chunk.split()
        if len(toks) != 2:
            raise ParseError(f"bad involution pair {chunk.strip()!r}", no)
        pairs.append((toks[0], toks[1]))
    return pairs


def _word(alphabet: Alphabet, toks, no: int):
    if toks == ["1"]:
        return ()
    try:
        return alphabet.word(toks)
    except ValueError as exc:
        raise ParseError(str(exc), no) from None


def parse_rws(text: str):
    """Parse a .rws file.

    Returns (RewriteSystem, cyclic_pairs) where cyclic_pairs is the list of
    oriented (CyclicWord, CyclicWord) pairs from [cyclic-rules].
    """
    sections = _sections(text)
    if "alphabet" not in sections:
        raise ParseError("missing [alphabet] section")
    alpha_entries = sections["alphabet"]
    _no, letters_text = _keyed(alpha_entries, "letters")
    letters = letters_text.split()
    if "1" in letters:
        raise ParseError("'1' is reserved for the empty word", _no)
    pairs = []
    for no, line in alpha_entries:
        if line.startswith("pairs:"):
            pairs += _parse_pairs(line[6:].strip(), no)
    try:
        alphabet = Alphabet.from_pairs(letters, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    rules = []
    for no, line in sections.get("rules", []):
        head, sep, rest = line.partition(":")
        anchor = _ANCHOR_TAGS.get(head.strip(), Anchor.NONE) if sep else Anchor.NONE
        body = line if anchor is Anchor.NONE else rest.strip()
        symmetric = " <-> " in f" {body} "
        arrow = "<->" if symmetric else "->"
        toks = body.split()
        if toks.count(arrow) != 1:
            raise ParseError(f"rule needs exactly one {arrow!r}", no)
        cut = toks.index(arrow)
        lhs = _word(alphabet, toks[:cut], no)
        rhs = _word(alphabet, toks[cut + 1 :], no)
        try:
            rules.append(Rule(lhs, rhs, anchor, symmetric))
        except ValueError as exc:
            raise ParseError(str(exc), no) from None
    cyclic_pairs = []
    for no, line in sections.get("cyclic-rules", []):
        toks = line.split()
        if "->" not in toks:
            raise ParseError("cyclic rule needs '->'", no)
        cut = toks.index("->")
        lhs = _word(alphabet, toks[:cut], no)
        rhs = _word(alphabet, toks[cut + 1 :], no)
        cyclic_pairs.append((CyclicWord.of(lhs), CyclicWord.of(rhs)))
    return RewriteSystem(alphabet, rules), cyclic_pairs


def _fmt_word(alphabet: Alphabet, w) -> str:
    return alphabet.format(w) if w else "1"


def emit_rws(system: RewriteSystem, cyclic_pairs=()) -> str:
    a = system.alphabet
    out = ["[alphabet]", f"letters: {' '.join(a.letters)}"]
    pairs = sorted(
        {tuple(sorted((i, a.involution[i]))) for i in range(len(a)) if a.involution[i] != i}
    )
    if pairs:
        out.append(
            "pairs: " + ", ".join(f"{a.letters[i]} {a.letters[j]}" for i, j in pairs)
        )
    out.append("[rules]")
    for r in system.rules:
        arrow = "<->" if r.symmetric else "->"
        line = f"{_fmt_word(a, r.lhs)} {arrow} {_fmt_word(a, r.rhs)}"
        if r.anchor is not Anchor.NONE:
            line = f"{r.anchor.value}: {line}"
        out.append(line)
    if cyclic_pairs:
        out.append("[cyclic-rules]")
        for u, v in cyclic_pairs:
            out.append(f"{_fmt_word(a, u.canon)} -> {_fmt_word(a, v.canon)}")
    return "\n".join(out) + "\n"


def _parse_product(entries, known):
    """A [product] section as {(x, y): z}, every token one of known."""
    product = {}
    for no, line in entries:
        toks = line.split()
        if len(toks) != 4 or toks[2] != "=":
            raise ParseError(f"expected 'x y = z', got {line!r}", no)
        x, y, _eq, z = toks
        for tok in (x, y, z):
            if tok not in known:
                raise ParseError(f"unknown element {tok!r}", no)
        if product.setdefault((x, y), z) != z:
            raise ParseError(f"product {x} {y} given as both {product[x, y]} and {z}", no)
    return product


def parse_pg(text: str) -> Pregroup:
    sections = _sections(text)
    if "pregroup" not in sections:
        raise ParseError("missing [pregroup] section")
    entries = sections["pregroup"]
    _no, elements_text = _keyed(entries, "elements")
    elements = elements_text.split()
    _no, epsilon = _keyed(entries, "epsilon")
    involution = {}
    for no, line in entries:
        if line.startswith("pairs:"):
            for x, y in _parse_pairs(line[6:].strip(), no):
                involution[x] = y
                involution[y] = x
    product = _parse_product(sections.get("product", []), set(elements))
    try:
        return Pregroup(elements, epsilon, involution, product)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def emit_pg(p: Pregroup) -> str:
    toks = p.elements
    out = ["[pregroup]", f"elements: {' '.join(toks)}", f"epsilon: {toks[p.eps]}"]
    pairs = sorted(
        {tuple(sorted((i, p.inv[i]))) for i in range(len(p)) if p.inv[i] != i}
    )
    if pairs:
        out.append("pairs: " + ", ".join(f"{toks[i]} {toks[j]}" for i, j in pairs))
    out.append("[product]")
    for i in range(len(p)):
        if i == p.eps:
            continue
        for j in range(len(p)):
            if j == p.eps:
                continue
            k = p.table[i][j]
            if k is not None:
                out.append(f"{toks[i]} {toks[j]} = {toks[k]}")
    return "\n".join(out) + "\n"


def parse_grp(text: str):
    """Parse a .grp file.

    Returns (FiniteGroupTable, subgroups, maps): subgroups maps block name
    to the ordered tuple of element tokens, maps maps (src, dst) block-name
    pairs to a token dict.
    """
    sections = _sections(text)
    if "group" not in sections:
        raise ParseError("missing [group] section")
    entries = sections["group"]
    _no, elements_text = _keyed(entries, "elements")
    elements = elements_text.split()
    _no, identity = _keyed(entries, "identity")
    product = _parse_product(sections.get("product", []), set(elements))
    try:
        table = FiniteGroupTable(elements, identity, product)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    subgroups = {}
    maps = {}
    for header, body in sections.items():
        if header.startswith("subgroup "):
            name = header[len("subgroup ") :].strip()
            _no, toks_text = _keyed(body, "elements")
            subgroups[name] = tuple(toks_text.split())
        elif header.startswith("map "):
            spec = header[len("map ") :].strip()
            if "->" not in spec:
                raise ParseError(f"bad map header {header!r}")
            src, dst = (s.strip() for s in spec.split("->", 1))
            mapping = {}
            given = {}  # x -> the line of its entry; a block given twice merges
            for no, line in body:
                toks = line.split()
                if len(toks) != 3 or toks[1] != ":":
                    raise ParseError(f"expected 'x : y', got {line!r}", no)
                x = toks[0]
                if x in given:
                    raise ParseError(
                        f"[{header}] {x!r} entry repeated (first given on line {given[x]})", no
                    )
                given[x] = no
                mapping[x] = toks[2]
            maps[(src, dst)] = mapping
    return table, subgroups, maps


def emit_grp(table: FiniteGroupTable, subgroups=None, maps=None) -> str:
    toks = table.elements
    out = [
        "[group]",
        f"elements: {' '.join(toks)}",
        f"identity: {toks[table.eps]}",
        "[product]",
    ]
    for i in range(len(table)):
        for j in range(len(table)):
            out.append(f"{toks[i]} {toks[j]} = {toks[table.table[i][j]]}")
    for name, members in (subgroups or {}).items():
        out.append(f"[subgroup {name}]")
        out.append(f"elements: {' '.join(members)}")
    for (src, dst), mapping in (maps or {}).items():
        out.append(f"[map {src}->{dst}]")
        for x, y in mapping.items():
            out.append(f"{x} : {y}")
    return "\n".join(out) + "\n"
