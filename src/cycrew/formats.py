r"""Line-oriented text formats: .rws (rewriting systems), .pg (pregroup
tables), .grp (finite group tables).

All three formats are UTF-8, '#' starts a comment, sections are bracketed
headers.  Lines end at "\n", "\r\n" or "\r" only.  Words are
whitespace-separated letter tokens; in .rws the bare token "1" denotes the
empty word on either side of a rule, so "1" is reserved and may not be
used as a letter name (.pg and .grp read it as an element), and a side
with no tokens is an error.  A .rws letter may not hold ":", which ends
the anchor tag of a rule.  _check_letters is the one letter rule of .rws:
emit_rws refuses an alphabet that it could not write so that parse_rws
reads it back, and parse_rws refuses the same alphabets on the letters:
line, with the same messages.  emit_pg and emit_grp refuse elements by
the rules of _check_letters that are not .rws's own (_check_tokens), and
emit_grp refuses the subgroup and map blocks that parse_grp would misread
(_check_block_name).  A fault of an alphabet or pregroup is named at the
line of the entry at fault (_built).

Cost.  Each reader does C-level work per line and per rule, and well-formed
input takes that path alone.  The checks that name a fault and its line
(_rule_fault, _word, the row loop of _parse_product, the pair search of
_built) run only on faulty input.
- Lines and sections: a few whole-text passes (newlines, comments, split,
  strip) and one list pass for the headers.
- [product] (.pg, .grp): one split per row, then every check column by
  column (tokens per row, the '=' column, known tokens, no key with two
  results) and one dict built from the columns.
- [rules] (.rws): each line is split once at its " -> " or " <-> ", and
  each side text is looked up in a dict that lives for the call
  (_SideWords), so the letters of each distinct side are mapped once;
  then one Rule, built by tuple.__new__ once the reader has tested the
  length of a symmetric one to name its line.  In a text that holds a
  tab, the rule lines first have their tabs made spaces, one replace per
  line.  A line whose sides the dict refuses (a run of spaces, other
  whitespace, a fault) is split again with its tokens one space apart
  (_respaced_rule); only a line still refused, a faulty one, is read token
  by token, to name its fault.
On a 2-core shared x86-64 host (CPython 3.11, min of 30 calls, in each
of five runs): S_eps(HNN(Z4, Z2)) as .rws (1,321 rules) reads in 2.2-2.3
ms, and in 2.4-2.6 ms with every space a tab, 7-15% over the
single-spaced text; its hat extension (8,617 rules) in 17-18 ms;
S_eps(HNN(Z6, Z3)) (4,447 rules) in 6.6-7.1 ms.  hnn_s3 and HNN(Z10, Z2)
as .pg (|P| = 42 and 110) read in 0.47-0.72 and 2.3-2.4 ms.
"""

from __future__ import annotations

import operator
import re
from typing import Optional

from .constructions import FiniteGroupTable
from .pregroup import Pregroup
from .rewrite import Anchor, RewriteSystem, Rule
from .words import Alphabet, CyclicWord


_COMMENT = re.compile(r"#[^\n]*")  # a comment runs to the end of its line
_CONTENT = operator.itemgetter(1)  # of (lineno, content): blank when ""

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
    r"""(lineno, stripped content) for every nonblank, non-comment line.
    Lines end at "\n", "\r\n" or "\r", the universal newlines that a file
    opened in text mode reads; every other line boundary of str.splitlines
    ("\f", "\v", "\x1c"-"\x1e", "\x85", U+2028, U+2029) is whitespace
    within its line."""
    text = _COMMENT.sub("", text.replace("\r\n", "\n").replace("\r", "\n"))
    return list(filter(_CONTENT, enumerate(map(str.strip, text.split("\n")), start=1)))


def _sections(text: str):
    """Split into [header] -> list of (lineno, line)."""
    lines = _lines(text)
    heads = [i for i, (_no, line) in enumerate(lines) if line[0] == "[" and line[-1] == "]"]
    if lines and (not heads or heads[0]):
        no, line = lines[0]
        raise ParseError(f"content before any section: {line!r}", no)
    out = {}
    for i, end in zip(heads, heads[1:] + [len(lines)]):
        out.setdefault(lines[i][1][1:-1].strip(), []).extend(lines[i + 1 : end])
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


def _read_pairs(entries):
    """The (lineno, x, y) of the token pairs of every 'pairs:' line among a
    section's entries, in order; an empty 'pairs:' line gives none."""
    pairs = []
    for no, line in entries:
        if not line.startswith("pairs:") or not line[6:].strip():
            continue
        for chunk in line[6:].split(","):
            toks = chunk.split()
            if len(toks) != 2:
                raise ParseError(f"bad involution pair {chunk.strip()!r}", no)
            pairs.append((no, toks[0], toks[1]))
    return pairs


def _built(build, pairs, line: int):
    """build(pairs), pairs as _read_pairs gives them.  A ValueError that it
    raises becomes a ParseError at the line of the entry at fault: the pair
    through which build first raises the same message, or line, that of
    the section's head entry, when build raises it with no pair.  The
    search runs only on faulty input."""
    try:
        return build(pairs)
    except ValueError as exc:
        message = str(exc)
    for k in range(len(pairs) + 1):
        try:
            build(pairs[:k])
        except ValueError as exc:
            if str(exc) == message:
                raise ParseError(message, pairs[k - 1][0] if k else line) from None


def _pairs_line(tokens, involution):
    """The 'pairs:' line for the tokens that involution, a self-inverse
    index map, swaps: each pair once, in ascending index order; no line
    when it swaps none."""
    pairs = [(i, j) for i, j in enumerate(involution) if i < j]
    if not pairs:
        return []
    return ["pairs: " + ", ".join(f"{tokens[i]} {tokens[j]}" for i, j in pairs)]


# the tokens of a rule side that is the empty word, as the split gives them
_EMPTY_WORD = ["1"]


def _word(letter, toks, no: int):
    """The word of a rule side's tokens, "1" alone being the empty word;
    letter maps a token to its index.  A side with no tokens is an error,
    so a line cut off after its arrow does not load as another rule."""
    if toks == _EMPTY_WORD:
        return ()
    if not toks:
        raise ParseError("rule side is empty; write '1' for the empty word", no)
    try:
        return tuple(map(letter, toks))
    except KeyError as exc:
        raise ParseError(f"unknown letter {exc.args[0]!r}", no) from None


def _rule_fault(letter, line: str, no: int) -> None:
    """Raise the ParseError of a [rules] line, tag removed, that parse_rws
    could not split at its arrow and read: read token by token, the line
    names its first fault (the arrow count, then each side by _word)."""
    toks = line.split()
    plain, symmetric = toks.count("->"), toks.count("<->")
    if plain and symmetric:
        raise ParseError("rule has both '->' and '<->'", no)
    arrow = "<->" if symmetric else "->"
    if plain + symmetric != 1:
        raise ParseError(f"rule needs exactly one {arrow!r}", no)
    cut = toks.index(arrow)
    _word(letter, toks[:cut], no)
    _word(letter, toks[cut + 1 :], no)


class _SideWords(dict):
    """Side text -> word, for one parse_rws call; "1" is the empty word.  A
    text it does not hold yet is read as letters one space apart, and kept;
    any other text (a tab, a run of spaces, an arrow, "1" among letters, an
    unknown letter) raises KeyError and is not kept."""

    def __init__(self, letter):
        super().__init__({"1": ()})
        self.letter = letter

    def __missing__(self, text: str):
        word = self[text] = tuple(map(self.letter, text.split(" ")))
        return word


def _respaced_rule(words, line: str, no: int):
    """(lhs, rhs, arrow) of a [rules] line, tag removed, that words did not
    read as it is spaced: the line read again with its tokens one space
    apart, or else the fault that _rule_fault names."""
    spaced = " ".join(line.split())
    left, arrow, right = spaced.partition(" -> ")
    if not arrow:
        left, arrow, right = spaced.partition(" <-> ")
    try:
        return words[left], words[right], arrow
    except KeyError:
        _rule_fault(words.letter, line, no)


def parse_rws(text: str):
    """Parse a .rws file.

    Returns (RewriteSystem, cyclic_pairs) where cyclic_pairs is the list of
    oriented (CyclicWord, CyclicWord) pairs from [cyclic-rules].
    """
    sections = _sections(text)
    if "alphabet" not in sections:
        raise ParseError("missing [alphabet] section")
    alpha_entries = sections["alphabet"]
    letters_no, letters_text = _keyed(alpha_entries, "letters")
    letters = letters_text.split()
    # before the pairs are read, so no letter is swapped yet
    _check_letters(letters, range(len(letters)), letters_no)
    alphabet = _built(
        lambda pairs: Alphabet.from_pairs(letters, [(x, y) for _no, x, y in pairs]),
        _read_pairs(alpha_entries),
        letters_no,
    )
    letter = alphabet._index.__getitem__
    # a rule line is split at its " -> " or " <-> " and each side read
    # through words; as no letter is an arrow, a line that reads is split
    # at its one arrow token
    words = _SideWords(letter)
    rule_lines = sections.get("rules", [])
    if "\t" in text:
        # a tab spaces tokens as a space does: one C-level replace per line
        rule_lines = [(no, line.replace("\t", " ")) for no, line in rule_lines]
    # each Rule is built by tuple.__new__: the reader checks the length of a
    # symmetric rule itself, to name its line, and RewriteSystem checks it
    # on every rule
    new, rules = tuple.__new__, []
    for no, line in rule_lines:
        anchor = Anchor.NONE
        if ":" in line:
            head, _sep, rest = line.partition(":")
            anchor = _ANCHOR_TAGS.get(head.strip(), Anchor.NONE)
            if anchor is not Anchor.NONE:
                line = rest.lstrip()
        left, arrow, right = line.partition(" -> ")
        if not arrow:
            left, arrow, right = line.partition(" <-> ")
        try:
            lhs, rhs = words[left], words[right]
        except KeyError:
            lhs, rhs, arrow = _respaced_rule(words, line, no)
        symmetric = arrow == " <-> "
        if symmetric and len(lhs) != len(rhs):
            raise ParseError("symmetric rules must be length preserving", no)
        rules.append(new(Rule, (lhs, rhs, anchor, symmetric)))
    cyclic_pairs = []
    for no, line in sections.get("cyclic-rules", []):
        toks = line.split()
        if "->" not in toks:
            raise ParseError("cyclic rule needs '->'", no)
        cut = toks.index("->")
        lhs = _word(letter, toks[:cut], no)
        rhs = _word(letter, toks[cut + 1 :], no)
        cyclic_pairs.append((CyclicWord.of(lhs), CyclicWord.of(rhs)))
    return RewriteSystem(alphabet, rules), cyclic_pairs


def _fmt_word(letter, w) -> str:
    """The tokens of w, letter mapping an index to its token; "1" for the
    empty word."""
    return " ".join(map(letter, w)) if w else "1"


# the text that starts a written rule, by its anchor
_TAG_TEXT = {a: f"{a.value}: " if a is not Anchor.NONE else "" for a in Anchor}


def _check_letters(letters, involution, line: Optional[int] = None) -> None:
    """Raise ParseError, at line, for letters that a .rws text cannot hold
    so that parse_rws reads them back; involution is their index map.  The
    rules, in order: "1" and ":" among any letters, then those of
    _check_tokens, with the arrows.  parse_rws calls it on its letters:
    line before it reads a pair, so with no letter swapped, and emit_rws on
    the alphabet it writes: both name the same first fault."""
    if "1" in letters:
        raise ParseError("'1' is reserved for the empty word", line)
    if any(":" in tok for tok in letters):
        raise ParseError("':' is reserved for anchor tags", line)
    _check_tokens(letters, involution, line, "letter", ("->", "<->"))


def _check_tokens(tokens, involution, line=None, noun="token", arrows=()) -> None:
    """Raise ParseError, at line, for tokens that a text of any of the three
    formats cannot hold so that its reader reads them back; involution is
    their index map.  The rules, in order: token by token the empty token,
    the arrows given, '#', whitespace and ',' in a token that the
    involution swaps, then the brackets of a header."""
    for i, tok in enumerate(tokens):
        if not tok:
            raise ParseError(f"{noun} is empty", line)
        if tok in arrows:
            raise ParseError(f"{tok!r} is reserved for rule arrows", line)
        if "#" in tok:
            raise ParseError(f"{noun} {tok!r} holds '#', which starts a comment", line)
        if tok.split() != [tok]:
            raise ParseError(f"{noun} {tok!r} holds whitespace, which separates {noun}s", line)
        if "," in tok and involution[i] != i:
            raise ParseError(f"{noun} {tok!r} holds ',', which separates involution pairs", line)
    if any(tok[0] == "[" for tok in tokens) and any(tok[-1] == "]" for tok in tokens):
        # a rule "[a -> b]" or a row "[a] e = [a]" would read as a header
        raise ParseError(f"a {noun} starts with '[' and a {noun} ends with ']'", line)


def emit_rws(system: RewriteSystem, cyclic_pairs=()) -> str:
    """The .rws text of system and the cyclic pairs, which parse_rws reads
    back to the same rules and pairs; ParseError for an alphabet that it
    could not (_check_letters).  One f-string per rule, which reads the
    rule's fields unpacked and its tag off _TAG_TEXT."""
    a = system.alphabet
    _check_letters(a.letters, a.involution)
    letter = a.letters.__getitem__
    out = ["[alphabet]", f"letters: {' '.join(a.letters)}"]
    out += _pairs_line(a.letters, a.involution)
    out.append("[rules]")
    for lhs, rhs, anchor, symmetric in system.rules:
        out.append(
            f"{_TAG_TEXT[anchor]}{' '.join(map(letter, lhs)) if lhs else '1'}"
            f"{' <-> ' if symmetric else ' -> '}{' '.join(map(letter, rhs)) if rhs else '1'}"
        )
    if cyclic_pairs:
        out.append("[cyclic-rules]")
        for u, v in cyclic_pairs:
            out.append(f"{_fmt_word(letter, u.canon)} -> {_fmt_word(letter, v.canon)}")
    return "\n".join(out) + "\n"


def _parse_product(entries, known):
    """A [product] section as {(x, y): z}, every token one of known.

    The rows are checked column by column: four tokens each, '=' third,
    every token known, and as many distinct (x, y) keys as distinct
    (x, y, z) rows, so no key with two results.  The per-row loop runs
    only when some row is faulty, to name the first."""
    rows = [line.split() for _no, line in entries]
    if set(map(len, rows)) <= {4}:
        xs, ys, eqs, zs = zip(*rows) if rows else ((), (), (), ())
        product = dict(zip(zip(xs, ys), zs))
        if (
            set(eqs) <= {"="}
            and known.issuperset(xs)
            and known.issuperset(ys)
            and known.issuperset(zs)
            and (len(product) == len(rows) or len(product) == len(set(zip(xs, ys, zs))))
        ):
            return product
    # some row is faulty: every column check above that fails has a row on
    # which this loop raises
    given = {}
    for no, line in entries:
        toks = line.split()
        if len(toks) != 4 or toks[2] != "=":
            raise ParseError(f"expected 'x y = z', got {line!r}", no)
        x, y, _eq, z = toks
        for tok in (x, y, z):
            if tok not in known:
                raise ParseError(f"unknown element {tok!r}", no)
        if given.setdefault((x, y), z) != z:
            raise ParseError(f"product {x} {y} given as both {given[x, y]} and {z}", no)


def parse_pg(text: str) -> Pregroup:
    sections = _sections(text)
    if "pregroup" not in sections:
        raise ParseError("missing [pregroup] section")
    entries = sections["pregroup"]
    elements_no, elements_text = _keyed(entries, "elements")
    elements = elements_text.split()
    eps_no, epsilon = _keyed(entries, "epsilon")
    pairs = _read_pairs(entries)
    product = _parse_product(sections.get("product", []), set(elements))

    def build(pairs):
        involution = {}
        for _no, x, y in pairs:
            involution[x] = y
            involution[y] = x
        return Pregroup(elements, epsilon, involution, product)

    # with no pair, Pregroup refuses only repeated elements or epsilon
    return _built(build, pairs, elements_no if len(set(elements)) < len(elements) else eps_no)


def emit_pg(p: Pregroup) -> str:
    """The .pg text of p, which parse_pg reads back to the same table;
    ParseError for elements that it could not (_check_tokens)."""
    toks = p.elements
    _check_tokens(toks, p.inv)
    out = ["[pregroup]", f"elements: {' '.join(toks)}", f"epsilon: {toks[p.eps]}"]
    out += _pairs_line(toks, p.inv)
    out.append("[product]")
    eps = p.eps
    for i, row in enumerate(p.table):
        for j, k in enumerate(row):
            # the epsilon row and column only where they differ from P1's
            if k is not None and not (i == eps and k == j or j == eps and k == i):
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
    elements_no, elements_text = _keyed(entries, "elements")
    elements = elements_text.split()
    identity_no, identity = _keyed(entries, "identity")
    product = _parse_product(sections.get("product", []), set(elements))
    # the faults of the head entries, with the lines that FiniteGroupTable
    # cannot give
    if len(set(elements)) < len(elements):
        raise ParseError("duplicate element tokens", elements_no)
    if identity not in elements:
        raise ParseError(f"identity {identity!r} not among elements", identity_no)
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


def _check_block_name(name: str, noun: str) -> None:
    """Raise ParseError for a subgroup name, map source or map target that
    its .grp header would not give back: parse_grp cuts a header at '#' or
    a line break and strips it."""
    if not name:
        raise ParseError(f"{noun} is empty")
    if "#" in name:
        raise ParseError(f"{noun} {name!r} holds '#', which starts a comment")
    if "\n" in name or "\r" in name:
        raise ParseError(f"{noun} {name!r} holds a line break")
    if name != name.strip():
        raise ParseError(f"{noun} {name!r} has leading or trailing whitespace")


def emit_grp(table: FiniteGroupTable, subgroups=None, maps=None) -> str:
    """The .grp text of table, subgroups and maps, which parse_grp reads
    back; ParseError for elements that it could not (_check_tokens), and
    for block names that it could not (_check_block_name, and a map source
    with '->', at which its header splits).  The members of a subgroup and
    the two tokens of a map entry name elements and take the elements'
    rules, under which no subset of the elements is refused; the bracket
    rule keeps a map entry "[a : b]" from reading as a header.  No 'pairs:'
    line is written, so a ',' is no fault here."""
    toks = table.elements
    _check_tokens(toks, range(len(toks)))
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
        _check_block_name(name, "subgroup name")
        _check_tokens(members, range(len(members)), noun="subgroup member")
        out.append(f"[subgroup {name}]")
        out.append(f"elements: {' '.join(members)}")
    for (src, dst), mapping in (maps or {}).items():
        _check_block_name(src, "map source")
        if "->" in src:
            raise ParseError(f"map source {src!r} holds '->', which ends a map source")
        _check_block_name(dst, "map target")
        out.append(f"[map {src}->{dst}]")
        for x, y in mapping.items():
            _check_tokens((x, y), (0, 1), noun="map entry token")
            out.append(f"{x} : {y}")
    return "\n".join(out) + "\n"
