import collections
import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycrew import formats, samples
from cycrew.cli import main
from cycrew.completion import hat_extension, resolve_short_pairs
from cycrew.constructions import FiniteGroupTable
from cycrew.formats import (
    ParseError,
    emit_grp,
    emit_pg,
    emit_rws,
    parse_grp,
    parse_pg,
    parse_rws,
)
from cycrew.pregroup import Pregroup, check_axioms, derive_system
from cycrew.rewrite import Anchor, RewriteSystem, Rule
from cycrew.words import Alphabet, AlphabetError, CyclicWord

from conftest import corpus_pregroups, hnn_cyclic, ref_parse_pg, ref_parse_rws


def systems_equal(s1, s2):
    return s1.alphabet.letters == s2.alphabet.letters and [
        (r.lhs, r.rhs, r.anchor, r.symmetric) for r in s1.rules
    ] == [(r.lhs, r.rhs, r.anchor, r.symmetric) for r in s2.rules]


class TestRws:
    def test_round_trip_with_cyclic_rules(self):
        s = samples.four_letter_cycle_system()
        crs = resolve_short_pairs(s)
        text = emit_rws(crs.base, crs.extra)
        s2, pairs = parse_rws(text)
        assert systems_equal(s, s2)
        assert tuple(pairs) == crs.extra

    def test_round_trip_anchors_and_involution(self):
        from cycrew.completion import hat_extension

        s = hat_extension(samples.free_group_system(2))
        s2, _pairs = parse_rws(emit_rws(s))
        assert systems_equal(s, s2)
        assert s2.alphabet.involution == s.alphabet.involution

    def test_parse_comments_and_blanks(self):
        text = """
        # a comment
        [alphabet]
        letters: a b   # trailing comment
        [rules]
        a b -> b a  # swap
        """
        s, pairs = parse_rws(text)
        assert len(s.rules) == 1 and pairs == []

    def test_symmetric_arrow(self):
        text = "[alphabet]\nletters: a b\n[rules]\na b <-> b a\n"
        s, _ = parse_rws(text)
        assert s.rules[0].symmetric

    def test_pairs_lines_accumulate(self):
        # as in .pg files: the last line adds b B and keeps a A, and an
        # empty line adds no pair
        text = "[alphabet]\nletters: a A b B\npairs: a A\npairs:\npairs: b B\n"
        s, _ = parse_rws(text)
        assert s.alphabet.involution == (1, 0, 3, 2)

    def test_one_token_is_empty_word(self):
        text = "[alphabet]\nletters: a A\npairs: a A\n[rules]\na A -> 1\n"
        s, _ = parse_rws(text)
        assert s.rules[0].rhs == ()

    def test_anchor_tags(self):
        text = (
            "[alphabet]\nletters: a b\n[rules]\n"
            "prefix: a -> b\nsuffix: b -> a\nwhole: a b -> 1\n"
        )
        s, _ = parse_rws(text)
        assert [r.anchor for r in s.rules] == [
            Anchor.PREFIX,
            Anchor.SUFFIX,
            Anchor.WHOLE,
        ]

    def test_reserved_letter_rejected(self):
        with pytest.raises(ParseError):
            parse_rws("[alphabet]\nletters: 1 a\n")

    def test_missing_alphabet_rejected(self):
        with pytest.raises(ParseError):
            parse_rws("[rules]\na -> b\n")

    def test_unknown_letter_reports_line(self):
        text = "[alphabet]\nletters: a\n[rules]\na z -> a\n"
        with pytest.raises(ParseError) as err:
            parse_rws(text)
        assert err.value.line == 4

    def test_content_before_section_rejected(self):
        with pytest.raises(ParseError):
            parse_rws("letters: a\n")

    def test_tabs_separate_arrows_like_spaces(self):
        head = "[alphabet]\nletters: a b\n[rules]\n"
        s, _ = parse_rws(head + "a\t<->\tb\nb\t->\ta\nprefix:\ta b\t->\t1\n")
        assert [(r.lhs, r.rhs, r.anchor, r.symmetric) for r in s.rules] == [
            ((0,), (1,), Anchor.NONE, True),
            ((1,), (0,), Anchor.NONE, False),
            ((0, 1), (), Anchor.PREFIX, False),
        ]

    @pytest.mark.parametrize("rule", ["a -> b <-> a", "a <-> b -> a", "a\t->\tb\t<->\ta"])
    def test_both_arrows_rejected(self, rule):
        with pytest.raises(ParseError, match="^line 4: rule has both '->' and '<->'$"):
            parse_rws(f"[alphabet]\nletters: a b\n[rules]\n{rule}\n")


# (text, message, line) of malformed [rules] and [cyclic-rules] lines; every
# message is the one the parser gave before it split each line only once,
# but for the empty sides, which it read as the empty word, and for lines
# that a boundary other than "\n", "\r\n" or "\r" used to split
_AB = "[alphabet]\nletters: a A b\npairs: a A\n[rules]\n"
RULE_ERRORS = {
    "unknown-lhs": (_AB + "a b -> 1\nz a -> b\n", "unknown letter 'z'", 6),
    "unknown-rhs": (_AB + "a b -> a z\n", "unknown letter 'z'", 5),
    "unknown-both": (_AB + "a y -> z\n", "unknown letter 'y'", 5),
    "one-in-lhs": (_AB + "a 1 -> b\n", "unknown letter '1'", 5),
    "one-in-rhs": (_AB + "a -> 1 b\n", "unknown letter '1'", 5),
    "unknown-tag": (_AB + "a -> b\nfoo: a -> b\n", "unknown letter 'foo:'", 6),
    "two-arrows": (_AB + "a -> b -> a\n", "rule needs exactly one '->'", 5),
    "two-symmetric-arrows": (_AB + "a <-> b <-> a\n", "rule needs exactly one '<->'", 5),
    "no-arrow": (_AB + "a b\n", "rule needs exactly one '->'", 5),
    "symmetric-unequal": (_AB + "a b <-> a\n", "symmetric rules must be length preserving", 5),
    "symmetric-unequal-tabs": (_AB + "a -> b\na\tb\t<->\ta\n", "symmetric rules must be length preserving", 6),
    "symmetric-unequal-anchored": (_AB + "prefix: a b <-> a\n", "symmetric rules must be length preserving", 5),
    "cyclic-unknown": (_AB + "[cyclic-rules]\na z -> b\n", "unknown letter 'z'", 6),
    "cyclic-no-arrow": (_AB + "[cyclic-rules]\na b\n", "cyclic rule needs '->'", 6),
    "empty-rhs": (_AB + "a -> b\na b ->\n", "rule side is empty; write '1' for the empty word", 6),
    "empty-lhs": (_AB + "-> a\n", "rule side is empty; write '1' for the empty word", 5),
    "empty-symmetric-rhs": (_AB + "a <->\n", "rule side is empty; write '1' for the empty word", 5),
    "cyclic-empty-rhs": (
        _AB + "[cyclic-rules]\na ->\n", "rule side is empty; write '1' for the empty word", 6
    ),
    # ":" ends an anchor tag, so "prefix:a -> a" would read as a prefix rule
    "colon-in-letter": (
        "[alphabet]\nletters: prefix:a a\n[rules]\nprefix:a -> a\n", "':' is reserved for anchor tags", 2
    ),
    "colon-starts-letter": ("[alphabet]\nletters: prefix :a\n", "':' is reserved for anchor tags", 2),
    # an alphabet that breaks two letter rules is refused for the first in
    # _check_letters' order, by the reader as by the writer
    "arrow-and-one-in-letters": ("[alphabet]\nletters: -> a 1\n", "'1' is reserved for the empty word", 2),
    "bad-pair": ("[alphabet]\nletters: a A b\npairs: a A b\n", "bad involution pair 'a A b'", 3),
    # only "\n", "\r\n" and "\r" end a line; the other boundaries of
    # str.splitlines are whitespace inside it
    "form-feed-in-line": (_AB + "a -> b\fz -> a\n", "rule needs exactly one '->'", 5),
    "next-line-in-line": (_AB + "a -> b\x85z -> a\n", "rule needs exactly one '->'", 5),
    "line-separator-in-line": (_AB + "a\u2028z -> b\n", "unknown letter 'z'", 5),
    "paragraph-separator-in-comment": (_AB + "a -> b # \u2029z -> a\nb -> y\n", "unknown letter 'y'", 6),
    "cr-ends-line": (_AB + "a -> b\rz -> a\n", "unknown letter 'z'", 6),
    "crlf-ends-line": (_AB.replace("\n", "\r\n") + "a -> b\r\nz -> a\r\n", "unknown letter 'z'", 6),
}


@pytest.mark.parametrize("text, message, line", RULE_ERRORS.values(), ids=RULE_ERRORS)
def test_rule_parse_errors_are_pinned(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_rws(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


# the [product] rows of a .pg and a .grp file on the elements e and a, and
# the message of the row they fault; the row number counts from the first
# row of the section, and a later fault never hides an earlier one
_PRODUCT_HEADS = {
    "pg": (parse_pg, "[pregroup]\nelements: e a\nepsilon: e\npairs: a a\n[product]\n"),
    "grp": (parse_grp, "[group]\nelements: e a\nidentity: e\n[product]\n"),
}
_PRODUCT_ROWS = {
    "three-tokens": ("a a = e\na a e\n", "expected 'x y = z', got 'a a e'", 2),
    "five-tokens": ("a a = e e\n", "expected 'x y = z', got 'a a = e e'", 1),
    "missing-eq": ("a a : e\n", "expected 'x y = z', got 'a a : e'", 1),
    "unknown-x": ("a a = e\nz a = e\n", "unknown element 'z'", 2),
    "unknown-y": ("a z = e\n", "unknown element 'z'", 1),
    "unknown-z": ("a a = z\n", "unknown element 'z'", 1),
    "unknown-x-and-z": ("y a = z\n", "unknown element 'y'", 1),
    "other-result": ("a a = e\ne a = a\na a = a\n", "product a a given as both e and a", 3),
    "shape-then-unknown": ("a a\na z = e\n", "expected 'x y = z', got 'a a'", 1),
    "unknown-then-shape": ("a a = e\na z = e\na a e\n", "unknown element 'z'", 2),
    "unknown-then-other-result": ("a a = e\nz a = e\na a = a\n", "unknown element 'z'", 2),
    "other-result-between-repeats": ("a a = e\na a = a\na a = e\n", "product a a given as both e and a", 2),
    "other-result-then-shape": ("a a = e\na a = a\na a\n", "product a a given as both e and a", 2),
}
PRODUCT_ERRORS = {
    f"{kind}-{name}": (parse, head + rows, message, head.count("\n") + row)
    for kind, (parse, head) in _PRODUCT_HEADS.items()
    for name, (rows, message, row) in _PRODUCT_ROWS.items()
}


@pytest.mark.parametrize("parse, text, message, line", PRODUCT_ERRORS.values(), ids=PRODUCT_ERRORS)
def test_product_parse_errors_are_pinned(parse, text, message, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("kind", _PRODUCT_HEADS)
def test_product_repeated_with_the_same_result_is_accepted(kind):
    parse, head = _PRODUCT_HEADS[kind]
    rows = "e e = e\ne a = a\na e = a\na a = e\na a = e\n"
    parsed = parse(head + rows)
    table = parsed if kind == "pg" else parsed[0]
    assert list(map(list, table.table)) == [[0, 1], [1, 0]]


def test_lines_end_only_at_universal_newlines():
    s, _ = parse_rws("[alphabet]\nletters: a\fb c\n[rules]\nb -> c\n")
    assert s.alphabet.letters == ("a", "b", "c") and s.rules == (Rule((1,), (2,)),)
    head = "[pregroup]\nelements: e a\u2028b\nepsilon: e\npairs: a b\n"
    assert parse_pg(head).elements == ("e", "a", "b")
    text = head + "[product]\na b = e\nb a = e\n"
    assert parse_pg(text.replace("\n", "\r\n")).table == parse_pg(text.replace("\n", "\r")).table
    assert parse_pg(text).table == parse_pg(text.replace("\n", "\r")).table


# what a mutation inserts into a line: an unknown token, arrows, the empty
# word, tags, a product's '=', a tab, a comment and line boundaries
_INSERTS = ("zz", "->", "<->", "1", "foo:", "prefix:", "whole:", "=", "\t", "# c", "\r", "\r\n", "\x85", "\f")


def _mutate(rng, line):
    """line with one token dropped, duplicated, swapped with another or
    replaced by one of _INSERTS, or with one of _INSERTS put between two
    tokens."""
    tokens = line.split(" ")
    i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
    kind = rng.randrange(5)
    if kind == 0:
        del tokens[i]
    elif kind == 1:
        tokens.insert(i, tokens[i])
    elif kind == 2:
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == 3:
        tokens[i] = rng.choice(_INSERTS)
    else:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_INSERTS))
    return " ".join(tokens)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line


def _rws_fields(text):
    s, pairs = parse_rws(text)
    rules = [(r.lhs, r.rhs, r.anchor, r.symmetric) for r in s.rules]
    return s.alphabet.letters, s.alphabet.involution, rules, [(u.canon, v.canon) for u, v in pairs]


def _pg_fields(text):
    p = parse_pg(text)
    return p.elements, p.eps, p.inv, p.table


@pytest.fixture(scope="module")
def emitted():
    """(reader, reference, text, rows per sample) of hnn_s3 as .pg, and of
    S_eps(HNN(Z4, Z2)) and its hat extension, whose rules are anchored, as
    .rws; a sample keeps the lines up to [product] or [rules] and that many
    rows after them, all of them when None."""
    s_eps = derive_system(hnn_cyclic(4, 2), "S_eps")
    return {
        "hnn_s3.pg": (_pg_fields, ref_parse_pg, emit_pg(samples.hnn_s3()), None),
        "s_eps.rws": (_rws_fields, ref_parse_rws, emit_rws(s_eps), 40),
        "hat.rws": (_rws_fields, ref_parse_rws, emit_rws(hat_extension(s_eps)), 40),
    }


@pytest.mark.parametrize("name", ["hnn_s3.pg", "s_eps.rws", "hat.rws"])
def test_readers_match_line_by_line_reference(name, emitted):
    read, ref, text, window = emitted[name]
    assert _outcome(read, text) == _outcome(ref, text) and _outcome(read, text)[0] == "ok"
    lines = text.split("\n")
    head = lines.index("[product]" if name.endswith(".pg") else "[rules]") + 1
    rng = random.Random(f"readers {name}")
    kinds = collections.Counter()
    for _ in range(300):
        start = rng.randrange(head, len(lines)) if window else head
        sample = lines[:head] + lines[start : start + window if window else None]
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(sample))
            sample[i] = _mutate(rng, sample[i])
        mutated = "\n".join(sample)
        got = _outcome(read, mutated)
        assert got == _outcome(ref, mutated), mutated
        # the outcome, or the message up to its first quoted token
        kinds["ok" if got[0] == "ok" else got[1].removeprefix(f"line {got[2]}: ").split("'")[0]] += 1
    assert kinds["ok"] >= 10 and len(kinds) >= 6, kinds


def _tabs(rng, line):
    return "".join(rng.choice(" \t") if ch == " " else ch for ch in line)


def _runs(rng, line):
    return "".join(" " * rng.randint(1, 3) if ch == " " else ch for ch in line)


def _tag_colon(rng, line):
    """A tagged line with no space after its colon, or with one; an
    untagged line given a tag either way."""
    tag, colon, rest = line.partition(": ")
    if not colon:
        tag, rest = rng.choice(["prefix", "suffix", "whole", "prefix "]), line
    return tag + ":" + rng.choice(["", " "]) + rest


def _ones(rng, line):
    """One side, or both, written "1", "1 1" or with "1" among its letters."""
    tag, colon, rule = line.rpartition(": ")
    arrow = " <-> " if " <-> " in rule else " -> "
    sides = rule.split(arrow)
    for i in rng.sample(range(2), rng.randint(1, 2)):
        letters = sides[i].split(" ")
        letters.insert(rng.randrange(len(letters) + 1), "1")
        sides[i] = rng.choice(["1", "1", "1 1", " ".join(letters)])
    return tag + colon + arrow.join(sides)


def _arrow_letters(rng, line):
    """A letter of the line replaced by the letter "x->y" or by "->", which
    no letter may be."""
    tokens = line.split(" ")
    letters = [i for i, tok in enumerate(tokens) if tok not in ("->", "<->", "1") and ":" not in tok]
    if letters:
        tokens[rng.choice(letters)] = rng.choice(["x->y", "x->y", "->"])
    return " ".join(tokens)


# variant -> (line rewrite, letters added to the alphabet)
_TEXT_PATH_VARIANTS = {
    "tabs": (_tabs, ""),
    "runs-of-spaces": (_runs, ""),
    "tag-colon": (_tag_colon, ""),
    "one-sides": (_ones, ""),
    "letter-x->y": (_arrow_letters, " x->y"),
    "letters-x->y-and-->": (_arrow_letters, " x->y ->"),
}


@pytest.mark.parametrize("name", ["s_eps.rws", "hat.rws"])
@pytest.mark.parametrize("variant", _TEXT_PATH_VARIANTS)
def test_text_path_matches_line_by_line_reference(name, variant, emitted):
    # parse_rws splits every rule line at its arrow and reads each side text
    # once, the line respaced if it has tabs or runs of spaces; only a
    # faulty line is read token by token.  Half the lines of a window of
    # [rules] take the variant, or one or two lines, so that a variant that
    # can make a fault still leaves some windows readable
    _read, _ref, text, window = emitted[name]
    rewrite, extra = _TEXT_PATH_VARIANTS[variant]
    lines = text.split("\n")
    lines[1] += extra
    head = lines.index("[rules]") + 1
    rng = random.Random(f"text path {name} {variant}")
    kinds = collections.Counter()
    for _ in range(60):
        start = rng.randrange(head, len(lines) - window)
        body = lines[start : start + window]
        for i in rng.sample(range(window), rng.choice([1, 2, window // 2])):
            body[i] = rewrite(rng, body[i])
        sample = "\n".join(lines[:head] + body)
        got = _outcome(_rws_fields, sample)
        assert got == _outcome(ref_parse_rws, sample), sample
        kinds[got[0] if got[0] == "ok" else got[1]] += 1
    if variant == "letters-x->y-and-->":
        # no rule can name the letter "->", so its letters: line is refused
        assert kinds == {"line 2: '->' is reserved for rule arrows": 60}, kinds
        return
    # every variant reads some windows; the faults it can make fail others
    assert kinds["ok"] >= 5, kinds
    if variant == "one-sides":
        assert sum(kinds.values()) - kinds["ok"] >= 5, kinds


@pytest.mark.parametrize("name", ["s_eps.rws", "hat.rws"])
def test_well_formed_rule_lines_never_reach_the_fault_namer(name, emitted, monkeypatch):
    # every [rules] line takes a variant; a "1" side is kept only where the
    # reference reads the line.  However it is spaced or tagged, a
    # well-formed line is split at its arrow, and _rule_fault, which reads
    # a line token by token, is reached only by a faulty one
    def fault(letter, line, no):
        raise AssertionError(f"line {no} reached the fault namer: {line!r}")

    monkeypatch.setattr(formats, "_rule_fault", fault)
    lines = emitted[name][2].splitlines()
    head = lines.index("[rules]") + 1
    alphabet = "\n".join(lines[:head]) + "\n"
    rng = random.Random(f"fault namer {name}")
    for variant in ("tabs", "runs-of-spaces", "tag-colon", "one-sides"):
        rewrite = _TEXT_PATH_VARIANTS[variant][0]
        body = [rewrite(rng, line) for line in lines[head:]]
        if variant == "one-sides":
            body = [
                new if _outcome(ref_parse_rws, alphabet + new)[0] == "ok" else old
                for old, new in zip(lines[head:], body)
            ]
        assert sum(map(str.__ne__, lines[head:], body)) >= len(body) // 10, variant
        sample = alphabet + "\n".join(body)
        want = _outcome(ref_parse_rws, sample)
        assert want[0] == "ok" and _outcome(_rws_fields, sample) == want, variant


# letters that a .rws text cannot hold so that parse_rws reads it back, a
# system over them, and the message emit_rws refuses it with
_UNWRITABLE = {
    "one": (["1", "a"], "'1' is reserved for the empty word"),
    "colon": (["prefix:a", "a"], "':' is reserved for anchor tags"),
    "arrow": (["->", "a"], "'->' is reserved for rule arrows"),
    "symmetric-arrow": (["<->", "a"], "'<->' is reserved for rule arrows"),
    "hash": (["#x", "a"], "letter '#x' holds '#', which starts a comment"),
    "space": (["a b", "a"], "letter 'a b' holds whitespace, which separates letters"),
    "tab": (["a\tb", "a"], "letter 'a\\tb' holds whitespace, which separates letters"),
    "comma-in-pair": (["a,", "a"], "letter 'a,' holds ',', which separates involution pairs"),
    "brackets": (["[a", "a]"], "a letter starts with '[' and a letter ends with ']'"),
    # two rules broken: the first in _check_letters' order is named
    "arrow-and-one": (["->", "1"], "'1' is reserved for the empty word"),
    "brackets-and-arrow": (["[a", "<->", "a]"], "'<->' is reserved for rule arrows"),
}


@pytest.mark.parametrize("letters, message", _UNWRITABLE.values(), ids=_UNWRITABLE)
def test_emit_refuses_letters_it_cannot_write_back(letters, message):
    # over the first letter x and a: the rules x a -> a and a <-> x, and
    # a ',' only where x and a swap, since an unpaired letter needs no
    # 'pairs:' entry
    pairs = [tuple(letters)] if "," in letters[0] else []
    system = RewriteSystem(
        Alphabet.from_pairs(letters, pairs), [Rule((0, 1), (1,)), Rule((1,), (0,), symmetric=True)]
    )
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as err:
        emit_rws(system)
    assert err.value.line is None


# the alphabets of _UNWRITABLE that a letters: line can hold: the others
# hold '#', whitespace or a paired ','
@pytest.mark.parametrize(
    "case", ["one", "colon", "arrow", "symmetric-arrow", "brackets", "arrow-and-one", "brackets-and-arrow"]
)
def test_reader_refuses_the_letters_that_emit_refuses(case):
    letters, message = _UNWRITABLE[case]
    text = f"[alphabet]\nletters: {' '.join(letters)}\n[rules]\n{letters[0]} -> 1\n"
    with pytest.raises(ParseError, match=f"^line 2: {re.escape(message)}$") as err:
        parse_rws(text)
    assert err.value.line == 2


# faults of the head entries and the pairs of .rws, .pg and .grp texts,
# named at the line of the entry at fault: (reader, text, message, line)
HEAD_ERRORS = {
    "rws-duplicate-letter": (parse_rws, "[alphabet]\nletters: a b a\n", "duplicate letter tokens", 2),
    "rws-unknown-pair-letter": (
        parse_rws, "[alphabet]\nletters: a b\npairs: a b\npairs: a z\n", "involution pair (a, z) uses unknown letter", 4
    ),
    "rws-letter-paired-twice": (
        parse_rws, "[alphabet]\nletters: a b c\npairs: a b, a c\n", "involution is not self-inverse", 3
    ),
    "rws-letter-paired-twice-over-lines": (
        parse_rws, "[alphabet]\nletters: a b c\npairs: a b\n\npairs: a c\n", "involution is not self-inverse", 5
    ),
    "pg-duplicate-element": (parse_pg, "[pregroup]\nelements: e a a\nepsilon: e\n", "duplicate element tokens", 2),
    "pg-unknown-epsilon": (parse_pg, "[pregroup]\nelements: e a\nepsilon: z\n", "epsilon 'z' not among elements", 3),
    "pg-unknown-pair-token": (
        parse_pg,
        "[pregroup]\nelements: e a\nepsilon: e\npairs: a a\npairs: a z\n",
        "involution names unknown token 'z'",
        5,
    ),
    "pg-epsilon-paired": (
        parse_pg, "[pregroup]\nelements: e a b\nepsilon: e\npairs: a a\npairs: b e\n", "involution must fix epsilon", 5
    ),
    "grp-duplicate-element": (
        parse_grp, "[group]\nelements: e e\nidentity: e\n[product]\ne e = e\n", "duplicate element tokens", 2
    ),
    "grp-unknown-identity": (
        parse_grp, "[group]\nelements: e\nidentity: z\n[product]\ne e = e\n", "identity 'z' not among elements", 3
    ),
}


@pytest.mark.parametrize("parse, text, message, line", HEAD_ERRORS.values(), ids=HEAD_ERRORS)
def test_head_and_pair_errors_name_their_line(parse, text, message, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_pairs_that_end_self_inverse_are_read():
    # a pair at fault is the first through which the involution fails; a
    # later pair that mends it leaves nothing at fault
    s, _ = parse_rws("[alphabet]\nletters: a b c\npairs: a b, a c, b b\n")
    assert s.alphabet.involution == (2, 1, 0)


def _with_token(kind, tok):
    """A .pg pregroup on e, tok and x, with tok and x swapped, or a .grp
    group of order 3 on the same elements."""
    elements = ["e", tok, "x"]
    if kind == "pg":
        return Pregroup(elements, "e", {tok: "x", "x": tok}, {(tok, "x"): "e", ("x", tok): "e"})
    return FiniteGroupTable.from_function(elements, "e", lambda a, b: elements[(elements.index(a) + elements.index(b)) % 3])


# tokens that a .pg or .grp text cannot hold so that its reader reads them
# back, and the message the writer refuses them with; .grp writes no
# 'pairs:' line, so a ',' is no fault there
_UNWRITABLE_TOKENS = {
    "pg-empty": ("pg", "", "token is empty"),
    "pg-hash": ("pg", "a#b", "token 'a#b' holds '#', which starts a comment"),
    "pg-space": ("pg", "a b", "token 'a b' holds whitespace, which separates tokens"),
    "pg-swapped-comma": ("pg", "a,b", "token 'a,b' holds ',', which separates involution pairs"),
    "pg-brackets": ("pg", "[a]", "a token starts with '[' and a token ends with ']'"),
    "grp-hash": ("grp", "a#b", "token 'a#b' holds '#', which starts a comment"),
    "grp-space": ("grp", "a b", "token 'a b' holds whitespace, which separates tokens"),
    "grp-brackets": ("grp", "[a]", "a token starts with '[' and a token ends with ']'"),
}


@pytest.mark.parametrize("kind, tok, message", _UNWRITABLE_TOKENS.values(), ids=_UNWRITABLE_TOKENS)
def test_emit_pg_and_grp_refuse_tokens_they_cannot_write_back(kind, tok, message):
    emit = {"pg": emit_pg, "grp": emit_grp}[kind]
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as err:
        emit(_with_token(kind, tok))
    assert err.value.line is None


def test_emit_pg_and_grp_write_what_reads_back(census):
    # the refused tokens' neighbours, the samples and the census
    pregroups = [_with_token("pg", tok) for tok in ("1", "->", "a:b", "[a", "a]")]
    pregroups += [Pregroup(["e", "a,b"], "e", {}, {("a,b", "a,b"): "e"})]
    for p in pregroups + [p for _name, p in corpus_pregroups()] + census:
        back = parse_pg(emit_pg(p))
        assert (back.elements, back.eps, back.inv, back.table) == (p.elements, p.eps, p.inv, p.table)
    groups = [_with_token("grp", tok) for tok in ("1", "->", "a,b", "[a", "a]")]
    groups += [samples.z2_table(), samples.z4_table(), samples.z6_table(), samples.s3_table(), samples.trivial_table()]
    for t in groups:
        back = parse_grp(emit_grp(t))[0]
        assert (back.elements, back.eps, back.table) == (t.elements, t.eps, t.table)


def test_emit_writes_letters_that_read_back():
    # the neighbours of the refused letters: ',' in an unpaired letter,
    # arrows inside a letter, '[' or ']' alone, '1' inside a letter
    letters = ["x,", "x->y", "a<->b", "[a", "b[", "11", "a1"]
    system = RewriteSystem(
        Alphabet.from_pairs(letters, [("x->y", "a<->b")]),
        [Rule((0, 1), (2,)), Rule((3, 4), (5, 6), symmetric=True), Rule((4, 3), ())],
    )
    text = emit_rws(system)
    assert systems_equal(parse_rws(text)[0], system)
    assert emit_rws(parse_rws(text)[0]) == text


# the tokens the round-trip properties draw letters and elements from:
# short ordinary ones, and the awkward ones that a writer must refuse or
# write back (the empty word, an anchor colon, a comment, a pair comma,
# header brackets, the arrows, whitespace inside a token)
_AWKWARD = ["1", "a:b", "#", "a,b", "[a", "b]", "->", "<->", "x->y", "a b", "a\tb"]
_TOKENS = st.one_of(st.text("abxyAB2", min_size=1, max_size=2), st.sampled_from(_AWKWARD))


@st.composite
def _involution(draw, n, fixed=None):
    """A self-inverse index map on range(n) that fixes fixed."""
    free = draw(st.permutations([i for i in range(n) if i != fixed]))
    inv = list(range(n))
    k = draw(st.integers(0, len(free) // 2))
    for x, y in zip(free[: 2 * k : 2], free[1 : 2 * k : 2]):
        inv[x], inv[y] = y, x
    return tuple(inv)


@st.composite
def _rws_objects(draw):
    """A system over drawn letters, with rules of every anchor (symmetric
    only where both sides have one length), and cyclic pairs."""
    letters = tuple(draw(st.lists(_TOKENS, min_size=1, max_size=5, unique=True)))
    words = st.lists(st.integers(0, len(letters) - 1), max_size=3).map(tuple)
    rules = [
        Rule(lhs, rhs, anchor, len(lhs) == len(rhs) and symmetric)
        for lhs, rhs, anchor, symmetric in draw(
            st.lists(st.tuples(words, words, st.sampled_from(list(Anchor)), st.booleans()), max_size=6)
        )
    ]
    pairs = [(CyclicWord.of(u), CyclicWord.of(v)) for u, v in draw(st.lists(st.tuples(words, words), max_size=3))]
    return RewriteSystem(Alphabet(letters, draw(_involution(len(letters)))), rules), pairs


@st.composite
def _pg_objects(draw):
    """A table over drawn elements with a partial product, whose stated
    epsilon-row and epsilon-column entries may break P1."""
    elements = draw(st.lists(_TOKENS, min_size=1, max_size=4, unique=True))
    n = len(elements)
    eps = draw(st.integers(0, n - 1))
    inv = draw(_involution(n, eps))
    entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    product = {(elements[x], elements[y]): elements[z] for x, y, z in draw(st.lists(entries, max_size=10))}
    return Pregroup(elements, elements[eps], {elements[i]: elements[j] for i, j in enumerate(inv)}, product)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(drawn=_rws_objects())
def test_rws_objects_read_back_or_are_refused(drawn):
    system, pairs = drawn
    try:
        text = emit_rws(system, pairs)
    except ParseError:
        return
    back, back_pairs = parse_rws(text)
    assert systems_equal(back, system)
    assert back.alphabet.involution == system.alphabet.involution
    assert back_pairs == pairs
    assert emit_rws(back, back_pairs) == text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_pg_objects())
def test_pg_objects_read_back_or_are_refused(p):
    try:
        text = emit_pg(p)
    except ParseError:
        return
    back = parse_pg(text)
    assert (back.elements, back.eps, back.inv, back.table) == (p.elements, p.eps, p.inv, p.table)
    assert emit_pg(back) == text


@pytest.mark.parametrize(
    "rules, bad",
    [
        ([Rule((0,), (1,)), Rule((0, 5), ()), Rule((7,), (0,))], 5),
        ([Rule((0,), (1, -1)), Rule((3,), ())], -1),
        ([Rule((9,), (2,)), Rule((0,), (1,))], 9),
    ],
)
def test_system_names_first_bad_letter_in_rule_order(rules, bad):
    with pytest.raises(AlphabetError, match=rf"^letter index {bad} out of range$"):
        RewriteSystem(Alphabet.from_pairs("ab", []), rules)


# sha256 of the output text, recorded before .rws reading, rule-set
# construction, the hat extension and .rws writing were reworked for speed
GOLDEN_COMPLETE = {
    "hat": "f23d91a2acb57266b09302fa144dbbc6d716f9a9dd1ce2d471c8e26c113d6701",
    "circle": "6b74449a26d9c2978f3682d9988075557ab641ef1c9a325b52d1873b3a3c3b3e",
    "cstar": "5eb60a8b2743a380c62355440e7a06a473571b8b4ff51c7cc955cbc6061693fc",
    "cdagger": "9c0aecd019403f31229a9aec6bd86d250d9b1c6b239d373ffc737666cdeb3c20",
}
GOLDEN_HNN_S3_RWS = "936bbe243954ec0dfa5190bad01fa4eabe42131654c683ef1e334ce9863ecba6"
GOLDEN_HNN_S3_S_OF_P_RWS = "4640b2992de2938ea1a68eaa25737ca107ade58cdec775597343080bb50e60f8"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_complete_output_is_byte_identical(tmp_path, capsys):
    """cycrew complete in every mode on S_eps(HNN(Z4, Z2)), 1,321 rules."""
    path = tmp_path / "s_eps.rws"
    path.write_text(emit_rws(derive_system(hnn_cyclic(4, 2), "S_eps")))
    digests = {}
    for mode in GOLDEN_COMPLETE:
        assert main(["complete", str(path), "--mode", mode]) == 0
        digests[mode] = _sha256(capsys.readouterr().out)
    assert digests == GOLDEN_COMPLETE


def test_emitted_rule_set_is_byte_identical():
    assert _sha256(emit_rws(derive_system(samples.hnn_s3(), "S_eps"))) == GOLDEN_HNN_S3_RWS
    assert _sha256(emit_rws(derive_system(samples.hnn_s3(), "S_of_P"))) == GOLDEN_HNN_S3_S_OF_P_RWS


class TestPg:
    def test_round_trip_corpus(self):
        for p in (
            samples.dihedral_infinity(),
            samples.z4_amalgam_z6(),
            samples.hnn_s3(),
            samples.free_pregroup(2),
        ):
            p2 = parse_pg(emit_pg(p))
            assert p2.elements == p.elements
            assert p2.eps == p.eps
            assert p2.inv == p.inv
            assert p2.table == p.table

    def test_epsilon_rows_are_implicit(self):
        p = samples.free_pregroup(1)
        text = emit_pg(p)
        assert "e a = a" not in text  # synthesised on parse, not stored
        assert parse_pg(text).mul(p.eps, p.index["a"]) == p.index["a"]

    @pytest.mark.parametrize("stated", [("e", "a", "A"), ("A", "e", "e"), ("e", "e", "a")])
    def test_epsilon_products_that_break_p1_are_written(self, stated):
        # a product of the epsilon row or column that differs from P1's is
        # written out, so the table read back fails P1 as the original does
        x, y, z = stated
        p = Pregroup(
            ["e", "a", "A"], "e", {"a": "A", "A": "a"}, {("a", "A"): "e", ("A", "a"): "e", (x, y): z}
        )
        text = emit_pg(p)
        assert f"{x} {y} = {z}" in text.split("\n")
        back = parse_pg(text)
        assert back.table == p.table
        assert check_axioms(back).violations["P1"] == check_axioms(p).violations["P1"] != []

    def test_missing_section_rejected(self):
        with pytest.raises(ParseError):
            parse_pg("[product]\na a = e\n")

    def test_unknown_element_reports_line(self):
        text = "[pregroup]\nelements: e a\nepsilon: e\n[product]\na z = e\n"
        with pytest.raises(ParseError) as err:
            parse_pg(text)
        assert err.value.line == 5

    def test_conflicting_products_report_line(self, tmp_path, capsys):
        head = "[pregroup]\nelements: e a\nepsilon: e\npairs: a a\n[product]\n"
        # a repeated entry with the same result is accepted
        assert parse_pg(head + "a a = e\na a = e\n").mul(1, 1) == 0
        text = head + "a a = e\na a = a\n"
        with pytest.raises(ParseError, match="a a given as both e and a") as err:
            parse_pg(text)
        assert err.value.line == 7
        path = tmp_path / "conflict.pg"
        path.write_text(text)
        assert main(["axioms", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 7:")

    def test_program_errors_are_not_parse_errors(self, monkeypatch):
        def broken(*args):
            raise TypeError("a bug, not bad input")

        monkeypatch.setattr(formats, "Pregroup", broken)
        with pytest.raises(TypeError):
            parse_pg(emit_pg(samples.free_pregroup(1)))

    def test_pairs_lines_accumulate(self):
        p = parse_pg("[pregroup]\nelements: e a b c\nepsilon: e\npairs: a a\npairs:\npairs: b c\n")
        assert p.inv == (0, 1, 3, 2)

    def test_bad_involution_rejected(self):
        text = "[pregroup]\nelements: e a b\nepsilon: e\npairs: a e\n[product]\n"
        with pytest.raises(ParseError):
            parse_pg(text)


class TestGrp:
    def test_round_trip_with_subgroups_and_maps(self):
        t = samples.s3_table()
        subgroups = {"A": ("e", "s"), "R": ("e", "r", "r2")}
        maps = {("A", "A"): {"e": "e", "s": "s"}}
        t2, subs, maps2 = parse_grp(emit_grp(t, subgroups, maps))
        assert t2.elements == t.elements
        assert t2.table == t.table
        assert subs == subgroups
        assert maps2 == maps

    def test_minimal_file(self):
        t, subs, maps = parse_grp(emit_grp(samples.trivial_table()))
        assert len(t) == 1 and subs == {} and maps == {}

    def test_incomplete_table_rejected(self):
        text = "[group]\nelements: e a\nidentity: e\n[product]\ne e = e\n"
        with pytest.raises(ParseError):
            parse_grp(text)

    def test_bad_map_line_rejected(self):
        text = (
            "[group]\nelements: e\nidentity: e\n[product]\ne e = e\n"
            "[map A->B]\ne = e\n"
        )
        with pytest.raises(ParseError):
            parse_grp(text)


# subgroup and map blocks that parse_grp would misread, and the message
# emit_grp refuses them with: (subgroups, maps, message)
_S3_A = {"A": ("e", "s")}
_UNWRITABLE_BLOCKS = {
    "name-empty": ({"": ("e",)}, {}, "subgroup name is empty"),
    "name-hash": ({"a#b": ("e",)}, {}, "subgroup name 'a#b' holds '#', which starts a comment"),
    "name-line-break": ({"a\nb": ("e",)}, {}, "subgroup name 'a\\nb' holds a line break"),
    "name-leading-space": ({" A": ("e",)}, {}, "subgroup name ' A' has leading or trailing whitespace"),
    "name-trailing-tab": ({"A\t": ("e",)}, {}, "subgroup name 'A\\t' has leading or trailing whitespace"),
    "source-arrow": (_S3_A, {("x->y", "A"): {}}, "map source 'x->y' holds '->', which ends a map source"),
    "source-empty": (_S3_A, {("", "A"): {}}, "map source is empty"),
    "target-hash": (_S3_A, {("A", "B#"): {}}, "map target 'B#' holds '#', which starts a comment"),
    "target-carriage-return": (_S3_A, {("A", "B\rC"): {}}, "map target 'B\\rC' holds a line break"),
    "target-trailing-space": (_S3_A, {("A", "B "): {}}, "map target 'B ' has leading or trailing whitespace"),
    "member-empty": ({"A": ("e", "")}, {}, "subgroup member is empty"),
    "member-hash": ({"A": ("e", "s#")}, {}, "subgroup member 's#' holds '#', which starts a comment"),
    "member-space": (
        {"A": ("e s",)}, {}, "subgroup member 'e s' holds whitespace, which separates subgroup members"
    ),
    "entry-empty": (_S3_A, {("A", "A"): {"e": ""}}, "map entry token is empty"),
    "entry-hash": (
        _S3_A, {("A", "A"): {"#e": "e"}}, "map entry token '#e' holds '#', which starts a comment"
    ),
    "entry-tab": (
        _S3_A,
        {("A", "A"): {"e": "s\t"}},
        "map entry token 's\\t' holds whitespace, which separates map entry tokens",
    ),
    # the line "[e : s]" would read as a header
    "entry-brackets": (
        _S3_A,
        {("A", "A"): {"[e": "s]"}},
        "a map entry token starts with '[' and a map entry token ends with ']'",
    ),
}


@pytest.mark.parametrize("subgroups, maps, message", _UNWRITABLE_BLOCKS.values(), ids=_UNWRITABLE_BLOCKS)
def test_emit_grp_refuses_blocks_it_cannot_write_back(subgroups, maps, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        emit_grp(samples.s3_table(), subgroups, maps)


# the pieces of a drawn block name or token: letters, and the characters
# that a .grp line cuts, splits or strips at, or reads a header by; the
# letters are drawn ten times as often as each other piece
_BLOCK_PIECES = ("a", "b", "#", " ", "\t", "\n", "\r", "->", "[", "]", ",", ":")
_BLOCK_WEIGHTS = (10, 10) + (1,) * 10


def test_grp_blocks_read_back_or_are_refused():
    rng = random.Random("grp blocks")

    def draw():
        return "".join(rng.choices(_BLOCK_PIECES, _BLOCK_WEIGHTS, k=rng.choice((0, 1, 1, 2, 2, 3, 3, 3))))

    table = samples.z2_table(("e", "a"))
    kinds = collections.Counter()
    for _ in range(3000):
        subgroups = {draw(): tuple(draw() for _ in range(rng.randint(0, 2))) for _ in range(rng.randint(0, 2))}
        maps = {
            (draw(), draw()): {draw(): draw() for _ in range(rng.randint(0, 2))} for _ in range(rng.randint(0, 2))
        }
        try:
            text = emit_grp(table, subgroups, maps)
        except ParseError:
            kinds["refused"] += 1
            continue
        assert parse_grp(text)[1:] == (subgroups, maps), text
        kinds["read back" if subgroups or maps else "no block"] += 1
    assert kinds["refused"] >= 1500 and kinds["read back"] >= 200, kinds


# every keyed entry, and a map entry, given twice, the second on line 4: one
# section, or a block whose header is given twice
REPEATED_KEYS = {
    "pg-elements": (parse_pg, "[pregroup]\nelements: e a\nepsilon: e\nelements: e a b\n"),
    "pg-epsilon": (parse_pg, "[pregroup]\nepsilon: e\nelements: e a\nepsilon: a\n"),
    "rws-letters": (parse_rws, "[alphabet]\nletters: a b\npairs: a b\nletters: a\n"),
    "grp-elements": (parse_grp, "[group]\nelements: e\nidentity: e\nelements: e\n"),
    "grp-identity": (parse_grp, "[group]\nidentity: e\nelements: e\nidentity: e\n"),
    "grp-subgroup-block": (
        parse_grp,
        "[subgroup H]\nelements: e\n[subgroup H]\nelements: e a\n"
        "[group]\nelements: e a\nidentity: e\n[product]\n"
        "e e = e\ne a = a\na e = a\na a = e\n",
    ),
    "grp-map-entry": (
        parse_grp,
        "[map A->B]\ne : e\na : a\ne : a\n[group]\nelements: e\nidentity: e\n[product]\ne e = e\n",
    ),
    "grp-map-block": (
        parse_grp,
        "[map A->B]\ne : e\n[map A->B]\ne : a\n[group]\nelements: e\nidentity: e\n[product]\ne e = e\n",
    ),
}


@pytest.mark.parametrize("parse, text", REPEATED_KEYS.values(), ids=REPEATED_KEYS)
def test_repeated_key_names_both_lines(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).endswith("entry repeated (first given on line 2)")
    assert err.value.line == 4 and str(err.value).startswith("line 4: ")


_PG = "[pregroup]\nelements: e a\nepsilon: e\n"
_GRP = "[group]\nelements: e\nidentity: e\n"
_RWS = "[alphabet]\nletters: a b\n"

MALFORMED = {
    "pg-missing-entry": ("pg", "[pregroup]\nelements: e a\n"),
    "pg-bad-pair": ("pg", _PG + "pairs: a\n"),
    "pg-product-shape": ("pg", _PG + "[product]\na a e\n"),
    "pg-unknown-element": ("pg", _PG + "[product]\na a = z\n"),
    "pg-before-section": ("pg", "elements: e a\n" + _PG),
    "grp-missing-section": ("grp", "[subgroup A]\nelements: e\n"),
    "grp-missing-entry": ("grp", "[group]\nelements: e\n"),
    "grp-product-shape": ("grp", _GRP + "[product]\ne e e\n"),
    "grp-unknown-element": ("grp", _GRP + "[product]\ne e = f\n"),
    "grp-map-header": ("grp", _GRP + "[product]\ne e = e\n[map A]\n"),
    "rws-missing-entry": ("rws", "[alphabet]\npairs: a b\n"),
    "rws-bad-pair": ("rws", _RWS + "pairs: a b a\n"),
    "rws-two-arrows": ("rws", _RWS + "[rules]\na -> b -> 1\n"),
    "rws-no-arrow": ("rws", _RWS + "[rules]\na b\n"),
    "rws-cyclic-no-arrow": ("rws", _RWS + "[cyclic-rules]\na b\n"),
    "rws-symmetric-length": ("rws", _RWS + "[rules]\na b <-> a\n"),
    "rws-unknown-tag": ("rws", _RWS + "[rules]\nnone: a -> b\n"),
}


@pytest.mark.parametrize("kind, text", MALFORMED.values(), ids=MALFORMED)
def test_malformed_text_raises_and_cli_exits_2(kind, text, tmp_path, capsys):
    parse = {"pg": parse_pg, "grp": parse_grp, "rws": parse_rws}[kind]
    with pytest.raises(ParseError):
        parse(text)
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    argv = {
        "pg": ["axioms", str(path)],
        "grp": ["from-hnn", str(path), "--sub-a", "e", "--sub-b", "e"],
        "rws": ["reduce", str(path), "-w", "a"],
    }[kind]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
