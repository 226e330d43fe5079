import pytest

from cycrew import formats, samples
from cycrew.cli import main
from cycrew.completion import resolve_short_pairs
from cycrew.formats import (
    ParseError,
    emit_grp,
    emit_pg,
    emit_rws,
    parse_grp,
    parse_pg,
    parse_rws,
)
from cycrew.rewrite import Anchor
from cycrew.words import CyclicWord


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
        # as in .pg files: the second line adds b B and keeps a A
        text = "[alphabet]\nletters: a A b B\npairs: a A\npairs: b B\n"
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
        p = parse_pg("[pregroup]\nelements: e a b c\nepsilon: e\npairs: a a\npairs: b c\n")
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
