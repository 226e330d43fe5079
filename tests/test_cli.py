import contextlib
import io
import json
import re
import subprocess
import sys
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycrew import samples
from cycrew.cli import main
from cycrew.completion import cdagger, hat_extension, resolve_short_pairs
from cycrew.constructions import FiniteGroupTable
from cycrew.formats import emit_grp, emit_pg, emit_rws, parse_grp, parse_pg, parse_rws
from cycrew.pregroup import derive_system

from conftest import hnn_cyclic, ref_check_axioms


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return paths[name]

    put("dinf.pg", emit_pg(samples.dihedral_infinity()))
    put("free.rws", emit_rws(samples.free_group_system(2)))
    put(
        "z2a.grp",
        emit_grp(samples.z2_table(("e", "a")), {"T": ("e",)}, {}),
    )
    put(
        "z2b.grp",
        emit_grp(samples.z2_table(("e", "b")), {"T": ("e",)}, {}),
    )
    put("s3.grp", emit_grp(samples.s3_table(), {"A": ("e", "s")}, {}))
    paths["tmp"] = str(tmp_path)
    return paths


class TestAxioms:
    def test_valid_pregroup(self, files, capsys):
        assert main(["axioms", files["dinf.pg"]]) == 0
        out = capsys.readouterr().out
        assert "P1: ok" in out and "G_P = {e}" in out

    def test_json_output(self, files, capsys):
        assert main(["axioms", files["dinf.pg"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axioms"]["P1"]["ok"]
        assert payload["P7"]["ok"]
        assert payload["G_P"] == ["e"]

    def test_violation_exit_code(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.pg"
        bad.write_text("[pregroup]\nelements: e a\nepsilon: e\n[product]\n")
        assert main(["axioms", str(bad)]) == 1
        assert "P2: FAIL" in capsys.readouterr().out

    def test_stated_epsilon_product_fails_p1(self, tmp_path, capsys):
        # [e a] = A breaks P1; the table must not be repaired behind the
        # user's back, so axioms fails and nf refuses the file
        bad = tmp_path / "bad.pg"
        bad.write_text(
            "[pregroup]\nelements: e a A\nepsilon: e\npairs: a A\n[product]\n"
            "a A = e\nA a = e\ne a = A\n"
        )
        assert main(["axioms", str(bad)]) == 1
        assert "P1: FAIL [('a',)]" in capsys.readouterr().out
        assert main(["nf", str(bad), "-w", "a A a"]) == 2
        assert capsys.readouterr().out == ""

    def test_non_pregroup_reports_violation(self, files, tmp_path, capsys):
        # G_P = {e, a} is not closed ([aa] = b), so P6-P8 cannot be checked
        bad = tmp_path / "bad.pg"
        bad.write_text(
            "[pregroup]\nelements: e a b\nepsilon: e\n[product]\n"
            "a a = b\na b = e\nb a = e\n"
        )
        assert main(["axioms", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "P2: FAIL" in out and "P6: not checked" in out

    @pytest.mark.parametrize(
        "table",
        [
            "elements: e a\nepsilon: e\n[product]\n",
            "elements: e a b\nepsilon: e\n[product]\na a = b\na b = e\nb a = e\n",
        ],
        ids=["fails-p2-only", "g_p-not-a-subgroup"],
    )
    def test_p6_to_p8_not_checked_where_p1_to_p5_fail(self, tmp_path, capsys, table):
        # P6-P8 and G_P mean something only on a table that satisfies
        # P1-P5, whether or not their computation would raise on it
        bad = tmp_path / "bad.pg"
        bad.write_text("[pregroup]\n" + table)
        assert main(["axioms", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out.endswith(
            "P6: not checked (P1-P5 fail)\nP7: not checked (P1-P5 fail)\n"
            "P8: not checked (P1-P5 fail)\nG_P = {}\n"
        )
        assert err == ""
        assert main(["axioms", str(bad), "--json"]) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert [payload[name] for name in ("P6", "P7", "P8")] == [{"ok": None, "witnesses": []}] * 3
        assert payload["G_P"] == [] and err == ""

    def test_repeated_elements_entry_is_exit_2(self, tmp_path, capsys):
        # a second elements line is an error, not ignored
        bad = tmp_path / "bad.pg"
        bad.write_text("[pregroup]\nelements: e a\nepsilon: e\nelements: e a b\n[product]\n")
        assert main(["axioms", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: line 4: 'elements' entry repeated (first given on line 2)\n"
        )


class TestReduceFamily:
    def test_reduce_pg(self, files, capsys):
        assert main(["reduce", files["dinf.pg"], "-w", "a a b"]) == 0
        assert capsys.readouterr().out.strip() == "b"

    def test_reduce_rws(self, files, capsys):
        assert main(["reduce", files["free.rws"], "-w", "a A b"]) == 0
        assert capsys.readouterr().out.strip() == "b"

    def test_reduce_empty_result(self, files, capsys):
        assert main(["reduce", files["dinf.pg"], "-w", "a a"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_nf(self, files, capsys):
        assert main(["nf", files["dinf.pg"], "-w", "b b a"]) == 0
        assert capsys.readouterr().out.strip() == "a"

    def test_cyclic_reduce(self, files, capsys):
        assert main(["cyclic-reduce", files["dinf.pg"], "-w", "b a b"]) == 0
        assert capsys.readouterr().out.strip() == "a"

    def test_unknown_letter_is_exit_2(self, files, capsys):
        assert main(["reduce", files["dinf.pg"], "-w", "z"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, files, capsys):
        assert main(["reduce", "no-such-file.pg", "-w", "a"]) == 2


class TestConj:
    def test_yes_with_conjugator(self, files, capsys):
        assert main(["conj", files["dinf.pg"], "-u", "a b", "-v", "b a"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("yes")
        assert "conjugator: b" in out

    def test_no(self, files, capsys):
        assert main(["conj", files["dinf.pg"], "-u", "a", "-v", "b"]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_json(self, files, capsys):
        assert (
            main(["conj", files["dinf.pg"], "-u", "a", "-v", "b", "--json"]) == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"verdict": False, "certificate": None, "method": "linear"}

    def test_quadratic_algo(self, files, capsys):
        assert (
            main(
                ["conj", files["dinf.pg"], "-u", "a b", "-v", "b a",
                 "--algo", "quadratic", "--json"]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["method"] == "quadratic"

    def test_oracle_inconclusive_is_exit_3(self, files, capsys):
        assert (
            main(
                ["conj", files["dinf.pg"], "-u", "a", "-v", "b a b",
                 "--algo", "oracle", "--max-conj-len", "0"]
            )
            == 3
        )
        assert capsys.readouterr().out.strip() == "inconclusive"

    def test_oracle_inconclusive_json(self, files, capsys):
        argv = ["conj", files["dinf.pg"], "-u", "a", "-v", "b a b",
                "--algo", "oracle", "--max-conj-len", "0", "--json"]
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().out) == {
            "verdict": None, "certificate": None, "method": "oracle"
        }

    def test_oracle_positive(self, files, capsys):
        assert (
            main(
                ["conj", files["dinf.pg"], "-u", "a", "-v", "b a b",
                 "--algo", "oracle"]
            )
            == 0
        )


class TestComplete:
    def test_hat_to_stdout(self, files, capsys):
        assert main(["complete", files["free.rws"], "--mode", "hat"]) == 0
        out = capsys.readouterr().out
        assert "whole: 1 -> A a" in out

    def test_circle(self, files, capsys):
        assert main(["complete", files["free.rws"], "--mode", "circle"]) == 0
        assert "1 -> a A" in capsys.readouterr().out

    def test_cstar_output_file(self, files, tmp_path, capsys):
        out_path = tmp_path / "out.rws"
        four = tmp_path / "four.rws"
        four.write_text(emit_rws(samples.four_letter_cycle_system()))
        assert (
            main(["complete", str(four), "--mode", "cstar", "-o", str(out_path)])
            == 0
        )
        text = out_path.read_text()
        assert "[cyclic-rules]" in text
        assert "a c d b -> a b d c" in text

    def test_cdagger(self, tmp_path, capsys):
        s_eps = derive_system(samples.s3_table(), "S_eps")
        path = tmp_path / "s_eps.rws"
        path.write_text(emit_rws(s_eps))
        assert main(["complete", str(path), "--mode", "cdagger"]) == 0
        _system, pairs = parse_rws(capsys.readouterr().out)
        extra = cdagger(s_eps).extra
        assert extra and tuple(pairs) == extra

    def test_cdagger_rejects_nonthue(self, files, tmp_path, capsys):
        four = tmp_path / "four.rws"
        four.write_text(emit_rws(samples.four_letter_cycle_system()))
        assert main(["complete", str(four), "--mode", "cdagger"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_hat_refuses_length_increasing_rules(self, tmp_path, capsys):
        grow = tmp_path / "grow.rws"
        grow.write_text("[alphabet]\nletters: a b\n[rules]\nb a -> a b b\n")
        assert main(["complete", str(grow), "--mode", "hat"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: hat extension needs length-nonincreasing rules\n"

    def test_letter_it_cannot_write_back_is_exit_2(self, tmp_path, capsys):
        # no rule can name the letter "->", and the output would hold rules
        # over it that no reader takes: the reader refuses its letters: line
        path = tmp_path / "arrow.rws"
        path.write_text("[alphabet]\nletters: a ->\n[rules]\na a a -> 1\n")
        assert main(["complete", str(path), "--mode", "hat"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: '->' is reserved for rule arrows\n"

    @pytest.mark.parametrize("mode", ["hat", "circle", "cstar", "cdagger"])
    def test_cyclic_rules_in_input_are_exit_2(self, tmp_path, capsys, mode):
        # no mode reads them, so the output would silently lack the pair
        path = tmp_path / "cyclic.rws"
        path.write_text(
            "[alphabet]\nletters: a A\npairs: a A\n"
            "[rules]\na A -> 1\nA a -> 1\n[cyclic-rules]\na a -> A A\n"
        )
        assert main(["complete", str(path), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "[cyclic-rules]" in captured.err


class TestOutputPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["complete", "free.rws", "--mode", "hat"],
            ["from-hnn", "s3.grp", "--sub-a", "A", "--sub-b", "A"],
            ["from-amalgam", "-a", "z2a.grp", "-b", "z2b.grp", "--ha", "T", "--hb", "T"],
        ],
        ids=["complete", "from-hnn", "from-amalgam"],
    )
    @pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_output_is_exit_2(self, files, tmp_path, capsys, argv, target):
        argv = [files.get(arg, arg) for arg in argv]
        out_path = tmp_path / target
        assert main(argv + ["-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert not (tmp_path / "missing").exists()


class TestFromAmalgam:
    def test_dinf_build(self, files, capsys):
        assert (
            main(
                ["from-amalgam", "-a", files["z2a.grp"], "-b", files["z2b.grp"],
                 "--ha", "T", "--hb", "T"]
            )
            == 0
        )
        p = parse_pg(capsys.readouterr().out)
        assert set(p.elements) == {"e", "a", "b"}

    def test_token_lists(self, files, capsys):
        assert (
            main(
                ["from-amalgam", "-a", files["z2a.grp"], "-b", files["z2b.grp"],
                 "--ha", "e", "--hb", "e"]
            )
            == 0
        )

    def test_mismatched_subgroups_exit_2(self, files, capsys):
        assert (
            main(
                ["from-amalgam", "-a", files["z2a.grp"], "-b", files["z2b.grp"],
                 "--ha", "e a", "--hb", "e"]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "pairing, code",
        [("e:e,s:s", 0), ("e:e", 2), ("e:e,s:s,r:s", 2), ("e:e,s:zz", 2)],
        ids=["complete", "missing-token", "unknown-token", "unknown-b-token"],
    )
    def test_map(self, files, capsys, pairing, code):
        argv = ["from-amalgam", "-a", files["s3.grp"], "-b", files["s3.grp"],
                "--ha", "e s", "--hb", "e s", "--map", pairing]
        assert main(argv) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("error:")

    def test_non_subgroup_exit_2(self, files, capsys):
        assert (
            main(
                ["from-amalgam", "-a", files["s3.grp"], "-b", files["z2b.grp"],
                 "--ha", "e r", "--hb", "e b"]
            )
            == 2
        )

    def test_map_entry_without_colon_named(self, files, capsys):
        # an empty --map is one empty entry, not "no --map given"
        for pairing, entry in [("e:e,s", "s"), ("", "")]:
            argv = ["from-amalgam", "-a", files["s3.grp"], "-b", files["s3.grp"],
                    "--ha", "e s", "--hb", "e s", "--map", pairing]
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: --map entry {entry!r} is not of the form x:y\n"
            )

    def test_map_token_given_twice_named(self, files, capsys):
        # without the check the last entry for e would win, and the map
        # would be valid
        argv = ["from-amalgam", "-a", files["s3.grp"], "-b", files["s3.grp"],
                "--ha", "e s", "--hb", "e s", "--map", "e:s,e:e,s:s"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --map gives 'e' twice\n"

    def test_map_checks_hb(self, files, capsys):
        # {e, r} is no subgroup of S3, though --map sends --ha onto {e, s}
        argv = ["from-amalgam", "-a", files["s3.grp"], "-b", files["s3.grp"],
                "--ha", "e s", "--hb", "e r", "--map", "e:e,s:s"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: ['e', 'r'] is not a subgroup\n"

    def test_unknown_ha_token_exit_2(self, files, capsys):
        argv = ["from-amalgam", "-a", files["s3.grp"], "-b", files["s3.grp"],
                "--ha", "e zz", "--hb", "e s"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "zz" in err


class TestFromHnn:
    def test_build(self, files, tmp_path, capsys):
        out_path = tmp_path / "hnn.pg"
        assert (
            main(
                ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                 "-o", str(out_path)]
            )
            == 0
        )
        p = parse_pg(out_path.read_text())
        assert len(p) == 42
        assert "e|t|e" in p.elements

    def test_explicit_phi(self, files, capsys):
        assert (
            main(
                ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                 "--phi", "e:e,s:s"]
            )
            == 0
        )

    def test_phi_from_map_block(self, files, tmp_path, capsys):
        # without --phi, the [map A->A] block of the .grp file gives phi
        def build(maps):
            path = tmp_path / "s3map.grp"
            path.write_text(emit_grp(samples.s3_table(), {"A": ("e", "s")}, maps))
            return main(["from-hnn", str(path), "--sub-a", "A", "--sub-b", "A"])

        assert build({("A", "A"): {"e": "e", "s": "s"}}) == 0
        from_map = capsys.readouterr().out
        assert main(["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                     "--phi", "e:e,s:s"]) == 0
        assert from_map == capsys.readouterr().out
        # a map that is no isomorphism is rejected, so the block was read
        assert build({("A", "A"): {"e": "s", "s": "e"}}) == 2

    def test_subgroup_block_given_twice_is_exit_2(self, tmp_path, capsys):
        # the two [subgroup A] blocks merge, and neither one wins
        text = emit_grp(samples.s3_table(), {"A": ("e", "s")}, {})
        path = tmp_path / "twice.grp"
        path.write_text(text + "[subgroup A]\nelements: e r r2\n")
        assert main(["from-hnn", str(path), "--sub-a", "A", "--sub-b", "A"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "'elements' entry repeated" in err

    def test_map_block_entry_given_twice_is_exit_2(self, tmp_path, capsys):
        # a second [map A->A] block merges with the first, and its e : s
        # must not replace e : e
        maps = {("A", "A"): {"e": "e", "s": "s"}}
        text = emit_grp(samples.s3_table(), {"A": ("e", "s")}, maps)
        path = tmp_path / "twice.grp"
        path.write_text(text + "[map A->A]\ne : s\n")
        assert main(["from-hnn", str(path), "--sub-a", "A", "--sub-b", "A"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "[map A->A] 'e' entry repeated" in err

    def test_phi_token_given_twice_named(self, files, capsys):
        argv = ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                "--phi", "e:s,e:e,s:s"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --phi gives 'e' twice\n"

    def test_bad_phi_exit_2(self, files, capsys):
        assert (
            main(
                ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                 "--phi", "e:s,s:e"]
            )
            == 2
        )

    def test_phi_entry_without_colon_named(self, files, capsys):
        # an empty --phi is one empty entry, not "no --phi given"
        for phi, entry in [("e:e, s", "s"), ("", "")]:
            argv = ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                    "--phi", phi]
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: --phi entry {entry!r} is not of the form x:y\n"
            )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sub-a", "e zz", "--sub-b", "A"],
            ["--sub-a", "A", "--sub-b", "e zz"],
            ["--sub-a", "A", "--sub-b", "A", "--phi", "e:e,s:zz"],
        ],
        ids=["sub-a", "sub-b", "phi"],
    )
    def test_unknown_token_exit_2(self, files, capsys, flags):
        assert main(["from-hnn", files["s3.grp"], *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "zz" in err


# The help is checked by substring and line, since argparse lays it out
# differently from one Python version to the next


_COMMAND_HELP = {
    "axioms": "check pregroup axioms of a .pg file",
    "reduce": "greedy reduction (.pg or .rws)",
    "nf": "shortlex normal form over a .pg file",
    "cyclic-reduce": "cyclically reduce over a .pg file",
    "conj": "decide conjugacy over a .pg file",
    "complete": "extend or complete a .rws system",
    "from-amalgam": "build an amalgam pregroup .pg",
    "from-hnn": "build an HNN pregroup .pg",
}


def _help(monkeypatch, capsys, argv):
    """The help text of cycrew argv, laid out 200 columns wide."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_help_names_every_command(monkeypatch, capsys):
    out = _help(monkeypatch, capsys, ["-h"])
    assert "{" + ",".join(_COMMAND_HELP) + "}" in out
    lines = [line.split(None, 1) for line in out.splitlines()]
    for name, text in _COMMAND_HELP.items():
        assert [name, text] in lines


@pytest.mark.parametrize(
    "command, choices",
    [("conj", "--algo {linear,quadratic,oracle}"), ("complete", "--mode {hat,circle,cstar,cdagger}")],
)
def test_help_lists_the_choices_in_order(monkeypatch, capsys, command, choices):
    assert choices in _help(monkeypatch, capsys, [command, "-h"])


# The CLI contract on one set of files: Z4 as .grp with its subgroup
# H = {e, x2}, the .pg of HNN(Z4, H), S_eps of that pregroup as .rws (1,321
# rules), and what the CLI makes of them.  A new check of the cycrew command
# is a row here, or a call of test_exit_status_through_a_process when it
# needs a process; the CI workflow checks only the installed entry point.


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """The input files of CONTRACT_ROWS, and the outputs that rows compare
    with, each written by the library."""
    hnn = hnn_cyclic(4, 2)
    s_eps = derive_system(hnn, "S_eps")
    rws = emit_rws(s_eps)
    crs = resolve_short_pairs(s_eps)
    pg = emit_pg(hnn)
    *head, last = pg.splitlines()
    lhs = last.split(" = ")[0]
    texts = {
        "z4.grp": emit_grp(FiniteGroupTable.cyclic(4, "x"), {"H": ("e", "x2")}, {}),
        "hnn.pg": pg,
        "s_eps.rws": rws,
        "cstar.rws": emit_rws(crs.base, crs.extra),
        "hat.rws": emit_rws(hat_extension(s_eps)),
        # every space a tab
        "tabs.rws": rws.replace(" ", "\t"),
        # "[alphabet]\nlet": cut inside its letters: entry
        "cut.rws": rws[:14],
        # cut right after the arrow of its last rule: an empty rule side
        "arrow.rws": rws[: rws.rindex("->") + 2],
        # the last product rewritten to equal its own left factor
        "bad.pg": "\n".join(head + [f"{lhs} = {lhs.split()[0]}"]) + "\n",
    }
    root = tmp_path_factory.mktemp("contract")
    for name, text in texts.items():
        (root / name).write_text(text)
    return root


class ContractRow(NamedTuple):
    argv: list  # file names are those of contract_files; "out" is the -o file
    code: int
    stdout: Optional[str] = None  # compared where the check reads it
    output: Optional[str] = None  # the file whose bytes "out" holds
    round_trip: tuple = ()  # files that read and write back to the same bytes
    stderr: Optional[str] = None  # compared where the check reads it


_U = "e|t|x e|t|x e|t|x"
# two pairs of cyclic length 3, so the linear decision runs its b loop
_CONJ = {"yes": (_U, "x e|t|x e|t|x e|t|x x3", 0), "no": (_U, "e|t|x e|t|x e|t|x2", 1)}
CONTRACT_ROWS = {
    "from-hnn": ContractRow(
        ["from-hnn", "z4.grp", "--sub-a", "H", "--sub-b", "H", "-o", "out"],
        0,
        output="hnn.pg",
        round_trip=("z4.grp", "hnn.pg"),
    ),
    "axioms": ContractRow(["axioms", "hnn.pg"], 0),
    # phi folds H = {e, x2} onto {e}: its key and value sets are right
    "from-hnn-phi-not-injective": ContractRow(
        ["from-hnn", "z4.grp", "--sub-a", "e x2", "--sub-b", "e", "--phi", "e:e,x2:e"],
        2,
        stderr="error: phi is not injective\n",
    ),
    **{
        f"conj-{algo}-{answer}": ContractRow(["conj", "hnn.pg", "--algo", algo, "-u", u, "-v", v], code)
        for algo in ("linear", "quadratic")
        for answer, (u, v, code) in _CONJ.items()
    },
    # C* writes its [cyclic-rules]; the reader reads a tab as a space
    "cstar": ContractRow(
        ["complete", "s_eps.rws", "--mode", "cstar", "-o", "out"],
        0,
        output="cstar.rws",
        round_trip=("cstar.rws",),
    ),
    "cstar-tabs": ContractRow(
        ["complete", "tabs.rws", "--mode", "cstar", "-o", "out"], 0, output="cstar.rws"
    ),
    "cstar-cut": ContractRow(["complete", "cut.rws", "--mode", "cstar"], 2),
    "cstar-arrow": ContractRow(["complete", "arrow.rws", "--mode", "cstar"], 2),
    # about 8k anchored rules, which C* refuses as no standard system
    "hat": ContractRow(
        ["complete", "s_eps.rws", "--mode", "hat", "-o", "out"],
        0,
        output="hat.rws",
        round_trip=("hat.rws",),
    ),
    "cstar-hat": ContractRow(["complete", "hat.rws", "--mode", "cstar"], 2),
    # one word on which the three word queries print three different words
    **{
        f"{command}-pg": ContractRow([command, "hnn.pg", "-w", "x e|T|x e|t|x"], 0, answer)
        for command, answer in (
            ("reduce", "x|T|x e|t|x\n"),
            ("nf", "x|T|e x|t|x\n"),
            ("cyclic-reduce", "x3\n"),
        )
    },
    # x e|t|e x3 has the normal form x|t|x3 under S_eps and its hat extension
    "reduce-s_eps": ContractRow(["reduce", "s_eps.rws", "-w", "x e|t|e x3"], 0, "x|t|x3\n"),
    "reduce-hat": ContractRow(["reduce", "hat.rws", "-w", "x e|t|e x3"], 0, "x|t|x3\n"),
    # the axiom report fails, and a query refuses the file
    "axioms-bad": ContractRow(["axioms", "bad.pg"], 1),
    "reduce-bad": ContractRow(["reduce", "bad.pg", "-w", "x"], 2),
}

_WRITE_BACK = {
    ".grp": lambda text: emit_grp(*parse_grp(text)),
    ".pg": lambda text: emit_pg(parse_pg(text)),
    ".rws": lambda text: emit_rws(*parse_rws(text)),
}


@pytest.mark.parametrize("row", CONTRACT_ROWS.values(), ids=CONTRACT_ROWS)
def test_contract_row(contract_files, tmp_path, capsys, row):
    out = tmp_path / "out"
    paths = {p.name: str(p) for p in contract_files.iterdir()} | {"out": str(out)}
    assert main([paths.get(a, a) for a in row.argv]) == row.code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") if row.code == 2 else captured.err == ""
    if row.stdout is not None:
        assert captured.out == row.stdout
    if row.stderr is not None:
        assert captured.err == row.stderr
    if row.output is not None:
        assert out.read_text() == (contract_files / row.output).read_text()
    for name in row.round_trip:
        path = contract_files / name
        text = path.read_text()
        assert _WRITE_BACK[path.suffix](text) == text, name


@pytest.mark.parametrize(
    "command, words", [("reduce", ["-w", "x"]), ("conj", ["-u", "x", "-v", "x"])], ids=["reduce", "conj"]
)
def test_bad_pg_names_its_first_failing_axiom(contract_files, capsys, command, words):
    # a query refuses a table that fails P1-P5 with one error line: the
    # first failing axiom and its first witness, in element tokens
    bad = contract_files / "bad.pg"
    p = parse_pg(bad.read_text())
    name, witnesses = next((k, v) for k, v in ref_check_axioms(p).violations.items() if v)
    assert main([command, str(bad), *words]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: pregroup axiom {name} fails at {p.tokens(witnesses[0])}\n"
    assert not re.search(r"\(\d+,", err)


def test_exit_status_through_a_process(files):
    """python -m cycrew.cli, run with the suite's environment, exits with
    the code that main returns: one call for each of 0-3."""
    dinf = files["dinf.pg"]
    calls = [
        ["reduce", dinf, "-w", "a a b"],
        ["conj", dinf, "-u", "a", "-v", "b"],
        ["reduce", dinf, "-w", "z"],
        ["conj", dinf, "-u", "a", "-v", "b a b", "--algo", "oracle", "--max-conj-len", "0"],
    ]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "cycrew.cli", *argv], capture_output=True, text=True, timeout=60
        )
        for argv in calls
    ]
    assert [run.returncode for run in runs] == [0, 1, 2, 3], [run.stderr for run in runs]
    assert [run.stdout for run in runs] == ["b\n", "no\n", "", "inconclusive\n"]
    assert runs[2].stderr == "error: unknown letter 'z'\n"


# Exit-code contract: every input, malformed ones included, gives 0-3.

_FUZZ_SOURCES = {
    "pg": emit_pg(samples.z4_amalgam_z6()),
    "rws": emit_rws(samples.free_group_system(2)),
    "grp": emit_grp(samples.s3_table(), {"A": ("e", "s")}, {("A", "A"): {"e": "e", "s": "s"}}),
}
_FUZZ_PIECES = sorted(
    {tok for text in _FUZZ_SOURCES.values() for tok in text.split()}
    | {"", "1", "zz", "[", "]", ":", "=", "->", "-", ",", "x y = z", "[map A->B]"}
)
_FUZZ_EDITS = st.tuples(
    st.sampled_from(
        ["delete line", "copy line", "replace line", "delete token", "insert token", "replace token"]
    ),
    st.integers(0, 99),
    st.integers(0, 99),
    st.sampled_from(_FUZZ_PIECES),
)


def _mutate(text, edits):
    """text with each (operation, line, position, piece) edit applied in
    turn; line and position wrap around."""
    lines = text.split("\n")
    for op, at, pos, piece in edits:
        at %= len(lines)
        if op == "delete line":
            del lines[at]
        elif op == "copy line":
            lines.insert(at, lines[pos % len(lines)])
        elif op == "replace line":
            lines[at] = piece
        else:
            tokens = lines[at].split(" ")
            pos %= len(tokens)
            if op == "delete token":
                del tokens[pos]
            elif op == "insert token":
                tokens.insert(pos, piece)
            else:
                tokens[pos] = piece
            lines[at] = " ".join(tokens)
        lines = lines or [""]
    return "\n".join(lines)


def _fuzz_commands(kind, path):
    if kind == "pg":
        return [
            ["axioms", path],
            ["conj", path, "-u", "x y", "-v", "y x"],
            ["nf", path, "-w", "y x2 x"],
            ["reduce", path, "-w", "x x3 y"],
        ]
    if kind == "rws":
        modes = ("hat", "circle", "cstar", "cdagger")
        return [["reduce", path, "-w", "a A b"]] + [["complete", path, "--mode", m] for m in modes]
    return [
        ["from-hnn", path, "--sub-a", "A", "--sub-b", "A"],
        ["from-amalgam", "-a", path, "-b", path, "--ha", "A", "--hb", "A"],
    ]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(sorted(_FUZZ_SOURCES)), edits=st.lists(_FUZZ_EDITS, min_size=1, max_size=3))
def test_mutated_files_keep_exit_code_contract(tmp_path_factory, kind, edits):
    path = tmp_path_factory.getbasetemp() / f"mutated.{kind}"
    path.write_text(_mutate(_FUZZ_SOURCES[kind], edits))
    for argv in _fuzz_commands(kind, str(path)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
