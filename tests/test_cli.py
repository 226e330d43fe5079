import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycrew import samples
from cycrew.cli import main
from cycrew.completion import cdagger
from cycrew.formats import emit_grp, emit_pg, emit_rws, parse_pg, parse_rws
from cycrew.pregroup import derive_system


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

    def test_reduce_rws_budget(self, files, capsys):
        # two applications reduce a A b B; one is not enough
        assert main(["reduce", files["free.rws"], "-w", "a A b B", "--budget", "2"]) == 0
        assert capsys.readouterr().out.strip() == ""
        assert main(["reduce", files["free.rws"], "-w", "a A b B", "--budget", "1"]) == 2
        assert "no fixpoint within 1 steps" in capsys.readouterr().err


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
        assert json.loads(capsys.readouterr().out) == {"verdict": None, "method": "oracle"}

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
        argv = ["from-amalgam", "-a", files["s3.grp"], "-b", files["s3.grp"],
                "--ha", "e s", "--hb", "e s", "--map", "e:e,s"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --map entry 's' is not of the form x:y\n"
        )

    def test_map_token_given_twice_named(self, files, capsys):
        # without the check the last entry for e would win, and the map
        # would be valid
        argv = ["from-amalgam", "-a", files["s3.grp"], "-b", files["s3.grp"],
                "--ha", "e s", "--hb", "e s", "--map", "e:s,e:e,s:s"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --map gives 'e' twice\n"

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
        argv = ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                "--phi", "e:e, s"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --phi entry 's' is not of the form x:y\n"
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
