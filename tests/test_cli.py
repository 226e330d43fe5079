import json

import pytest

from cycrew import samples
from cycrew.cli import main
from cycrew.formats import emit_grp, emit_pg, emit_rws, parse_pg


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

    def test_cdagger_rejects_nonthue(self, files, tmp_path, capsys):
        four = tmp_path / "four.rws"
        four.write_text(emit_rws(samples.four_letter_cycle_system()))
        assert main(["complete", str(four), "--mode", "cdagger"]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_bad_phi_exit_2(self, files, capsys):
        assert (
            main(
                ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A",
                 "--phi", "e:s,s:e"]
            )
            == 2
        )
