import json

import pytest

from toricplex.cli import main


@pytest.fixture()
def fixture_dir(tmp_path):
    assert main(["fixtures", "--out", str(tmp_path), "--simplex", "3"]) == 0
    return tmp_path


def run(capsys, argv):
    capsys.readouterr()  # drop fixture-setup output
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFixturesAndBetti:
    def test_fixture_files_written(self, fixture_dir):
        names = {p.name for p in fixture_dir.iterdir()}
        assert {"path3.cplx", "cycle4.cplx", "2k2.cplx", "rp2-flag.cplx",
                "triangle-boundary.cplx", "simplex3.cplx"} <= names

    def test_betti(self, capsys, fixture_dir):
        code, out, _ = run(capsys, ["betti", str(fixture_dir / "path3.cplx")])
        assert code == 0 and "1 3 2" in out and "aspherical" in out

    def test_betti_triangle_boundary(self, capsys, fixture_dir):
        code, out, _ = run(capsys, ["betti", str(fixture_dir / "triangle-boundary.cplx"),
                                    "--json"])
        report = json.loads(out)
        assert code == 0 and report["p"] == 2 and report["coinvariant_rank"] == 1


class TestZcover:
    def test_weighted_path(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "zcover", str(fixture_dir / "path3.cplx"),
            "--chi", "a=1,b=2,c=1", "--field", "q0"])
        assert code == 0
        assert "H_1 = [d=1: e1=2] (+) [d=2: e1=1]" in out

    def test_oracle_flag(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "zcover", str(fixture_dir / "path3.cplx"),
            "--chi", "a=1,b=2,c=1", "--field", "p2", "--oracle"])
        assert code == 0 and "oracle: match" in out

    def test_json_text_round_trip(self, capsys, fixture_dir):
        argv = ["zcover", str(fixture_dir / "cycle4.cplx"), "--chi", "diag",
                "--field", "q0"]
        code, text_out, _ = run(capsys, argv)
        assert code == 0
        code, json_out, _ = run(capsys, argv + ["--json"])
        report = json.loads(json_out)
        for line in report["lines"]:
            assert line in text_out
        assert report["degrees"][2]["free_rank"] == 1
        assert report["degrees"][1]["torsion"][0]["multiplicities"] == [3]

    def test_unknown_vertex_is_usage_error(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "zcover", str(fixture_dir / "path3.cplx"), "--chi", "x=1"])
        assert code == 64 and "unknown vertex" in err

    def test_default_weights_warn(self, capsys, fixture_dir):
        code, out, err = run(capsys, [
            "zcover", str(fixture_dir / "path3.cplx"), "--chi", "a=1"])
        assert code == 0 and "defaulted" in err


class TestMonodromyAndFiniteness:
    def test_monodromy_trivial(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "monodromy", str(fixture_dir / "path3.cplx"),
            "--chi", "diag", "--field", "p2", "-r", "2"])
        assert code == 0 and out.strip() == "trivial"

    def test_monodromy_nontrivial(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "monodromy", str(fixture_dir / "path3.cplx"),
            "--chi", "a=1,b=2,c=1", "--field", "q0", "-r", "1"])
        assert code == 1 and "nontrivial" in out

    def test_finitedim(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "finitedim", str(fixture_dir / "path3.cplx"),
            "--chi", "a=1,b=2,c=1", "--field", "p2", "-r", "1"])
        assert code == 0 and "finite" in out


class TestKernel:
    def test_fp_cycle_exit_1(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "kernel", str(fixture_dir / "cycle4.cplx"),
            "--chi", "diag", "--query", "fpr", "-r", "2"])
        assert code == 1 and "NO" in out and "H~1" in out and "Z" in out

    def test_fg_yes_exit_0(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "kernel", str(fixture_dir / "cycle4.cplx"),
            "--chi", "diag", "--query", "fg"])
        assert code == 0 and "YES" in out

    def test_fp_weighted_path(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "kernel", str(fixture_dir / "path3.cplx"),
            "--chi", "a=1,b=2,c=1", "--query", "fp"])
        assert code == 0 and "YES" in out


class TestStrataCommands:
    def test_resonance_two_k2(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "resonance", str(fixture_dir / "2k2.cplx"), "-i", "2", "-d", "1"])
        assert code == 0
        body = out.splitlines()[1:]
        assert body == ["a b", "c d"]

    def test_charvar_json(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "charvar", str(fixture_dir / "simplex3.cplx"), "-i", "1", "--json"])
        report = json.loads(out)
        assert code == 0 and report["members"] == [[]]


class TestCoverRing:
    def test_torus(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "coverring", str(fixture_dir / "simplex3.cplx"),
            "--chi", "diag", "--field", "q0", "-r", "2", "--json"])
        report = json.loads(out)
        assert code == 0 and report["dims"] == [1, 2, 1]

    def test_refusal_exit_2(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "coverring", str(fixture_dir / "path3.cplx"),
            "--chi", "a=1,b=2,c=1", "--field", "q0", "-r", "1"])
        assert code == 2 and "monodromy" in err


class TestLie:
    def test_path(self, capsys, fixture_dir):
        code, out, _ = run(capsys, [
            "lie", str(fixture_dir / "path3.cplx"), "-K", "6", "--json"])
        report = json.loads(out)
        assert code == 0
        assert report["phi"] == [2, 1, 2, 3, 6, 9]
        assert report["theta"] == [1, 2, 3, 4, 5]
        assert report["holonomy"] == [3, 1, 2]

    def test_disconnected_refused(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "lie", str(fixture_dir / "2k2.cplx"), "-K", "4"])
        assert code == 2 and "refused" in err


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["betti", "no-such-file.cplx"])
        assert code == 64

    def test_bad_field(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "monodromy", str(fixture_dir / "path3.cplx"),
            "--chi", "diag", "--field", "gf4"])
        assert code == 64

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_class_without_value(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "aomoto", str(fixture_dir / "path3.cplx"), "--z", "a=1,b"])
        assert code == 64 and "'b'" in err and "label=value" in err

    def test_negative_lie_order(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "lie", str(fixture_dir / "path3.cplx"), "-K", "-1"])
        assert code == 64 and "order" in err
