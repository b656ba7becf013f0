import hashlib
import json

import pytest

from planeschemes import verifypaper
from planeschemes.affine import build_affine_scheme
from planeschemes.cli import main
from planeschemes.scheme import scheme_from_bytes, scheme_to_bytes


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _no_scheme(*args):
    raise RuntimeError("a scheme was built")


#: sha256 of the stdout of `afs subgroups --p P --spec all --json`
SUBGROUP_TABLE_DIGESTS = {
    5: "6b7cec5f6e0421899d0de3d5fc0e25bcfcad0beddd1dc638101a2beb67396064",
    7: "c7e1dee1820ec3a2c3e65305172d45a9c7a938e6c52ff74ebb2dabff1b47e5f1",
    11: "9c0051768bcae58dfe9891c48f4b3364be8efe6c9690446a3b30ee5d79886cfd",
    13: "e2ccbd8bdc423639297db1cd0ae8ad901dd976f137292b122bd80e9fdb0c3bd2",
    17: "c97b1c62bcffc349abee59d08d51d326a16b85cc5fea5d089336e44a8649357c",
    19: "c7876ac38f763c976b04e99d78328aa1633584d278254f82ba403f70310e7ed6",
}


@pytest.mark.parametrize("p", sorted(SUBGROUP_TABLE_DIGESTS))
def test_subgroup_tables_pinned(p, capsys):
    # orders, orbit sizes and generators of every named family, byte for byte
    argv = ["subgroups", "--p", str(p), "--spec", "all", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUBGROUP_TABLE_DIGESTS[p]


def test_build_p3(tmp_path, capsys):
    out_file = tmp_path / "xa.afsc"
    code, out, _ = run_cli(["build", "--p", "3", "--out", str(out_file)], capsys)
    assert code == 0
    assert "degree 9, rank 5, valencies [2,2,2,2]" in out
    X = scheme_from_bytes(out_file.read_bytes())
    assert X.n == 9 and X.rank == 5


def test_build_creates_missing_directories(tmp_path, capsys):
    out_file = tmp_path / "a" / "b" / "x.afsc"
    code, _, _ = run_cli(["build", "--p", "3", "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_bytes() == scheme_to_bytes(build_affine_scheme(3))


def test_build_p13(tmp_path, capsys):
    out_file = tmp_path / "xa13.afsc"
    code, out, _ = run_cli(["build", "--p", "13", "--out", str(out_file)], capsys)
    assert code == 0
    assert "degree 169, rank 15" in out


def test_build_rejects_composite(capsys, monkeypatch):
    # and a prime above the supported bound, and a sweep with fewer than one
    # worker; argparse rejects each before it runs
    monkeypatch.setattr("planeschemes.cli.build_affine_scheme", _no_scheme)
    for argv in (["build", "--p", "4"], ["build", "--p", "37"],
                 ["subgroups", "--p", "37", "--spec", "A4"],
                 ["sweep", "--p", "3", "--jobs", "0"],
                 ["sweep", "--p", "3", "--jobs", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_a_non_integer_count_is_a_usage_error_that_names_no_function(capsys, monkeypatch):
    monkeypatch.setattr("planeschemes.cli.build_affine_scheme", _no_scheme)
    monkeypatch.setattr("planeschemes.cli.run_sweep", _no_scheme)
    for argv, option in ((["sweep", "--p", "3", "--jobs", "x"], "--jobs"),
                         (["sweep", "--p", "x"], "--p"),
                         (["sweep", "--p", "3.0"], "--p"),
                         (["build", "--p", ""], "--p")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert f"argument {option}: " in err and "want an integer" in err, (argv, err)
        assert "_arg" not in err, (argv, err)


def test_out_directory_is_a_usage_error(tmp_path, monkeypatch):
    # rejected before the scheme is built or the sweep runs, not by the
    # final write
    monkeypatch.setattr("planeschemes.cli.build_affine_scheme", _no_scheme)
    monkeypatch.setattr("planeschemes.cli.run_sweep", _no_scheme)
    for argv in (["build", "--p", "3", "--out", str(tmp_path)],
                 ["sweep", "--p", "3", "--no-cache", "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("command", ["build", "sweep"])
def test_out_below_a_file_is_a_usage_error(command, tmp_path, capsys, monkeypatch):
    # the directory of the output path cannot be made: one error line, no
    # traceback, and a sweep fails before it classifies anything
    monkeypatch.setattr("planeschemes.cli.run_sweep",
                        lambda *args, **kwargs: pytest.fail("swept before the path was probed"))
    (tmp_path / "file").write_text("")
    argv = [command, "--p", "3", "--out", str(tmp_path / "file" / "x.out")]
    code, _, err = run_cli(argv + (["--no-cache"] if command == "sweep" else []), capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_classify_subtensor(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    code, out, _ = run_cli(["classify", "--p", "3", "--partition", "0123"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "SubtensorOfTrivial"
    assert record["schurian"] is True


def test_classify_trivial(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    code, out, _ = run_cli(["classify", "--p", "3", "--partition", "0000"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "PrimitivePseudocyclic"


def test_classify_wreath_0111(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    code, out, _ = run_cli(["classify", "--p", "3", "--partition", "0111"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "WreathOfTrivial"
    assert record["witness"]


def test_classify_failed_witness_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr("planeschemes.report.verify_witness",
                        lambda p, P, verdict, witness: False)
    code, out, err = run_cli(["classify", "--p", "3", "--partition", "0123"], capsys)
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "witness verification failed for 0123 -> SubtensorOfTrivial"
    assert record["error"] in err
    # the record keeps the verdict and flags whose witness failed
    assert record["verdict"] == "SubtensorOfTrivial"
    assert record["schurian"] is True


def test_classify_non_canonical(capsys):
    code, _, err = run_cli(["classify", "--p", "3", "--partition", "0021"], capsys)
    assert code == 2
    assert "RGS" in err or "error" in err


def test_classify_wrong_length(capsys):
    code, _, err = run_cli(["classify", "--p", "5", "--partition", "0123"], capsys)
    assert code == 2


def test_classify_beyond_the_search_bound(capsys, monkeypatch):
    # 23^2 = 529 points exceed the automorphism search's bound: a usage
    # error before anything is fused
    monkeypatch.setattr("planeschemes.cli.run_sweep", _no_scheme)
    code, _, err = run_cli(["classify", "--p", "23", "--partition", "0" * 23 + "1",
                            "--no-cache"], capsys)
    assert code == 2
    assert "400" in err


def test_subgroups_cyclic2_p5(capsys):
    code, out, _ = run_cli(["subgroups", "--p", "5", "--spec", "Cyclic:2", "--json"],
                           capsys)
    assert code == 0
    report = json.loads(out)[0]
    assert report["status"] == "found"
    assert set(report["orbit_size_set"]) <= {1, 2}


def test_subgroups_dihedral3_p7(capsys):
    code, out, _ = run_cli(["subgroups", "--p", "7", "--spec", "Dihedral:3", "--json"],
                           capsys)
    report = json.loads(out)[0]
    assert set(report["orbit_size_set"]) <= {2, 3, 6}


def test_subgroups_a4_p7(capsys):
    code, out, _ = run_cli(["subgroups", "--p", "7", "--spec", "A4", "--json"], capsys)
    report = json.loads(out)[0]
    assert report["order"] == 12
    assert report["orbit_sizes"] == [4, 4]


def test_subgroups_absent_is_exit_zero(capsys):
    code, out, _ = run_cli(["subgroups", "--p", "7", "--spec", "A5"], capsys)
    assert code == 0
    assert "absent" in out


def test_subgroups_all(capsys):
    code, out, _ = run_cli(["subgroups", "--p", "5", "--spec", "all"], capsys)
    assert code == 0
    assert "C1" in out and "Alt(4)" in out


def test_sweep_p3_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["sweep", "--p", "3", "--out", str(out_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_bytes())
    assert data["summary"]["total"] == 15
    assert data["summary"]["counts_by_verdict"] == {
        "PrimitivePseudocyclic": 4,
        "SubtensorOfTrivial": 7,
        "WreathOfTrivial": 4,
    }


def test_sweep_p3_csv_matches_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    json_file = tmp_path / "report.json"
    csv_file = tmp_path / "report.csv"
    assert run_cli(["sweep", "--p", "3", "--out", str(json_file)], capsys)[0] == 0
    assert run_cli(["sweep", "--p", "3", "--format", "csv",
                    "--out", str(csv_file)], capsys)[0] == 0
    from planeschemes.report import read_csv_report, record_to_dict

    csv_records = [record_to_dict(r) for r in read_csv_report(str(csv_file))]
    json_records = json.loads(json_file.read_bytes())["records"]
    assert csv_records == json_records


def test_sweep_jobs_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    run_cli(["sweep", "--p", "3", "--out", str(f1), "--jobs", "1"], capsys)
    run_cli(["sweep", "--p", "3", "--out", str(f2), "--jobs", "2"], capsys)
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_unsupported_prime(capsys):
    code, _, err = run_cli(["sweep", "--p", "11"], capsys)
    assert code == 2


def test_verify_paper_quick(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "cache"))
    swept = []
    run_sweep = verifypaper.run_sweep

    def counted(p, *args, **kwargs):
        swept.append(p)
        return run_sweep(p, *args, **kwargs)

    monkeypatch.setattr(verifypaper, "run_sweep", counted)
    verifypaper._serial_sweep.cache_clear()
    code, out, _ = run_cli(["verify-paper", "--level", "quick"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert out.count("[PASS]") == 13
    # main-theorem-sweep, theorem-realization and aut-orders read one sweep per prime;
    # report-determinism runs its own three at p=3, and exceptional-schemes
    # classifies its one alt(4) fusion at p=7
    assert sorted(swept) == [3, 3, 3, 3, 5, 7]
