from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from designforge import cli, data_path
from designforge import numtheory as nt


@pytest.fixture()
def s4_gens(tmp_path) -> Path:
    path = tmp_path / "s4.gens"
    path.write_text("degree: 4\n(1,2)\n(1,2,3,4)\n")
    return path


def test_screen_single_case(capsys):
    rc = cli.main(["screen", "--family", "C3", "--n", "3", "--q", "3"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "survivors: 1" in out
    assert "v = 144" in out


def test_screen_failing_case(capsys):
    rc = cli.main(["screen", "--family", "C1", "--n", "3", "--q", "5"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "survivors: 0" in out


def test_screen_unknown_family():
    rc = cli.main(["screen", "--family", "Z9"])
    assert rc == cli.EXIT_PRECONDITION


@pytest.mark.parametrize(
    "filters, message",
    [
        (["--q", "6"], "6 is not a prime power"),
        (["--q", "1"], "1 is not a prime power"),
        (["--n", "2"], "n >= 3 required"),
        (["--n", "0"], "n >= 3 required"),
    ],
    ids=["q6", "q1", "n2", "n0"],
)
def test_screen_rejects_a_bad_filter_alone(capsys, filters, message):
    rc = cli.main(["screen", *filters])
    assert rc == cli.EXIT_PRECONDITION
    assert f"error: {message}" in capsys.readouterr().err


def test_screen_factorization_effort_exhausted(monkeypatch):
    def exhausted(*args, **kwargs):
        raise nt.FactorizationError("composite cofactor not split")

    monkeypatch.setattr(cli, "case_screen", exhausted)
    assert cli.main(["screen", "--family", "C3"]) == cli.EXIT_CAP


def test_screen_writes_report(tmp_path, capsys):
    out = tmp_path / "screenout"
    rc = cli.main(["screen", "--family", "C6", "--out", str(out)])
    assert rc == cli.EXIT_OK
    doc = json.loads((out / "screen_report.json").read_text())
    assert doc["tool_version"]
    assert all(not r["survived"] for r in doc["reports"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "screen"


def test_search_cli_toy(tmp_path, s4_gens, capsys):
    out = tmp_path / "runout"
    rc = cli.main(["search", "--gens", str(s4_gens), "--k", "2", "--all", "--out-dir", str(out)])
    assert rc == cli.EXIT_OK
    summary = json.loads((out / "search_summary_k2.json").read_text())
    assert sorted(summary["results"]) == ["2"]  # --all sweeps lambda >= 2
    assert summary["results"]["2"]["iso_classes"] == 0
    assert not list(out.glob("design_*.json"))


def test_search_cli_toy_lambda_1(tmp_path, s4_gens, capsys):
    out = tmp_path / "runout"
    rc = cli.main(
        ["search", "--gens", str(s4_gens), "--k", "2", "--lambda", "1", "--out-dir", str(out)]
    )
    assert rc == cli.EXIT_OK
    summary = json.loads((out / "search_summary_k2.json").read_text())
    assert summary["results"]["1"]["iso_classes"] == 1
    design_files = sorted(out.glob("design_*.json"))
    assert len(design_files) == 1
    doc = json.loads(design_files[0].read_text())
    assert doc["v"] == 4 and doc["k"] == 2
    assert doc["meta"]["flag_transitive"] is True


def test_search_cli_byte_determinism(tmp_path, s4_gens):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(
            ["search", "--gens", str(s4_gens), "--k", "2", "--lambda", "1", "--out-dir", str(out)]
        )
        assert rc == cli.EXIT_OK
    for name in ("search_summary_k2.json", "design_k2_l1_c001.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_search_cli_degree_mismatch(capsys):
    rc = cli.main(["search", "--gens", data_path("psl33.gens"), "--k", "10", "--lambda", "2"])
    assert rc == cli.EXIT_PRECONDITION
    assert "error: group degree 144 != k^2 = 100" in capsys.readouterr().err


def test_search_cli_lambda_not_dividing(capsys, s4_gens):
    rc = cli.main(["search", "--gens", str(s4_gens), "--k", "2", "--lambda", "3"])
    assert rc == cli.EXIT_PRECONDITION


@pytest.mark.parametrize("lam", ["0", "-3"])
def test_search_cli_lambda_not_positive(capsys, s4_gens, lam):
    rc = cli.main(["search", "--gens", str(s4_gens), "--k", "2", "--lambda", lam])
    assert rc == cli.EXIT_PRECONDITION
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--all"], ["--lambda", "3"]])
def test_search_cli_k_not_positive(capsys, mode):
    # (-12)^2 = 144 matches the degree, so only the sign of k is wrong
    rc = cli.main(["search", "--gens", data_path("psl33.gens"), "--k", "-12", *mode])
    assert rc == cli.EXIT_PRECONDITION
    assert "error: k must be positive" in capsys.readouterr().err


def test_search_gens_degree_above_limit(tmp_path, capsys):
    path = tmp_path / "big.gens"
    path.write_text("degree: 65537\n(1,2)\n")
    rc = cli.main(["search", "--gens", str(path), "--k", "257", "--lambda", "1"])
    assert rc == cli.EXIT_PRECONDITION
    assert "degree 65537 exceeds the limit 65536" in capsys.readouterr().err


def test_search_out_dir_without_designs(tmp_path, s4_gens, capsys):
    out = tmp_path / "empty"
    rc = cli.main(["search", "--gens", str(s4_gens), "--k", "2", "--lambda", "2",
                   "--out-dir", str(out)])
    assert rc == cli.EXIT_OK
    assert f"wrote 1 files to {out}" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "search_summary_k2.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [str(out / "search_summary_k2.json")]
    assert manifest["inputs"] == {str(s4_gens): hashlib.sha256(s4_gens.read_bytes()).hexdigest()}


def test_search_cap_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.CAP_ENV, "100")
    rc = cli.main(["search", "--gens", data_path("psl33.gens"), "--k", "12", "--lambda", "2"])
    assert rc == cli.EXIT_CAP


def test_verify_base_block(capsys):
    rc = cli.main(
        [
            "verify",
            "--gens",
            data_path("psl33.gens"),
            "--base-block",
            "3,7,29,30,67,68,84,96,100,101,107,134",
        ]
    )
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "certified 2-(144,12,3) design" in out
    assert "block-transitive: True   flag-transitive: True" in out


def test_verify_design_file_and_iso(tmp_path, s4_gens, capsys):
    out = tmp_path / "designs"
    cli.main(["search", "--gens", str(s4_gens), "--k", "2", "--lambda", "1", "--out-dir", str(out)])
    design_file = next(out.glob("design_*.json"))
    rc = cli.main(["verify", "--gens", str(s4_gens), "--design", str(design_file), "--t", "2"])
    assert rc == cli.EXIT_OK
    rc = cli.main(
        ["iso", "--in", str(design_file), str(design_file), "--out", str(tmp_path / "iso")]
    )
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "iso" / "iso_report.json").read_text())
    assert len(report["classes"]) == 1


def test_verify_design_degree_mismatch(tmp_path, s4_gens, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"v": 3, "k": 2, "blocks": [[1, 2], [1, 3], [2, 3]]}))
    rc = cli.main(["verify", "--gens", str(s4_gens), "--design", str(path)])
    assert rc == cli.EXIT_PRECONDITION
    assert "error: design point count != group degree" in capsys.readouterr().err


def test_verify_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--gens", data_path("psl33.gens")])
    assert exc.value.code == cli.EXIT_PRECONDITION
    assert "one of the arguments --design --base-block is required" in capsys.readouterr().err


def test_verify_design_and_base_block_exclusive(tmp_path, s4_gens, capsys):
    design = tmp_path / "d.json"
    design.write_text(json.dumps({"v": 4, "k": 2, "blocks": [[1, 2]]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--gens", str(s4_gens), "--design", str(design), "--base-block", "1,2"])
    assert exc.value.code == cli.EXIT_PRECONDITION
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--lambda", "1", "--all"]], ids=["neither", "both"])
def test_search_lambda_xor_all(s4_gens, capsys, mode):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--gens", str(s4_gens), "--k", "2", *mode])
    assert exc.value.code == cli.EXIT_PRECONDITION
    assert "--lambda" in capsys.readouterr().err


def test_verify_report_written(tmp_path, capsys):
    out = tmp_path / "v"
    rc = cli.main(
        [
            "verify",
            "--gens",
            data_path("pgl33.gens"),
            "--base-block",
            "30,31,40,44,56,67,71,84,85,93,122,125",
            "--out",
            str(out),
        ]
    )
    assert rc == cli.EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["lambda_2"] == 6
    assert report["flag_transitive"] is True
    assert report["block_stabilizer_order"] == 12


@pytest.mark.parametrize("doc", [{"k": 3}, {"v": "7", "blocks": [[1, 2, 3]]}, [[1, 2, 3]]])
def test_iso_malformed_design_file(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["iso", "--in", str(path)]) == cli.EXIT_PRECONDITION
    assert str(path) in capsys.readouterr().err


def test_search_gens_directory(tmp_path, capsys):
    rc = cli.main(["search", "--gens", str(tmp_path), "--k", "2", "--lambda", "1"])
    assert rc == cli.EXIT_PRECONDITION


def test_cap_env_not_an_integer(monkeypatch, capsys, s4_gens):
    monkeypatch.setenv(cli.CAP_ENV, "abc")
    rc = cli.main(["search", "--gens", str(s4_gens), "--k", "2", "--lambda", "1"])
    assert rc == cli.EXIT_PRECONDITION
    assert "must be an integer" in capsys.readouterr().err
