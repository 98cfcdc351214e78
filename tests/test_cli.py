"""Harness behavior: exit codes, report layout, determinism, merging."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from symcone import __version__
from symcone.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# -- constants ---------------------------------------------------------------

def test_constants_sym_rank2(runner):
    res = invoke(runner, "constants", "--family", "sym", "--rank", "2")
    assert res.exit_code == 0
    for line in ("r = 2", "a = 1", "m = 3", "g = 3"):
        assert line in res.output
    assert "peirce-identity: pass" in res.output


def test_constants_spin_dim5(runner):
    res = invoke(runner, "constants", "--family", "spin", "--dim", "5")
    assert res.exit_code == 0
    assert "a = 3" in res.output
    assert "g = 5" in res.output


def test_constants_identity_holds_for_every_family(runner):
    for args in (("--family", "disc"), ("--family", "ball", "--dim", "3"),
                 ("--family", "herm", "--p", "2", "--q", "4"),
                 ("--family", "quat", "--rank", "2")):
        res = invoke(runner, "constants", *args)
        assert res.exit_code == 0
        assert "fail 0" in res.output


def test_constants_unknown_family_is_usage_error(runner):
    res = runner.invoke(main, ["constants", "--family", "octonion"])
    assert res.exit_code == 2


def test_constants_missing_size_is_usage_error(runner):
    res = runner.invoke(main, ["constants", "--family", "spin"])
    assert res.exit_code == 2


# -- wallach scan ------------------------------------------------------------

def test_wallach_disc_grid(runner, tmp_path):
    out = tmp_path / "disc.json"
    res = invoke(runner, "wallach", "--seed", "3", "--trials", "300",
                 "--output", str(out),
                 *sum((["--lambda", str(v)] for v in (-0.5, 0, 0.5, 1, 2)), []))
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    verdicts = {r["inputs"]["lambda"]: r["inputs"]["verdict"]
                for r in rep["records"]}
    assert verdicts[-0.5] == "NotPSD"
    assert all(v == "PSD" for lam, v in verdicts.items() if lam >= 0)
    assert all(r["status"] == "pass" for r in rep["records"])


def test_wallach_symreal2_gap(runner, tmp_path):
    out = tmp_path / "sr2.json"
    res = invoke(runner, "wallach", "--family", "sym", "--rank", "2",
                 "--seed", "5", "--trials", "800", "--output", str(out),
                 "--lambda", "0.25", "--lambda", "0.5", "--lambda", "1")
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    verdicts = {r["inputs"]["lambda"]: r["inputs"]["verdict"]
                for r in rep["records"]}
    assert verdicts[0.25] == "NotPSD"
    assert verdicts[0.5] == "PSD" and verdicts[1.0] == "PSD"


def test_wallach_herm_half_gap(runner):
    # lambda = 1/2 lies outside {0, 1} u (1, inf) for herm_complex(2, 2); the
    # witness needs a cluster on all four frame directions of the minor
    res = invoke(runner, "wallach", "--family", "herm", "--p", "2",
                 "--lambda", "0.5", "--trials", "300", "--seed", "3")
    assert res.exit_code == 0
    assert "pass 1 fail 0" in res.output


@pytest.mark.parametrize("family,lam", [
    (("--family", "sym", "--rank", "2"), "0.25"),
    (("--family", "spin", "--dim", "4"), "2.5"),
    (("--family", "herm", "--p", "2", "--q", "2"), "2.5"),
    (("--family", "disc"), "-0.5"),
    (("--family", "sym", "--rank", "2", "--realization", "siegel"), "2.5"),
], ids=["sym2-gap", "spin4-inside", "herm22-inside", "disc-negative",
        "sym2-siegel"])
def test_wallach_same_seed_same_bytes(runner, tmp_path, family, lam):
    # the report echoes its --output path, so both runs write to the same one
    out = tmp_path / "w.json"
    blobs = []
    for _ in range(2):
        res = invoke(runner, "wallach", *family, "--lambda", lam,
                     "--trials", "20", "--seed", "11", "--output", str(out))
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_wallach_empty_grid_is_usage_error(runner, tmp_path):
    out = tmp_path / "empty.json"
    res = runner.invoke(main, ["wallach", "--family", "sym", "--rank", "2",
                               "--seed", "1", "--output", str(out)])
    assert res.exit_code == 2
    assert not out.exists()
    # a config file may supply the grid, but not an empty one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": []}))
    res = runner.invoke(main, ["wallach", "--seed", "1", "--config", str(cfg)])
    assert res.exit_code == 2


def test_wallach_requires_seed(runner):
    res = runner.invoke(main, ["wallach", "--lambda", "0"])
    assert res.exit_code == 2


def test_counts_must_be_positive(runner):
    res = runner.invoke(main, ["wallach", "--lambda", "0", "--seed", "1",
                               "--trials", "0"])
    assert res.exit_code == 2


# -- verify ------------------------------------------------------------------

def test_verify_unknown_suite_is_usage_error(runner):
    res = runner.invoke(main, ["verify", "spectra", "--seed", "1"])
    assert res.exit_code == 2


def test_verify_same_seed_same_bytes(runner, tmp_path):
    out = tmp_path / "k.json"
    blobs = []
    for _ in range(2):
        res = invoke(runner, "verify", "kernels", "--seed", "7",
                     "--output", str(out))
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert (tmp_path / "k.json.timing.json").exists()


def test_verify_seed_changes_sampled_values(runner, tmp_path):
    vals = []
    for seed in ("7", "8"):
        out = tmp_path / f"b{seed}.json"
        res = invoke(runner, "verify", "bergman", "--seed", seed,
                     "--samples", "20000", "--output", str(out))
        assert res.exit_code == 0
        rep = json.loads(out.read_text())
        vals.append([r["value"] for r in rep["records"]])
    assert vals[0] != vals[1]


def test_verify_hnorm_disc_trunc60(runner, tmp_path):
    out = tmp_path / "h.json"
    res = invoke(runner, "verify", "hnorm", "--family", "disc",
                 "--trunc", "60", "--seed", "5", "--output", str(out))
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    repro = [r for r in rep["records"] if "reproducing" in r["name"]]
    assert len(repro) == 10
    assert all(r["status"] == "pass" for r in repro)


def test_verify_hnorm_rejects_lambda_outside_positive_set(runner):
    res = invoke(runner, "verify", "hnorm", "--family", "sym", "--rank", "2",
                 "--lambda", "0.25", "--seed", "1")
    assert res.exit_code == 2
    assert "positive set" in res.output


def test_verify_intertwine_negative_lambda(runner, tmp_path):
    out = tmp_path / "i.json"
    res = invoke(runner, "verify", "intertwine", "--lambda", "-1",
                 "--seed", "2", "--output", str(out))
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    disc = [r for r in rep["records"] if "disc" in r["name"]]
    assert len(disc) == 1
    assert disc[0]["value"] < 1e-8


def test_verify_intertwine_rejects_fractional_lambda(runner):
    res = runner.invoke(main, ["verify", "intertwine", "--lambda", "-1.5",
                               "--seed", "2"])
    assert res.exit_code == 2


def test_every_record_carries_tolerance_and_convention(runner, tmp_path):
    out = tmp_path / "a.json"
    res = invoke(runner, "verify", "algebra", "--seed", "7",
                 "--output", str(out))
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["version"] == __version__
    for r in rep["records"]:
        assert "tolerance" in r and "convention" in r and "inputs" in r
        assert "runtime" not in r


def test_suite_slice_matches_verify_all(runner, tmp_path):
    """Single-suite runs reproduce the matching slice of `verify all`."""
    out_all = tmp_path / "all.json"
    out_one = tmp_path / "one.json"
    invoke(runner, "verify", "all", "--seed", "7", "--output", str(out_all))
    invoke(runner, "verify", "htilde", "--seed", "7", "--output", str(out_one))
    rep_all = json.loads(out_all.read_text())
    rep_one = json.loads(out_one.read_text())
    sub = [r for r in rep_all["records"] if r["name"].startswith("htilde/")]
    assert sub == rep_one["records"]


# -- output plumbing ---------------------------------------------------------

def test_csv_projection(runner, tmp_path):
    out = tmp_path / "w.csv"
    res = invoke(runner, "wallach", "--lambda", "0", "--seed", "4",
                 "--trials", "60", "--output", str(out), "--format", "csv")
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,status,value,tolerance,convention,inputs"
    assert lines[1].startswith("wallach[lam=0],pass,")
    assert (tmp_path / "w.csv.timing.json").exists()


def test_output_dir_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMCONE_OUTPUT_DIR", str(tmp_path))
    res = invoke(runner, "verify", "fischer", "--seed", "1",
                 "--output", "f.json")
    assert res.exit_code == 0
    assert (tmp_path / "f.json").exists()


def test_config_file_fills_defaults_flags_win(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 77, "lambda": [0.5]}))
    out = tmp_path / "w.json"
    res = invoke(runner, "wallach", "--seed", "9", "--config", str(cfg),
                 "--output", str(out))
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["trials"] == 77
    assert rep["config"]["lams"] == [0.5]
    res = invoke(runner, "wallach", "--seed", "9", "--config", str(cfg),
                 "--trials", "33", "--output", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text())["config"]["trials"] == 33


def test_config_file_unknown_key_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"speed": 11}))
    res = runner.invoke(main, ["wallach", "--seed", "1", "--config", str(cfg)])
    assert res.exit_code == 2


# -- report merge ------------------------------------------------------------

def _make_reports(runner, tmp_path):
    pa = tmp_path / "a.json"
    pf = tmp_path / "f.json"
    invoke(runner, "verify", "algebra", "--seed", "7", "--output", str(pa))
    invoke(runner, "verify", "fischer", "--seed", "7", "--output", str(pf))
    return pa, pf


def test_merge_single_file_preserves_records(runner, tmp_path):
    pa, _ = _make_reports(runner, tmp_path)
    out = tmp_path / "m.json"
    res = invoke(runner, "report-merge", str(pa), "--output", str(out))
    assert res.exit_code == 0
    merged = json.loads(out.read_text())
    original = json.loads(pa.read_text())
    stripped = [{k: v for k, v in r.items() if k != "source"}
                for r in merged["records"]]
    assert stripped == original["records"]


def test_merge_disjoint_suites_preserves_counts(runner, tmp_path):
    pa, pf = _make_reports(runner, tmp_path)
    out = tmp_path / "m.json"
    res = invoke(runner, "report-merge", str(pa), str(pf),
                 "--output", str(out))
    assert res.exit_code == 0
    merged = json.loads(out.read_text())
    na = len(json.loads(pa.read_text())["records"])
    nf = len(json.loads(pf.read_text())["records"])
    assert len(merged["records"]) == na + nf
    assert merged["summary"]["pass"] == na + nf
    assert {r["source"] for r in merged["records"]} == {"a.json", "f.json"}


def test_merge_schema_mismatch_exits_2(runner, tmp_path):
    pa, _ = _make_reports(runner, tmp_path)
    bad = json.loads(pa.read_text())
    bad["schema"] = 2
    pb = tmp_path / "bad.json"
    pb.write_text(json.dumps(bad))
    res = runner.invoke(main, ["report-merge", str(pa), str(pb)])
    assert res.exit_code == 2


def test_merge_mixed_versions_warns(runner, tmp_path):
    pa, pf = _make_reports(runner, tmp_path)
    old = json.loads(pf.read_text())
    old["version"] = "0.0.1"
    pf.write_text(json.dumps(old))
    out = tmp_path / "m.json"
    res = invoke(runner, "report-merge", str(pa), str(pf),
                 "--output", str(out))
    assert res.exit_code == 0
    merged = json.loads(out.read_text())
    warn = [r for r in merged["records"]
            if r["name"] == "merge/version-mismatch"]
    assert len(warn) == 1
    assert warn[0]["status"] == "inconclusive"
    assert merged["summary"]["inconclusive"] == 1
