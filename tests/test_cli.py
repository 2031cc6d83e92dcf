"""CLI surface: argument handling, output files, exit codes."""

import json

import pytest

from empcouple import cli
from empcouple.cli import main
from empcouple.processes import AnchoredBundle, ProcessBundle


def test_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["mc", "--n-ladder", "banana"]) == 1
    capsys.readouterr()


def test_couple_dump(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["couple", "--m", "8", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,S_k,W_k"
    assert len(lines) == 10
    k, s, w = lines[1].split(",")
    assert k == "0" and float(s) == 0.0 and float(w) == 0.0


def test_couple_rejects_non_power_of_two(capsys):
    assert main(["couple", "--m", "12"]) == 1
    assert "error" in capsys.readouterr().err


def test_stats_json(tmp_path):
    out = tmp_path / "stat.json"
    code = main(
        ["stats", "--n", "32", "--stat", "approx2", "--nu", "0.1", "--seed", "5",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["statistic"] == "approx2"
    assert doc["n"] == 32
    assert doc["value"] >= 0.0


def test_stats_rejects_zero_n(capsys):
    # a sample size below 1 is an input error, reported on one line
    assert main(["stats", "--n", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and len(err.splitlines()) == 1, err


def _no_build(*args, **kwargs):
    raise AssertionError("bundle built before the replicate was checked")


@pytest.mark.parametrize("stat", ["approx1", "approx4"])
def test_stats_rejects_oversized_bundles(monkeypatch, capsys, stat):
    # one replicate whose bundles would exceed the run's memory bound is
    # rejected with n and the depth named, before any bundle is built
    monkeypatch.setattr(ProcessBundle, "build", _no_build)
    monkeypatch.setattr(AnchoredBundle, "build", _no_build)
    assert main(["stats", "--stat", stat, "--n", "4194304", "--refine-depth", "12"]) == 1
    err = capsys.readouterr().err
    assert "n=4194304" in err and "depth 12" in err and "bytes" in err, err


def test_mc_writes_csv_and_json(tmp_path):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "summary.json"
    code = main(
        ["mc", "--stat", "approx1", "--n-ladder", "8,16", "--reps", "2",
         "--seed", "1", "--out", str(csv_path), "--json-out", str(json_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "statistic,n,rep,value,arg_s,seed"
    assert len(lines) == 5
    doc = json.loads(json_path.read_text())
    assert doc["rows"] == 4
    assert doc["config"]["requests"][0]["statistic"] == "approx1"


def test_mc_thread_determinism(tmp_path):
    args = ["mc", "--stat", "approx3", "--eta", "0.25", "--n-ladder", "8,16",
            "--reps", "2", "--seed", "9"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--threads", "1"]) == 0
    assert main(args + ["--out", str(b), "--threads", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--reps", "20000", "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"min-ratio", "gamma2-tail", "floor-bound", "bridge-modulus"}
    assert all(v["passed"] for v in doc.values())


def test_verify_rejects_small_reps(capsys):
    assert main(["verify", "--reps", "100"]) == 1
    capsys.readouterr()


def test_censored_run(tmp_path):
    csv_path = tmp_path / "cens.csv"
    json_path = tmp_path / "cens.json"
    code = main(
        ["censored", "--c", "1.0", "--xi", "0.1", "--n-ladder", "8,16",
         "--reps", "2", "--seed", "3", "--out", str(csv_path),
         "--json-out", str(json_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    stats = {line.split(",")[0] for line in lines[1:]}
    assert stats == {"cens-h0", "cens-h1"}
    doc = json.loads(json_path.read_text())
    assert doc["model"]["theta"] == pytest.approx(0.5)
    assert [r["statistic"] for r in doc["config"]["requests"]] == ["cens-h0", "cens-h1"]
    assert doc["config"]["n_ladder"] == [8, 16]
    for per_n in doc["identity_checks"].values():
        assert all(entry["passed"] for entry in per_n.values())


@pytest.mark.parametrize("command", [
    ["mc", "--stat", "approx2"],
    ["censored", "--c", "2.0"],
])
def test_ladder_commands_call_run_requests_and_summarize(monkeypatch, tmp_path, command):
    # the ladder commands reach the harness through these two module names,
    # each once per command; the benchmark's traced runs time them there
    calls = []
    for name in ("run_requests", "summarize"):
        def record(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, record)
    json_out = str(tmp_path / "summary.json")
    assert main(command + ["--n-ladder", "8,16", "--reps", "2", "--json-out", json_out]) == 0
    assert calls == ["run_requests", "summarize"]
