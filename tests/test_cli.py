import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import quadland.landscape
from quadland import moments_of, parse_distribution, rank_deficient_sweep, sample_teacher
from quadland.cli import main


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_gd_run_example(tmp_path):
    code = main(
        [
            "gd-run", "--d", "2", "--m", "8", "--N", "30",
            "--seed", "1", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["final_risk"] <= 1e-10
    assert summary["verdict"] == "global-optimum"
    assert summary["termination"] == "grad_tol"
    for name in ("results.jsonl", "final_weights.csv", "teacher_weights.csv"):
        assert (tmp_path / name).is_file()
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "gd-run"
    assert manifest["config"]["seed"] == 1
    assert manifest["config"]["m"] == 8


def test_sample_complexity_example(tmp_path):
    code = main(
        ["sample-complexity", "--d", "3", "--trials", "100", "--seed", "1",
         "--out", str(tmp_path)]
    )
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["n_star"] == 6
    assert summary["spans_fraction"]["6"] == 1.0
    assert summary["spans_fraction"]["5"] == 0.0


def test_barrier_scan_example(tmp_path):
    code = main(
        ["barrier-scan", "--d", "3", "--m", "8", "--trials", "500",
         "--dist", "gaussian", "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["min_risk_found"] >= summary["barrier"]
    assert summary["tightness_risk"] == pytest.approx(1.5 * summary["barrier"])
    lines = (tmp_path / "results.jsonl").read_text().splitlines()
    assert len(lines) == 500
    gaussian = parse_distribution("gaussian")
    sweep = rank_deficient_sweep(
        sample_teacher(gaussian, 8, 3, 1), moments_of(gaussian), 500, 1
    )
    assert [json.loads(line)["risk"] for line in lines] == list(sweep.risks)


def test_geometry_check_prime_certificate(tmp_path):
    code = main(["geometry-check", "--d", "3", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["span"]["spans"] is True
    assert summary["certificate"]["distinct"] is True
    assert summary["agreement"] is True


def test_recovery_summary(tmp_path):
    code = main(["recovery", "--d", "3", "--m", "6", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["frobenius_error"] <= 1e-8
    assert summary["half_scale_ratio"] == pytest.approx(0.5, rel=0.2)


def test_repeat_runs_identical_apart_from_timestamp(tmp_path):
    args = ["gd-run", "--d", "2", "--m", "8", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("summary.json", "results.jsonl", "final_weights.csv", "teacher_weights.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
    ma.pop("timestamp"), mb.pop("timestamp")
    # the output directory is the one argv difference between the two runs
    ma["config"].pop("out"), mb["config"].pop("out")
    assert ma == mb


def test_jobs_flag_does_not_change_output(tmp_path):
    base = ["sample-complexity", "--d", "2", "--trials", "8", "--seed", "5"]
    a, b = tmp_path / "serial", tmp_path / "pool"
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


# --- config precedence ----------------------------------------------------


def manifest_seed(out: Path) -> int:
    return read_json(out / "manifest.json")["config"]["seed"]


def test_env_seed_used_when_nothing_else_given(tmp_path, monkeypatch):
    monkeypatch.setenv("QUADLAND_SEED", "5")
    assert main(["geometry-check", "--d", "2", "--out", str(tmp_path)]) == 0
    assert manifest_seed(tmp_path) == 5


def test_config_file_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QUADLAND_SEED", "5")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7  # inline comment\n\n# full-line comment\n")
    assert main(
        ["geometry-check", "--d", "2", "--config", str(cfg), "--out", str(tmp_path)]
    ) == 0
    assert manifest_seed(tmp_path) == 7


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\n")
    assert main(
        ["geometry-check", "--d", "2", "--config", str(cfg), "--seed", "9",
         "--out", str(tmp_path)]
    ) == 0
    assert manifest_seed(tmp_path) == 9


# --- failure exit codes ---------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert main(["gd-run", "--bogus", "1"]) == 2
    capsys.readouterr()
    # no prefix matching: an abbreviation is an unknown flag, not a guess
    for argv in (["gd-run", "--obj", "population"], ["gd-run", "--init", "identity"]):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_value_exits_2(tmp_path, capsys):
    assert main(["init-check", "--seeds", "zero"]) == 2
    assert "seeds" in capsys.readouterr().err
    assert main(["gd-run", "--init-scale", "identity", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: bad value for --init-scale: 'identity'\n"
    for tag in ("gaussian(abc)", "uniform(x)"):
        assert main(["init-check", "--dist", tag, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert tag in err and len(err.splitlines()) == 1
    # parameters whose moments overflow, and seeds past 2^64 - 1
    for argv in (
        ["init-check", "--dist", "uniform(1e308)"],
        ["init-check", "--dist", "gaussian(1e200)"],
        ["init-check", "--seeds", "3", "--seed", "18446744073709551615"],
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_gd_run_on_degenerate_law_reports_no_barrier(tmp_path, capsys):
    # Var(X^2) = 0 for rademacher data: there is no barrier to compare the
    # init against, and the risk cannot see zero-trace diagonal discrepancies
    assert main(["gd-run", "--dist", "rademacher", "--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["init_below_barrier"] is None
    assert summary["termination"] == "grad_tol"
    assert summary["verdict"] == "inconclusive"
    assert all(json.loads(line)["below_barrier"] is None
               for line in (tmp_path / "results.jsonl").read_text().splitlines())
    capsys.readouterr()


def test_exhausted_line_search_ends_run_as_stalled(tmp_path, capsys):
    # the population risk of a degenerate law cancels to its rounding floor
    # before the gradient reaches grad_tol; the run stops instead of failing
    argv = ["gd-run", "--objective", "population", "--dist", "rademacher"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["termination"] == "stalled"
    assert summary["verdict"] == "inconclusive"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("objective", ["empirical", "population"])
@pytest.mark.filterwarnings("error")
def test_diverged_run_exits_1(tmp_path, capsys, objective):
    argv = ["gd-run", "--policy", "fixed", "--eta", "10", "--objective", objective]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("contract failure: descent diverged")
    assert len(err.splitlines()) == 1


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["geometry-check", "--config", missing]) == 2
    assert "config file" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["geometry-check", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_width_below_dimension_exits_2(tmp_path, capsys):
    assert main(["gd-run", "--d", "3", "--m", "2", "--out", str(tmp_path)]) == 2
    assert "width" in capsys.readouterr().err


def test_contract_failure_exits_1(tmp_path, monkeypatch, capsys):
    # a barrier scan that finds a rank-deficient student below the barrier
    # must refuse to report success; fake the risk evaluation to force it
    fake = lambda *args, **kwargs: types.SimpleNamespace(value=0.0)
    monkeypatch.setattr(quadland.landscape, "population_risk_of", fake)
    code = main(
        ["barrier-scan", "--d", "2", "--m", "4", "--trials", "3",
         "--out", str(tmp_path)]
    )
    assert code == 1
    assert "barrier" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "quadland", "sample-complexity", "--d", "2",
         "--trials", "5", "--seed", "2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert read_json(tmp_path / "summary.json")["n_star"] == 3
