import json
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadland.landscape
from quadland import (
    moments_of,
    parse_distribution,
    rank_deficient_sweep,
    sample_dataset,
    sample_teacher,
    spans_symmetric,
)
from quadland.cli import _OPTIONS, main
from quadland.model import TensorizedDesign


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


def test_sample_complexity_rows_match_spans_symmetric(tmp_path):
    # the CLI reads geometry.span_sweep; every row must be the span report of
    # the dataset that trial draws
    assert main(["sample-complexity", "--d", "4", "--trials", "30", "--seed", "3",
                 "--dist", "uniform(2)", "--out", str(tmp_path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "results.jsonl").read_text().splitlines()]
    law = parse_distribution("uniform(2)")
    want = []
    for trial in range(30):
        for n in (9, 10):
            report = spans_symmetric(sample_dataset(law, n, 4, 3 + trial))
            want.append({"trial": trial, "n": n, "spans": report.spans, "rank": report.rank})
    assert rows == want
    assert read_json(tmp_path / "summary.json")["spans_fraction"] == {"9": 0.0, "10": 1.0}


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
    # d = 8 holds 19^35 in float64, so only the exact rank sees the span
    for d in (3, 8):
        out = tmp_path / str(d)
        assert main(["geometry-check", "--d", str(d), "--out", str(out)]) == 0
        summary = read_json(out / "summary.json")
        assert summary["span"]["rank"] == summary["n_star"] == d * (d + 1) // 2
        assert summary["span"]["spans"] is True
        assert summary["span"]["sigma_min"] is None
        assert summary["certificate"]["distinct"] is True
        assert summary["agreement"] is True


def test_geometry_check_prime_below_critical_count(tmp_path):
    # N = 4 < N* = 6 prime samples span a 4-dimensional subspace, which is
    # what the Vandermonde certificate predicts: min(n, N*) = 4
    assert main(["geometry-check", "--d", "3", "--N", "4", "--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["span"]["rank"] == 4 and summary["span"]["spans"] is False
    assert summary["certificate"]["distinct"] is True
    assert summary["agreement"] is True


def test_recovery_summary(tmp_path):
    code = main(["recovery", "--d", "3", "--m", "6", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["frobenius_error"] <= 1e-8
    assert summary["half_scale_ratio"] == pytest.approx(0.5, rel=0.2)


def test_repeat_runs_identical_apart_from_timestamp(tmp_path):
    # recovery and geometry-check read a dataset's cached design and span SVD
    for k, args in enumerate([
        ["gd-run", "--d", "2", "--m", "8", "--seed", "3"],
        ["recovery", "--d", "3", "--m", "6"],
        ["geometry-check", "--source", "random", "--d", "4"],
    ]):
        a, b = tmp_path / f"a{k}", tmp_path / f"b{k}"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert "summary.json" in names
        for name in names:
            if name != "manifest.json":
                assert (a / name).read_bytes() == (b / name).read_bytes(), (args, name)
        ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
        ma.pop("timestamp"), mb.pop("timestamp")
        # the output directory is the one argv difference between the two runs
        ma["config"].pop("out"), mb["config"].pop("out")
        assert ma == mb


def test_recovery_takes_one_span_svd(tmp_path, monkeypatch):
    # both scales read the dataset's cached span singular values
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert main(["recovery", "--d", "4", "--m", "16", "--out", str(tmp_path)]) == 0
    assert calls == [(30, 10)]


def test_each_dataset_is_tensorized_once(tmp_path, monkeypatch):
    # the design built for the labels is handed to the labeled dataset, which
    # descent and recovery then read
    builds = []
    init = TensorizedDesign.__init__

    def counting_init(self, X):
        builds.append(np.shape(X))
        init(self, X)

    monkeypatch.setattr(TensorizedDesign, "__init__", counting_init)
    for k, args in enumerate([
        ["gd-run", "--d", "3", "--m", "36", "--N", "30"],
        ["recovery", "--d", "4", "--m", "16"],
    ]):
        builds.clear()
        assert main(args + ["--out", str(tmp_path / str(k))]) == 0
        assert len(builds) == 1, (args, builds)


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


def test_help_lists_every_subcommand_and_the_chosen_flags(capsys):
    assert main(["--help"]) == 0
    top = capsys.readouterr().out
    assert all(name in top for name in _OPTIONS)
    for name, options in _OPTIONS.items():
        assert main([name, "--help"]) == 0
        text = capsys.readouterr().out
        assert all(f"--{key}" in text for key in ["config"] + [opt.key for opt in options])
    # a flag of another subcommand is unknown to the chosen one
    assert main(["spectrum", "--N", "3"]) == 2
    assert "unrecognized arguments: --N 3" in capsys.readouterr().err


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
    argv = ["gd-run", "--d", "3", "--m", "36", "--N", "30", "--mhat", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: need student width --mhat >= dimension, got mhat=2, d=3\n"
    )
    for tag in ("gaussian(abc)", "uniform(x)"):
        assert main(["init-check", "--dist", tag, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert tag in err and len(err.splitlines()) == 1
    # parameters whose moments or recovered Gram overflow, seeds past 2^64 - 1
    for argv in (
        ["init-check", "--dist", "uniform(1e308)"],
        ["init-check", "--dist", "gaussian(1e200)"],
        ["init-check", "--seeds", "3", "--seed", "18446744073709551615"],
        ["recovery", "--scale", "1e300"],
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
    # a step size the chosen policy would ignore
    for argv in (
        ["gd-run", "--eta", "0.5"],
        ["gd-run", "--policy", "backtracking", "--eta", "0.5"],
        ["gd-run", "--policy", "inverse-smoothness", "--eta", "0.5"],
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--eta" in err and len(err.splitlines()) == 1
    # sizes whose arrays numpy cannot hold are rejected before any sampling
    big = "18446744073709551615"
    too_large = ("is too large: it sizes an array of {} floats, "
                 "more than the 1152921504606846975 numpy can hold")
    for argv, flag, floats in (
        (["gd-run", "--d", "2", "--m", "4", "--N", big], "N", 3 * int(big)),
        (["recovery", "--N", big], "N", 6 * int(big)),
        (["geometry-check", "--source", "random", "--N", big], "N", 6 * int(big)),
        (["sample-complexity", "--d", "2", "--trials", big], "trials", 2 * int(big)),
        (["spectrum", "--d", "2", "--m", big], "m", 2 * int(big)),
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --{flag} {big} {too_large.format(floats)}\n"
    assert not (tmp_path / "manifest.json").exists()


def test_warnings_print_one_line_and_only_on_success(tmp_path, capsys):
    # both teachers are rank-deficient: every entry is below RANK_RTOL
    argv = ["--d", "2", "--m", "3", "--teacher-dist", "uniform(1e-300)", "--out", str(tmp_path)]
    assert main(["spectrum", "--seeds", "2"] + argv) == 0
    assert capsys.readouterr().err == (
        "warning: sampled teacher is rank-deficient: rank 0 < d=2 (and 1 more)\n"
    )
    assert main(["init-check", "--seeds", "2"] + argv) == 2
    assert capsys.readouterr().err == "error: teacher weights are rank-deficient\n"


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


def test_run_stalled_before_its_first_step_warns(tmp_path, capsys):
    # a 1e76 teacher scale puts the initial risk at 1.5e305: every trial step
    # overflows it, so the line search is exhausted at iteration 0
    argv = ["gd-run", "--teacher-dist", "gaussian(1e76)", "--d", "2", "--m", "3"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["termination"] == "stalled" and summary["iterations"] == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: descent stalled at iteration 0")
    assert len(err.splitlines()) == 1


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


# --- exit-code contract under arbitrary argv --------------------------------

# Every size flag a subcommand takes is always given a tiny value, so no
# example falls back to a paper-scale default; the extra flags may override
# any of them with a bad token.
_SIZES = {"d": 4, "m": 12, "mhat": 12, "N": 12, "seeds": 3, "trials": 3, "max-iters": 40}
_TOKENS = (
    "0", "1", "2", "-1", "1.5", "x", "", "nan", "inf", "1e300", "1e-300",
    "gaussian", "gaussian(0)", "uniform(-1)", "uniform(1e-300)", "rademacher",
    "fixed", "population", "random", "m_plus_4d",
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    keys = [opt.key for opt in _OPTIONS[command]]
    argv = [command]
    for key in keys:
        if key in _SIZES:
            argv += [f"--{key}", str(draw(st.integers(1, _SIZES[key])))]
    extras = [k for k in keys if k != "out"] + ["config", "bogus"]
    for _ in range(draw(st.integers(0, 3))):
        argv += [f"--{draw(st.sampled_from(extras))}", draw(st.sampled_from(_TOKENS))]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(_TOKENS)))
    return argv


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_argv_exits_0_1_or_2_with_one_line(argv, tmp_path, capsys):
    # warnings would reach stderr in a real run, so they count as lines
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    lines = err.splitlines() + [str(w.message) for w in caught]
    assert len(lines) <= 1, (argv, lines)
    # a failure explains itself; a success prints no error
    assert (code == 0) == (not err.startswith(("error:", "contract failure:"))), (argv, err)
