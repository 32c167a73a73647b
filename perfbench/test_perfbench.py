"""Self-tests for the benchmark's own arithmetic and output check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import pytest

import jobs
import run
import stats
import tracing


def span(sid, parent, name, start, end, thread="main", extra=None):
    return (sid, parent, name, start, end, 0, thread, extra)


# A job's cli.main on the main thread, a nested forward pass, and two worker
# threads whose spans overlap each other and carry children of their own.
SYNTHETIC = [
    span(1, 0, "model.forward_batch", 1.0, 3.0),
    span(2, 3, "linalg.svd", 2.5, 3.5, thread="w1"),
    span(3, 0, "risk.population_risk_of", 2.0, 6.0, thread="w1"),
    span(4, 5, "risk.population_risk_of", 5.0, 6.0, thread="w2"),
    span(5, 0, "risk.population_risk_of", 4.0, 8.0, thread="w2"),
    span(0, None, "cli.main", 0.0, 10.0),
]


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == 3.0


def test_self_time_subtracts_the_union_of_children():
    selfs = tracing.self_times(SYNTHETIC)
    # children of cli.main cover [1, 3] u [2, 6] u [4, 8] = [1, 8]: a plain
    # sum of their durations (10) would exceed the parent's interval
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(3.0)
    assert selfs[4] == selfs[2] == pytest.approx(1.0)


def test_layer_metrics_on_the_synthetic_trace():
    m = tracing.layer_metrics(SYNTHETIC, bytes_written=123)
    assert m["risk.population_risk_of.calls"] == 3
    # the nested call is inside another population_risk_of span: not busy twice
    assert m["risk.population_risk_of.busy_s"] == pytest.approx(8.0)
    assert m["cli.main.self_s"] == pytest.approx(3.0)
    assert m["cli.main.busy_s"] == pytest.approx(10.0)
    assert m["risk.self_s"] == pytest.approx(3.0 + 3.0 + 1.0)
    assert m["linalg.svd.self_s"] == pytest.approx(1.0)
    # worker spans: 4 + 4 seconds busy over a union of [2, 8]
    assert m["cli.thread_overlap"] == pytest.approx(8.0 / 6.0)
    assert m["io.bytes_written"] == 123
    assert set(m) == {name for name, _ in tracing.PER_LAYER}


def test_worker_thread_spans_belong_to_the_open_root():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("rng.stream", lambda: None)

    def body():
        leaf()
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("cli.main", body)()
    spans = {s[0]: s for s in tracer.take()}
    root = next(s for s in spans.values() if s[2] == "cli.main")
    leaves = [s for s in spans.values() if s[2] == "rng.stream"]
    assert root[1] is None
    assert len(leaves) == 2 and all(s[1] == root[0] for s in leaves)
    assert len({s[6] for s in leaves}) == 2
    assert tracer.take() == []


@pytest.mark.parametrize("n, expected", [
    (19, None),
    (20, (50.0, 10)),
    (25, (60.0, 15)),
    (100, (90.0, 90)),
])
def test_tail_leaves_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # 1..n, unsorted
    assert stats.tail(samples) == expected
    if expected:
        assert sum(x > expected[1] for x in samples) == stats.BEYOND


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()[1]


def test_a_tampered_summary_counts_as_failed(cli, tmp_path):
    argv = ["barrier-scan", "--d", "3", "--m", "8", "--trials", "20", "--seed", "5"]
    _, _, problems = run.run_job(cli, argv, tmp_path)
    assert problems == []
    before = jobs.digest(tmp_path)

    path = tmp_path / "summary.json"
    summary = json.loads(path.read_text())
    summary["min_risk_found"] *= 1.5
    path.write_text(json.dumps(summary))
    problems = jobs.check_outputs(argv, tmp_path)
    assert problems and jobs.digest(tmp_path) != before

    tally = run.Tally()
    tally.record(argv, problems)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 1)


def test_the_known_defect_fails_but_keeps_correct(cli, tmp_path):
    argv = ["geometry-check", "--d", "8", "--source", "prime", "--seed", "0"]
    tally = run.Tally()
    tally.record(argv, run.run_job(cli, argv, tmp_path)[2])
    assert tally.attempted == 1
    if tally.failed:  # fixed once the prime design's rank is computed exactly
        assert tally.unexpected == 0


def test_every_workload_job_passes_its_check_at_the_default_seed(cli, tmp_path):
    # one cheap job per command, so every check runs on real output
    cheap = [
        ["gd-run", "--d", "2", "--m", "8", "--N", "15", "--seed", "0"],
        ["init-check", "--d", "3", "--m", "200", "--seeds", "4", "--seed", "0"],
        ["spectrum", "--d", "4", "--m", "400", "--seeds", "200", "--seed", "0"],
        ["sample-complexity", "--d", "3", "--trials", "5", "--seed", "0"],
        ["geometry-check", "--d", "4", "--source", "random", "--seed", "0"],
        ["recovery", "--d", "3", "--m", "6", "--seed", "0"],
    ]
    for k, argv in enumerate(cheap):
        assert run.run_job(cli, argv, tmp_path / str(k))[2] == [], argv


def test_benchmark_json_lists_the_metrics_a_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [why for why, *_ in jobs.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_workload_seeds_are_reproducible_and_disjoint():
    for why, joblist, _ in jobs.WORKLOADS.values():
        assert "\n" not in why and len(why) <= 200
        a = joblist(jobs.instance_seed(3, 1))
        assert a == joblist(jobs.instance_seed(3, 1))
        assert a != joblist(jobs.instance_seed(3, 2))
    assert jobs.instance_seed(0, 999) + 101 < jobs.instance_seed(1, 0)


if __name__ == "__main__":
    sys.exit(pytest.main([str(Path(__file__).parent), "-q"]))
