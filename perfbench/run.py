"""Closed-loop benchmark of the `quadland` CLI.

One client in one process runs a workload's job list through
`quadland.cli.main(argv)`, each job after the previous one returns:

    python3 perfbench/run.py --workload gd_empirical --seed 0 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (see tracing.py). Without `--workload` every
workload runs both ways and every metric is printed by name and unit. The
last line of standard output is always one JSON object.

Threads are pinned (OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1) before numpy
loads. No CPU pinning, cache dropping, or system-wide tracing is done.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import mmap
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jobs
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_TIMED_REPEATS = 3
SETUP_SAMPLES = 7

# Job-list times are reported in units of the calibration computation timed
# next to them (see Calibration): raw seconds drift 10-20% between runs on a
# shared host, their ratio to the calibration far less.
END_TO_END = [
    ("wall_cal", "s/s_cal"),  # median wall time of one job list, warm process
    ("cpu_cal", "s/s_cal"),   # median user+sys CPU time of one job list
    ("setup_s", "s"),         # median fresh-interpreter `import quadland.cli`
    ("peak_rss_mb", "MB"),    # peak resident memory of this process
]
PER_LAYER = tracing.PER_LAYER + [("trace.overhead", "ratio")]


class Failure(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def load_cli():
    if not (SRC / "quadland" / "cli.py").is_file():
        raise Failure(f"no quadland sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadland
    import quadland.cli

    if Path(quadland.__file__).resolve().parent != SRC / "quadland":
        raise Failure(f"imported quadland from {quadland.__file__}, not {SRC}")
    return quadland, quadland.cli


# --------------------------------------------------------------------------
# one job
# --------------------------------------------------------------------------


class Tally:
    """Jobs attempted and failed in one run, with the first message of each
    distinct failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.messages: dict = {}

    def record(self, argv, problems) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        known = jobs.defect_key(argv) in jobs.KNOWN_DEFECTS
        self.unexpected += not known
        key = " ".join(argv[:-2] if argv[-2] == "--seed" else argv)
        label = "known defect" if known else "FAILED"
        self.messages.setdefault(key, f"{label}: {key}: {'; '.join(problems)}")


def run_job(cli, argv, out: Path):
    """Run one CLI job in-process; returns (wall_s, cpu_s, problems)."""
    err = io.StringIO()
    problems = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv + ["--out", str(out)])
        except Exception:  # a traceback escaping the CLI is a failed job
            code = None
            problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if code not in (0, None):
        problems.append(f"exit code {code}: {err.getvalue().strip()[:200]}")
    if "Traceback (most recent call last)" in err.getvalue():
        problems.append("printed a traceback")
    if code == 0:
        problems += jobs.check_outputs(argv, out)
    return wall, cpu, problems


def run_list(cli, joblist, tally: Tally, tracer=None, expect=None):
    """Run a job list; returns (wall_s, cpu_s, digests, bytes written).
    With `expect`, each job's artifacts must hash to the given digest."""
    wall = cpu = 0.0
    digests, nbytes = [], 0
    for k, argv in enumerate(joblist):
        out = WORK / f"job{k}"
        if tracer is not None:
            tracer.job = k
        w, c, problems = run_job(cli, argv, out)
        wall, cpu = wall + w, cpu + c
        digests.append(jobs.digest(out))
        if expect is not None and digests[-1] != expect[k]:
            problems.append("results.jsonl/summary.json differ between two runs")
        tally.record(argv, problems)
        nbytes += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return wall, cpu, digests, nbytes


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


def measure(quadland, cli, workload: str, seed: int, seconds: float, trace: bool):
    """Warm up on instance 0, then time job lists on instances 0, 1, ...
    until `seconds` of lists have run. Instance 0's artifacts must come out
    byte-identical in the warm-up and the first timed list."""
    _, joblist, parts = jobs.WORKLOADS[workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    calibration = None if trace else Calibration(parts, jobs.pool_threads(joblist(0)))

    warm = run_list(cli, joblist(jobs.instance_seed(seed, 0)), tally)[2]
    walls, cpus, cals, setups, layers, overheads = [], [], [], [], [], []
    cal_before = None if trace else calibration.seconds()
    elapsed = 0.0
    repeat = 0
    while repeat < MIN_TIMED_REPEATS or elapsed < seconds:
        current = joblist(jobs.instance_seed(seed, repeat))
        expect = warm if repeat == 0 else None
        if tracer is None:
            wall, cpu, _, _ = run_list(cli, current, tally, expect=expect)
            cal_after = calibration.seconds()
            cals.append([(a + b) / 2 for a, b in zip(cal_before, cal_after)])
            cal_before = cal_after
            # spread the fresh-interpreter samples over the run, so that
            # their median sees the same machine as the job lists
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_seconds())
        else:
            # alternate which of the pair runs first, so that neither side
            # always meets the other's warmed caches
            traced_first = repeat % 2 == 1
            if traced_first:
                traced, nbytes = traced_list(quadland, cli, tracer, current, tally)
            wall, cpu, _, _ = run_list(cli, current, tally, expect=expect)
            if not traced_first:
                traced, nbytes = traced_list(quadland, cli, tracer, current, tally)
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans, nbytes))
            overheads.append(traced / wall)
            elapsed += traced
        walls.append(wall)
        cpus.append(cpu)
        elapsed += wall
        repeat += 1

    if trace:
        tracing.write_spans(WORK / "spans.jsonl", spans)
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name, _ in tracing.PER_LAYER}
        metrics["trace.overhead"] = statistics.median(overheads)
        units = PER_LAYER
    else:
        setups += [setup_seconds() for _ in range(SETUP_SAMPLES - len(setups))]
        metrics = {
            "wall_cal": statistics.median(w / c[0] for w, c in zip(walls, cals)),
            "cpu_cal": statistics.median(u / c[1] for u, c in zip(cpus, cals)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return tally, walls, {name: {"value": metrics[name], "unit": unit} for name, unit in units}


class Calibration:
    """A fixed computation built from the numpy and scipy kernels a workload
    spends its time in, never from quadland itself. Parts:

    - `forward`: `(120 x 8)(8 x 128)` products, squared and summed;
    - `faults`: first touches of fresh anonymous pages, which is where most
      of an empirical descent's time goes once its `N x m` temporaries are
      mapped and unmapped on every call (mmap bypasses malloc, so this part
      leaves the allocator's state alone);
    - `sampling`: Philox draws through ndtri, and SVDs of a `300 x 40` matrix;
    - `tiny`: `6 x 6` products and fresh Philox generators, on as many pool
      threads as the workload's `--jobs`, because a GIL-bound pool's speed
      also depends on whether the second core is free.

    It runs in this process between job lists. Dividing a list's time by it
    cancels much of the drift in machine speed that a shared 2-core host
    shows over tens of seconds; each kind of kernel drifts by its own amount,
    hence one mix per workload. Every array stays below glibc's initial
    128 KiB mmap threshold: a larger one, once freed, raises the threshold and
    changes how the program's own temporaries are allocated (d = 8 descent
    ran 3-4x faster after it)."""

    SAMPLES = 5

    def __init__(self, parts, threads: int = 1):
        import numpy as np
        from scipy.special import ndtri

        self._np, self._ndtri = np, ndtri
        self._key = np.array([1, 2], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=self._key))
        self._x = gen.standard_normal((120, 8))
        self._w = gen.standard_normal((128, 8))
        self._tall = gen.standard_normal((300, 40))
        self._small = np.eye(6) + 0.5
        self._threads = threads
        self._parts = [getattr(self, "_" + part) for part in parts]
        self._once()  # first calls pay one-off set-up

    def seconds(self) -> tuple[float, float]:
        """Median wall and CPU time of SAMPLES runs of the computation."""
        walls, cpus = [], []
        for _ in range(self.SAMPLES):
            t0, c0 = time.perf_counter(), time.process_time()
            self._once()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        return statistics.median(walls), statistics.median(cpus)

    def _once(self) -> None:
        for part in self._parts:
            part()

    def _forward(self) -> None:
        for _ in range(250):
            z = self._x @ self._w.T
            float((z * z).sum())

    def _faults(self) -> None:
        for _ in range(4):
            with mmap.mmap(-1, 1 << 22) as pages:
                pages[::4096] = b"\1" * 1024

    def _sampling(self) -> None:
        np = self._np
        gen = np.random.Generator(np.random.Philox(key=self._key))
        for _ in range(20):
            self._ndtri(gen.integers(1, 1 << 53, size=10000) / float(1 << 53))
            np.linalg.svd(self._tall, compute_uv=False)

    def _tiny(self) -> None:
        if self._threads > 1:
            with ThreadPoolExecutor(max_workers=self._threads) as pool:
                list(pool.map(self._tiny_call, range(300)))
        else:
            for k in range(300):
                self._tiny_call(k)

    def _tiny_call(self, k: int) -> float:
        np = self._np
        gen = np.random.Generator(np.random.Philox(key=self._key))
        a = self._small @ self._small
        return float(np.trace(a) + np.sum(a * a)) + float(gen.integers(1, 1 << 53, size=4).sum())


def traced_list(quadland, cli, tracer, joblist, tally):
    tracer.install(quadland)
    try:
        wall, _, _, nbytes = run_list(cli, joblist, tally, tracer)
    finally:
        tracer.uninstall()
    return wall, nbytes


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing quadland.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import quadland.cli"], cwd=ROOT, env=env,
                   check=True)
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in PINNED},
        "limits": "no CPU pinning, no cache dropping, no system-wide tracing",
    }


def print_run(workload, seed, trace, tally, walls, metrics) -> None:
    print(f"== {workload} seed={seed} trace={int(trace)}")
    for message in tally.messages.values():
        print(f"  {message}")
    print(f"  jobs attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / tally.attempted:.4f}")
    if not trace:
        tail = stats.tail(walls)
        tail_text = f"p{tail[0]:.0f}={tail[1]:.4f} s" if tail else "n/a (needs 20)"
        print(f"  wall_s over {len(walls)} timed job lists: median={statistics.median(walls):.4f} s, "
              f"tail {tail_text}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS),
                        help="one workload; omit to run and print all of them")
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED,
                        help=f"workload seed (default {jobs.DEFAULT_SEED}, "
                             f"holdout {jobs.HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed span of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < jobs.MAX_WORKLOAD_SEED:
        parser.error(f"--seed must lie in [0, {jobs.MAX_WORKLOAD_SEED})")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED)
    try:
        quadland, cli = load_cli()
    except (Failure, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    runs = ([(args.workload, bool(args.trace))] if args.workload else
            [(w, t) for w in jobs.WORKLOADS for t in (False, True)])
    results = {}
    for workload, trace in runs:
        tally, walls, metrics = measure(quadland, cli, workload, args.seed, args.seconds, trace)
        print_run(workload, args.seed, trace, tally, walls, metrics)
        results[(workload, trace)] = {
            "correct": tally.unexpected == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
    if args.workload:
        print(json.dumps(results[(args.workload, bool(args.trace))]))
    else:
        print(json.dumps({f"{w}/trace{int(t)}": r for (w, t), r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
