"""Workloads as `quadland` argv lists, and the check every job's output must pass.

A workload is a job list. Repeat `r` of a run with workload seed `S` passes
the CLI `--seed instance_seed(S, r)`, plus a per-job offset. Instance 0 runs
as the warm-up and again as the first timed list, for the byte-identity
check. Later lists draw fresh instances, so no cache that survives a job can
serve a later one, and the median over lists averages over problem
instances as well as over noise.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
HOLDOUT_SEED = 7  # not used while the benchmark was written

# Repeats of one run use disjoint instance seeds as long as r < 1000, and
# `init-check`/`spectrum` sweep 100 seeds upward from theirs.
_SEED_STRIDE = 1000
MAX_WORKLOAD_SEED = 10 ** 9


def instance_seed(workload_seed: int, repeat: int) -> int:
    return (workload_seed * _SEED_STRIDE + repeat) * _SEED_STRIDE


def _gd_empirical(d: int, seed: int) -> list[str]:
    return ["gd-run", "--d", str(d), "--m", str(4 * d * d),
            "--N", str(5 * d * (d + 1) // 2), "--seed", str(seed)]


# name -> (why, job list for one instance seed, calibration parts in run.py)
WORKLOADS = {
    "gd_empirical": (
        "paper-regime empirical descent (d = 8, m = 4d^2, N = 5 d(d+1)/2): "
        "N x m x d forward passes dominate; no sweeps, few SVDs",
        lambda s: [_gd_empirical(8, s + k) for k in range(4)],
        ("forward", "faults"),
    ),
    "teacher_sweep": (
        "paper teacher sweeps: Philox/ndtri sampling and SVD/eigh of "
        "4000 x d teachers; no descent, no geometry",
        lambda s: [
            ["init-check", "--d", "10", "--m", "4000", "--seeds", "100", "--seed", str(s)],
            ["spectrum", "--d", "40", "--m", "4000", "--seeds", "100", "--seed", str(s)],
        ],
        ("sampling",),
    ),
    "small_calls": (
        "many small d x d calls: closed-form population risk, smoothness "
        "estimates, geometry, and the --jobs 2 thread pool",
        lambda s: [
            ["barrier-scan", "--d", "3", "--m", "8", "--trials", "2000", "--jobs", "2",
             "--seed", str(s)],
            ["sample-complexity", "--d", "8", "--trials", "300", "--jobs", "2",
             "--seed", str(s)],
            ["gd-run", "--objective", "population", "--policy", "inverse-smoothness",
             "--d", "6", "--m", "144", "--seed", str(s)],
            ["gd-run", "--d", "3", "--m", "36", "--N", "30", "--policy",
             "inverse-smoothness", "--seed", str(s)],
            ["geometry-check", "--d", "6", "--source", "random", "--seed", str(s)],
            ["geometry-check", "--d", "8", "--source", "prime", "--seed", str(s)],
            ["recovery", "--d", "4", "--m", "16", "--seed", str(s)],
        ],
        ("tiny",),
    ),
}

# Jobs whose check fails at the seed commit because the program is wrong.
# They still count as failed; `correct` stays true only while every failure
# is one of these, so that a new failure anywhere else still shows.
KNOWN_DEFECTS = {
    ("geometry-check", "prime", "8"):
        "ROADMAP item 4(a): float64 rank of the prime design is 19/36, "
        "so agreement is false",
}


def defect_key(argv: list[str]) -> tuple:
    opts = _options(argv)
    return (argv[0], opts.get("source"), opts.get("d"))


def _options(argv: list[str]) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def pool_threads(joblist: list[list[str]]) -> int:
    """Most `--jobs` worker threads any job of the list asks for."""
    return max(int(_options(argv).get("jobs", 1)) for argv in joblist)


# --------------------------------------------------------------------------
# output check
# --------------------------------------------------------------------------

# Tolerances, stated once: REL_TOL for recomputed floats, CONVERGED for the
# gradient-norm tolerance gd-run descends to (its --grad-tol default).
REL_TOL = 1e-9
CONVERGED = 1e-8
ARTIFACTS = ("results.jsonl", "summary.json")


def digest(out_dir: Path) -> str:
    """Hash of the artifacts that must be byte-identical across runs."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        path = out_dir / name
        if path.is_file():
            h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(argv: list[str], out_dir: Path) -> list[str]:
    """Problems with one job's artifacts; empty when they are right.

    Each command is held to facts known independently of the program
    (theorems of the paper, exact counts, identities between the summary
    and the per-trial rows it summarizes), never to the seed's own output.
    """
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        rows = _read_jsonl(out_dir / "results.jsonl") if argv[0] in _HAS_ROWS else None
    except (OSError, ValueError) as exc:
        return [f"unreadable artifacts: {exc}"]
    opts = _options(argv)
    try:
        return _CHECKS[argv[0]](opts, summary, rows)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed summary: {exc!r}"]


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_gd_run(opts, s, rows):
    p = []
    _expect(p, s["termination"] == "grad_tol", f"termination {s['termination']!r} != 'grad_tol'")
    _expect(p, s["verdict"] == "global-optimum", f"verdict {s['verdict']!r} != 'global-optimum'")
    _expect(p, s["final_grad_norm"] <= CONVERGED, f"final_grad_norm {s['final_grad_norm']} > {CONVERGED}")
    _expect(p, 0.0 <= s["final_risk"] <= 1e-12 * max(1.0, rows[0]["risk"]),
            f"final_risk {s['final_risk']} is not ~0 at the optimum")
    # certify_stationary_global's gram tolerance; a global optimum meets it
    _expect(p, s["gram_gap"] <= 1e-6, f"gram_gap {s['gram_gap']} > 1e-6")
    last = rows[-1]
    _expect(p, last["iteration"] == s["iterations"], "last trajectory row is not the final iterate")
    _expect(p, last["risk"] == s["final_risk"], "summary final_risk differs from the last row")
    risks = [r["risk"] for r in rows]
    # gradient_descent's own monotonicity slack
    _expect(p, all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(risks, risks[1:])),
            "recorded risk increases under a descent policy")
    return p


def _check_barrier_scan(opts, s, rows):
    p = []
    trials = int(opts["trials"])
    _expect(p, s["trials"] == trials and len(rows) == trials, "trial count mismatch")
    risks = [r["risk"] for r in rows]
    _expect(p, s["min_risk_found"] == min(risks), "min_risk_found is not the minimum row")
    # the energy barrier: no rank-deficient student lies below it, and the
    # worst-case construction sits within max{mu4, 3 mu2^2}/c_lower = 3/2 of it
    # for gaussian data
    _expect(p, s["barrier"] > 0, "barrier must be positive")
    _expect(p, s["min_risk_found"] >= s["barrier"] * (1 - REL_TOL), "student below the barrier")
    _expect(p, s["barrier"] * (1 - REL_TOL) <= s["tightness_risk"] <= 1.5 * s["barrier"] * (1 + REL_TOL),
            "tightness construction outside [barrier, 1.5 barrier]")
    return p


def _check_init_check(opts, s, rows):
    p = []
    seeds = int(opts["seeds"])
    _expect(p, s["seeds"] == seeds and len(rows) == seeds, "seed count mismatch")
    _expect(p, [r["seed"] for r in rows] == [int(opts["seed"]) + i for i in range(seeds)],
            "rows do not cover seed .. seed + seeds - 1 in order")
    _expect(p, all(r["below"] == (r["risk"] < r["barrier"]) for r in rows),
            "a row's 'below' disagrees with risk < barrier")
    _expect(p, s["fraction_below"] == sum(r["below"] for r in rows) / seeds,
            "fraction_below does not match the rows")
    return p


def _check_spectrum(opts, s, rows):
    p = []
    seeds = int(opts["seeds"])
    d, m = int(opts["d"]), int(opts["m"])
    _expect(p, s["seeds"] == seeds and len(rows) == seeds, "seed count mismatch")
    mean = sum(r["scaled_second_moment"] for r in rows) / seeds
    _expect(p, _close(s["mean_second_moment"], mean), "mean_second_moment does not match the rows")
    _expect(p, s["fraction_inside_band"] == sum(r["inside_band"] for r in rows) / seeds,
            "fraction_inside_band does not match the rows")
    _expect(p, s["semicircle_value"] == 0.25, "semicircle value is not 1/4")
    # E[(1/d) sum mu_i^2] = (d+1)/(4d) exactly for gaussian entries (ROADMAP
    # item 5). One seed's value has standard deviation about 1/(2d), so the
    # band is eight standard errors of the mean over the seeds.
    exact = (d + 1) / (4 * d)
    band = 4.0 / (d * math.sqrt(seeds))
    _expect(p, abs(mean - exact) < band,
            f"mean second moment {mean} is not within {band:.3g} of (d+1)/(4d) = {exact}")
    for r in rows:
        lo, hi = r["sigma_band"]
        inside = math.sqrt(max(r["lambda_min"], 0)) >= lo and math.sqrt(max(r["lambda_max"], 0)) <= hi
        if inside != r["inside_band"]:
            p.append(f"seed {r['seed']}: inside_band disagrees with its eigenvalues")
            break
    _expect(p, all(math.isclose(r["sigma_band"][0], math.sqrt(m) - 2 * math.sqrt(d), rel_tol=REL_TOL)
                   for r in rows), "sigma band does not start at sqrt(m) - 2 sqrt(d)")
    return p


def _check_geometry_check(opts, s, rows):
    p = []
    d = int(opts["d"])
    n_star = d * (d + 1) // 2
    _expect(p, s["n_star"] == n_star, f"n_star {s['n_star']} != d(d+1)/2 = {n_star}")
    span = s["span"]
    # N* gaussian samples, and the prime design, span the symmetric matrices
    _expect(p, span["rank"] == n_star and span["spans"], f"rank {span['rank']} != {n_star}")
    if opts["source"] == "prime":
        _expect(p, s["agreement"] is True, "numerical span disagrees with the exact certificate")
    return p


def _check_sample_complexity(opts, s, rows):
    p = []
    d, trials = int(opts["d"]), int(opts["trials"])
    n_star = d * (d + 1) // 2
    _expect(p, s["n_star"] == n_star and s["trials"] == trials, "n_star or trials mismatch")
    # fewer than N* samples never span; N* gaussian samples span almost surely
    _expect(p, s["spans_fraction"] == {str(n_star - 1): 0.0, str(n_star): 1.0},
            f"spans_fraction {s['spans_fraction']} is not the sharp threshold")
    _expect(p, len(rows) == 2 * trials, "row count is not 2 * trials")
    return p


def _check_recovery(opts, s, rows):
    p = []
    d = int(opts["d"])
    _expect(p, s["n"] == 3 * d * (d + 1) // 2, "n is not 3 d(d+1)/2")
    scale = max(1.0, s["recovered_norm"])
    # the solve is exact for spanning data: error and residual are rounding
    _expect(p, s["frobenius_error"] <= 1e-9 * scale, f"frobenius_error {s['frobenius_error']}")
    _expect(p, s["residual_norm"] <= 1e-9 * scale, f"residual_norm {s['residual_norm']}")
    # M(t) = t B + t^2 C, so halving a small perturbation roughly halves M
    _expect(p, 0.4 < s["half_scale_ratio"] < 0.6, f"half_scale_ratio {s['half_scale_ratio']}")
    return p


_CHECKS = {
    "gd-run": _check_gd_run,
    "barrier-scan": _check_barrier_scan,
    "init-check": _check_init_check,
    "spectrum": _check_spectrum,
    "geometry-check": _check_geometry_check,
    "sample-complexity": _check_sample_complexity,
    "recovery": _check_recovery,
}
_HAS_ROWS = ("gd-run", "barrier-scan", "init-check", "spectrum", "sample-complexity")
