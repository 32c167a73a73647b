"""Command-line experiment harness.

Every subcommand resolves its configuration from flags, then an optional
flat `key = value` config file, then the QUADLAND_SEED environment
variable (seed only), then built-in defaults, and writes a manifest
echoing the resolved values next to its outputs. Artifacts are JSON or
JSON-lines plus the shared CSV matrix format; everything except the
manifest timestamp is byte-reproducible for a fixed argv and seed.

Exit codes: 0 success, 2 invalid arguments or unreadable inputs, 1 when
a runtime contract or certification fails or a descent run diverges.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import _rng
from .data import label_dataset, sample_dataset
from .errors import ContractViolation, DegenerateDistribution, InvalidArgument, NonfiniteValue
from .geometry import (
    critical_sample_count,
    prime_vandermonde_certificate,
    prime_vandermonde_data,
    recover_gram_discrepancy,
    spans_symmetric,
)
from .initialization import (
    SEMICIRCLE_SECOND_MOMENT,
    check_init_below_barrier,
    identity_init,
    sample_teacher,
    wishart_spectrum_report,
)
from .io import write_jsonl, write_json, write_manifest, write_matrix
from .landscape import (
    certify_stationary_global,
    rank_deficient_sweep,
    worst_rank_deficient,
)
from .model import (
    StudentWeights,
    gram,
    moments_of,
    parse_distribution,
)
from .optimize import Backtracking, FixedStep, GDConfig, InverseSmoothness, gradient_descent
from .risk import population_risk_of

STUDENT_SUBSTREAM = 3

_MOMENT_BAND_REL = 0.1  # "close to semicircle" means within 10% of 1/4


# --------------------------------------------------------------------------
# option resolution: flags > config file > QUADLAND_SEED > defaults
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Opt:
    key: str  # flag spelled without leading dashes, e.g. "grad-tol"
    cast: Callable[[str], Any]
    default: Any
    help: str

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


def _count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise InvalidArgument(f"count must be >= 1, got {value}")
    return value


def _seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 2 ** 64:
        raise InvalidArgument(f"seed must fit in 64 bits, got {value}")
    return value


def _positive(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise InvalidArgument(f"expected a positive number, got {value}")
    return value


def _choice(*allowed: str) -> Callable[[str], str]:
    def cast(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(raw)
        return raw

    return cast


_COMMON = [
    _Opt("seed", _seed, 0, "base RNG seed (QUADLAND_SEED env var as fallback)"),
    _Opt("out", str, ".", "output directory"),
    _Opt("jobs", _count, 1, "accepted for compatibility and ignored; trials run serially"),
]

_OPTIONS: dict[str, list[_Opt]] = {
    "gd-run": _COMMON
    + [
        _Opt("d", _count, 2, "input dimension"),
        _Opt("m", _count, 8, "teacher width"),
        _Opt("mhat", _count, None, "student width (defaults to m)"),
        _Opt("N", _count, 30, "sample count for the empirical objective"),
        _Opt("dist", str, "gaussian", "data distribution tag"),
        _Opt("teacher-dist", str, "gaussian", "teacher entry distribution tag"),
        _Opt("init-scale", _choice("m", "m_plus_4d"), "m", "identity scaling rule"),
        _Opt("objective", _choice("empirical", "population"), "empirical", "risk to descend"),
        _Opt(
            "policy",
            _choice("backtracking", "inverse-smoothness", "fixed"),
            "backtracking",
            "step-size policy",
        ),
        _Opt("eta", _positive, None, "step size for the fixed policy"),
        _Opt("grad-tol", _positive, 1e-8, "gradient-norm stopping tolerance"),
        _Opt("max-iters", _count, 10 ** 6, "iteration cap"),
        _Opt("record-every", _count, 100, "trajectory recording stride"),
    ],
    "barrier-scan": _COMMON
    + [
        _Opt("d", _count, 3, "input dimension"),
        _Opt("m", _count, 8, "teacher width"),
        _Opt("trials", _count, 500, "number of random rank-deficient students"),
        _Opt("dist", str, "gaussian", "data distribution tag (moments)"),
        _Opt("teacher-dist", str, "gaussian", "teacher entry distribution tag"),
    ],
    "init-check": _COMMON
    + [
        _Opt("d", _count, 10, "input dimension"),
        _Opt("m", _count, 4000, "width"),
        _Opt("init-scale", _choice("m", "m_plus_4d"), "m", "identity scaling rule"),
        _Opt("dist", str, "gaussian", "data distribution tag (moments)"),
        _Opt("teacher-dist", str, "gaussian", "teacher entry distribution tag"),
        _Opt("seeds", _count, 100, "number of teacher seeds to sweep"),
    ],
    "geometry-check": _COMMON
    + [
        _Opt("d", _count, 3, "input dimension"),
        _Opt("source", _choice("prime", "random"), "prime", "design to check"),
        _Opt("N", _count, None, "sample count (defaults to d(d+1)/2)"),
        _Opt("dist", str, "gaussian", "distribution for --source random"),
    ],
    "sample-complexity": _COMMON
    + [
        _Opt("d", _count, 3, "input dimension"),
        _Opt("trials", _count, 100, "datasets per sample count"),
        _Opt("dist", str, "gaussian", "data distribution tag"),
    ],
    "recovery": _COMMON
    + [
        _Opt("d", _count, 3, "input dimension"),
        _Opt("m", _count, 6, "width"),
        _Opt("N", _count, None, "sample count (defaults to 3 d(d+1)/2)"),
        _Opt("dist", str, "gaussian", "data distribution tag"),
        _Opt("scale", _positive, 0.1, "size of the planted weight perturbation"),
    ],
    "spectrum": _COMMON
    + [
        _Opt("d", _count, 40, "input dimension"),
        _Opt("m", _count, 4000, "width"),
        _Opt("teacher-dist", str, "gaussian", "teacher entry distribution tag"),
        _Opt("seeds", _count, 100, "number of teacher seeds to sweep"),
    ],
}


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise InvalidArgument(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidArgument(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(ns: argparse.Namespace, options: list[_Opt]) -> dict[str, Any]:
    from_file = _read_config_file(ns.config) if ns.config else {}
    known = {opt.key for opt in options}
    unknown = set(from_file) - known
    if unknown:
        raise InvalidArgument(f"unknown config keys: {sorted(unknown)}")
    resolved: dict[str, Any] = {}
    for opt in options:
        raw = getattr(ns, opt.dest)
        if raw is None:
            raw = from_file.get(opt.key)
        if raw is None and opt.key == "seed":
            raw = os.environ.get("QUADLAND_SEED")
        try:
            resolved[opt.dest] = opt.default if raw is None else opt.cast(raw)
        except (ValueError, TypeError) as exc:
            raise InvalidArgument(f"bad value for --{opt.key}: {raw!r}") from exc
    return resolved


def _out_dir(cfg: dict[str, Any]) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_width(m: int, d: int) -> None:
    if m < d:
        raise InvalidArgument(f"need width >= dimension, got m={m}, d={d}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_gd_run(cfg: dict[str, Any]) -> dict[str, Any]:
    d, m = cfg["d"], cfg["m"]
    mhat = cfg["mhat"] if cfg["mhat"] is not None else m
    _require_width(m, d)
    _require_width(mhat, d)
    data_dist = parse_distribution(cfg["dist"])
    teacher_dist = parse_distribution(cfg["teacher_dist"])
    moments = moments_of(data_dist)

    if cfg["policy"] == "fixed":
        if cfg["eta"] is None:
            raise InvalidArgument("--policy fixed requires --eta")
        policy = FixedStep(cfg["eta"])
    elif cfg["policy"] == "inverse-smoothness":
        policy = InverseSmoothness()
    else:
        policy = Backtracking()
    gd_config = GDConfig(
        step_policy=policy,
        grad_tol=cfg["grad_tol"],
        max_iters=cfg["max_iters"],
        record_every=cfg["record_every"],
    )

    teacher = sample_teacher(teacher_dist, m, d, cfg["seed"])
    init = identity_init(mhat, d, cfg["init_scale"])
    try:
        init_below = check_init_below_barrier(init, teacher, moments).below
    except DegenerateDistribution:  # Var(X^2) = 0: no barrier, descend anyway
        init_below = None
    if cfg["objective"] == "empirical":
        payload = label_dataset(sample_dataset(data_dist, cfg["N"], d, cfg["seed"]), teacher)
    else:
        payload = moments
    trajectory = gradient_descent(init, teacher, payload, gd_config)
    if trajectory.termination == "nonfinite":
        raise NonfiniteValue(f"descent diverged after {trajectory.iterations} iterations")
    # certification reads the population gradient, which an empirical run
    # only drives to ~ grad_tol * norm factors; certify at the gram scale
    certificate = certify_stationary_global(
        trajectory.final_weights, teacher, moments, grad_tol=1e-6, gram_tol=1e-6
    )

    out = _out_dir(cfg)
    write_jsonl(out / "results.jsonl", [r.to_json() for r in trajectory.records])
    write_matrix(out / "final_weights.csv", trajectory.final_weights.weights)
    write_matrix(out / "teacher_weights.csv", teacher.weights)
    final = trajectory.final_record
    return {
        "final_risk": final.risk,
        "final_grad_norm": final.grad_norm,
        "gram_gap": certificate.gram_gap,
        "iterations": trajectory.iterations,
        "termination": trajectory.termination,
        "init_below_barrier": init_below,
        "verdict": certificate.verdict,
    }


def _cmd_barrier_scan(cfg: dict[str, Any]) -> dict[str, Any]:
    d, m = cfg["d"], cfg["m"]
    _require_width(m, d)
    moments = moments_of(parse_distribution(cfg["dist"]))
    teacher = sample_teacher(parse_distribution(cfg["teacher_dist"]), m, d, cfg["seed"])
    sweep = rank_deficient_sweep(teacher, moments, cfg["trials"], cfg["seed"])
    tight = population_risk_of(worst_rank_deficient(teacher), teacher, moments).value

    out = _out_dir(cfg)
    write_jsonl(
        out / "results.jsonl",
        [{"trial": t, "risk": r} for t, r in enumerate(sweep.risks)],
    )
    return {
        "barrier": sweep.barrier,
        "min_risk_found": sweep.min_risk_found,
        "tightness_risk": tight,
        "trials": cfg["trials"],
    }


def _cmd_init_check(cfg: dict[str, Any]) -> dict[str, Any]:
    d, m = cfg["d"], cfg["m"]
    _require_width(m, d)
    moments = moments_of(parse_distribution(cfg["dist"]))
    teacher_dist = parse_distribution(cfg["teacher_dist"])
    init = identity_init(m, d, cfg["init_scale"])

    rows = []
    for seed in range(cfg["seed"], cfg["seed"] + cfg["seeds"]):
        teacher = sample_teacher(teacher_dist, m, d, seed)
        report = check_init_below_barrier(init, teacher, moments)
        rows.append({"seed": seed, "risk": report.risk_value,
                     "barrier": report.barrier_value, "below": report.below})
    out = _out_dir(cfg)
    write_jsonl(out / "results.jsonl", rows)
    below = sum(1 for r in rows if r["below"])
    return {
        "seeds": cfg["seeds"],
        "fraction_below": below / cfg["seeds"],
        "scale_mode": cfg["init_scale"],
    }


def _cmd_geometry_check(cfg: dict[str, Any]) -> dict[str, Any]:
    d = cfg["d"]
    n = cfg["N"] if cfg["N"] is not None else critical_sample_count(d)
    if cfg["source"] == "prime":
        dataset = prime_vandermonde_data(d, n)
        certificate = prime_vandermonde_certificate(d).to_json()
    else:
        dataset = sample_dataset(parse_distribution(cfg["dist"]), n, d, cfg["seed"])
        certificate = None
    report = spans_symmetric(dataset)
    out = _out_dir(cfg)
    write_matrix(out / "design_inputs.csv", dataset.inputs)
    summary: dict[str, Any] = {"span": report.to_json(), "n_star": critical_sample_count(d)}
    if certificate is not None:
        summary["certificate"] = certificate
        summary["agreement"] = bool(certificate["distinct"] == report.spans)
    return summary


def _cmd_sample_complexity(cfg: dict[str, Any]) -> dict[str, Any]:
    d = cfg["d"]
    n_star = critical_sample_count(d)
    dist = parse_distribution(cfg["dist"])
    counts = [n_star - 1, n_star] if n_star > 1 else [n_star]

    rows = []
    for trial in range(cfg["trials"]):
        for n in counts:
            report = spans_symmetric(sample_dataset(dist, n, d, cfg["seed"] + trial))
            rows.append(
                {"trial": trial, "n": n, "spans": report.spans, "rank": report.rank}
            )
    out = _out_dir(cfg)
    write_jsonl(out / "results.jsonl", rows)
    fractions = {
        str(n): sum(1 for r in rows if r["n"] == n and r["spans"]) / cfg["trials"]
        for n in counts
    }
    return {"n_star": n_star, "trials": cfg["trials"], "spans_fraction": fractions}


def _cmd_recovery(cfg: dict[str, Any]) -> dict[str, Any]:
    d, m = cfg["d"], cfg["m"]
    _require_width(m, d)
    n = cfg["N"] if cfg["N"] is not None else 3 * critical_sample_count(d)
    dist = parse_distribution(cfg["dist"])
    teacher = sample_teacher(parse_distribution("gaussian"), m, d, cfg["seed"])
    gen = _rng.stream(cfg["seed"], STUDENT_SUBSTREAM)
    offset = _rng.standard_normal(gen, (m, d))
    dataset = label_dataset(sample_dataset(dist, n, d, cfg["seed"]), teacher)

    def run(scale: float):
        student = StudentWeights(teacher.weights + scale * offset)
        rec = recover_gram_discrepancy(dataset, student, teacher)
        direct = gram(student) - gram(teacher)
        return rec, float(np.linalg.norm(rec.m_hat - direct))

    rec, err = run(cfg["scale"])
    rec_half, _ = run(cfg["scale"] / 2.0)
    full_norm = float(np.linalg.norm(rec.m_hat))
    half_norm = float(np.linalg.norm(rec_half.m_hat))
    out = _out_dir(cfg)
    write_matrix(out / "recovered_discrepancy.csv", rec.m_hat)
    return {
        "n": n,
        "frobenius_error": err,
        "residual_norm": rec.residual_norm,
        "recovered_norm": full_norm,
        "half_scale_ratio": half_norm / full_norm if full_norm > 0 else None,
    }


def _cmd_spectrum(cfg: dict[str, Any]) -> dict[str, Any]:
    d, m = cfg["d"], cfg["m"]
    _require_width(m, d)
    teacher_dist = parse_distribution(cfg["teacher_dist"])
    lo = SEMICIRCLE_SECOND_MOMENT * (1.0 - _MOMENT_BAND_REL)
    hi = SEMICIRCLE_SECOND_MOMENT * (1.0 + _MOMENT_BAND_REL)

    rows = []
    for seed in range(cfg["seed"], cfg["seed"] + cfg["seeds"]):
        row = wishart_spectrum_report(sample_teacher(teacher_dist, m, d, seed)).to_json()
        row["seed"] = seed
        rows.append(row)
    out = _out_dir(cfg)
    write_jsonl(out / "results.jsonl", rows)
    inside = sum(1 for r in rows if r["inside_band"])
    near = sum(1 for r in rows if lo <= r["scaled_second_moment"] <= hi)
    return {
        "seeds": cfg["seeds"],
        "fraction_inside_band": inside / cfg["seeds"],
        "fraction_moment_near_semicircle": near / cfg["seeds"],
        "mean_second_moment": sum(r["scaled_second_moment"] for r in rows) / cfg["seeds"],
        "semicircle_value": SEMICIRCLE_SECOND_MOMENT,
    }


_COMMANDS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "gd-run": _cmd_gd_run,
    "barrier-scan": _cmd_barrier_scan,
    "init-check": _cmd_init_check,
    "geometry-check": _cmd_geometry_check,
    "sample-complexity": _cmd_sample_complexity,
    "recovery": _cmd_recovery,
    "spectrum": _cmd_spectrum,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadland",
        description="teacher-student quadratic-network landscape experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for opt in options:
            p.add_argument(f"--{opt.key}", dest=opt.dest, default=None, help=opt.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _resolve(ns, _OPTIONS[ns.command])
        summary = _COMMANDS[ns.command](cfg)
        out = _out_dir(cfg)
        manifest_cfg = {k: v for k, v in cfg.items()}
        write_manifest(out, ns.command, manifest_cfg)
        write_json(out / "summary.json", summary)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, NonfiniteValue, AssertionError) as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
