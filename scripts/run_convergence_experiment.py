#!/usr/bin/env python3
"""Gradient descent to zero empirical risk, swept over seeds.

For each dimension the teacher is a random gaussian matrix of width 4d^2,
the data are 5x the critical sample count, and the student starts at the
sqrt(m)-scaled identity. Each run should end with tiny empirical risk, a
Gram matrix matching the teacher, and a global-optimum certificate. The
termination column says why descent stopped: "grad_tol" when the gradient
reached --grad-tol, "stalled" when it sits at the rounding floor above it.
"""

import argparse
import time

from quadland import (
    Backtracking,
    GDConfig,
    certify_stationary_global,
    check_init_below_barrier,
    critical_sample_count,
    gradient_descent,
    identity_init,
    label_dataset,
    moments_of,
    parse_distribution,
    sample_dataset,
    sample_teacher,
)


def run_one(d: int, seed: int, grad_tol: float):
    m = 4 * d * d
    n = 5 * critical_sample_count(d)
    dist = parse_distribution("gaussian")
    teacher = sample_teacher(dist, m, d, seed)
    dataset = label_dataset(sample_dataset(dist, n, d, seed), teacher)
    init = identity_init(m, d, "m")
    moments = moments_of(dist)
    below = check_init_below_barrier(init, teacher, moments).below

    config = GDConfig(step_policy=Backtracking(), grad_tol=grad_tol, record_every=50)
    t0 = time.time()
    traj = gradient_descent(init, teacher, dataset, config)
    elapsed = time.time() - t0
    cert = certify_stationary_global(
        traj.final_weights, teacher, moments, grad_tol=1e-6, gram_tol=1e-6
    )
    return {
        "d": d,
        "seed": seed,
        "init_below": below,
        "risk": traj.final_record.risk,
        "gap": cert.gram_gap,
        "iters": traj.iterations,
        "termination": traj.termination,
        "verdict": cert.verdict,
        "secs": elapsed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--grad-tol", type=float, default=1e-9)
    args = parser.parse_args()

    print(f"{'d':>3} {'seed':>5} {'below':>6} {'final risk':>12} {'gram gap':>11} "
          f"{'iters':>6} {'termination':>11} {'verdict':>16} {'secs':>6}")
    for d in args.dims:
        for seed in range(args.seeds):
            r = run_one(d, seed, args.grad_tol)
            print(f"{r['d']:>3} {r['seed']:>5} {str(r['init_below']):>6} "
                  f"{r['risk']:>12.3e} {r['gap']:>11.3e} {r['iters']:>6} "
                  f"{r['termination']:>11} {r['verdict']:>16} {r['secs']:>6.2f}")


if __name__ == "__main__":
    main()
