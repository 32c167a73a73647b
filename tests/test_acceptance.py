"""End-to-end acceptance checks, one test per claim.

Each test prints a single `ACCEPTANCE <nn> <name>: PASS|FAIL` line on the
real terminal (outside pytest capture) so the full-suite log shows every
verdict at a glance.
"""

import time

import numpy as np
import pytest

from quadland import (
    Gaussian,
    GDConfig,
    Moments,
    Rademacher,
    StudentWeights,
    TeacherModel,
    Uniform,
    certify_stationary_global,
    check_init_below_barrier,
    critical_sample_count,
    empirical_gradient,
    empirical_risk,
    gradient_descent,
    gram,
    identity_init,
    label_dataset,
    moments_of,
    null_interpolator,
    population_gradient,
    population_risk,
    population_risk_of,
    prime_vandermonde_certificate,
    prime_vandermonde_data,
    rank_deficient_sweep,
    recover_gram_discrepancy,
    sample_dataset,
    sample_teacher,
    spans_symmetric,
    wishart_spectrum_report,
    worst_rank_deficient,
)

import oracles

DIST = Gaussian(1.0)
GAUSS = moments_of(DIST)


@pytest.fixture(autouse=True)
def acceptance_line(request):
    yield
    name = request.node.name.removeprefix("test_")
    num, _, slug = name.partition("_")
    status = "PASS" if getattr(request.node, "outcome_call", None) == "passed" else "FAIL"
    manager = request.config.pluginmanager.getplugin("capturemanager")
    with manager.global_and_fixture_disabled():
        print(f"ACCEPTANCE {num} {slug.replace('_', '-')}: {status}")


def test_01_population_risk_matches_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    dists = [Gaussian(1.0), Uniform(2.0), Rademacher(), Gaussian(0.5), Uniform(1.0)]
    for trial in range(20):
        dist = dists[trial % len(dists)]
        teacher = TeacherModel(rng.normal(size=(6, 4)))
        student = StudentWeights(rng.normal(size=(6, 4)))
        closed = population_risk_of(student, teacher, moments_of(dist)).value
        x = sample_dataset(dist, 10**6, 4, seed=3000 + trial).inputs
        a = gram(teacher) - gram(student)
        quad = np.einsum("ni,ij,nj->n", x, a, x)
        estimate, se = oracles.mc_estimate(quad * quad)
        assert abs(closed - estimate) <= 4.0 * se, f"trial {trial} ({dist.tag})"
    assert time.perf_counter() - start < 30.0


def test_02_gaussian_risk_reduces_to_trace_form():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = rng.normal(size=(4, 4))
        a = a + a.T
        value = population_risk(a, GAUSS).value
        want = np.trace(a) ** 2 + 2.0 * np.trace(a @ a)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


def test_03_sandwich_bounds_hold():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        a = rng.normal(size=(3, 3))
        a = a + a.T
        mu2 = rng.uniform(0.2, 2.0)
        mu4 = rng.uniform(1.0, 4.0) * mu2 * mu2
        report = population_risk(a, Moments(mu2, mu4))
        slack = 1e-12 * max(1.0, abs(report.value))
        assert report.lower_bound <= report.value + slack
        assert report.value <= report.upper_bound + slack


def test_04_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    teacher = sample_teacher(DIST, 4, 3, 1)
    data = label_dataset(sample_dataset(DIST, 20, 3, 1), teacher)
    for _ in range(100):
        w = rng.normal(size=(4, 3))
        grad = empirical_gradient(StudentWeights(w), data)
        fd = oracles.central_difference_gradient(
            lambda v: empirical_risk(StudentWeights(v), data), w
        )
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))
    for _ in range(100):
        w = rng.normal(size=(4, 3))
        grad = population_gradient(StudentWeights(w), teacher, GAUSS)
        fd = oracles.central_difference_gradient(
            lambda v: population_risk_of(StudentWeights(v), teacher, GAUSS).value, w
        )
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_05_energy_barrier_and_tightness():
    teacher = sample_teacher(DIST, 8, 3, 2025)
    sigma4 = np.linalg.svd(teacher.weights, compute_uv=False)[-1] ** 4
    sweep = rank_deficient_sweep(teacher, GAUSS, 500, seed=1)
    assert len(sweep.risks) == 500
    assert sweep.min_risk_found >= 2.0 * sigma4 - 1e-9
    worst = population_risk_of(worst_rank_deficient(teacher), teacher, GAUSS).value
    assert worst <= 3.0 * sigma4 + 1e-9


@pytest.fixture(scope="module")
def convergence_runs():
    """First ten seeds per dimension whose identity init starts below the
    barrier, each run to a 1e-9 gradient norm with every iterate recorded."""
    runs = {}
    for d in (2, 3):
        m = 4 * d * d
        n = 5 * critical_sample_count(d)
        init = identity_init(m, d, "m")
        config = GDConfig(grad_tol=1e-9, record_every=1)
        entries = []
        seed = 1
        while len(entries) < 10:
            teacher = sample_teacher(DIST, m, d, seed)
            if check_init_below_barrier(init, teacher, GAUSS).below:
                data = label_dataset(sample_dataset(DIST, n, d, seed), teacher)
                t0 = time.perf_counter()
                trajectory = gradient_descent(init, teacher, data, config)
                entries.append((seed, teacher, trajectory, time.perf_counter() - t0))
            seed += 1
        runs[d] = entries
    return runs


def test_06_gd_reaches_global_optimum(convergence_runs):
    for d, entries in convergence_runs.items():
        assert len(entries) == 10
        for seed, teacher, trajectory, elapsed in entries:
            tag = f"d={d} seed={seed}"
            assert trajectory.final_record.risk <= 1e-10, tag
            gap = np.linalg.norm(gram(trajectory.final_weights) - gram(teacher))
            assert gap <= 1e-6, tag
            certificate = certify_stationary_global(
                trajectory.final_weights, teacher, GAUSS, grad_tol=1e-6
            )
            assert certificate.verdict == "global-optimum", tag
            assert elapsed < 60.0, tag


def test_07_trajectories_stay_trapped_below_barrier(convergence_runs):
    for d, entries in convergence_runs.items():
        for seed, teacher, trajectory, _ in entries:
            tag = f"d={d} seed={seed}"
            half = 0.5 * np.linalg.svd(teacher.weights, compute_uv=False)[-1]
            risks = [r.risk for r in trajectory.records]
            assert all(r.sigma_min > half for r in trajectory.records), tag
            assert all(
                b <= a + 1e-12 * max(1.0, a) for a, b in zip(risks, risks[1:])
            ), tag


def test_08_sample_complexity_threshold_sharp():
    for d in (2, 3, 4):
        n_star = critical_sample_count(d)
        for seed in range(100):
            assert spans_symmetric(sample_dataset(DIST, n_star, d, seed)).spans
            assert not spans_symmetric(sample_dataset(DIST, n_star - 1, d, seed)).spans


def test_09_null_interpolator_interpolates_above_barrier():
    teacher = TeacherModel(np.eye(2))
    data = label_dataset(sample_dataset(DIST, 2, 2, 7), teacher)
    for target_rows in (2, 5):
        result = null_interpolator(teacher, data, target_rows, moments=GAUSS)
        student = result.student
        assert student.m == target_rows
        assert empirical_risk(student, data) <= 1e-10
        assert population_risk_of(student, teacher, GAUSS).value >= 2.0 - 1e-9


def test_10_prime_design_spans_exactly():
    for d in (2, 3, 4):
        certificate = prime_vandermonde_certificate(d)
        assert certificate.distinct
        n_star = critical_sample_count(d)
        report = spans_symmetric(prime_vandermonde_data(d, n_star))
        assert report.rank == n_star
        assert report.spans


def test_11_gram_recovery_accurate_and_linear():
    teacher = sample_teacher(DIST, 6, 3, 11)
    offset = np.random.default_rng(5).normal(size=(6, 3))
    n = 3 * critical_sample_count(3)
    data = label_dataset(sample_dataset(DIST, n, 3, 11), teacher)

    def recovered(scale):
        student = StudentWeights(teacher.weights + scale * offset)
        direct = gram(student) - gram(teacher)
        return recover_gram_discrepancy(data, student, teacher).m_hat, direct

    m_full, direct = recovered(0.1)
    assert np.linalg.norm(m_full - direct) <= 1e-8
    m_half, _ = recovered(0.05)
    ratio = np.linalg.norm(m_half) / np.linalg.norm(m_full)
    assert abs(ratio - 0.5) <= 0.1


def test_12_identity_init_and_wishart_spectrum():
    m = 4000
    shortfalls = []
    for d in (10, 40):
        init = identity_init(m, d, "m")
        below = moment = band = 0
        for seed in range(100):
            teacher = sample_teacher(DIST, m, d, seed)
            if check_init_below_barrier(init, teacher, GAUSS).below:
                below += 1
            report = wishart_spectrum_report(teacher)
            if 0.225 <= report.scaled_second_moment <= 0.275:
                moment += 1
            if report.inside_band:
                band += 1
        if below < 95:
            shortfalls.append(f"d={d}: below barrier {below}/100 < 95")
        if moment < 90:
            shortfalls.append(f"d={d}: second moment in [0.225, 0.275] {moment}/100 < 90")
        if band < 95:
            shortfalls.append(f"d={d}: extremes inside band {band}/100 < 95")
    assert not shortfalls, "; ".join(shortfalls)
