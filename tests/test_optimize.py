import dataclasses

import numpy as np
import pytest

from quadland import (
    ContractViolation,
    FixedStep,
    GDConfig,
    Gaussian,
    InvalidArgument,
    InverseSmoothness,
    Rademacher,
    StudentWeights,
    TeacherModel,
    Uniform,
    build_objective,
    certify_stationary_global,
    check_init_below_barrier,
    critical_sample_count,
    epsilon_stationarity_report,
    estimate_smoothness,
    gradient_descent,
    gram,
    identity_init,
    label_dataset,
    moments_of,
    sample_dataset,
    sample_teacher,
    truncated_moments,
)

import oracles

GAUSS = moments_of(Gaussian(1.0))
DIST = Gaussian(1.0)


def converged_setup(d=2, seed=1, grad_tol=1e-9):
    # seed 1 is a width-4d^2 instance whose identity init sits below the barrier
    m = 4 * d * d
    n = 5 * critical_sample_count(d)
    teacher = sample_teacher(DIST, m, d, seed)
    data = label_dataset(sample_dataset(DIST, n, d, seed), teacher)
    init = identity_init(m, d, "m")
    assert check_init_below_barrier(init, teacher, GAUSS).below
    config = GDConfig(grad_tol=grad_tol, record_every=1)
    return teacher, data, init, config


# --- smoothness estimation ------------------------------------------------


def test_smoothness_matches_scalar_second_derivative():
    from quadland import Dataset

    x = np.array([[1.0], [0.5], [2.0], [-1.5]])
    w_star = 1.0
    y = (w_star * x[:, 0]) ** 2
    data = Dataset(inputs=x, labels=y, distribution_tag="manual", seed=0)
    teacher = TeacherModel(np.array([[w_star]]))
    obj = build_objective(teacher, data)
    w = 3.0
    want = oracles.scalar_quartic_second_derivative(w, x[:, 0], y)
    got = estimate_smoothness(StudentWeights(np.array([[w]])), obj)
    assert got == pytest.approx(want, rel=0.01)
    assert got >= 0


@pytest.mark.parametrize("payload", ["dataset", "uniform moments"])
def test_hvp_matches_central_differences_of_gradient(payload):
    # the uniform law has mu4 != 3 mu2^2, so the diagonal term is exercised
    d, m = 3, 5
    teacher = sample_teacher(DIST, m, d, 0)
    if payload == "dataset":
        source = label_dataset(sample_dataset(DIST, 20, d, 0), teacher)
    else:
        source = moments_of(Uniform(1.0))
    obj = build_objective(teacher, source)
    rng = np.random.default_rng(0)
    W, V = rng.standard_normal((m, d)), rng.standard_normal((m, d))

    def grad(U):
        return obj.gradient(U, obj.evaluate(U)[1])

    h = 1e-5
    want = (grad(W + h * V) - grad(W - h * V)) / (2.0 * h)
    got = obj.hvp(W, obj.evaluate(W)[1], V)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_smoothness_stable_across_probe_seeds():
    teacher = sample_teacher(DIST, 6, 3, 0)
    data = label_dataset(sample_dataset(DIST, 20, 3, 0), teacher)
    obj = build_objective(teacher, data)
    student = StudentWeights(np.ones((6, 3)))
    a = estimate_smoothness(student, obj, seed=0)
    b = estimate_smoothness(student, obj, seed=1)
    assert abs(a - b) <= 0.05 * max(a, b)


# --- gradient descent -----------------------------------------------------


def test_starting_at_teacher_stops_immediately():
    teacher = sample_teacher(DIST, 5, 2, 3)
    data = label_dataset(sample_dataset(DIST, 10, 2, 3), teacher)
    traj = gradient_descent(
        StudentWeights(teacher.weights), teacher, data, GDConfig()
    )
    assert traj.termination == "grad_tol"
    assert traj.iterations == 0


def test_empirical_run_reaches_interpolation():
    teacher, data, init, config = converged_setup()
    traj = gradient_descent(init, teacher, data, config)
    assert traj.termination == "grad_tol"
    assert traj.final_record.risk <= 1e-10
    cert = certify_stationary_global(traj.final_weights, teacher, GAUSS)
    assert cert.verdict == "global-optimum"


def test_population_run_matches_teacher_gram():
    teacher, _, init, _ = converged_setup()
    config = GDConfig(grad_tol=1e-9, record_every=10)
    traj = gradient_descent(init, teacher, GAUSS, config)
    gap = np.linalg.norm(gram(traj.final_weights) - gram(teacher))
    assert gap <= 1e-6


def test_recorded_risks_non_increasing_under_backtracking():
    teacher, data, init, config = converged_setup()
    traj = gradient_descent(init, teacher, data, config)
    risks = [r.risk for r in traj.records]
    for before, after in zip(risks, risks[1:]):
        assert after <= before + 1e-12 * max(1.0, abs(before))


def test_inverse_smoothness_policy_descends():
    teacher, data, init, _ = converged_setup()
    config = GDConfig(
        step_policy=InverseSmoothness(),
        grad_tol=1e-8,
        record_every=1,
    )
    traj = gradient_descent(init, teacher, data, config)
    assert traj.termination == "grad_tol"
    risks = [r.risk for r in traj.records]
    assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(risks, risks[1:]))


@pytest.mark.filterwarnings("error")
def test_fixed_step_overflow_reports_nonfinite():
    teacher, data, init, _ = converged_setup()
    config = GDConfig(step_policy=FixedStep(1e6), grad_tol=1e-12, max_iters=50)
    traj = gradient_descent(init, teacher, data, config)
    assert traj.termination == "nonfinite"


def test_barrier_flag_stays_true_once_true():
    # seed 4 starts below the empirical barrier (truncated at max |x|),
    # which is the barrier trajectory records compare against
    teacher, data, init, config = converged_setup(seed=4)
    trunc = truncated_moments(DIST, float(np.abs(data.inputs).max()))
    assert check_init_below_barrier(
        init, teacher, trunc, mode="empirical", dataset=data
    ).below
    traj = gradient_descent(init, teacher, data, config)
    flags = [r.below_barrier for r in traj.records]
    assert flags[0] is True
    assert all(flags)


def test_norm_bound_holds_along_trajectory():
    teacher, data, init, config = converged_setup()
    traj = gradient_descent(init, teacher, data, config)
    assert all(r.norm_bound_ok for r in traj.records)


def test_trajectory_records_first_and_last_iterates():
    teacher, data, init, _ = converged_setup()
    config = GDConfig(grad_tol=1e-9, record_every=1000)
    traj = gradient_descent(init, teacher, data, config)
    assert traj.records[0].iteration == 0
    assert traj.records[-1].iteration == traj.iterations


def test_trajectory_deterministic():
    teacher, data, init, config = converged_setup()
    a = gradient_descent(init, teacher, data, config)
    b = gradient_descent(init, teacher, data, config)
    assert [r.risk for r in a.records] == [r.risk for r in b.records]
    assert np.array_equal(a.final_weights.weights, b.final_weights.weights)


def test_max_iters_termination():
    teacher, data, init, _ = converged_setup()
    config = GDConfig(grad_tol=1e-12, max_iters=3)
    traj = gradient_descent(init, teacher, data, config)
    assert traj.termination == "max_iters"
    assert traj.iterations == 3


def test_stall_at_rounding_floor_stops_the_run():
    # no iterate reaches grad_tol = 1e-300; once an accepted Armijo step
    # leaves W bitwise unchanged, later steps cannot move it either
    teacher, data, init, _ = converged_setup(d=3)
    config = GDConfig(grad_tol=1e-300, max_iters=5000)
    traj = gradient_descent(init, teacher, data, config)
    assert traj.termination == "stalled"
    assert traj.iterations < 1000
    assert traj.records[-1].iteration == traj.iterations


def test_exhausted_line_search_stops_the_run():
    # under rademacher data the population risk cancels to its rounding
    # floor while the gradient is still ~1e-8, so no Armijo step passes
    teacher = sample_teacher(DIST, 8, 2, 0)
    init = identity_init(8, 2, "m")
    traj = gradient_descent(init, teacher, moments_of(Rademacher()))
    assert traj.termination == "stalled"
    assert traj.final_record.grad_norm > GDConfig().grad_tol
    assert traj.records[-1].iteration == traj.iterations


def test_backtracking_evaluates_each_point_once(monkeypatch):
    from quadland import optimize

    counts = {"evaluate": 0, "residuals": 0}
    build, residuals = optimize.build_objective, optimize._residuals

    def counted_residuals(*args):
        counts["residuals"] += 1
        return residuals(*args)

    def counted_build(*args):
        obj = build(*args)

        def evaluate(W):
            counts["evaluate"] += 1
            return obj.evaluate(W)

        return dataclasses.replace(obj, evaluate=evaluate)

    monkeypatch.setattr(optimize, "_residuals", counted_residuals)
    monkeypatch.setattr(optimize, "build_objective", counted_build)
    teacher, data, init, config = converged_setup()
    traj = gradient_descent(init, teacher, data, config)
    assert traj.termination == "grad_tol" and traj.iterations > 20
    # one residual pass per evaluated point: at least the start and every
    # accepted iterate, none recomputed for the gradient
    assert counts["residuals"] == counts["evaluate"] >= traj.iterations + 1


def test_population_run_with_default_config_reaches_grad_tol():
    teacher, _, init, _ = converged_setup()
    traj = gradient_descent(init, teacher, GAUSS)
    assert traj.termination == "grad_tol"
    assert traj.final_record.grad_norm <= GDConfig().grad_tol


@pytest.mark.parametrize("payload", ["dataset", "moments"])
def test_descent_builds_no_per_call_wrappers(monkeypatch, payload):
    import sys

    from quadland import model

    calls = {"StudentWeights": 0, "forward_batch": 0}
    post_init, forward_batch = model.StudentWeights.__post_init__, model.forward_batch

    def counted_post_init(self):
        calls["StudentWeights"] += 1
        post_init(self)

    def counted_forward_batch(*args):
        calls["forward_batch"] += 1
        return forward_batch(*args)

    teacher, data, init, config = converged_setup()
    monkeypatch.setattr(model.StudentWeights, "__post_init__", counted_post_init)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadland" and getattr(module, "forward_batch", None) is forward_batch:
            monkeypatch.setattr(module, "forward_batch", counted_forward_batch)
    traj = gradient_descent(init, teacher, data if payload == "dataset" else GAUSS, config)
    assert traj.termination == "grad_tol" and traj.iterations > 20
    # a constant count, not one per risk or gradient evaluation
    assert calls["StudentWeights"] <= 2
    assert calls["forward_batch"] == 0


def test_config_validation():
    with pytest.raises(InvalidArgument):
        GDConfig(grad_tol=0.0)
    with pytest.raises(InvalidArgument):
        FixedStep(-1.0)


def test_build_objective_requires_exactly_one_source():
    # the payload is one Dataset or one Moments: no source, two sources
    # and a bare input array are all rejected
    teacher, data, _, _ = converged_setup()
    for payload in (None, (data, GAUSS), data.inputs):
        with pytest.raises(InvalidArgument):
            build_objective(teacher, payload)


def test_objective_payload_mismatch_rejected():
    teacher, data, init, _ = converged_setup()
    unlabeled = sample_dataset(DIST, data.n, teacher.d, 0)
    other = sample_teacher(DIST, 4, teacher.d + 1, 0)
    wrong_d = label_dataset(sample_dataset(DIST, data.n, other.d, 0), other)
    for payload in (unlabeled, wrong_d, None, data.inputs, (data, GAUSS)):
        with pytest.raises(InvalidArgument):
            gradient_descent(init, teacher, payload)


# --- stationarity report --------------------------------------------------


def test_report_tighter_tolerance_lowers_risk():
    teacher, data, init, _ = converged_setup(grad_tol=1e-6)
    coarse = gradient_descent(
        init, teacher, data, GDConfig(grad_tol=1e-6)
    )
    fine = gradient_descent(
        init, teacher, data, GDConfig(grad_tol=1e-7)
    )
    r_coarse = epsilon_stationarity_report(coarse, teacher, data, GAUSS)
    r_fine = epsilon_stationarity_report(fine, teacher, data, GAUSS)
    assert r_fine.empirical_risk < r_coarse.empirical_risk
    assert r_fine.population_risk < r_coarse.population_risk
    assert r_coarse.gram_gap_source == "recovered"
    assert r_coarse.endpoint_full_rank


def test_report_exact_stationary_point_has_tiny_gap():
    teacher = sample_teacher(DIST, 5, 2, 4)
    data = label_dataset(sample_dataset(DIST, 15, 2, 4), teacher)
    traj = gradient_descent(
        StudentWeights(teacher.weights), teacher, data, GDConfig()
    )
    report = epsilon_stationarity_report(traj, teacher, data, GAUSS)
    assert report.gram_gap <= 1e-8


def test_report_flags_rank_deficient_endpoint():
    # the zero teacher labels everything zero, so the zero student is
    # stationary yet rank-deficient
    teacher = TeacherModel(np.array([[0.0]]))
    data = label_dataset(sample_dataset(DIST, 4, 1, 5), teacher)
    traj = gradient_descent(
        StudentWeights(np.array([[0.0]])), teacher, data, GDConfig()
    )
    report = epsilon_stationarity_report(traj, teacher, data, GAUSS)
    assert not report.endpoint_full_rank


def test_report_requires_grad_tol_termination():
    teacher, data, init, _ = converged_setup()
    traj = gradient_descent(
        init, teacher, data, GDConfig(grad_tol=1e-12, max_iters=2)
    )
    with pytest.raises(InvalidArgument):
        epsilon_stationarity_report(traj, teacher, data, GAUSS)
