import dataclasses

import numpy as np
import pytest

from quadland import (
    Backtracking,
    ContractViolation,
    Dataset,
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


def _loop_objective(W, X, y, V):
    """Risk, residuals, gradient and Hessian product of the empirical risk by
    loops over quadratic_form_loop, independent of the tensorized design."""
    N, d = X.shape
    r = np.array([oracles.quadratic_form_loop(oracles.gram_loop(W), x) for x in X]) - y
    dG = np.array([[sum(W[j, k] * V[j, l] + V[j, k] * W[j, l] for j in range(W.shape[0]))
                    for l in range(d)] for k in range(d)])
    r_dot = np.array([oracles.quadratic_form_loop(dG, x) for x in X])

    def S(res):
        return 4.0 / N * sum(res_i * np.outer(x, x) for res_i, x in zip(res, X))

    return float(r @ r) / N, r, W @ S(r), V @ S(r) + W @ S(r_dot)


@pytest.mark.parametrize("d,m,n", [(1, 1, 1), (1, 3, 4), (2, 5, 1), (3, 4, 5), (4, 6, 9), (5, 3, 40)])
def test_empirical_objective_matches_loop_oracle(d, m, n):
    # n = 1 and n < N* = d(d+1)/2 included: the design need not span
    gen = np.random.default_rng(100 * d + n)
    data = Dataset(inputs=gen.standard_normal((n, d)), labels=gen.standard_normal(n) * m,
                   distribution_tag="manual", seed=0)
    obj = build_objective(TeacherModel(np.eye(d)), data)
    W, V = gen.standard_normal((m, d)), gen.standard_normal((m, d))
    risk, r = obj.evaluate(W)
    want_risk, want_r, want_grad, want_hvp = _loop_objective(W, data.inputs, data.labels, V)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    scale = np.linalg.norm(want_r + data.labels) + np.linalg.norm(data.labels)
    assert np.linalg.norm(r - want_r) <= 1e-12 * scale
    assert risk == pytest.approx(want_risk, rel=1e-12)
    assert close(obj.gradient(W, r), want_grad)
    assert close(obj.hvp(W, r, V), want_hvp)


@pytest.mark.parametrize("output_weights", [None, [0.5, 2.0, 1.0, 3.0]])
@pytest.mark.parametrize("d,n", [(1, 1), (3, 2), (3, 30)])
def test_student_equal_to_teacher_has_exactly_zero_residual(d, n, output_weights):
    # positive output weights a_j are the network with rows sqrt(a_j) W_j,
    # since a z^2 = (sqrt(a) z)^2
    W = np.random.default_rng(d + n).standard_normal((4, d))
    if output_weights is not None:
        W = W * np.sqrt(output_weights)[:, None]
    teacher = TeacherModel(W)
    data = label_dataset(sample_dataset(DIST, n, d, seed=3), teacher)
    obj = build_objective(teacher, data)
    risk, r = obj.evaluate(W)
    assert risk == 0.0 and not r.any()
    assert not obj.gradient(W, r).any()


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
    from quadland import model

    calls = {"StudentWeights": 0}
    post_init = model.StudentWeights.__post_init__

    def counted_post_init(self):
        calls["StudentWeights"] += 1
        post_init(self)

    teacher, data, init, config = converged_setup()
    monkeypatch.setattr(model.StudentWeights, "__post_init__", counted_post_init)
    traj = gradient_descent(init, teacher, data if payload == "dataset" else GAUSS, config)
    assert traj.termination == "grad_tol" and traj.iterations > 20
    # a constant count, not one per risk or gradient evaluation
    assert calls["StudentWeights"] <= 2


# --- descent on the nonzero rows -------------------------------------------


def reference_descent(initial, teacher, payload, config):
    """The Backtracking or FixedStep loop on the whole m x d matrix, written
    from build_objective's closures and the module's line-search constants:
    (iteration, risk, grad_norm, sigma_min, frob_norm, step_size) per record,
    the final weights and the termination."""
    from quadland.optimize import _INITIAL_ETA, _SHRINK, _SLOPE, _STALL_ETA

    obj = build_objective(teacher, payload)
    W = initial.weights.copy()
    risk, state = obj.evaluate(W)
    grad = obj.gradient(W, state)
    records = []

    def record(k, eta):
        records.append((k, risk, float(np.linalg.norm(grad)),
                        float(np.linalg.svd(W, compute_uv=False)[-1]),
                        float(np.linalg.norm(W)), eta))

    def trial(eta):
        W_new = W - eta * grad
        if not np.isfinite(W_new).all():
            return W_new, np.inf, None
        return (W_new, *obj.evaluate(W_new))

    record(0, None)
    k, eta = 0, _INITIAL_ETA
    while True:
        g2 = float(np.vdot(grad, grad))
        if not (np.isfinite(g2) and np.isfinite(risk)):
            termination = "nonfinite"
            break
        if np.sqrt(g2) <= config.grad_tol:
            termination = "grad_tol"
            break
        if k >= config.max_iters:
            termination = "max_iters"
            break
        if isinstance(config.step_policy, FixedStep):
            eta = config.step_policy.eta
            W_new, risk_new, state = trial(eta)
        else:
            eta = min(_INITIAL_ETA, eta / _SHRINK)
            while eta > _STALL_ETA:
                W_new, risk_new, state = trial(eta)
                if np.isfinite(risk_new) and risk_new <= risk - _SLOPE * eta * g2:
                    break
                eta *= _SHRINK
            else:
                termination = "stalled"
                break
        if (W_new == W).all():
            termination = "stalled"
            break
        if not np.isfinite(risk_new):
            termination = "nonfinite"
            break
        W, risk = W_new, risk_new
        grad = obj.gradient(W, state)
        k += 1
        if k % config.record_every == 0:
            record(k, eta)
    if records[-1][0] != k:
        record(k, None)
    return records, W, termination


def record_tuples(traj):
    return [(r.iteration, r.risk, r.grad_norm, r.sigma_min, r.frob_norm, r.step_size)
            for r in traj.records]


@pytest.mark.parametrize("policy", [Backtracking(), FixedStep(2e-4)])
@pytest.mark.parametrize("payload", ["dataset", "moments"])
def test_descent_matches_full_width_reference_loop(policy, payload):
    d, m = 3, 36
    teacher = sample_teacher(DIST, m, d, 1)
    source = label_dataset(sample_dataset(DIST, 30, d, 1), teacher) if payload == "dataset" else GAUSS
    config = GDConfig(step_policy=policy, max_iters=400, record_every=7)
    init = identity_init(m, d, "m")
    traj = gradient_descent(init, teacher, source, config)
    records, W, termination = reference_descent(init, teacher, source, config)
    assert traj.iterations > 20 and len(records) > 3
    assert (traj.termination, traj.iterations) == (termination, records[-1][0])
    # bit for bit: every float of every record, and the final weights
    assert np.array_equal(np.array(record_tuples(traj), dtype=float),
                          np.array(records, dtype=float), equal_nan=True)
    assert np.array_equal(traj.final_weights.weights, W)


@pytest.mark.parametrize("payload", ["dataset", "moments"])
def test_identity_init_descent_evaluates_d_by_d_blocks(monkeypatch, payload):
    from quadland import optimize

    shapes = set()
    build = optimize.build_objective

    def recording_build(*args):
        obj = build(*args)

        def evaluate(W):
            shapes.add(W.shape)
            return obj.evaluate(W)

        return dataclasses.replace(obj, evaluate=evaluate)

    monkeypatch.setattr(optimize, "build_objective", recording_build)
    teacher, data, init, config = converged_setup(d=3)
    traj = gradient_descent(init, teacher, data if payload == "dataset" else GAUSS, config)
    assert traj.termination == "grad_tol" and traj.iterations > 20
    assert init.m == 36 and shapes == {(3, 3)}
    assert traj.final_weights.weights.shape == (36, 3)


@pytest.mark.parametrize("payload", ["dataset", "moments"])
def test_zero_rows_stay_zero_and_leave_the_trajectory_unchanged(payload):
    d, m, rows = 3, 9, [1, 4, 6]
    teacher = sample_teacher(DIST, m, d, 2)
    source = label_dataset(sample_dataset(DIST, 30, d, 2), teacher) if payload == "dataset" else GAUSS
    block = np.sqrt(m) * np.eye(d) + 0.1 * sample_teacher(DIST, d, d, 3).weights
    spread = np.zeros((m, d))
    spread[rows] = block
    config = GDConfig(max_iters=300, record_every=5)
    traj = gradient_descent(StudentWeights(spread), teacher, source, config)
    alone = gradient_descent(StudentWeights(block), teacher, source, config)

    zero = np.setdiff1d(np.arange(m), rows)
    W = traj.final_weights.weights
    assert traj.iterations > 20
    assert np.all(W[zero] == 0.0) and not np.signbit(W[zero]).any()
    assert np.array_equal(W[rows], alone.final_weights.weights)
    assert (traj.termination, traj.iterations) == (alone.termination, alone.iterations)
    assert [(r.iteration, r.risk, r.step_size) for r in traj.records] == [
        (r.iteration, r.risk, r.step_size) for r in alone.records
    ]
    # the norms are taken on each run's own m x d layout, and a BLAS dot
    # product rounds by where the nonzeros sit, so they agree to rounding
    for a, b in zip(traj.records, alone.records):
        assert a.grad_norm == pytest.approx(b.grad_norm, rel=1e-12)
        assert a.frob_norm == pytest.approx(b.frob_norm, rel=1e-12)
        assert a.sigma_min == pytest.approx(b.sigma_min, rel=1e-10)


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
