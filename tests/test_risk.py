import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadland import (
    ContractViolation,
    Discrepancy,
    Gaussian,
    InvalidArgument,
    Moments,
    RiskReport,
    StudentWeights,
    TeacherModel,
    Uniform,
    discrepancy,
    empirical_gradient,
    empirical_risk,
    label_dataset,
    moments_of,
    population_gradient,
    population_risk,
    population_risk_of,
    sample_dataset,
)

import oracles
import reference_values as ref

GAUSS = moments_of(Gaussian(1.0))
rng = np.random.default_rng(7321)


def random_symmetric(d, gen):
    B = gen.standard_normal((d, d))
    return 0.5 * (B + B.T)


# --- empirical risk -------------------------------------------------------


def test_empirical_risk_zero_at_teacher():
    W = rng.standard_normal((4, 2))
    teacher = TeacherModel(W)
    data = label_dataset(sample_dataset(Gaussian(1.0), 30, 2, seed=0), teacher)
    assert empirical_risk(StudentWeights(W), data) <= 1e-20


def test_empirical_risk_hand_value():
    # w* = 1, w = 0, x = (1, 2): labels (1, 4), risk (1 + 16)/2
    from quadland import Dataset

    data = Dataset(
        inputs=np.array([[1.0], [2.0]]),
        labels=np.array([1.0, 4.0]),
        distribution_tag="manual",
        seed=0,
    )
    assert empirical_risk(StudentWeights(np.array([[0.0]])), data) == ref.HAND_RISK_1D


def test_empirical_risk_matches_loop_oracle():
    W = rng.standard_normal((3, 4))
    teacher = TeacherModel(rng.standard_normal((5, 4)))
    data = label_dataset(sample_dataset(Gaussian(1.0), 40, 4, seed=1), teacher)
    got = empirical_risk(StudentWeights(W), data)
    want = oracles.empirical_risk_loop(W, data.inputs, data.labels)
    assert got == pytest.approx(want, rel=1e-12)


def test_empirical_risk_requires_labels():
    data = sample_dataset(Gaussian(1.0), 5, 2, seed=0)
    with pytest.raises(InvalidArgument):
        empirical_risk(StudentWeights(np.eye(2)), data)


# --- empirical gradient ---------------------------------------------------


def test_empirical_gradient_zero_at_teacher():
    W = rng.standard_normal((4, 3))
    teacher = TeacherModel(W)
    data = label_dataset(sample_dataset(Gaussian(1.0), 25, 3, seed=2), teacher)
    G = empirical_gradient(StudentWeights(W), data)
    assert np.allclose(G, 0.0, atol=1e-14)


def test_empirical_gradient_matches_finite_differences():
    for trial in range(50):
        gen = np.random.default_rng(100 + trial)
        m, d, n = gen.integers(1, 5), gen.integers(1, 4), 12
        W = gen.standard_normal((m, d))
        teacher = TeacherModel(gen.standard_normal((d, d)) + 2 * np.eye(d))
        data = label_dataset(sample_dataset(Gaussian(1.0), n, int(d), seed=trial), teacher)
        G = empirical_gradient(StudentWeights(W), data)
        fd = oracles.central_difference_gradient(
            lambda M: empirical_risk(StudentWeights(M), data), W
        )
        assert np.linalg.norm(G - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


# --- population risk ------------------------------------------------------


def test_population_risk_zero_discrepancy():
    report = population_risk(np.zeros((3, 3)), GAUSS)
    assert report.value == 0.0
    assert report.lower_bound == 0.0
    assert report.upper_bound == 0.0


def test_population_risk_gaussian_collapse():
    for _ in range(50):
        A = random_symmetric(4, rng)
        report = population_risk(A, GAUSS)
        want = np.trace(A) ** 2 + 2 * np.trace(A @ A)
        assert report.value == pytest.approx(want, rel=1e-12)
        assert report.lower_bound == pytest.approx(want, rel=1e-12)
        assert report.upper_bound == pytest.approx(want, rel=1e-12)


def test_population_risk_matches_combinatorial_oracle():
    # independent O(d^4) moment expansion, not the trace identities
    for mom in (GAUSS, moments_of(Uniform(np.sqrt(3.0))), Moments(1.0, 9.0)):
        A = random_symmetric(3, rng)
        want = oracles.quartic_form_expectation(A.copy(), mom.mu2, mom.mu4)
        got = population_risk(A, mom).value
        assert got == pytest.approx(want, rel=1e-10)


def test_population_risk_monte_carlo_uniform():
    mom = moments_of(Uniform(np.sqrt(3.0)))
    A = random_symmetric(3, rng)
    value = population_risk(A, mom).value
    gen = np.random.default_rng(5150)
    X = gen.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(10 ** 6, 3))
    forms = np.einsum("ij,jk,ik->i", X, A, X) ** 2
    est, se = oracles.mc_estimate(forms)
    assert abs(value - est) <= 4 * se


def test_population_risk_rejects_asymmetric_input():
    with pytest.raises(InvalidArgument):
        population_risk(np.array([[0.0, 1.0], [0.0, 0.0]]), GAUSS)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 5),
    mu2=st.floats(0.1, 3.0),
    excess=st.floats(0.0, 10.0),
)
def test_sandwich_bounds_property(data, d, mu2, excess):
    entries = data.draw(
        st.lists(st.floats(-5.0, 5.0), min_size=d * d, max_size=d * d)
    )
    B = np.array(entries).reshape(d, d)
    A = 0.5 * (B + B.T)
    mom = Moments(mu2=mu2, mu4=mu2 * mu2 + excess)
    report = population_risk(A, mom)
    slack = 1e-12 * max(1.0, abs(report.value))
    assert report.lower_bound <= report.value + slack
    assert report.value <= report.upper_bound + slack
    assert report.value >= -slack


def test_population_risk_only_depends_on_gram():
    W = rng.standard_normal((5, 3))
    teacher = TeacherModel(rng.standard_normal((4, 3)))
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = population_risk_of(StudentWeights(W), teacher, GAUSS).value
    b = population_risk_of(StudentWeights(Q @ W), teacher, GAUSS).value
    assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_zero_risk_forces_zero_discrepancy():
    W = rng.standard_normal((4, 3))
    teacher = TeacherModel(W)
    student = StudentWeights(W.copy())
    assert population_risk_of(student, teacher, GAUSS).value <= 1e-16
    A = discrepancy(teacher, student).matrix
    assert np.linalg.norm(A) <= 1e-8


def test_empirical_concentrates_to_population():
    d = 4
    teacher = TeacherModel(rng.standard_normal((6, d)))
    student = StudentWeights(rng.standard_normal((5, d)))
    data = label_dataset(sample_dataset(Gaussian(1.0), 10 ** 5, d, seed=9), teacher)
    emp = empirical_risk(student, data)
    pop = population_risk_of(student, teacher, GAUSS).value
    assert abs(emp - pop) <= 0.05 * pop


# --- population gradient --------------------------------------------------


def test_population_gradient_zero_at_teacher():
    W = rng.standard_normal((4, 3))
    teacher = TeacherModel(W)
    G = population_gradient(StudentWeights(W.copy()), teacher, GAUSS)
    assert np.allclose(G, 0.0, atol=1e-12)


def test_population_gradient_zero_on_orthonormal_orbit():
    W = rng.standard_normal((4, 3))
    teacher = TeacherModel(W)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    G = population_gradient(StudentWeights(Q @ W), teacher, GAUSS)
    assert np.linalg.norm(G) <= 1e-10


def test_population_gradient_matches_finite_differences():
    laws = [GAUSS, moments_of(Uniform(np.sqrt(3.0))), Moments(1.0, 5.0)]
    for trial in range(50):
        gen = np.random.default_rng(500 + trial)
        m, d = gen.integers(1, 5), gen.integers(1, 4)
        W = gen.standard_normal((m, d))
        teacher = TeacherModel(gen.standard_normal((d, d)) + np.eye(d))
        mom = laws[trial % 3]
        G = population_gradient(StudentWeights(W), teacher, mom)
        fd = oracles.central_difference_gradient(
            lambda M: population_risk_of(StudentWeights(M), teacher, mom).value, W
        )
        assert np.linalg.norm(G - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


# --- report type ----------------------------------------------------------


def test_risk_report_rejects_inverted_bounds():
    with pytest.raises(ContractViolation):
        RiskReport(value=1.0, lower_bound=2.0, upper_bound=3.0)


def test_risk_report_serialization_keys():
    report = population_risk(np.eye(2), GAUSS)
    assert set(report.to_json()) == {"value", "lower", "upper"}


# --- one formula over a stack -----------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 11])
@pytest.mark.parametrize("law", [Gaussian(1.0), Uniform(1.3)])
def test_stacked_population_risk_equals_single_calls(d, law):
    # d >= 8 puts 8 or more terms in the trace and the diagonal sums, where
    # numpy sums pairwise: the stack must take that order per matrix as well
    moments = moments_of(law)
    gen = np.random.default_rng(d)
    B = gen.standard_normal((3, 4, d, d)) * 10.0 ** gen.integers(-6, 6, (3, 4, 1, 1))
    stack = B + np.swapaxes(B, -1, -2)
    report = population_risk(stack, moments)
    assert report.value.shape == report.lower_bound.shape == (3, 4)
    for index in np.ndindex(3, 4):
        single = population_risk(stack[index], moments)
        assert type(single.value) is float
        assert single.value == report.value[index]
        assert single.lower_bound == report.lower_bound[index]
        assert single.upper_bound == report.upper_bound[index]
    assert np.array_equal(
        population_risk(Discrepancy(stack), moments).value, report.value
    )


def test_stacked_population_risk_rejects_one_asymmetric_matrix():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = 1e-6
    with pytest.raises(InvalidArgument, match="symmetric"):
        population_risk(stack, GAUSS)


def test_stacked_risk_report_names_first_violation():
    value = np.array([1.0, 5.0, 9.0, 5.0])
    with pytest.raises(ContractViolation, match="at trial 1: 6.0 <= 5.0 <= 7.0"):
        RiskReport(value, np.array([0.0, 6.0, 8.0, 6.0]), np.array([2.0, 7.0, 10.0, 7.0]))
    # an overflowed value is reported as is, as for one matrix
    RiskReport(np.array([np.inf, 1.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
