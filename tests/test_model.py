import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadland import (
    Gaussian,
    InvalidArgument,
    Moments,
    Rademacher,
    StudentWeights,
    TeacherModel,
    Uniform,
    discrepancy,
    gram,
    label_dataset,
    moments_of,
    parse_distribution,
    quadform,
    sample_dataset,
    truncated_moments,
)
from quadland.model import (
    _STACK_FLOATS,
    TensorizedDesign,
    _chunks,
    _equilibrate,
    _gram_certifies_full_rank,
    _gram_matrix,
    _rank_of,
    _tensorized,
    is_full_rank,
    numerical_rank,
)

import oracles
import reference_values as ref

rng = np.random.default_rng(20240811)


# --- forward map ----------------------------------------------------------
# The network's outputs ||W x||^2 are the quadratic forms of its Gram.


def forward(W, x):
    return float(quadform(np.atleast_2d(x), gram(W))[0])


def test_forward_identity_two_dim():
    assert forward(np.eye(2), np.array([1.0, 1.0])) == ref.IDENTITY_FORWARD_2D


def test_forward_matches_loop_oracle():
    W = rng.standard_normal((3, 2))
    x = np.array([1.0, -1.0])
    got = forward(W, x)
    want = oracles.forward_loop(W, x)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(np.linalg.norm(W @ x) ** 2, rel=1e-12)


def test_quadform_of_gram_agrees_with_forward_batch():
    W = rng.standard_normal((5, 4))
    X = rng.standard_normal((8, 4))
    want = [oracles.forward_loop(W, x) for x in X]
    assert np.allclose(quadform(X, gram(W)), want, rtol=1e-12, atol=0)


def test_forward_invariant_under_orthonormal_rotation():
    # value depends on W only through W^T W
    for _ in range(100):
        W = rng.standard_normal((4, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        x = rng.standard_normal(3)
        a = forward(W, x)
        b = forward(Q @ W, x)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


# --- discrepancy ----------------------------------------------------------


def test_discrepancy_zero_for_identical_weights():
    W = rng.standard_normal((5, 3))
    A = discrepancy(TeacherModel(W), StudentWeights(W)).matrix
    assert np.allclose(A, 0.0, atol=1e-12)


def test_discrepancy_identity_vs_zero_student():
    A = discrepancy(TeacherModel(np.eye(2)), StudentWeights(np.zeros((2, 2)))).matrix
    assert np.array_equal(A, np.eye(2))


def test_discrepancy_matches_entrywise_gram_oracle():
    Wt = rng.standard_normal((5, 3))
    Ws = rng.standard_normal((4, 3))
    A = discrepancy(TeacherModel(Wt), StudentWeights(Ws)).matrix
    want = oracles.gram_loop(Wt) - oracles.gram_loop(Ws)
    assert np.allclose(A, want, atol=1e-12)


def test_discrepancy_antisymmetric_under_role_swap():
    Wt = rng.standard_normal((5, 3))
    Ws = rng.standard_normal((5, 3))
    A = discrepancy(TeacherModel(Wt), StudentWeights(Ws)).matrix
    B = discrepancy(TeacherModel(Ws), StudentWeights(Wt)).matrix
    assert np.allclose(A, -B, atol=1e-12)


def test_discrepancy_dimension_mismatch_rejected():
    with pytest.raises(InvalidArgument):
        discrepancy(TeacherModel(np.eye(3)), StudentWeights(np.zeros((3, 2))))


# --- moments --------------------------------------------------------------


def test_gaussian_moments():
    mom = moments_of(Gaussian(1.0))
    assert mom.mu2 == ref.GAUSSIAN_MU2
    assert mom.mu4 == ref.GAUSSIAN_MU4
    assert mom.c_lower == 2.0
    assert mom.c_upper == 2.0
    assert not mom.degenerate


def test_rademacher_moments_degenerate():
    mom = moments_of(Rademacher())
    assert mom.mu2 == ref.RADEMACHER_MU2
    assert mom.mu4 == ref.RADEMACHER_MU4
    assert mom.var_sq == 0.0
    assert mom.degenerate


def test_uniform_sqrt3_moments():
    mom = moments_of(Uniform(np.sqrt(3.0)))
    assert mom.mu2 == pytest.approx(ref.UNIFORM_SQRT3_MU2, rel=1e-14)
    assert mom.mu4 == pytest.approx(ref.UNIFORM_SQRT3_MU4, rel=1e-14)


@given(
    mu2=st.floats(0.05, 10.0),
    excess=st.floats(0.0, 50.0),
)
def test_moments_invariants(mu2, excess):
    mom = Moments(mu2=mu2, mu4=mu2 * mu2 + excess)
    assert mom.mu4 >= mom.mu2 ** 2
    assert mom.c_lower <= mom.c_upper
    assert (mom.c_lower > 0) == (mom.var_sq > 0 and mom.mu2 > 0)


def test_jensen_violation_rejected():
    with pytest.raises(InvalidArgument):
        Moments(mu2=2.0, mu4=1.0)


def test_parse_distribution_tags():
    assert isinstance(parse_distribution("gaussian"), Gaussian)
    assert parse_distribution("gaussian(2.0)").sigma == 2.0
    assert isinstance(parse_distribution("rademacher"), Rademacher)
    assert parse_distribution("uniform(1.5)").halfwidth == 1.5
    with pytest.raises(InvalidArgument):
        parse_distribution("cauchy")


# --- truncated moments ----------------------------------------------------


def test_truncated_gaussian_matches_closed_form_constants():
    mom = truncated_moments(Gaussian(1.0), 2.0)
    assert mom.mu2 == pytest.approx(ref.TRUNC_GAUSS_K2_MU2, rel=1e-12)
    assert mom.mu4 == pytest.approx(ref.TRUNC_GAUSS_K2_MU4, rel=1e-12)
    mom1 = truncated_moments(Gaussian(1.0), 1.0)
    assert mom1.mu2 == pytest.approx(ref.TRUNC_GAUSS_K1_MU2, rel=1e-12)
    assert mom1.mu4 == pytest.approx(ref.TRUNC_GAUSS_K1_MU4, rel=1e-12)


def test_truncated_gaussian_matches_quadrature_oracle():
    want2, want4 = oracles.truncated_moments_quadrature(oracles.gaussian_pdf(), 1.7)
    mom = truncated_moments(Gaussian(1.0), 1.7)
    assert mom.mu2 == pytest.approx(want2, rel=1e-10)
    assert mom.mu4 == pytest.approx(want4, rel=1e-10)


def test_truncated_gaussian_wide_threshold_recovers_untruncated():
    mom = truncated_moments(Gaussian(1.0), 40.0)
    assert mom.mu2 == pytest.approx(1.0, abs=1e-12)
    assert mom.mu4 == pytest.approx(3.0, abs=1e-12)


def test_truncated_uniform_beyond_support_is_untruncated():
    law = Uniform(1.5)
    plain = moments_of(law)
    trunc = truncated_moments(law, 2.0)
    assert trunc.mu2 == pytest.approx(plain.mu2, rel=1e-14)
    assert trunc.mu4 == pytest.approx(plain.mu4, rel=1e-14)


def test_truncated_requires_positive_threshold():
    with pytest.raises(InvalidArgument):
        truncated_moments(Gaussian(1.0), 0.0)


# --- construction contracts -----------------------------------------------


def test_wide_teacher_allowed_for_forward_only():
    # m < d is fine for labeling; barrier operations reject it separately
    model = TeacherModel(np.array([[1.0, 0.0, 0.0]]))
    data = sample_dataset(Gaussian(1.0), 5, 3, seed=0)
    labels = label_dataset(data, model).labels
    assert np.allclose(labels, data.inputs[:, 0] ** 2, rtol=1e-12, atol=0)


def test_student_rejects_nonfinite_entries():
    with pytest.raises(InvalidArgument):
        StudentWeights(np.array([[1.0, np.inf]]))


def test_weights_are_read_only():
    model = TeacherModel(np.eye(2))
    with pytest.raises(ValueError):
        model.weights[0, 0] = 5.0


def test_numerical_rank_and_tolerance():
    assert numerical_rank(np.eye(3)) == 3
    assert is_full_rank(np.eye(3))
    deficient = np.array([[1.0, 0.0], [0.0, 1e-14]])
    assert numerical_rank(deficient) == 1
    assert not is_full_rank(deficient)


def _rank_cases() -> dict[str, np.ndarray]:
    w = np.random.default_rng(31).standard_normal((60, 4))
    duplicated = w.copy()
    duplicated[:, 3] = w[:, 2]
    near = w.copy()
    near[:, 3] = w[:, 2] + 1e-6 * np.random.default_rng(32).standard_normal(60)
    return {
        "full": w,
        "duplicated": duplicated,
        # sigma_min ~ 6e-9 > RANK_RTOL: full rank, which only the SVD can see
        "tiny": 1e-9 * w,
        # sigma_max ~ 8e-12 < RANK_RTOL: rank 0, though lambda_min / lambda_max
        # is far above GRAM_RANK_RTOL; the max(1, .) floor keeps it undecided
        "tinier": 1e-12 * w,
        # sigma_min / sigma_max ~ 5e-7: inside the band the Gram cannot decide
        "near": near,
    }


@pytest.mark.parametrize(
    "case, certified, full",
    [
        ("full", True, True),
        ("duplicated", False, False),
        ("tiny", False, True),
        ("tinier", False, False),
        ("near", False, True),
    ],
)
def test_gram_rank_rule_agrees_with_singular_values(case, certified, full):
    # a certificate is never wrong (certified implies full), and where none
    # is given the singular values decide
    teacher = TeacherModel(_rank_cases()[case])
    assert _gram_certifies_full_rank(teacher.gram_eigenvalues) == certified
    assert (_rank_of(teacher.singular_values) == teacher.d) == full


def test_gram_eigenvalues_cached_ascending_and_read_only():
    w = rng.standard_normal((12, 3))
    teacher = TeacherModel(2.0 * w)
    lam = teacher.gram_eigenvalues
    assert lam is teacher.gram_eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert np.array_equal(lam, np.linalg.eigvalsh(gram(teacher)))
    # the Gram eigenvalues are the squared singular values the SVD sees
    assert np.allclose(lam[::-1], teacher.singular_values ** 2, rtol=1e-12)
    with pytest.raises(ValueError):
        lam[0] = 0.0


@settings(max_examples=30)
@given(st.integers(0, 2 ** 63 - 1))
def test_distribution_sampling_deterministic_per_generator_state(seed):
    law = Gaussian(1.0)
    a = law.sample(np.random.default_rng(seed), (3, 2))
    b = law.sample(np.random.default_rng(seed), (3, 2))
    assert np.array_equal(a, b)


# --- stacked designs ----------------------------------------------------------


@pytest.mark.parametrize("d, n", [(1, 3), (3, 5), (3, 6), (8, 35), (8, 36), (8, 50)])
def test_stacked_equilibrate_equals_single_calls(d, n):
    # row norms over D >= 8 columns are pairwise sums, column norms over N
    # rows are sums row by row; the stack must keep both orders per design
    gen = np.random.default_rng(n)
    X = gen.standard_normal((4, n, d)) * 10.0 ** gen.integers(-3, 3, (4, n, 1))
    X[1, 0] = 0.0  # a zero row keeps its zero norm
    stacked_xi = _tensorized(X)
    stacked = _equilibrate(stacked_xi)
    for k in range(4):
        xi = TensorizedDesign(X[k]).xi
        assert np.array_equal(stacked_xi[k], xi)
        assert np.array_equal(stacked[k], _equilibrate(xi))
    # the tensorized stack is not C-ordered, so this checks the copy's layout
    assert np.array_equal(_equilibrate(np.asfortranarray(stacked_xi)), stacked)


def test_stacked_gram_equals_single_calls():
    W = rng.standard_normal((5, 9, 4))
    G = _gram_matrix(W)
    for k in range(5):
        assert np.array_equal(G[k], _gram_matrix(W[k]))
        assert np.array_equal(G[k], G[k].T)


def test_chunks_cover_the_range_within_the_float_budget():
    for count, floats_each in [(1, 10), (2000, 24), (300, 1296), (5, 10 ** 6)]:
        chunks = _chunks(count, floats_each)
        assert [t for chunk in chunks for t in chunk] == list(range(count))
        assert all(len(c) * floats_each <= max(_STACK_FLOATS, floats_each) for c in chunks)
        assert len(chunks) == -(-count // max(1, _STACK_FLOATS // floats_each))
