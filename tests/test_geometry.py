import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadland.model
from quadland import (
    Dataset,
    Gaussian,
    InvalidArgument,
    Rademacher,
    StudentWeights,
    TeacherModel,
    Uniform,
    critical_sample_count,
    empirical_risk,
    gram,
    label_dataset,
    moments_of,
    null_interpolator,
    population_risk_of,
    prime_vandermonde_certificate,
    prime_vandermonde_data,
    prime_vandermonde_span,
    quadform,
    recover_gram_discrepancy,
    sample_dataset,
    span_sweep,
    spans_symmetric,
    sym_matrix,
    sym_vector,
    tensorize,
)
from quadland.geometry import SPAN_MODULUS, _rank_mod

import oracles
import reference_values as ref

GAUSS = moments_of(Gaussian(1.0))
rng = np.random.default_rng(424242)


# --- counting and tensorization -------------------------------------------


@pytest.mark.parametrize("d,want", sorted(ref.CRITICAL_COUNTS.items()))
def test_critical_sample_count(d, want):
    assert critical_sample_count(d) == want


def test_tensorize_unit_row():
    design = tensorize(np.array([[1.0, 1.0]]))
    assert np.array_equal(design.xi, [[1.0, 1.0, 1.0]])


def test_tensorize_hand_row():
    design = tensorize(np.array([[2.0, 3.0]]))
    assert np.array_equal(design.xi[0], ref.PRIME_TENSORIZED_ROW2_D2)


def test_tensorize_matches_loop_oracle():
    X = rng.standard_normal((7, 4))
    design = tensorize(X)
    assert np.allclose(design.xi, oracles.tensorize_loop(X), atol=1e-14)


@settings(max_examples=100)
@given(data=st.data(), d=st.integers(1, 4))
def test_tensorize_pairing_identity(data, d):
    x = np.array(
        data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    )
    entries = data.draw(
        st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d)
    )
    B = np.array(entries).reshape(d, d)
    M = 0.5 * (B + B.T)
    design = tensorize(x.reshape(1, -1))
    lhs = float(design.xi[0] @ sym_vector(M))
    rhs = float(x @ M @ x)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_tensorized_pairing_matches_quadratic_form_oracle():
    X = rng.standard_normal((9, 5))
    B = rng.standard_normal((5, 5))
    M = 0.5 * (B + B.T)
    xi = tensorize(X).xi
    assert np.array_equal(xi, oracles.tensorize_loop(X))
    want = [oracles.quadratic_form_loop(M, x) for x in X]
    assert np.allclose(xi @ sym_vector(M), want, rtol=1e-12, atol=1e-12)
    assert np.allclose(quadform(X, M), want, rtol=1e-12, atol=1e-12)


def test_sym_vector_matrix_round_trip():
    B = rng.standard_normal((4, 4))
    M = 0.5 * (B + B.T)
    assert np.allclose(sym_matrix(sym_vector(M), 4), M, atol=1e-14)


# --- span condition -------------------------------------------------------


def test_spans_false_below_critical_count():
    data = sample_dataset(Gaussian(1.0), 2, 2, seed=0)
    report = spans_symmetric(data)
    assert not report.spans and report.rank <= 2


def test_spans_true_at_critical_count():
    data = sample_dataset(Gaussian(1.0), 3, 2, seed=0)
    report = spans_symmetric(data)
    assert report.spans and report.rank == 3


@pytest.mark.parametrize(
    "law, d, trials",
    [
        (Gaussian(1.0), 1, 4),
        (Gaussian(1.0), 2, 5),
        (Uniform(1.0), 5, 7),
        (Rademacher(), 4, 6),  # sign data: rank-deficient at N* as well
        (Gaussian(3.0), 8, 25),  # chunks of 11, 11, 3
    ],
)
def test_span_sweep_equals_spans_symmetric_per_dataset(law, d, trials):
    n_star = critical_sample_count(d)
    counts = [n_star - 1, n_star, n_star + 3] if n_star > 1 else [1, 3]
    ranks = span_sweep(law, d, counts, trials, seed=9)
    want = [
        [spans_symmetric(sample_dataset(law, n, d, 9 + t)).rank for n in counts]
        for t in range(trials)
    ]
    assert np.array_equal(ranks, want)


def test_span_sweep_across_forced_chunks(monkeypatch):
    monkeypatch.setattr(quadland.model, "_STACK_FLOATS", 500)  # 2 trials per chunk
    ranks = span_sweep(Gaussian(1.0), 3, [5, 6, 7], 5, seed=0)
    want = [[spans_symmetric(sample_dataset(Gaussian(1.0), n, 3, t)).rank for n in (5, 6, 7)]
            for t in range(5)]
    assert np.array_equal(ranks, want)


def test_spans_duplicated_rows_rank_one():
    x = rng.standard_normal(3)
    report = spans_symmetric(np.vstack([x, x, x]))
    assert report.rank == 1 and not report.spans


# --- prime power construction ---------------------------------------------


def test_prime_data_d2_rows():
    data = prime_vandermonde_data(2, 3)
    assert np.array_equal(data.inputs, ref.PRIME_ROWS_D2_N3)


def test_prime_tensorized_nodes_distinct_symbolically():
    for d in range(1, 9):
        cert = prime_vandermonde_certificate(d)
        assert cert.distinct
        assert len(cert.exponent_vectors) == critical_sample_count(d)


def test_prime_node_values_distinct_exactly():
    # cross-check the exponent-vector argument with exact integer products
    primes = (2, 3, 5, 7)
    values = oracles.prime_tensor_values_exact(primes)
    assert len(set(values)) == len(values)


def test_prime_design_full_rank_over_rationals():
    # exact rational elimination, independent of floating point
    for d in (2, 3):
        n = critical_sample_count(d)
        data = prime_vandermonde_data(d, n)
        xi = oracles.tensorize_loop(data.inputs)
        assert oracles.exact_rank_rational(xi.astype(object)) == n
    # the rank modulo 2^61 - 1 against the rank over Q of the integer design
    for d in range(1, 9):
        n_star = critical_sample_count(d)
        primes = prime_vandermonde_data(d, 2).inputs[1:]
        nodes = [int(v) for v in oracles.tensorize_loop(primes)[0]]
        for n in (max(n_star - 1, 1), n_star, n_star + 2):
            exact = oracles.exact_rank_rational([[v ** t for v in nodes] for t in range(n)])
            report = prime_vandermonde_span(d, n)
            assert report.rank == exact == min(n, n_star)
            assert report.spans == (n >= n_star)
            assert report.threshold is report.sigma_min is report.sigma_max is None


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 5), r=st.integers(1, 5))
def test_rank_mod_matches_rational_rank(data, n, k, r):
    # products A B of rank at most r; every minor stays far below 2^61 - 1,
    # so the rank modulo it must equal the rank over Q
    entry = st.integers(-3, 3)
    A = np.array(data.draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n)))
    B = np.array(data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r)))
    M = (A @ B).tolist()
    residues = [[int(v) % SPAN_MODULUS for v in row] for row in M]
    assert _rank_mod(residues, SPAN_MODULUS) == oracles.exact_rank_rational(M)


def test_prime_design_numerical_span():
    for d in (2, 3, 4):
        n = critical_sample_count(d)
        report = spans_symmetric(prime_vandermonde_data(d, n))
        assert report.spans, f"d={d}: rank {report.rank} < {n}"


def test_prime_data_rejects_large_dimension():
    with pytest.raises(InvalidArgument, match="random data"):
        prime_vandermonde_data(9, 5)


# --- adversarial interpolator ---------------------------------------------


def test_null_interpolator_identity_teacher():
    teacher = TeacherModel(np.eye(2))
    data = label_dataset(sample_dataset(Gaussian(1.0), 2, 2, seed=3), teacher)
    result = null_interpolator(teacher, data, target_rows=5, moments=GAUSS)
    cert = result.certificate
    scale = 1.0 + float(np.mean(data.labels ** 2))
    assert cert["empirical_risk"] <= 1e-10 * scale
    assert cert["population_risk"] >= ref.NULL_INTERP_GAUSSIAN_I2_LOWER - 1e-9
    assert cert["max_constraint_violation"] <= 1e-10
    assert abs(cert["direction_spectral_norm"] - 1.0) <= 1e-10
    # the student genuinely interpolates while being the wrong function
    assert empirical_risk(result.student, data) <= 1e-10 * scale
    assert population_risk_of(result.student, teacher, GAUSS).value >= 2.0 - 1e-9


def test_null_interpolator_delta_tracks_sigma_min_squared():
    for t in (0.5, 2.0):
        teacher = TeacherModel(t * np.eye(2))
        data = sample_dataset(Gaussian(1.0), 2, 2, seed=4)
        result = null_interpolator(teacher, data, target_rows=4)
        assert result.delta == pytest.approx(t * t, rel=1e-12)


def test_null_interpolator_empty_data():
    # no constraints at all: any unit direction is admissible
    teacher = TeacherModel(np.eye(3))
    result = null_interpolator(teacher, None, target_rows=3, moments=GAUSS)
    assert result.certificate["population_risk"] >= 2.0 - 1e-9


def test_null_interpolator_rejects_spanning_data():
    teacher = TeacherModel(np.eye(2))
    data = sample_dataset(Gaussian(1.0), 10, 2, seed=5)
    with pytest.raises(InvalidArgument):
        null_interpolator(teacher, data, target_rows=4)


def test_null_interpolator_rejects_rank_deficient_teacher():
    teacher = TeacherModel(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(InvalidArgument):
        null_interpolator(teacher, None, target_rows=3)


# --- gram recovery --------------------------------------------------------


def test_recovery_zero_for_teacher_student():
    teacher = TeacherModel(rng.standard_normal((4, 3)) + 2 * np.eye(4, 3))
    data = label_dataset(
        sample_dataset(Gaussian(1.0), 3 * critical_sample_count(3), 3, seed=6), teacher
    )
    result = recover_gram_discrepancy(data, StudentWeights(teacher.weights), teacher)
    assert np.linalg.norm(result.m_hat) <= 1e-10


def test_recovery_matches_direct_gram_subtraction():
    d = 3
    teacher = TeacherModel(rng.standard_normal((5, d)))
    student = StudentWeights(rng.standard_normal((4, d)))
    data = label_dataset(
        sample_dataset(Gaussian(1.0), 3 * critical_sample_count(d), d, seed=7), teacher
    )
    result = recover_gram_discrepancy(data, student, teacher)
    direct = gram(student) - gram(teacher)
    assert np.linalg.norm(result.m_hat - direct) <= 1e-8 * (1 + np.linalg.norm(direct))


def test_recovery_norm_shrinks_with_perturbation():
    d = 3
    base = rng.standard_normal((5, d))
    offset = rng.standard_normal((5, d))
    teacher = TeacherModel(base)
    data = label_dataset(
        sample_dataset(Gaussian(1.0), 3 * critical_sample_count(d), d, seed=8), teacher
    )
    full = recover_gram_discrepancy(data, StudentWeights(base + 0.2 * offset), teacher)
    half = recover_gram_discrepancy(data, StudentWeights(base + 0.1 * offset), teacher)
    assert np.linalg.norm(half.m_hat) < np.linalg.norm(full.m_hat)


def test_recovery_rejects_non_spanning_data():
    teacher = TeacherModel(np.eye(2))
    data = label_dataset(sample_dataset(Gaussian(1.0), 2, 2, seed=9), teacher)
    with pytest.raises(InvalidArgument, match="ill-posed"):
        recover_gram_discrepancy(data, StudentWeights(np.eye(2)), teacher)


def test_interpolation_with_span_forces_gram_identity():
    # fit residuals to zero on spanning data and the Gram must match,
    # even for a wider student
    d = 2
    teacher = TeacherModel(rng.standard_normal((3, d)) + np.eye(3, d))
    data = label_dataset(
        sample_dataset(Gaussian(1.0), 4 * critical_sample_count(d), d, seed=10), teacher
    )
    assert spans_symmetric(data).spans
    from quadland import embed_gram

    student = embed_gram(gram(teacher), 7)
    scale = 1.0 + float(np.mean(data.labels ** 2))
    assert empirical_risk(student, data) <= 1e-12 * scale
    assert np.linalg.norm(gram(student) - gram(teacher)) <= 1e-6
