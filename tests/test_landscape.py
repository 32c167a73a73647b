import tracemalloc

import numpy as np
import pytest

import quadland.landscape
import quadland.model
from quadland import (
    ContractViolation,
    DegenerateDistribution,
    Gaussian,
    InvalidArgument,
    Rademacher,
    StudentWeights,
    TeacherModel,
    Uniform,
    barrier_report,
    certify_stationary_global,
    embed_gram,
    energy_barrier,
    gram,
    moments_of,
    population_risk_of,
    quadform,
    rank_deficient_sweep,
    sublevel_norm_bound,
    truncated_moments,
    worst_rank_deficient,
)
from quadland import _rng
from quadland.landscape import SWEEP_SUBSTREAM_BASE, sample_rank_deficient
from quadland.model import numerical_rank, rank_tolerance

import reference_values as ref

GAUSS = moments_of(Gaussian(1.0))
rng = np.random.default_rng(90125)


def random_teacher(m, d, gen=rng):
    return TeacherModel(gen.standard_normal((m, d)) + 2 * np.eye(m, d))


# --- barrier value --------------------------------------------------------


def test_barrier_identity_teacher_gaussian():
    teacher = TeacherModel(np.eye(3))
    assert energy_barrier(teacher, GAUSS) == pytest.approx(
        ref.BARRIER_IDENTITY_GAUSSIAN, rel=1e-14
    )


def test_barrier_diag_embedded_teacher():
    W = np.zeros((5, 2))
    W[0, 0], W[1, 1] = 2.0, 1.0
    assert energy_barrier(TeacherModel(W), GAUSS) == pytest.approx(
        ref.BARRIER_DIAG21_GAUSSIAN, rel=1e-14
    )


def test_barrier_rejects_degenerate_law():
    with pytest.raises(DegenerateDistribution):
        energy_barrier(TeacherModel(np.eye(2)), moments_of(Rademacher()))


def test_barrier_rejects_rank_deficient_teacher():
    with pytest.raises(InvalidArgument):
        energy_barrier(TeacherModel(np.array([[1.0, 0.0], [1.0, 0.0]])), GAUSS)


def test_empirical_barrier_uses_half_constant():
    teacher = TeacherModel(np.eye(2))
    trunc = truncated_moments(Gaussian(1.0), 2.0)
    pop = energy_barrier(teacher, trunc, "population")
    emp = energy_barrier(teacher, trunc, "empirical")
    assert emp == pytest.approx(0.5 * pop, rel=1e-14)


def test_barrier_report_flags():
    teacher = TeacherModel(np.eye(2))
    report = barrier_report(teacher, GAUSS, risk_value=1.0)
    assert report.below and report.barrier_value == pytest.approx(2.0)
    report = barrier_report(teacher, GAUSS, risk_value=5.0)
    assert not report.below


# --- tightness construction -----------------------------------------------


def test_worst_rank_deficient_diag_teacher_value():
    W = np.zeros((2, 2))
    W[0, 0], W[1, 1] = 2.0, 1.0
    teacher = TeacherModel(W)
    student = worst_rank_deficient(teacher)
    risk = population_risk_of(student, teacher, GAUSS).value
    assert risk == pytest.approx(ref.WORST_RANK_DEFICIENT_DIAG21_RISK, rel=1e-10)
    A = gram(teacher) - gram(student)
    eigs = np.sort(np.linalg.eigvalsh(A))
    assert np.allclose(eigs, [0.0, 1.0], atol=1e-10)


def test_worst_rank_deficient_homogeneity():
    for t in (0.5, 1.0, 2.0):
        teacher = TeacherModel(t * np.eye(2))
        student = worst_rank_deficient(teacher)
        risk = population_risk_of(student, teacher, GAUSS).value
        barrier = energy_barrier(teacher, GAUSS)
        assert barrier == pytest.approx(2 * t ** 4, rel=1e-10)
        assert risk == pytest.approx(3 * t ** 4, rel=1e-10)
        assert barrier - 1e-9 <= risk <= 3 * t ** 4 + 1e-9


def test_worst_rank_deficient_rank_contract():
    teacher = random_teacher(6, 4)
    student = worst_rank_deficient(teacher)
    s = np.linalg.svd(student.weights, compute_uv=False)
    assert s[-1] <= rank_tolerance(float(s[0]))
    assert s[-2] > rank_tolerance(float(s[0]))
    assert numerical_rank(student.weights) == 3


def test_worst_rank_deficient_gram_is_zeroed_teacher_gram():
    teacher = random_teacher(7, 3)
    student = worst_rank_deficient(teacher)
    lam, V = np.linalg.eigh(gram(teacher))
    lam[0] = 0.0
    want = V @ np.diag(lam) @ V.T
    assert np.linalg.norm(gram(student) - want) <= 1e-8


def test_worst_rank_deficient_tightness_upper_bound():
    for mom in (GAUSS, moments_of(Uniform(np.sqrt(3.0)))):
        teacher = random_teacher(6, 3)
        student = worst_rank_deficient(teacher)
        risk = population_risk_of(student, teacher, mom).value
        sigma_min = np.linalg.svd(teacher.weights, compute_uv=False)[-1]
        c_prime = max(mom.mu4, 3 * mom.mu2 ** 2)
        assert risk <= c_prime * sigma_min ** 4 + 1e-9


def test_worst_rank_deficient_square_teacher_fallback():
    teacher = TeacherModel(np.diag([2.0, 1.0]))
    student = worst_rank_deficient(teacher)
    assert student.weights.shape == (2, 2)
    assert numerical_rank(student.weights) == 1


def test_row_split_preserves_forward_values():
    # the m-row embedding and the square root factor define one function
    teacher = random_teacher(8, 3)
    student = worst_rank_deficient(teacher)
    lam, V = np.linalg.eigh(gram(teacher))
    lam[0] = 0.0
    square_root = V @ np.diag(np.sqrt(lam)) @ V.T
    X = rng.standard_normal((100, 3))
    a, b = quadform(X, gram(square_root)), quadform(X, gram(student))
    assert np.all(np.abs(a - b) <= 1e-10 * (1.0 + np.abs(a)))


def test_worst_rank_deficient_rejects_m_below_d():
    with pytest.raises(InvalidArgument):
        worst_rank_deficient(TeacherModel(np.ones((1, 2))))


# --- gram embedding -------------------------------------------------------


def test_embed_gram_identity():
    student = embed_gram(np.eye(3), 5)
    want = np.vstack([np.eye(3), np.zeros((2, 3))])
    assert np.allclose(student.weights, want, atol=1e-12)


def test_embed_gram_zero():
    student = embed_gram(np.zeros((2, 2)), 4)
    assert np.array_equal(student.weights, np.zeros((4, 2)))


def test_embed_gram_reconstructs_random_psd():
    B = rng.standard_normal((4, 4))
    G = B @ B.T
    student = embed_gram(G, 6)
    assert np.linalg.norm(student.weights.T @ student.weights - G) <= 1e-10
    assert np.allclose(student.weights[4:], 0.0)


def test_embed_gram_rejects_indefinite():
    with pytest.raises(InvalidArgument):
        embed_gram(np.diag([1.0, -0.5]), 3)
    with pytest.raises(InvalidArgument, match="symmetric"):
        embed_gram(np.array([[1.0, 0.5], [0.0, 1.0]]), 3)


# --- stationary point certification ---------------------------------------


def test_certify_orthonormal_orbit_is_global():
    W = rng.standard_normal((4, 3))
    teacher = TeacherModel(W)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    cert = certify_stationary_global(StudentWeights(Q @ W), teacher, GAUSS)
    assert cert.verdict == "global-optimum"
    assert cert.gram_gap <= 1e-10


def test_certify_worst_construction_is_barrier_protected():
    teacher = random_teacher(5, 3)
    student = worst_rank_deficient(teacher)
    cert = certify_stationary_global(student, teacher, GAUSS)
    assert cert.verdict == "barrier-protected"
    assert not cert.is_full_rank


def test_certify_degenerate_law_flat_direction_is_inconclusive():
    # rademacher moments hide a zero-trace diagonal discrepancy: this
    # full-rank point is stationary but off the teacher Gram
    teacher = TeacherModel(np.eye(2))
    student = StudentWeights(np.diag([np.sqrt(1.5), np.sqrt(0.5)]))
    cert = certify_stationary_global(student, teacher, moments_of(Rademacher()))
    assert cert.is_full_rank and cert.grad_norm <= 1e-12
    assert cert.gram_gap == pytest.approx(np.sqrt(0.5))
    assert cert.verdict == "inconclusive"
    with pytest.raises(ContractViolation):
        certify_stationary_global(student, teacher, GAUSS, grad_tol=np.inf)


def test_certify_moving_point_is_inconclusive():
    teacher = TeacherModel(np.eye(3))
    student = StudentWeights(2.0 * np.eye(3))
    cert = certify_stationary_global(student, teacher, GAUSS)
    assert cert.verdict == "inconclusive"
    assert cert.is_full_rank and cert.grad_norm > 1.0


# --- random falsification sweep -------------------------------------------


def test_sweep_identity_teacher_stays_above_barrier():
    result = rank_deficient_sweep(TeacherModel(np.eye(3)), GAUSS, trials=500, seed=0)
    assert result.barrier == pytest.approx(2.0, rel=1e-14)
    assert result.min_risk_found >= 2.0 - 1e-9


def test_sweep_scales_with_teacher():
    result = rank_deficient_sweep(TeacherModel(2.0 * np.eye(3)), GAUSS, trials=100, seed=0)
    assert result.min_risk_found >= 32.0 - 1e-9


def test_sweep_deterministic():
    teacher = random_teacher(5, 3)
    a = rank_deficient_sweep(teacher, GAUSS, trials=1, seed=11)
    b = rank_deficient_sweep(teacher, GAUSS, trials=1, seed=11)
    assert a.risks == b.risks


# --- sublevel norm bound --------------------------------------------------


def test_sublevel_norm_bound_shape():
    teacher = TeacherModel(np.eye(3))
    at_zero = sublevel_norm_bound(0.0, teacher, GAUSS)
    assert at_zero == pytest.approx(np.sqrt(3 * 3.0), rel=1e-12)
    assert sublevel_norm_bound(10.0, teacher, GAUSS) > at_zero


def test_sublevel_norm_bound_holds_for_teacher_itself():
    teacher = random_teacher(5, 3)
    frob = np.linalg.norm(teacher.weights)
    assert frob <= sublevel_norm_bound(0.0, teacher, GAUSS)


# --- stacked sweep against the per-trial path -------------------------------


def per_trial_risks(teacher, moments, trials, seed):
    """The sweep's reference: one stream, one student, one risk per trial."""
    return np.array([
        population_risk_of(
            sample_rank_deficient(teacher, _rng.stream(seed, SWEEP_SUBSTREAM_BASE + t)),
            teacher,
            moments,
        ).value
        for t in range(trials)
    ])


@pytest.mark.parametrize(
    "m, d, law, scaled_rows, trials, stack_floats",
    [
        (5, 2, Gaussian(1.0), False, 1600, None),  # chunks of 1536 + 64
        (8, 3, Uniform(1.7), False, 1300, None),  # 640 + 640 + 20
        (9, 4, Gaussian(2.0), True, 37, 100),  # 18 chunks of 2, then 1
        (12, 9, Uniform(0.5), True, 23, 700),  # d >= 8: pairwise sums; 5 x 4 + 3
    ],
)
def test_sweep_matches_per_trial_loop(
    monkeypatch, m, d, law, scaled_rows, trials, stack_floats
):
    if stack_floats is not None:
        monkeypatch.setattr(quadland.model, "_STACK_FLOATS", stack_floats)
    gen = np.random.default_rng(m * d)
    w = gen.standard_normal((m, d)) + 2 * np.eye(m, d)
    if scaled_rows:  # rows of unequal scale, as positive output weights give
        w = w * np.sqrt(gen.uniform(0.5, 2.0, m))[:, None]
    teacher = TeacherModel(w)
    count = m * (d - 1) + (d - 1) * d
    chunks = quadland.model._chunks(trials, max(count, m * d))
    assert len(chunks) > 1 and len(chunks[-1]) < len(chunks[0])
    moments = moments_of(law)
    sweep = rank_deficient_sweep(teacher, moments, trials, seed=4)
    ref_risks = per_trial_risks(teacher, moments, trials, 4)
    assert np.array_equal(np.array(sweep.risks), ref_risks)
    assert sweep.min_risk_found == ref_risks.min()


def test_sweep_names_first_trial_outside_sandwich(monkeypatch):
    # raise the lower bound above the risk at trials 7 and 9: the check is
    # vectorized over each chunk and must still name trial 7
    monkeypatch.setattr(quadland.model, "_STACK_FLOATS", 72)  # 3 trials per chunk
    terms = quadland.landscape._population_terms
    seen = []

    def broken_terms(a, moments):
        value, lower, upper = terms(a, moments)
        first = sum(seen)
        seen.append(len(value))
        bad = [t - first for t in (7, 9) if first <= t < first + len(value)]
        lower = lower.copy()
        lower[bad] = value[bad] * 2.0 + 1.0
        return value, lower, upper

    monkeypatch.setattr(quadland.landscape, "_population_terms", broken_terms)
    with pytest.raises(ContractViolation, match="bounds violated at trial 7:"):
        rank_deficient_sweep(random_teacher(8, 3), GAUSS, trials=12, seed=0)
    assert seen == [3, 3, 3]


def test_sweep_memory_stays_within_one_chunk():
    # 20000 trials at m = 8, d = 3: the weights alone would take 3.8 MB if
    # stacked at once; chunked, the peak is the output (a list and a tuple of
    # 20000 floats, about 0.8 MB) plus one chunk's temporaries
    teacher = random_teacher(8, 3)
    rank_deficient_sweep(teacher, GAUSS, trials=2, seed=0)  # one-off caches
    tracemalloc.start()
    try:
        sweep = rank_deficient_sweep(teacher, GAUSS, trials=20000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sweep.risks) == 20000
    assert peak < 2 * 2 ** 20
