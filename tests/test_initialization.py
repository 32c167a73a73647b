import logging
import math

import numpy as np
import pytest

from quadland import (
    Gaussian,
    InvalidArgument,
    SEMICIRCLE_SECOND_MOMENT,
    TeacherModel,
    check_init_below_barrier,
    gram,
    identity_init,
    moments_of,
    population_risk_of,
    sample_teacher,
    wishart_spectrum_report,
)

import oracles
import reference_values as ref

DIST = Gaussian(1.0)
GAUSS = moments_of(DIST)


def test_sampled_teacher_full_rank_and_reproducible():
    a = sample_teacher(DIST, 100, 3, 7)
    b = sample_teacher(DIST, 100, 3, 7)
    assert np.array_equal(a.weights, b.weights)
    assert np.linalg.matrix_rank(a.weights) == 3
    assert sample_teacher(DIST, 100, 3, 8).weights[0, 0] != a.weights[0, 0]


def test_init_check_takes_one_teacher_svd(monkeypatch):
    # the rank warning, the full-rank check and the reported sigma_min all
    # read the teacher's cached singular values
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = check_init_below_barrier(
        identity_init(40, 4), sample_teacher(DIST, 40, 4, 3), GAUSS
    )
    assert report.sigma_min_teacher > 0
    assert calls == [(40, 4)]


def test_spectrum_takes_no_teacher_svd(monkeypatch):
    # a full-rank teacher is certified from its Gram eigenvalues, which the
    # spectrum report reads too
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = wishart_spectrum_report(sample_teacher(DIST, 400, 8, 0))
    assert report.lambda_min > 0
    assert calls == []


class _Ones:
    """A law with all its mass on 1, so every sampled teacher has rank 1."""

    def sample(self, gen, shape):
        return np.ones(shape)


def test_rank_deficient_teacher_is_logged(caplog):
    ones = _Ones()
    with caplog.at_level(logging.WARNING, logger="quadland.initialization"):
        sample_teacher(DIST, 40, 4, 3)
        assert caplog.records == []
        sample_teacher(ones, 40, 4, 3)
    assert [r.getMessage() for r in caplog.records] == [
        "sampled teacher is rank-deficient: rank 1 < d=4"
    ]


def test_sample_teacher_rejects_wide_shape():
    with pytest.raises(InvalidArgument):
        sample_teacher(DIST, 2, 3, 0)


def test_identity_init_gram_is_scaled_identity():
    for m, d, mode, gamma in (
        (16, 2, "m", 16.0),
        (100, 3, "m", 100.0),
        (100, 3, "m_plus_4d", ref.GAMMA_M100_D3_PLUS),
    ):
        init = identity_init(m, d, mode)
        assert np.max(np.abs(gram(init) - gamma * np.eye(d))) <= 1e-12
        assert np.linalg.matrix_rank(init.weights) == d


def test_identity_init_rejects_unknown_mode():
    with pytest.raises(InvalidArgument):
        identity_init(16, 2, "tiny")


def test_identity_init_needs_enough_rows():
    with pytest.raises(InvalidArgument):
        identity_init(2, 3, "m")


def test_init_matching_teacher_gram_has_zero_risk():
    # teacher whose gram equals the init gram: risk 0, trivially below
    m, d = 16, 2
    init = identity_init(m, d, "m")
    teacher = TeacherModel(math.sqrt(float(m)) * np.eye(d))
    report = check_init_below_barrier(init, teacher, GAUSS)
    assert report.risk_value <= 1e-18
    assert report.below


def test_init_risk_matches_eigenvalue_formula():
    # for gram(init) = gamma I the discrepancy spectrum is eig(G*) - gamma,
    # so the gaussian risk is (sum mu)^2 + 2 sum mu^2
    m, d = 36, 3
    teacher = sample_teacher(DIST, m, d, 11)
    init = identity_init(m, d, "m")
    mu = np.linalg.eigvalsh(gram(teacher)) - float(m)
    want = float(mu.sum() ** 2 + 2.0 * (mu**2).sum())
    got = population_risk_of(init, teacher, GAUSS).value
    assert got == pytest.approx(want, rel=1e-10)


def test_spectrum_report_exact_for_orthogonal_teacher():
    # W* = sqrt(m) [I; 0] has gram m I, so every scaled eigenvalue is 0
    m, d = 64, 4
    w = np.zeros((m, d))
    w[:d, :] = math.sqrt(float(m)) * np.eye(d)
    report = wishart_spectrum_report(TeacherModel(w))
    assert report.lambda_min == pytest.approx(float(m), rel=1e-12)
    assert report.lambda_max == pytest.approx(float(m), rel=1e-12)
    assert report.scaled_second_moment == pytest.approx(0.0, abs=1e-15)
    assert report.inside_band


def test_semicircle_constant_matches_quadrature():
    assert SEMICIRCLE_SECOND_MOMENT == ref.SEMICIRCLE_SECOND_MOMENT
    assert oracles.semicircle_second_moment() == pytest.approx(
        SEMICIRCLE_SECOND_MOMENT, abs=1e-12
    )


def test_spectrum_report_near_limit_at_large_width():
    report = wishart_spectrum_report(sample_teacher(DIST, 4000, 10, 0))
    assert report.inside_band
    assert abs(report.scaled_second_moment - SEMICIRCLE_SECOND_MOMENT) <= 0.25


def test_below_barrier_fraction_grows_with_width():
    # overparametrization helps: the identity init qualifies more often
    # as m runs through d^2, 4d^2, 16d^2
    d = 6
    counts = []
    for m in (d * d, 4 * d * d, 16 * d * d):
        init = identity_init(m, d, "m")
        hits = sum(
            check_init_below_barrier(init, sample_teacher(DIST, m, d, s), GAUSS).below
            for s in range(20)
        )
        counts.append(hits)
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] >= 15
