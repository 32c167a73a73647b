"""Teacher sampling and identity-multiple initialization diagnostics.

For wide random teachers the Gram (W*)^T W* is a Wishart matrix; its
centered, scaled form (G - mI)/(2 sqrt(md)) has a semicircle eigenvalue
limit with second moment 1/4, and the singular values concentrate in
(sqrt(m) - 2 sqrt(d), sqrt(m) + 2 sqrt(d)). Both facts are what make a
diagonal sqrt(gamma) initialization land below the energy barrier once
m exceeds a multiple of d^2, so they are exposed here as checkable
reports rather than assumed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .data import TEACHER_SUBSTREAM, Dataset
from .errors import InvalidArgument
from .landscape import BarrierReport, barrier_report
from .model import (
    Distribution,
    Moments,
    StudentWeights,
    TeacherModel,
    _gram_certifies_full_rank,
    _rank_of,
)
from .risk import empirical_risk, population_risk_of

logger = logging.getLogger(__name__)

SEMICIRCLE_SECOND_MOMENT = 0.25


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue summary of a teacher Gram against random-matrix limits."""

    lambda_min: float
    lambda_max: float
    scaled_second_moment: float
    sigma_band: tuple[float, float]
    inside_band: bool

    def __post_init__(self):
        if self.lambda_min > self.lambda_max:
            raise InvalidArgument("lambda_min exceeds lambda_max")
        if self.scaled_second_moment < 0:
            raise InvalidArgument("second moment cannot be negative")

    def to_json(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "scaled_second_moment": self.scaled_second_moment,
            "sigma_band": list(self.sigma_band),
            "inside_band": self.inside_band,
        }


def sample_teacher(
    distribution: Distribution, m: int, d: int, seed: int
) -> TeacherModel:
    """Teacher with i.i.d. entries from the given law."""
    if m < d:
        raise InvalidArgument(f"need m >= d, got m={m}, d={d}")
    gen = _rng.stream(seed, TEACHER_SUBSTREAM)
    weights = distribution.sample(gen, (m, d))
    teacher = TeacherModel(weights)
    if not _gram_certifies_full_rank(teacher.gram_eigenvalues):
        rank = _rank_of(teacher.singular_values)
        if rank < d:
            logger.warning("sampled teacher is rank-deficient: rank %d < d=%d", rank, d)
    return teacher


def identity_init(m: int, d: int, scale_mode: str = "m") -> StudentWeights:
    """Student whose top block is sqrt(gamma) I_d, zeros below.

    By construction W0^T W0 = gamma I_d exactly, with gamma = m or m + 4d.
    """
    if m < d:
        raise InvalidArgument(f"need m >= d, got m={m}, d={d}")
    if scale_mode == "m":
        gamma = float(m)
    elif scale_mode == "m_plus_4d":
        gamma = float(m + 4 * d)
    else:
        raise InvalidArgument(f"unknown scale mode: {scale_mode!r}")
    W = np.zeros((m, d))
    np.fill_diagonal(W, math.sqrt(gamma))
    return StudentWeights(W)


def check_init_below_barrier(
    init: StudentWeights,
    teacher: TeacherModel,
    moments: Moments,
    mode: str = "population",
    dataset: Dataset | None = None,
) -> BarrierReport:
    """Risk of the initial point versus the energy barrier.

    Population mode evaluates the closed-form risk; if a labeled dataset is
    supplied the empirical risk is used instead (the moments then must be
    the truncated ones matching the data's support).
    """
    if dataset is not None:
        if not dataset.labeled:
            raise InvalidArgument("empirical check needs a labeled dataset")
        risk = empirical_risk(init, dataset)
    else:
        risk = population_risk_of(init, teacher, moments).value
    return barrier_report(teacher, moments, risk, mode)


def wishart_spectrum_report(teacher: TeacherModel) -> SpectrumReport:
    """Gram eigenvalue extremes and the semicircle second-moment statistic.

    The statistic is (1/d) sum mu_i^2 for the eigenvalues mu_i of
    (G - mI)/(2 sqrt(md)); its large-(m,d) limit is 1/4.
    """
    m, d = teacher.m, teacher.d
    lam = teacher.gram_eigenvalues
    mu = (lam - m) / (2.0 * math.sqrt(m * d))
    lo = math.sqrt(m) - 2.0 * math.sqrt(d)
    hi = math.sqrt(m) + 2.0 * math.sqrt(d)
    sigma_lo = math.sqrt(max(lam[0], 0.0))
    sigma_hi = math.sqrt(max(lam[-1], 0.0))
    # lower edge is vacuous when m < 4d (lo negative)
    inside = bool(sigma_lo >= lo and sigma_hi <= hi)
    return SpectrumReport(
        lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        scaled_second_moment=float(np.mean(mu * mu)),
        sigma_band=(lo, hi),
        inside_band=inside,
    )
