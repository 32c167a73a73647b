"""Energy barriers, rank-deficient constructions, and global-optimality
certificates for the network ||W x||^2 and a planted teacher W*.

No rank-deficient student can push its population risk below
c_lower * sigma_min(W*)^4 with c_lower = min{mu4 - mu2^2, 2 mu2^2}; the
empirical analogue replaces the constant by half its truncated-moment
version. The bound is tight up to the constant: zeroing the smallest
Gram eigenvalue of the teacher produces a rank d-1 student whose risk is
at most max{mu4, 3 mu2^2} sigma_min^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .errors import ContractViolation, DegenerateDistribution, InvalidArgument
from .model import (
    Moments,
    StudentWeights,
    TeacherModel,
    _chunks,
    _gram_matrix,
    _rank_of,
    _symmetric,
    gram,
    is_full_rank,
)
from .risk import (
    _check_sandwich,
    _population_terms,
    population_gradient,
    population_risk_of,
)

SWEEP_SUBSTREAM_BASE = 1000

# Eigenvalues of a nominally PSD Gram may round slightly negative; anything
# above this magnitude is treated as genuinely indefinite.
PSD_CLAMP = 1e-10


@dataclass(frozen=True)
class BarrierReport:
    """Risk of a specific point compared against the energy barrier."""

    barrier_value: float
    risk_value: float
    below: bool
    constant_used: float
    mode: str
    sigma_min_teacher: float

    def to_json(self) -> dict:
        return {
            "barrier_value": self.barrier_value,
            "risk_value": self.risk_value,
            "below": self.below,
            "constant_used": self.constant_used,
            "mode": self.mode,
            "sigma_min_teacher": self.sigma_min_teacher,
        }


def _require_full_rank_teacher(teacher: TeacherModel) -> float:
    """Smallest singular value of the teacher weights, which must have full
    column rank."""
    if teacher.m < teacher.d:
        raise InvalidArgument("teacher weights are rank-deficient (m < d)")
    s = teacher.singular_values
    if _rank_of(s) < teacher.d:
        raise InvalidArgument("teacher weights are rank-deficient")
    return float(s[-1])


def energy_barrier(teacher: TeacherModel, moments: Moments, mode: str = "population") -> float:
    """Barrier value constant * sigma_min(W*)^4.

    Population mode uses c_lower = min{mu4 - mu2^2, 2 mu2^2}; empirical
    mode uses half that constant computed from the truncated moments the
    caller passes in.
    """
    if mode not in ("population", "empirical"):
        raise InvalidArgument(f"unknown barrier mode: {mode!r}")
    if moments.degenerate:
        raise DegenerateDistribution(
            "Var(X^2) = 0, the barrier constant vanishes for this law"
        )
    sigma_min = _require_full_rank_teacher(teacher)
    constant = moments.c_lower if mode == "population" else 0.5 * moments.c_lower
    return constant * sigma_min ** 4


def barrier_report(
    teacher: TeacherModel,
    moments: Moments,
    risk_value: float,
    mode: str = "population",
) -> BarrierReport:
    barrier = energy_barrier(teacher, moments, mode)
    constant = moments.c_lower if mode == "population" else 0.5 * moments.c_lower
    return BarrierReport(
        barrier_value=barrier,
        risk_value=float(risk_value),
        below=bool(risk_value < barrier),
        constant_used=constant,
        mode=mode,
        sigma_min_teacher=float(teacher.singular_values[-1]),
    )


def worst_rank_deficient(teacher: TeacherModel) -> StudentWeights:
    """Rank d-1 student whose Gram is the teacher's with its smallest
    eigenvalue zeroed; this nearly attains the barrier.

    Build the symmetric square root W_bar of the truncated Gram, then embed
    it into the teacher's m rows by splitting one row: the split row keeps
    weight 1/2 and each of the m-d spare rows carries sqrt(3)/(2 sqrt(m-d)),
    so 1/4 + (m-d) * 3/(4(m-d)) = 1 preserves the Gram exactly.
    """
    _require_full_rank_teacher(teacher)
    m, d = teacher.m, teacher.d
    lam, Q = np.linalg.eigh(gram(teacher))
    root = np.sqrt(np.clip(lam, 0.0, None))
    root[0] = 0.0  # eigh sorts ascending; drop the smallest direction
    w_bar = (Q * root[None, :]) @ Q.T
    if m == d:
        return StudentWeights(w_bar)
    out = np.zeros((m, d))
    out[: d - 1] = w_bar[: d - 1]
    out[d - 1] = 0.5 * w_bar[d - 1]
    out[d:] = (np.sqrt(3.0) / (2.0 * np.sqrt(m - d))) * w_bar[d - 1]
    return StudentWeights(out)


def embed_gram(gram_matrix: np.ndarray, target_rows: int) -> StudentWeights:
    """Any W with W^T W equal to the given PSD Gram, padded to target_rows.

    Uses the symmetric square root in the top d x d block and zero rows
    below; eigenvalues in [-PSD_CLAMP, 0) are clamped to zero.
    """
    g = _symmetric(gram_matrix, "gram")
    if g.ndim != 2:
        raise InvalidArgument("gram must be square")
    d = g.shape[0]
    if target_rows < d:
        raise InvalidArgument(f"need at least {d} rows to factor a {d}x{d} gram")
    lam, Q = np.linalg.eigh(g)
    if lam[0] < -PSD_CLAMP:
        raise InvalidArgument(f"gram is indefinite: smallest eigenvalue {lam[0]:.3e}")
    root = np.sqrt(np.clip(lam, 0.0, None))
    out = np.zeros((target_rows, d))
    out[:d] = (Q * root[None, :]) @ Q.T
    return StudentWeights(out)


@dataclass(frozen=True)
class StationaryCertificate:
    """Outcome of the stationary-point classification."""

    is_full_rank: bool
    grad_norm: float
    gram_gap: float
    verdict: str  # "global-optimum" | "barrier-protected" | "inconclusive"

    def to_json(self) -> dict:
        return {
            "is_full_rank": self.is_full_rank,
            "grad_norm": self.grad_norm,
            "gram_gap": self.gram_gap,
            "verdict": self.verdict,
        }


def certify_stationary_global(
    student: StudentWeights,
    teacher: TeacherModel,
    moments: Moments,
    grad_tol: float = 1e-8,
    gram_tol: float = 1e-6,
) -> StationaryCertificate:
    """Classify a candidate stationary point.

    A full-rank point with vanishing population gradient must match the
    teacher Gram (then it is a global optimum); a rank-deficient point
    with risk at or above the barrier is protected by it; anything else
    is inconclusive. Under a degenerate law (Var(X^2) = 0) the risk cannot
    see zero-trace diagonal discrepancies, so a full-rank stationary point
    off the teacher Gram is inconclusive rather than a broken contract.
    """
    full_rank = student.m >= student.d and is_full_rank(student.weights)
    grad_norm = float(np.linalg.norm(population_gradient(student, teacher, moments)))
    gram_gap = float(np.linalg.norm(gram(student) - gram(teacher)))
    if full_rank and grad_norm <= grad_tol:
        if gram_gap <= gram_tol:
            verdict = "global-optimum"
        elif moments.degenerate:
            verdict = "inconclusive"
        else:
            raise ContractViolation(
                f"full-rank stationary point with gram gap {gram_gap:.3e} > {gram_tol:.3e}"
            )
    elif not full_rank and not moments.degenerate:
        risk = population_risk_of(student, teacher, moments).value
        barrier = energy_barrier(teacher, moments, "population")
        verdict = "barrier-protected" if risk >= barrier - 1e-9 else "inconclusive"
    else:
        verdict = "inconclusive"
    return StationaryCertificate(
        is_full_rank=bool(full_rank),
        grad_norm=grad_norm,
        gram_gap=gram_gap,
        verdict=verdict,
    )


@dataclass(frozen=True)
class SweepResult:
    """Minimum risk over random rank-deficient students vs the barrier."""

    min_risk_found: float
    barrier: float
    risks: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "min_risk_found": self.min_risk_found,
            "barrier": self.barrier,
            "trials": len(self.risks),
        }


def sample_rank_deficient(teacher: TeacherModel, gen: np.random.Generator) -> StudentWeights:
    """Random student of rank at most d-1: an m x (d-1) factor composed
    with a (d-1) x d projection, both with standard normal entries."""
    m, d = teacher.m, teacher.d
    if d < 2:
        raise InvalidArgument("rank-deficient students need d >= 2")
    factor = _rng.standard_normal(gen, (m, d - 1))
    projection = _rng.standard_normal(gen, (d - 1, d))
    return StudentWeights(factor @ projection)


def rank_deficient_sweep(
    teacher: TeacherModel, moments: Moments, trials: int, seed: int
) -> SweepResult:
    """Falsification harness: no random rank-deficient student may dip
    below the barrier. Raises if one does.

    Trial t is the student sample_rank_deficient draws from substream
    SWEEP_SUBSTREAM_BASE + t, and its risk is population_risk_of's, bit for
    bit. The trials run in chunks on stacked arrays (model._chunks keeps
    each temporary within 120 KiB): per trial one draw of the factor's and
    the projection's uniforms, then for the chunk one ndtri, one batched
    factor @ projection, one batched Gram and one closed-form risk. The
    checks are the per-student ones: finite weights, a discrepancy
    symmetric to 1e-12, and the sandwich bounds, whose violation names its
    trial. The minimizing trial is then rebuilt by sample_rank_deficient and
    scored by population_risk_of, and that risk is checked against the
    barrier.
    """
    if trials < 1:
        raise InvalidArgument("need at least one trial")
    barrier = energy_barrier(teacher, moments, "population")
    m, d = teacher.m, teacher.d
    if d < 2:
        raise InvalidArgument("rank-deficient students need d >= 2")
    g_star = gram(teacher)
    split = m * (d - 1)  # the factor's entries come first in each draw
    count = split + (d - 1) * d
    risks: list[float] = []
    for chunk in _chunks(trials, max(count, m * d)):
        base = SWEEP_SUBSTREAM_BASE + chunk.start
        z = _rng.substream_normals(seed, range(base, base + len(chunk)), count)
        weights = z[:, :split].reshape(-1, m, d - 1) @ z[:, split:].reshape(-1, d - 1, d)
        if not np.isfinite(weights).all():
            raise InvalidArgument("weights must be finite")
        a = _symmetric(g_star - _gram_matrix(weights), "discrepancy")
        value, lower, upper = _population_terms(a, moments)
        _check_sandwich(value, lower, upper, first_trial=chunk.start)
        risks += value.tolist()
    # the verdict rests on the minimizing student, rebuilt and scored by the
    # per-trial path, which gives the same value
    trial = risks.index(min(risks))
    student = sample_rank_deficient(teacher, _rng.stream(seed, SWEEP_SUBSTREAM_BASE + trial))
    min_risk = population_risk_of(student, teacher, moments).value
    if min_risk < barrier - 1e-9:
        raise ContractViolation(
            f"rank-deficient student with risk {min_risk:.6e} below barrier {barrier:.6e}"
        )
    return SweepResult(min_risk_found=min_risk, barrier=barrier, risks=tuple(risks))


def sublevel_norm_bound(initial_risk: float, teacher: TeacherModel, moments: Moments) -> float:
    """Norm ceiling sqrt(sqrt(R_0)/mu2 + 3 ||W*||_F^2) for every iterate in
    the initial sublevel set (the factor 3 is (1+eps)/(1-eps) at eps=1/2)."""
    g = gram(teacher)
    return float(np.sqrt(np.sqrt(max(initial_risk, 0.0)) / moments.mu2 + 3.0 * np.trace(g)))
