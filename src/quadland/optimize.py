"""Gradient descent on the empirical or population risk.

The risks are quartic in W, so no global smoothness constant exists; what
the descent lemma needs is a bound over the initial sublevel set. We use a
per-iterate power-iteration estimate of the Hessian spectral norm with a
safety divisor, or Armijo backtracking, and enforce the conclusion that
matters (non-increasing risk) as a runtime contract instead of trusting
any estimate.

Trajectories record risk, gradient norm, sigma_min(W), and two landscape
flags per recorded iterate: whether the risk is still below the energy
barrier, and whether the iterate obeys the sublevel-set norm ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _rng
from .data import Dataset
from .errors import ContractViolation, InvalidArgument, NonfiniteValue, QuadlandError
from .geometry import recover_gram_discrepancy, spans_symmetric
from .landscape import energy_barrier, sublevel_norm_bound
from .model import (
    Moments,
    StudentWeights,
    TeacherModel,
    _gram_matrix,
    gram,
    is_full_rank,
    moments_of,
    parse_distribution,
    truncated_moments,
)
from .risk import (
    _raw_empirical_gradient,
    _raw_empirical_risk,
    _raw_population_gradient,
    _require_square_activation,
    empirical_risk,
    population_risk,
    population_risk_of,
)

SMOOTHNESS_SUBSTREAM = 2

# Power iteration in estimate_smoothness stops after this many rounds, or
# once two successive norm estimates agree to this relative tolerance.
_SMOOTHNESS_ROUNDS = 30
_SMOOTHNESS_RTOL = 1e-3

_STALL_ETA = 1e-30


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedStep:
    """Constant step size; no descent guarantee."""

    eta: float

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise InvalidArgument("step size must be positive and finite")


@dataclass(frozen=True)
class InverseSmoothness:
    """Step 1/(safety * L_hat) with L_hat the estimated Hessian norm.

    safety >= 2 realizes a step below 1/(2L); the default 4 leaves margin
    for the estimate being local rather than a sublevel supremum.
    """

    safety: float = 4.0

    def __post_init__(self):
        if self.safety < 2.0:
            raise InvalidArgument("safety divisor must be at least 2")


@dataclass(frozen=True)
class Backtracking:
    """Armijo line search: accept eta once risk drops by slope * eta * |grad|^2."""

    shrink: float = 0.5
    slope: float = 1e-4
    initial_eta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.shrink < 1.0:
            raise InvalidArgument("shrink factor must lie in (0, 1)")
        if not 0.0 < self.slope < 1.0:
            raise InvalidArgument("slope must lie in (0, 1)")
        if not self.initial_eta > 0:
            raise InvalidArgument("initial step must be positive")


StepPolicy = FixedStep | InverseSmoothness | Backtracking


@dataclass(frozen=True)
class GDConfig:
    step_policy: StepPolicy = field(default_factory=Backtracking)
    grad_tol: float = 1e-8
    max_iters: int = 10 ** 6
    record_every: int = 100

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise InvalidArgument("grad_tol must be positive")
        if self.max_iters < 0 or self.record_every < 1:
            raise InvalidArgument("need max_iters >= 0 and record_every >= 1")


# --------------------------------------------------------------------------
# objective adapters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Objective:
    """Risk and gradient closures over raw weight matrices.

    The closures do not validate their argument: gradient_descent checks
    the initial weights once and every iterate for finiteness.
    """

    risk: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


def build_objective(teacher: TeacherModel, data_or_moments: Dataset | Moments) -> Objective:
    """Empirical risk for a labeled Dataset, population risk for Moments."""
    if isinstance(data_or_moments, Dataset):
        dataset = data_or_moments
        if not dataset.labeled:
            raise InvalidArgument("gradient descent needs a labeled dataset")
        if dataset.d != teacher.d:
            raise InvalidArgument(
                f"dimension mismatch: data d={dataset.d}, teacher d={teacher.d}"
            )
        X, y = dataset.inputs, dataset.labels
        return Objective(
            risk=lambda W: _raw_empirical_risk(W, X, y),
            gradient=lambda W: _raw_empirical_gradient(W, X, y),
        )
    if isinstance(data_or_moments, Moments):
        moments = data_or_moments
        _require_square_activation(teacher)
        Gs = gram(teacher)
        return Objective(
            risk=lambda W: population_risk(Gs - _gram_matrix(W), moments).value,
            gradient=lambda W: _raw_population_gradient(W, Gs, moments),
        )
    raise InvalidArgument("expected a Dataset or Moments")


def estimate_smoothness(student: StudentWeights, objective: Objective, seed: int = 0) -> float:
    """Hessian spectral norm at the current point by power iteration on
    central-difference Hessian-vector products."""
    W = student.weights
    gen = _rng.stream(seed, SMOOTHNESS_SUBSTREAM)
    v = _rng.standard_normal(gen, W.shape)
    v /= np.linalg.norm(v)
    h = 1e-5 * (1.0 + float(np.abs(W).max()))
    lam = 0.0
    for _ in range(_SMOOTHNESS_ROUNDS):
        u = (objective.gradient(W + h * v) - objective.gradient(W - h * v)) / (2.0 * h)
        if not np.all(np.isfinite(u)):
            raise NonfiniteValue("Hessian-vector product is not finite")
        lam_new = float(np.linalg.norm(u))
        if lam_new == 0.0:
            return 0.0
        if abs(lam_new - lam) <= _SMOOTHNESS_RTOL * lam_new:
            return lam_new
        lam = lam_new
        v = u / lam_new
    return lam


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    iteration: int
    risk: float
    grad_norm: float
    sigma_min: float
    frob_norm: float
    below_barrier: bool | None
    norm_bound_ok: bool | None
    step_size: float | None

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "risk": self.risk,
            "grad_norm": self.grad_norm,
            "sigma_min": self.sigma_min,
            "frob_norm": self.frob_norm,
            "below_barrier": self.below_barrier,
            "norm_bound_ok": self.norm_bound_ok,
            "step_size": self.step_size,
        }


@dataclass(frozen=True)
class Trajectory:
    records: tuple[TrajectoryRecord, ...]
    final_weights: StudentWeights
    termination: str  # "grad_tol" | "max_iters" | "nonfinite" | "stalled"
    iterations: int
    config: GDConfig

    @property
    def final_record(self) -> TrajectoryRecord:
        return self.records[-1]


def _barrier_context(teacher: TeacherModel, data_or_moments: Dataset | Moments):
    """Barrier value and base moments for trajectory flags; None when the
    data distribution is unknown or degenerate."""
    if isinstance(data_or_moments, Moments):
        try:
            barrier = energy_barrier(teacher, data_or_moments, "population")
        except QuadlandError:
            barrier = None
        return barrier, data_or_moments
    dataset = data_or_moments
    try:
        dist = parse_distribution(dataset.distribution_tag)
        base = moments_of(dist)
    except QuadlandError:
        return None, None
    try:
        threshold = float(np.abs(dataset.inputs).max())
        truncated = truncated_moments(dist, threshold)
        barrier = energy_barrier(teacher, truncated, "empirical")
    except QuadlandError:
        barrier = None
    return barrier, base


def gradient_descent(
    initial: StudentWeights,
    teacher: TeacherModel,
    data_or_moments: Dataset | Moments,
    config: GDConfig = GDConfig(),
) -> Trajectory:
    """Iterate W <- W - eta * grad until the gradient norm reaches grad_tol.

    The payload picks the risk: a labeled Dataset gives the empirical risk,
    Moments the closed-form population risk.
    The recorded risk sequence is non-increasing under the backtracking and
    inverse-smoothness policies; a violation raises ContractViolation. Non-
    finite values abort the run with termination reason "nonfinite". An
    accepted step that leaves W bitwise unchanged (the gradient is at the
    rounding floor of the risk) stops the run as "stalled" instead of
    spinning until max_iters.
    """
    obj = build_objective(teacher, data_or_moments)
    barrier, base_moments = _barrier_context(teacher, data_or_moments)
    if initial.d != teacher.d:
        raise InvalidArgument("initial weights do not match the teacher dimension")

    W = initial.weights.copy()
    risk = obj.risk(W)
    grad = obj.gradient(W)
    norm_cap = (
        sublevel_norm_bound(risk, teacher, base_moments)
        if base_moments is not None
        else None
    )

    records: list[TrajectoryRecord] = []

    def record(k: int, eta: float | None) -> None:
        frob = float(np.linalg.norm(W))
        records.append(
            TrajectoryRecord(
                iteration=k,
                risk=risk,
                grad_norm=float(np.linalg.norm(grad)),
                sigma_min=float(np.linalg.svd(W, compute_uv=False)[-1]),
                frob_norm=frob,
                below_barrier=None if barrier is None else bool(risk < barrier),
                norm_bound_ok=None if norm_cap is None else bool(frob <= norm_cap + 1e-9),
                step_size=eta,
            )
        )

    policy = config.step_policy
    eta_prev = policy.initial_eta if isinstance(policy, Backtracking) else None
    smoothness = None
    termination = "max_iters"
    k = 0
    record(0, None)

    while True:
        grad_norm_sq = float(np.sum(grad * grad))
        if not math.isfinite(grad_norm_sq) or not math.isfinite(risk):
            termination = "nonfinite"
            break
        if math.sqrt(grad_norm_sq) <= config.grad_tol:
            termination = "grad_tol"
            break
        if k >= config.max_iters:
            termination = "max_iters"
            break

        if isinstance(policy, FixedStep):
            eta = policy.eta
            W_new = W - eta * grad
            risk_new = obj.risk(W_new)
        elif isinstance(policy, Backtracking):
            eta_start = min(policy.initial_eta, eta_prev / policy.shrink)
            eta, W_new, risk_new = _armijo(
                obj, W, risk, grad, grad_norm_sq, policy, eta_start
            )
            eta_prev = eta
        else:  # InverseSmoothness
            if smoothness is None:
                smoothness = estimate_smoothness(StudentWeights(W), obj)
            eta, W_new, risk_new, smoothness = _inverse_smoothness_step(
                obj, W, risk, grad, grad_norm_sq, policy, smoothness
            )

        if not (np.all(np.isfinite(W_new)) and math.isfinite(risk_new)):
            termination = "nonfinite"
            break
        if not isinstance(policy, FixedStep):
            if risk_new > risk + 1e-12 * max(1.0, abs(risk)):
                raise ContractViolation(
                    f"risk increased from {risk:.6e} to {risk_new:.6e} "
                    "under a descent-guaranteed policy"
                )
        if np.array_equal(W_new, W):
            termination = "stalled"
            break
        W, risk = W_new, risk_new
        grad = obj.gradient(W)
        k += 1
        if k % config.record_every == 0:
            record(k, eta)

    if not records or records[-1].iteration != k:
        record(k, None)
    return Trajectory(
        records=tuple(records),
        final_weights=StudentWeights(W),
        termination=termination,
        iterations=k,
        config=config,
    )


def _armijo(obj, W, risk, grad, grad_norm_sq, policy, eta_start):
    eta = eta_start
    while eta > _STALL_ETA:
        W_new = W - eta * grad
        risk_new = obj.risk(W_new) if np.all(np.isfinite(W_new)) else math.inf
        if math.isfinite(risk_new) and risk_new <= risk - policy.slope * eta * grad_norm_sq:
            return eta, W_new, risk_new
        eta *= policy.shrink
    raise ContractViolation("backtracking line search stalled")


def _inverse_smoothness_step(obj, W, risk, grad, grad_norm_sq, policy, smoothness):
    for attempt in range(2):
        if smoothness > 0:
            eta = 1.0 / (policy.safety * smoothness)
            W_new = W - eta * grad
            risk_new = obj.risk(W_new) if np.all(np.isfinite(W_new)) else math.inf
            if math.isfinite(risk_new) and risk_new <= risk + 1e-12 * max(1.0, abs(risk)):
                return eta, W_new, risk_new, smoothness
        if attempt == 0:
            smoothness = estimate_smoothness(StudentWeights(W), obj)
    # local estimate failed twice; fall back to a guaranteed Armijo step
    eta, W_new, risk_new = _armijo(
        obj, W, risk, grad, grad_norm_sq, Backtracking(), Backtracking().initial_eta
    )
    return eta, W_new, risk_new, smoothness


# --------------------------------------------------------------------------
# endpoint reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarityReport:
    """What an epsilon-stationary endpoint achieves."""

    epsilon: float
    empirical_risk: float | None
    population_risk: float
    gram_gap: float
    gram_gap_source: str  # "recovered" | "direct"
    endpoint_full_rank: bool

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "empirical_risk": self.empirical_risk,
            "population_risk": self.population_risk,
            "gram_gap": self.gram_gap,
            "gram_gap_source": self.gram_gap_source,
            "endpoint_full_rank": self.endpoint_full_rank,
        }


def epsilon_stationarity_report(
    trajectory: Trajectory,
    teacher: TeacherModel,
    dataset: Dataset | None,
    moments: Moments,
) -> StationarityReport:
    """Risk and Gram gap of a gradient-tolerance endpoint.

    When the dataset spans the symmetric matrices the Gram gap is taken
    from residual-based recovery, which never reads the teacher weights;
    otherwise it is the direct Frobenius gap.
    """
    if trajectory.termination != "grad_tol":
        raise InvalidArgument(
            f"endpoint is not epsilon-stationary (termination: {trajectory.termination})"
        )
    W = trajectory.final_weights
    full_rank = W.m >= W.d and is_full_rank(W.weights)
    emp = None
    gap_source = "direct"
    gap = float(np.linalg.norm(gram(W) - gram(teacher)))
    if dataset is not None and dataset.labeled:
        emp = empirical_risk(W, dataset)
        if spans_symmetric(dataset).spans:
            rec = recover_gram_discrepancy(dataset, W, teacher)
            gap = float(np.linalg.norm(rec.m_hat))
            gap_source = "recovered"
    pop = population_risk_of(W, teacher, moments).value
    return StationarityReport(
        epsilon=trajectory.config.grad_tol,
        empirical_risk=emp,
        population_risk=pop,
        gram_gap=gap,
        gram_gap_source=gap_source,
        endpoint_full_rank=bool(full_rank),
    )
