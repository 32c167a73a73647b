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

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _rng
from .data import Dataset
from .errors import ContractViolation, InvalidArgument, NonfiniteValue, QuadlandError
from .landscape import energy_barrier, sublevel_norm_bound
from .model import (
    Moments,
    StudentWeights,
    TeacherModel,
    _gram_matrix,
    gram,
    moments_of,
    parse_distribution,
    truncated_moments,
)
from .risk import (
    _raw_empirical_gradient,
    _raw_population_gradient,
    _residuals,
    population_risk,
)

logger = logging.getLogger(__name__)

SMOOTHNESS_SUBSTREAM = 2

# Power iteration in estimate_smoothness stops after this many rounds, or
# once two successive norm estimates agree to this relative tolerance.
_SMOOTHNESS_ROUNDS = 30
_SMOOTHNESS_RTOL = 1e-3

# Armijo starts a run at step _INITIAL_ETA, shrinks a rejected step by
# _SHRINK, accepts once the risk drops by _SLOPE * eta * |grad|^2, and is
# exhausted below _STALL_ETA. InverseSmoothness steps by 1/(_SAFETY * L_hat).
_INITIAL_ETA = 1.0
_SHRINK = 0.5
_SLOPE = 1e-4
_STALL_ETA = 1e-30
_SAFETY = 4.0


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
    """Step 1/(4 L_hat), L_hat the estimated Hessian norm: below 1/(2L), with
    margin for the estimate being local rather than a sublevel supremum."""


@dataclass(frozen=True)
class Backtracking:
    """Armijo line search: accept eta once risk drops by 1e-4 eta |grad|^2."""


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
    """Closures over raw weight matrices, which they do not validate.

    evaluate(W) gives the risk and a state, the residuals (empirical) or
    W^T W (population); the gradient W S(state) and the exact Hessian
    product hvp(W, state, V) = V S(state) + W dS[W^T V + V^T W] reuse it.
    """

    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hvp: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


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
        design, y, n = dataset.design, dataset.labels, dataset.n

        def evaluate(W):
            r = _residuals(W, design, y)
            return float(r @ r) / n, r

        return Objective(
            evaluate=evaluate,
            gradient=lambda W, r: _raw_empirical_gradient(W, design, r),
            hvp=lambda W, r, V: _raw_empirical_gradient(V, design, r)
            + _raw_empirical_gradient(W, design, design.forms(W.T @ V + V.T @ W)),
        )
    if isinstance(data_or_moments, Moments):
        moments = data_or_moments
        Gs, zero = gram(teacher), np.zeros((teacher.d, teacher.d))

        def evaluate(W):
            G = _gram_matrix(W)
            return population_risk(Gs - G, moments).value, G

        return Objective(
            evaluate=evaluate,
            gradient=lambda W, G: _raw_population_gradient(W, G, Gs, moments),
            hvp=lambda W, G, V: _raw_population_gradient(V, G, Gs, moments)
            + _raw_population_gradient(W, W.T @ V + V.T @ W, zero, moments),
        )
    raise InvalidArgument("expected a Dataset or Moments")


def estimate_smoothness(student: StudentWeights, objective: Objective, seed: int = 0) -> float:
    """Hessian spectral norm at W by power iteration on exact Hessian-vector products."""
    W = student.weights
    _, state = objective.evaluate(W)
    gen = _rng.stream(seed, SMOOTHNESS_SUBSTREAM)
    v = _rng.standard_normal(gen, W.shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_SMOOTHNESS_ROUNDS):
        u = objective.hvp(W, state, v)
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


@np.errstate(over="ignore", invalid="ignore")
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
    finite values end the run as "nonfinite", without overflow warnings; a
    gradient at the rounding floor of the risk ends it as "stalled" (the line
    search finds no step, or the step leaves W bitwise unchanged), and a run
    that stalls before its first step logs a warning.

    Both gradients act row by row (each is W S for a d x d matrix S), so a
    row of the initial student that is zero gets a zero gradient row and
    stays exactly 0.0. The loop therefore runs on the r nonzero rows alone:
    an evaluation costs O(N d(d+1)/2 + r d^2) empirically and O(r d^2) for
    the population, and r = d for the identity init whatever m is. The
    m x d matrix is rebuilt, in one buffer, only where its layout shows:
    the records, the smoothness probe, the gradient norm (a BLAS dot product
    rounds by where its entries sit) and the final weights.
    """
    obj = build_objective(teacher, data_or_moments)
    barrier, base_moments = _barrier_context(teacher, data_or_moments)
    if initial.d != teacher.d:
        raise InvalidArgument("initial weights do not match the teacher dimension")

    rows = np.flatnonzero(initial.weights.any(axis=1))
    wide = np.zeros_like(initial.weights)

    def widen(block: np.ndarray) -> np.ndarray:
        wide[rows] = block
        return wide

    W = initial.weights[rows]
    risk, state = obj.evaluate(W)
    grad = obj.gradient(W, state)
    norm_cap = (
        sublevel_norm_bound(risk, teacher, base_moments)
        if base_moments is not None
        else None
    )

    records: list[TrajectoryRecord] = []

    def record(k: int, eta: float | None) -> None:
        W_wide = widen(W)
        frob = float(np.linalg.norm(W_wide))
        sigma_min = float(np.linalg.svd(W_wide, compute_uv=False)[-1])
        records.append(
            TrajectoryRecord(
                iteration=k,
                risk=risk,
                grad_norm=float(np.linalg.norm(widen(grad))),
                sigma_min=sigma_min,
                frob_norm=frob,
                below_barrier=None if barrier is None else bool(risk < barrier),
                norm_bound_ok=None if norm_cap is None else bool(frob <= norm_cap + 1e-9),
                step_size=eta,
            )
        )

    policy = config.step_policy
    eta_prev = _INITIAL_ETA
    smoothness = None
    termination = "max_iters"
    k = 0
    record(0, None)

    while True:
        grad_wide = widen(grad)
        grad_norm_sq = float(np.vdot(grad_wide, grad_wide))
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
            step = _try_step(obj, W, grad, policy.eta)
        elif isinstance(policy, Backtracking):
            eta_start = min(_INITIAL_ETA, eta_prev / _SHRINK)
            step = _armijo(obj, W, risk, grad, grad_norm_sq, eta_start)
        else:  # InverseSmoothness
            step, smoothness = _smoothness_step(
                obj, W, risk, grad, grad_norm_sq, smoothness, widen
            )
        # no acceptable step, or one that leaves W bitwise unchanged: the
        # gradient is at the rounding floor of the risk
        if step is None or (step[1] == W).all():
            termination = "stalled"
            break
        eta, W_new, risk_new, state_new = step
        eta_prev = eta

        if not math.isfinite(risk_new):  # also when W_new overflowed
            termination = "nonfinite"
            break
        if not isinstance(policy, FixedStep):
            if risk_new > risk + 1e-12 * max(1.0, abs(risk)):
                raise ContractViolation(
                    f"risk increased from {risk:.6e} to {risk_new:.6e} "
                    "under a descent-guaranteed policy"
                )
        W, risk = W_new, risk_new
        grad = obj.gradient(W, state_new)
        k += 1
        if k % config.record_every == 0:
            record(k, eta)

    if termination == "stalled" and k == 0:
        logger.warning(
            "descent stalled at iteration 0: no step lowers the initial risk %.6g", risk
        )
    if not records or records[-1].iteration != k:
        record(k, None)
    return Trajectory(
        records=tuple(records),
        final_weights=StudentWeights(widen(W)),
        termination=termination,
        iterations=k,
        config=config,
    )


def _try_step(obj, W, grad, eta):
    """(eta, W - eta grad, risk, state); the risk is inf if the point overflows."""
    W_new = W - eta * grad
    if not np.isfinite(W_new).all():
        return eta, W_new, math.inf, None
    return (eta, W_new, *obj.evaluate(W_new))


def _armijo(obj, W, risk, grad, grad_norm_sq, eta):
    """The first step eta * _SHRINK^k passing Armijo's test; None below _STALL_ETA."""
    while eta > _STALL_ETA:
        step = _try_step(obj, W, grad, eta)
        if math.isfinite(step[2]) and step[2] <= risk - _SLOPE * eta * grad_norm_sq:
            return step
        eta *= _SHRINK
    return None


def _smoothness_step(obj, W, risk, grad, grad_norm_sq, smoothness, widen):
    """Step 1/(_SAFETY L_hat), with L_hat estimated at the m x d point
    widen(W): the Hessian acts on the zero rows too."""
    for attempt in range(2):
        if smoothness is None or attempt == 1:
            smoothness = estimate_smoothness(StudentWeights(widen(W)), obj)
        if smoothness > 0:
            step = _try_step(obj, W, grad, 1.0 / (_SAFETY * smoothness))
            if math.isfinite(step[2]) and step[2] <= risk + 1e-12 * max(1.0, abs(risk)):
                return step, smoothness
    # local estimate failed twice; fall back to a guaranteed Armijo step
    return _armijo(obj, W, risk, grad, grad_norm_sq, _INITIAL_ETA), smoothness
