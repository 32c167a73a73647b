"""Empirical and population risks with exact gradients.

For the pure square activation the residual against a planted teacher is
the quadratic form X^T A X with A = (W*)^T W* - W^T W, and the population
risk has the closed form

    L(W) = mu2^2 tr(A)^2 + 2 mu2^2 tr(A^2) + (mu4 - 3 mu2^2) sum_k A_kk^2,

which for standard normal coordinates collapses to tr(A)^2 + 2 tr(A^2).
The diagonal-only third term is sandwiched by the bounds

    mu2^2 tr(A)^2 + c tr(A^2),   c in {min, max}{mu4 - mu2^2, 2 mu2^2}.

A student's outputs are X_i^T (W^T W) X_i, so the empirical risk and
gradient are evaluated in Gram space at O(N d^2 + m d^2) per call, never
through the N x m matrix of neuron pre-activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ContractViolation, InvalidArgument
from .model import (
    Discrepancy,
    Moments,
    StudentWeights,
    TeacherModel,
    _DEFAULT_ACTIVATION,
    _gram_matrix,
    discrepancy,
    gram,
    quadform,
)


@dataclass(frozen=True)
class RiskReport:
    """Risk value with optional sandwich bounds."""

    value: float
    lower_bound: float | None = None
    upper_bound: float | None = None

    def __post_init__(self):
        bounded = self.lower_bound is not None and self.upper_bound is not None
        if bounded and np.isfinite(self.value):  # an overflowed value is reported as is
            slack = 1e-9 * max(1.0, abs(self.value))
            if not (self.lower_bound - slack <= self.value <= self.upper_bound + slack):
                raise ContractViolation(
                    f"bounds violated: {self.lower_bound} <= {self.value} <= {self.upper_bound}"
                )

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "lower": self.lower_bound,
            "upper": self.upper_bound,
        }


def _require_labeled(dataset: Dataset) -> None:
    if not dataset.labeled:
        raise InvalidArgument("dataset has no labels; run label_dataset first")


def _check_empirical(student: StudentWeights, dataset: Dataset) -> None:
    _require_labeled(dataset)
    if student.d != dataset.d:
        raise InvalidArgument(f"dimension mismatch: student d={student.d}, data d={dataset.d}")


def _residuals(W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """r_i = X_i^T (W^T W) X_i - y_i, with no N x m temporary."""
    return quadform(X, _gram_matrix(W)) - y


def _raw_empirical_gradient(W: np.ndarray, X: np.ndarray, r: np.ndarray) -> np.ndarray:
    """W S with S = (4/N) sum r_i X_i X_i^T linear in r, on raw arrays, unvalidated."""
    S = (4.0 / X.shape[0]) * (X * r[:, None]).T @ X
    return W @ (0.5 * (S + S.T))


def empirical_risk(student: StudentWeights, dataset: Dataset) -> float:
    """Mean squared residual (1/N) sum (Y_i - ||W X_i||^2)^2."""
    _check_empirical(student, dataset)
    r = _residuals(student.weights, dataset.inputs, dataset.labels)
    return float(np.mean(r * r))


def empirical_gradient(student: StudentWeights, dataset: Dataset) -> np.ndarray:
    """Exact gradient W S with S = (4/N) sum r_i X_i X_i^T, r_i the residuals."""
    _check_empirical(student, dataset)
    W, X = student.weights, dataset.inputs
    return _raw_empirical_gradient(W, X, _residuals(W, X, dataset.labels))


def population_risk(disc: Discrepancy | np.ndarray, moments: Moments) -> RiskReport:
    """Closed-form E[(X^T A X)^2] with lower and upper sandwich bounds."""
    if not isinstance(disc, Discrepancy):
        disc = Discrepancy(disc)
    A = disc.matrix
    tr = float(np.trace(A))
    tr_sq = float(np.sum(A * A))            # tr(A^2) for symmetric A
    diag_sq = float(np.sum(np.diag(A) ** 2))  # tr(A o A), the Hadamard square
    mu2, mu4 = moments.mu2, moments.mu4
    value = mu2 * mu2 * tr * tr + 2.0 * mu2 * mu2 * tr_sq + (mu4 - 3.0 * mu2 * mu2) * diag_sq
    lower = mu2 * mu2 * tr * tr + moments.c_lower * tr_sq
    upper = mu2 * mu2 * tr * tr + moments.c_upper * tr_sq
    return RiskReport(value=value, lower_bound=lower, upper_bound=upper)


def _require_square_activation(teacher: TeacherModel) -> None:
    if teacher.activation != _DEFAULT_ACTIVATION:
        raise InvalidArgument(
            "population formulas assume the pure square activation; "
            "rescale weights to absorb alpha first"
        )


def population_risk_of(
    student: StudentWeights, teacher: TeacherModel, moments: Moments
) -> RiskReport:
    """Population risk of a student against a planted teacher."""
    _require_square_activation(teacher)
    return population_risk(discrepancy(teacher, student), moments)


def _raw_population_gradient(
    W: np.ndarray, G: np.ndarray, Gs: np.ndarray, moments: Moments
) -> np.ndarray:
    """W S with S linear in the student and teacher Grams G, Gs, unvalidated."""
    mu2, mu4 = moments.mu2, moments.mu4
    diag_diff = np.diag(G) - np.diag(Gs)
    term_diag = (mu4 - 3.0 * mu2 * mu2) * (W * diag_diff[None, :])
    term_trace = mu2 * mu2 * (float(np.trace(G)) - float(np.trace(Gs))) * W
    term_gram = 2.0 * mu2 * mu2 * (W @ (G - Gs))
    return 4.0 * (term_diag + term_trace + term_gram)


def population_gradient(
    student: StudentWeights, teacher: TeacherModel, moments: Moments
) -> np.ndarray:
    """Gradient of the closed-form population risk in the student weights.

    Differentiating L through A = G* - G gives

        grad L(W) = 4 [ (mu4 - 3 mu2^2) W (D - D*)
                        + mu2^2 (tr G - tr G*) W
                        + 2 mu2^2 W (G - G*) ]

    with G = W^T W, G* the teacher Gram, D/D* their diagonal parts.
    """
    _require_square_activation(teacher)
    if teacher.d != student.d:
        raise InvalidArgument(f"dimension mismatch: teacher d={teacher.d}, student d={student.d}")
    W = student.weights
    return _raw_population_gradient(W, _gram_matrix(W), gram(teacher), moments)
