"""Empirical and population risks with exact gradients.

The residual against a planted teacher is the quadratic form X^T A X with
A = (W*)^T W* - W^T W, and the population
risk has the closed form

    L(W) = mu2^2 tr(A)^2 + 2 mu2^2 tr(A^2) + (mu4 - 3 mu2^2) sum_k A_kk^2,

which for standard normal coordinates collapses to tr(A)^2 + 2 tr(A^2).
The diagonal-only third term is sandwiched by the bounds

    mu2^2 tr(A)^2 + c tr(A^2),   c in {min, max}{mu4 - mu2^2, 2 mu2^2}.

A student's outputs are X_i^T (W^T W) X_i = <Xi_i, G[upper]> with Xi_i the
tensorized sample (pair columns doubled) and G[upper] the d(d+1)/2 upper
coordinates of G = W^T W. The empirical residuals are one product with the
dataset's design, built once and cached on it (Dataset.design, a
model.TensorizedDesign), and the gradient is W S with
S = (4/N) sum r_i X_i X_i^T scattered back from Xi^T r. A call costs
O(N d(d+1)/2 + m d^2), never the N x m matrix of neuron pre-activations.

Both gradients act row by row (the population one is W times a d x d
matrix too), so a zero row of W has a zero gradient row. Descent uses
this to run on the r nonzero rows of its initial student alone, where an
evaluation costs O(N d(d+1)/2 + r d^2), and r = d for the identity init.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ContractViolation, InvalidArgument
from .model import (
    Discrepancy,
    Moments,
    StudentWeights,
    TeacherModel,
    TensorizedDesign,
    _gram_matrix,
    discrepancy,
    gram,
)


@dataclass(frozen=True)
class RiskReport:
    """Risk value with optional sandwich bounds: floats for one discrepancy,
    arrays over the leading shape of a stack of them."""

    value: float | np.ndarray
    lower_bound: float | np.ndarray | None = None
    upper_bound: float | np.ndarray | None = None

    def __post_init__(self):
        if self.lower_bound is not None and self.upper_bound is not None:
            _check_sandwich(self.value, self.lower_bound, self.upper_bound)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "lower": self.lower_bound,
            "upper": self.upper_bound,
        }


def _check_sandwich(value, lower, upper, first_trial: int = 0) -> None:
    """Raise ContractViolation unless lower <= value <= upper, to 1e-9
    relative, wherever the value is finite (an overflowed value is reported
    as is). For one float the comparison stays in Python floats; over a
    stack it is vectorized, and the message names the first violating trial
    of a flat stack, counted from first_trial."""
    if not isinstance(value, np.ndarray):
        if not math.isfinite(value):
            return
        slack = 1e-9 * max(1.0, abs(value))
        if not (lower - slack <= value <= upper + slack):
            raise ContractViolation(f"bounds violated: {lower} <= {value} <= {upper}")
        return
    slack = 1e-9 * np.maximum(1.0, np.abs(value))
    outside = ~((lower - slack <= value) & (value <= upper + slack)) & np.isfinite(value)
    if outside.any():
        i = int(np.argmax(outside.reshape(-1)))
        lo, v, hi = (float(np.reshape(x, -1)[i]) for x in (lower, value, upper))
        raise ContractViolation(
            f"bounds violated at trial {first_trial + i}: {lo} <= {v} <= {hi}"
        )


def _require_labeled(dataset: Dataset) -> None:
    if not dataset.labeled:
        raise InvalidArgument("dataset has no labels; run label_dataset first")


def _check_empirical(student: StudentWeights, dataset: Dataset) -> None:
    _require_labeled(dataset)
    if student.d != dataset.d:
        raise InvalidArgument(f"dimension mismatch: student d={student.d}, data d={dataset.d}")


def _residuals(W: np.ndarray, design: TensorizedDesign, y: np.ndarray) -> np.ndarray:
    """r_i = X_i^T (W^T W) X_i - y_i, one product with the tensorized design."""
    return design.gram_forms(W) - y


def _raw_empirical_gradient(W: np.ndarray, design: TensorizedDesign, r: np.ndarray) -> np.ndarray:
    """W S with S = (4/N) sum r_i X_i X_i^T linear in r, on raw arrays, unvalidated."""
    return W @ (design.moment(r) * (4.0 / r.shape[0]))


def empirical_risk(student: StudentWeights, dataset: Dataset) -> float:
    """Mean squared residual (1/N) sum (Y_i - ||W X_i||^2)^2."""
    _check_empirical(student, dataset)
    r = _residuals(student.weights, dataset.design, dataset.labels)
    return float(r @ r) / dataset.n


def empirical_gradient(student: StudentWeights, dataset: Dataset) -> np.ndarray:
    """Exact gradient W S with S = (4/N) sum r_i X_i X_i^T, r_i the residuals."""
    _check_empirical(student, dataset)
    W, design = student.weights, dataset.design
    return _raw_empirical_gradient(W, design, _residuals(W, design, dataset.labels))


def _population_terms(A: np.ndarray, moments: Moments):
    """Closed-form risk, lower and upper bound of each symmetric A in a stack
    (..., d, d), as arrays over its leading shape (numpy scalars for one
    matrix).

    Every reduction runs over one matrix at a time in the order numpy takes
    for a lone matrix, so an entry of a stack equals, bit for bit, the value
    of its matrix alone.
    """
    tr = A.trace(axis1=-2, axis2=-1)
    tr_sq = (A * A).sum(axis=(-2, -1))  # tr(A^2) for symmetric A
    diag_sq = (A.diagonal(axis1=-2, axis2=-1) ** 2).sum(axis=-1)  # tr(A o A)
    mu2, mu4 = moments.mu2, moments.mu4
    value = mu2 * mu2 * tr * tr + 2.0 * mu2 * mu2 * tr_sq + (mu4 - 3.0 * mu2 * mu2) * diag_sq
    lower = mu2 * mu2 * tr * tr + moments.c_lower * tr_sq
    upper = mu2 * mu2 * tr * tr + moments.c_upper * tr_sq
    return value, lower, upper


def population_risk(disc: Discrepancy | np.ndarray, moments: Moments) -> RiskReport:
    """Closed-form E[(X^T A X)^2] with lower and upper sandwich bounds, for
    one discrepancy A (float fields) or a stack (..., d, d) of them (array
    fields over the leading shape, each entry equal to its matrix's alone)."""
    if not isinstance(disc, Discrepancy):
        disc = Discrepancy(disc)
    value, lower, upper = _population_terms(disc.matrix, moments)
    if disc.matrix.ndim == 2:
        value, lower, upper = float(value), float(lower), float(upper)
    return RiskReport(value=value, lower_bound=lower, upper_bound=upper)


def population_risk_of(
    student: StudentWeights, teacher: TeacherModel, moments: Moments
) -> RiskReport:
    """Population risk of a student against a planted teacher."""
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
    if teacher.d != student.d:
        raise InvalidArgument(f"dimension mismatch: teacher d={teacher.d}, student d={student.d}")
    W = student.weights
    return _raw_population_gradient(W, _gram_matrix(W), gram(teacher), moments)
