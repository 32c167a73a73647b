"""Tensorized sample geometry.

Each sample X contributes the rank-one symmetric matrix X X^T. Flattening
symmetric matrices to length D = d(d+1)/2 vectors turns questions about
span{X_i X_i^T} into the rank of the tensorized design Xi (N x D), and
turns residuals of interpolating students into a linear system whose
solution is the Gram discrepancy W^T W - (W*)^T W*.

Vector conventions: row i of Xi is (X_i(1)^2, ..., X_i(d)^2, X_i(k) X_i(l)
for k < l lexicographic); a symmetric M is encoded as (M_11, ..., M_dd,
2 M_kl for k < l) so that <row_i, enc(M)> = X_i^T M X_i exactly. Both are
model._tensorize and model._sym_encode, which the empirical risk shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, label_dataset
from .errors import ContractViolation, InvalidArgument
from .landscape import _require_full_rank_teacher, embed_gram
from .model import (
    RANK_RTOL,
    Moments,
    StudentWeights,
    TeacherModel,
    _sym_coordinates,
    _sym_decode,
    _sym_encode,
    _tensorize,
    absorb_output_weights,
    gram,
    quadform,
)
from .risk import population_risk

# First eight primes; the construction guard keeps d within this table.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

EQUILIBRATION_PASSES = 5


def critical_sample_count(d: int) -> int:
    """Dimension of the symmetric matrices, N* = d(d+1)/2."""
    if d < 1:
        raise InvalidArgument("need d >= 1")
    return d * (d + 1) // 2


@dataclass(frozen=True)
class TensorizedDesign:
    """The N x d(d+1)/2 matrix of tensorized samples."""

    xi: np.ndarray
    d: int

    def __post_init__(self):
        xi = np.atleast_2d(np.asarray(self.xi, dtype=float)).copy()
        if xi.shape[1] != critical_sample_count(self.d):
            raise InvalidArgument("tensorized width must be d(d+1)/2")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    @property
    def dimension(self) -> int:
        return self.xi.shape[1]


def tensorize(dataset: Dataset | np.ndarray) -> TensorizedDesign:
    """Tensorized design of a dataset (or raw N x d input matrix)."""
    if isinstance(dataset, Dataset):
        X = dataset.inputs
    else:
        X = np.atleast_2d(np.asarray(dataset, dtype=float))
    return TensorizedDesign(xi=_tensorize(X), d=X.shape[1])


def sym_vector(M: np.ndarray) -> np.ndarray:
    """Encode symmetric M as (M_11..M_dd, 2 M_kl for k < l); the factor 2
    compensates the single appearance of x_k x_l in the tensorized row."""
    return _sym_encode(np.atleast_2d(np.asarray(M, dtype=float)))


def sym_matrix(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of sym_vector."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != critical_sample_count(d):
        raise InvalidArgument("vector length must be d(d+1)/2")
    return _sym_decode(v, d)


def _equilibrate(xi: np.ndarray, passes: int = EQUILIBRATION_PASSES) -> np.ndarray:
    """Iterated row and column normalization. Scaling by positive diagonals
    never changes the rank but collapses the enormous dynamic range of
    power-law designs, without which float64 SVD cannot see full rank."""
    E = xi.astype(float, copy=True)
    for _ in range(passes):
        rn = np.linalg.norm(E, axis=1, keepdims=True)
        E /= np.where(rn > 0, rn, 1.0)
        cn = np.linalg.norm(E, axis=0, keepdims=True)
        E /= np.where(cn > 0, cn, 1.0)
    return E


@dataclass(frozen=True)
class SpanReport:
    """Numerical rank of the tensorized design and the span verdict."""

    rank: int
    spans: bool
    dimension: int
    n: int
    threshold: float
    sigma_min: float
    sigma_max: float

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "spans": self.spans,
            "dimension": self.dimension,
            "n": self.n,
            "threshold": self.threshold,
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
        }


def spans_symmetric(dataset: Dataset | np.ndarray) -> SpanReport:
    """Whether span{X_i X_i^T} is all of the symmetric matrices.

    Equivalent to rank(Xi) = d(d+1)/2. The rank is computed on the
    equilibrated design with threshold 1e-10 * sigma_max * max(N, D).
    """
    design = tensorize(dataset)
    E = _equilibrate(design.xi)
    s = np.linalg.svd(E, compute_uv=False)
    sigma_max = float(s[0]) if s.size else 0.0
    threshold = RANK_RTOL * sigma_max * max(design.n, design.dimension)
    rank = int(np.count_nonzero(s > threshold))
    return SpanReport(
        rank=rank,
        spans=rank == design.dimension,
        dimension=design.dimension,
        n=design.n,
        threshold=threshold,
        sigma_min=float(s[-1]) if s.size else 0.0,
        sigma_max=sigma_max,
    )


# --------------------------------------------------------------------------
# deterministic full-span data from prime powers
# --------------------------------------------------------------------------


def prime_vandermonde_data(d: int, n: int) -> Dataset:
    """Deterministic samples X_t = (p_1^(t-1), ..., p_d^(t-1)) over distinct
    primes. Tensorized rows are then powers of the pairwise-distinct node
    set {p_k^2} union {p_k p_l}, a Vandermonde structure of full rank.
    """
    if n < 1:
        raise InvalidArgument("need n >= 1")
    if not 1 <= d <= len(PRIMES):
        raise InvalidArgument(
            f"prime construction supports 1 <= d <= {len(PRIMES)}; larger d "
            "overflows exact integer products, draw random data instead"
        )
    rows = [[PRIMES[k] ** t for k in range(d)] for t in range(n)]
    inputs = np.array(rows, dtype=float)
    return Dataset(inputs=inputs, labels=None, distribution_tag="prime_vandermonde", seed=0)


@dataclass(frozen=True)
class PrimeCertificate:
    """Symbolic full-span certificate for the prime power construction.

    Each tensorized node is recorded as its prime exponent vector
    (2 e_k for diagonal entries, e_k + e_l off the diagonal). Unique
    factorization makes the nodes distinct exactly when these vectors
    are, and distinct nodes force a nonzero Vandermonde determinant.
    """

    d: int
    exponent_vectors: tuple[tuple[int, ...], ...]
    distinct: bool

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "node_count": len(self.exponent_vectors),
            "distinct": self.distinct,
        }


def prime_vandermonde_certificate(d: int) -> PrimeCertificate:
    if not 1 <= d <= len(PRIMES):
        raise InvalidArgument(f"prime construction supports 1 <= d <= {len(PRIMES)}")
    vectors = []
    for k in range(d):
        e = [0] * d
        e[k] = 2
        vectors.append(tuple(e))
    rows, cols = _sym_coordinates(d)
    for k, l in zip(rows[d:], cols[d:]):
        e = [0] * d
        e[k] = e[l] = 1
        vectors.append(tuple(e))
    distinct = len(set(vectors)) == len(vectors)
    return PrimeCertificate(d=d, exponent_vectors=tuple(vectors), distinct=distinct)


# --------------------------------------------------------------------------
# below-threshold adversarial interpolator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NullInterpolatorResult:
    """Interpolating student far from the teacher, with its certificate."""

    student: StudentWeights
    delta: float
    direction: np.ndarray
    certificate: dict


def null_interpolator(
    teacher: TeacherModel,
    dataset: Dataset | None,
    target_rows: int,
    moments: Moments | None = None,
) -> NullInterpolatorResult:
    """Student interpolating every sample yet staying above the barrier.

    Finds a unit-spectral-norm symmetric M orthogonal to every X_i X_i^T
    (least right singular direction of the tensorized design), and factors
    (W*)^T W* + delta M with delta = sigma_min(W*)^2. Weyl's
    inequality keeps that matrix PSD. Residuals vanish on the sample while
    the population risk stays at least c_lower * sigma_min^4.
    """
    delta = _require_full_rank_teacher(teacher) ** 2
    absorbed = absorb_output_weights(teacher)
    g_star = gram(absorbed)
    d = teacher.d
    D = critical_sample_count(d)
    if dataset is None:
        direction = np.zeros((d, d))
        direction[0, 0] = 1.0
    else:
        if dataset.d != d:
            raise InvalidArgument("dataset dimension does not match the teacher")
        report = spans_symmetric(dataset)
        if report.spans:
            raise InvalidArgument(
                "dataset spans the symmetric matrices; no null direction exists"
            )
        design = tensorize(dataset)
        rn = np.linalg.norm(design.xi, axis=1, keepdims=True)
        rows = design.xi / np.where(rn > 0, rn, 1.0)
        _, _, vh = np.linalg.svd(rows, full_matrices=True)
        direction = sym_matrix(vh[-1], d)
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(direction))))
    direction = direction / spectral
    student = embed_gram(g_star + delta * direction, target_rows)

    certificate: dict = {
        "delta": delta,
        "direction_spectral_norm": float(np.max(np.abs(np.linalg.eigvalsh(direction)))),
    }
    if dataset is not None:
        constraint = quadform(dataset.inputs, direction)
        certificate["max_constraint_violation"] = float(np.max(np.abs(constraint)))
        labels = quadform(dataset.inputs, g_star)
        residual = quadform(dataset.inputs, gram(student)) - labels
        emp = float(np.mean(residual ** 2))
        certificate["empirical_risk"] = emp
        scale = 1.0 + float(np.mean(labels ** 2))
        if emp > 1e-10 * scale:
            raise ContractViolation(
                f"interpolator has empirical risk {emp:.3e} above 1e-10 * scale"
            )
    if moments is not None:
        value = population_risk(-delta * direction, moments).value
        lower = moments.c_lower * delta ** 2
        certificate["population_risk"] = value
        certificate["population_lower"] = lower
        if value < lower - 1e-9:
            raise ContractViolation(
                f"interpolator population risk {value:.6e} below barrier {lower:.6e}"
            )
    return NullInterpolatorResult(
        student=student, delta=float(delta), direction=direction, certificate=certificate
    )


# --------------------------------------------------------------------------
# Gram recovery from residuals
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryResult:
    """Least-squares estimate of W^T W - (W*)^T W* from residuals."""

    m_hat: np.ndarray
    residual_norm: float


def recover_gram_discrepancy(
    dataset: Dataset, student: StudentWeights, teacher: TeacherModel
) -> RecoveryResult:
    """Solve Xi enc(M) = residuals for the symmetric M = W^T W - (W*)^T W*.

    Requires the dataset to span the symmetric matrices; the solve is the
    least-squares version of the normal equations (Xi^T Xi)^(-1) Xi^T v.
    """
    if dataset.d != student.d or dataset.d != teacher.d:
        raise InvalidArgument("dimension mismatch between dataset, student, teacher")
    report = spans_symmetric(dataset)
    if not report.spans:
        raise InvalidArgument(
            f"tensorized design has rank {report.rank} < {report.dimension}; "
            "recovery is ill-posed"
        )
    labels = (dataset if dataset.labeled else label_dataset(dataset, teacher)).labels
    v = quadform(dataset.inputs, gram(student)) - labels
    design = tensorize(dataset)
    sol, _, _, _ = np.linalg.lstsq(design.xi, v, rcond=None)
    m_hat = sym_matrix(sol, dataset.d)
    residual = float(np.linalg.norm(design.xi @ sol - v))
    return RecoveryResult(m_hat=m_hat, residual_norm=residual)


@dataclass(frozen=True)
class CovarianceReport:
    """Second-moment matrix (1/N) Xi^T Xi of the tensorized samples."""

    sigma_hat: np.ndarray
    min_eig: float
    max_eig: float

    def to_json(self) -> dict:
        return {"min_eig": self.min_eig, "max_eig": self.max_eig}


def tensorized_covariance(dataset: Dataset | np.ndarray) -> CovarianceReport:
    design = tensorize(dataset)
    sigma = design.xi.T @ design.xi / design.n
    sigma = 0.5 * (sigma + sigma.T)
    eigs = np.linalg.eigvalsh(sigma)
    return CovarianceReport(
        sigma_hat=sigma, min_eig=float(eigs[0]), max_eig=float(eigs[-1])
    )
