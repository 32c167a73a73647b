"""Tensorized sample geometry.

Each sample X contributes the rank-one symmetric matrix X X^T. Flattening
symmetric matrices to length D = d(d+1)/2 vectors turns questions about
span{X_i X_i^T} into the rank of the tensorized design Xi (N x D), and
turns residuals of interpolating students into a linear system whose
solution is the Gram discrepancy W^T W - (W*)^T W*.

Vector conventions: row i of Xi is (X_i(1)^2, ..., X_i(d)^2, X_i(k) X_i(l)
for k < l lexicographic); a symmetric M is encoded as (M_11, ..., M_dd,
2 M_kl for k < l) so that <row_i, enc(M)> = X_i^T M X_i exactly. Xi is the
model.TensorizedDesign that Dataset.design builds once per dataset and the
empirical risk shares; every routine here reads it and its cached span
singular values instead of tensorizing again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, label_dataset, sample_dataset
from .errors import ContractViolation, InvalidArgument
from .landscape import _require_full_rank_teacher, embed_gram
from .model import (
    RANK_RTOL,
    Distribution,
    Moments,
    StudentWeights,
    TeacherModel,
    TensorizedDesign,
    _chunks,
    _equilibrate,
    _sym_coordinates,
    _sym_decode,
    _sym_encode,
    _tensorized,
    gram,
)
from .risk import population_risk

# First eight primes; the construction guard keeps d within this table.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

# The Mersenne prime 2^61 - 1: the prime design's rank is taken modulo it.
SPAN_MODULUS = 2 ** 61 - 1


def critical_sample_count(d: int) -> int:
    """Dimension of the symmetric matrices, N* = d(d+1)/2."""
    if d < 1:
        raise InvalidArgument("need d >= 1")
    return d * (d + 1) // 2


def tensorize(dataset: Dataset | np.ndarray) -> TensorizedDesign:
    """Tensorized design of a dataset (its cached design) or of a raw N x d
    input matrix (built afresh)."""
    return dataset.design if isinstance(dataset, Dataset) else TensorizedDesign(dataset)


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


@dataclass(frozen=True)
class SpanReport:
    """Rank of the tensorized design and the span verdict.

    An exact rank (prime_vandermonde_span) has no threshold or singular
    values; they are None there.
    """

    rank: int
    spans: bool
    dimension: int
    n: int
    threshold: float | None
    sigma_min: float | None
    sigma_max: float | None

    def to_json(self) -> dict:
        return asdict(self)


def _span_rank(s: np.ndarray, n: int, dimension: int):
    """The span test's rank rule: rank and threshold of N x D designs from
    the descending singular values of their equilibrated forms, over the
    last axis of s. The rank counts the values above
    1e-10 * sigma_max * max(N, D), with sigma_max = 0 for an empty design."""
    threshold = RANK_RTOL * np.max(s, axis=-1, initial=0.0) * max(n, dimension)
    return np.count_nonzero(s > threshold[..., None], axis=-1), threshold


def spans_symmetric(dataset: Dataset | np.ndarray) -> SpanReport:
    """Whether span{X_i X_i^T} is all of the symmetric matrices.

    Equivalent to rank(Xi) = d(d+1)/2. The rank is computed on the
    equilibrated design by _span_rank, from the singular values the design
    caches, so a dataset pays one SVD.
    """
    design = tensorize(dataset)
    s = design.span_singular_values
    rank, threshold = _span_rank(s, design.n, design.dimension)
    return SpanReport(
        rank=int(rank),
        spans=bool(rank == design.dimension),
        dimension=design.dimension,
        n=design.n,
        threshold=float(threshold),
        sigma_min=float(s[-1]) if s.size else 0.0,
        sigma_max=float(s[0]) if s.size else 0.0,
    )


def span_sweep(
    distribution: Distribution, d: int, counts: list[int], trials: int, seed: int
) -> np.ndarray:
    """Span ranks of random designs: entry [t, j] is
    spans_symmetric(sample_dataset(distribution, counts[j], d, seed + t)).rank,
    bit for bit, for every trial t < trials.

    The trials run in chunks (model._chunks keeps each stacked design
    within 120 KiB). Each trial draws its max(counts) rows once: the n-row
    dataset is their first n rows, since sample_dataset draws rows in order.
    For each count, a chunk's inputs are stacked, tensorized and
    equilibrated together and take one batched SVD; the rank rule is
    spans_symmetric's.
    """
    if trials < 1:
        raise InvalidArgument("need at least one trial")
    dimension = critical_sample_count(d)
    ranks = np.empty((trials, len(counts)), dtype=np.intp)
    for chunk in _chunks(trials, max(counts) * dimension):
        rows = np.array(
            [sample_dataset(distribution, max(counts), d, seed + t).inputs for t in chunk]
        )
        for j, n in enumerate(counts):
            s = np.linalg.svd(_equilibrate(_tensorized(rows[:, :n])), compute_uv=False)
            ranks[chunk.start:chunk.stop, j] = _span_rank(s, n, dimension)[0]
    return ranks


# --------------------------------------------------------------------------
# deterministic full-span data from prime powers
# --------------------------------------------------------------------------


def _check_prime_design(d: int, n: int) -> None:
    if n < 1:
        raise InvalidArgument("need n >= 1")
    if not 1 <= d <= len(PRIMES):
        raise InvalidArgument(
            f"prime construction supports 1 <= d <= {len(PRIMES)}; larger d "
            "overflows exact integer products, draw random data instead"
        )


def prime_vandermonde_data(d: int, n: int) -> Dataset:
    """Deterministic samples X_t = (p_1^(t-1), ..., p_d^(t-1)) over distinct
    primes. Tensorized rows are then powers of the pairwise-distinct node
    set {p_k^2} union {p_k p_l}, a Vandermonde structure of full rank.
    """
    _check_prime_design(d, n)
    rows = [[PRIMES[k] ** t for k in range(d)] for t in range(n)]
    inputs = np.array(rows, dtype=float)
    return Dataset(inputs=inputs, labels=None, distribution_tag="prime_vandermonde", seed=0)


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of a matrix of residues mod p, by row reduction in place."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank][col:]
        inv = pow(top[0], -1, p)
        for row in rows[rank + 1:]:
            f = row[col] * inv % p
            if f:  # columns left of col are already zero
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def prime_vandermonde_span(d: int, n: int) -> SpanReport:
    """Exact span report of the tensorized prime_vandermonde_data(d, n).

    Its row t holds the integers (p_k p_l)^t, which float64 cannot hold
    (11^28 at d = 5), so spans_symmetric underrates the rank. Here the rank
    is taken modulo the prime SPAN_MODULUS in exact integer arithmetic: a
    minor that is nonzero mod P is a nonzero integer, so full rank mod P
    proves full rank over Q. A rank below full is only a lower bound. The
    report has no threshold or singular values.
    """
    _check_prime_design(d, n)
    rows, cols = _sym_coordinates(d)
    nodes = [PRIMES[k] * PRIMES[l] for k, l in zip(rows, cols)]
    rank = _rank_mod([[pow(v, t, SPAN_MODULUS) for v in nodes] for t in range(n)], SPAN_MODULUS)
    return SpanReport(
        rank=rank,
        spans=rank == len(nodes),
        dimension=len(nodes),
        n=n,
        threshold=None,
        sigma_min=None,
        sigma_max=None,
    )


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
    _check_prime_design(d, 1)
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
    g_star = gram(teacher)
    d = teacher.d
    if dataset is None:
        direction = np.zeros((d, d))
        direction[0, 0] = 1.0
    else:
        if dataset.d != d:
            raise InvalidArgument("dataset dimension does not match the teacher")
        if spans_symmetric(dataset).spans:
            raise InvalidArgument(
                "dataset spans the symmetric matrices; no null direction exists"
            )
        xi = dataset.design.xi
        rn = np.linalg.norm(xi, axis=1, keepdims=True)
        _, _, vh = np.linalg.svd(xi / np.where(rn > 0, rn, 1.0), full_matrices=True)
        direction = sym_matrix(vh[-1], d)
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(direction))))
    direction = direction / spectral
    student = embed_gram(g_star + delta * direction, target_rows)

    certificate: dict = {
        "delta": delta,
        "direction_spectral_norm": float(np.max(np.abs(np.linalg.eigvalsh(direction)))),
    }
    if dataset is not None:
        design = dataset.design
        constraint = design.forms(direction)
        certificate["max_constraint_violation"] = float(np.max(np.abs(constraint)))
        labels = design.forms(g_star)
        residual = design.forms(gram(student)) - labels
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
    The span test and the design are the dataset's cached ones, so repeated
    calls on one dataset take one span SVD; each call solves its own v.
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
    design = dataset.design
    v = design.forms(gram(student)) - labels
    sol, _, _, _ = np.linalg.lstsq(design.xi, v, rcond=None)
    m_hat = sym_matrix(sol, dataset.d)
    residual = float(np.linalg.norm(design.xi @ sol - v))
    return RecoveryResult(m_hat=m_hat, residual_norm=residual)
