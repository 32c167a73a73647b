"""Domain types for teacher and student networks.

A network with weight matrix W (one row per neuron) computes

    f(W; x) = sum_j <W_j, x>^2 = ||W x||^2 = x^T (W^T W) x,

so the function depends on W only through the Gram matrix W^T W, and a
batch of outputs is one product with the tensorized inputs
(TensorizedDesign.gram_forms). Positive output weights reduce to this
model, since a z^2 = (sqrt(a) z)^2. The module also holds
coordinate-distribution moments (mu2, mu4) and their truncated versions,
which are the only distributional inputs the closed-form risk formulas
need.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import erf

from . import _rng
from .errors import InvalidArgument

RANK_RTOL = 1e-10

# Gram eigenvalues at or above this share of max(1, lambda_max) prove full
# column rank without an SVD: lambda = sigma^2, so the rule certifies
# sigma_min >= 1e-4 max(1, sigma_max), 10^6 times the RANK_RTOL threshold
# and far above the rounding error of forming W^T W and its eigenvalues.
GRAM_RANK_RTOL = 1e-8

EQUILIBRATION_PASSES = 5


def rank_tolerance(sigma_max: float) -> float:
    """Singular values above this count toward numerical rank."""
    return RANK_RTOL * max(1.0, sigma_max)


def _rank_of(s: np.ndarray) -> int:
    """Numerical rank from singular values sorted in descending order."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > rank_tolerance(float(s[0]))))


def _gram_certifies_full_rank(lam: np.ndarray) -> bool:
    """True when ascending Gram eigenvalues prove full column rank.

    False means only that the Gram cannot decide; the singular values then
    do, through _rank_of.
    """
    return lam.size > 0 and float(lam[0]) >= GRAM_RANK_RTOL * max(1.0, float(lam[-1]))


def numerical_rank(matrix: np.ndarray) -> int:
    return _rank_of(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False))


def is_full_rank(matrix: np.ndarray) -> bool:
    matrix = np.asarray(matrix, dtype=float)
    return numerical_rank(matrix) == min(matrix.shape)


def _frozen_array(obj, values, name):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def _symmetric(values, noun: str) -> np.ndarray:
    """Square matrix, or stack (..., d, d) of them, each symmetric to 1e-12
    relative to its own largest entry, returned exactly symmetrized."""
    a = np.atleast_2d(np.asarray(values, dtype=float))
    if a.shape[-1] != a.shape[-2]:
        raise InvalidArgument(f"{noun} must be square")
    at = a.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    if np.count_nonzero(np.abs(a - at).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale):
        raise InvalidArgument(f"{noun} must be symmetric to 1e-12 relative")
    return 0.5 * (a + at)


def _format_param(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


# Largest scale s with 3 s^4 finite, so every moment of a scaled law is.
_MAX_SCALE = (sys.float_info.max / 3.0) ** 0.25


def _check_scale(value: float, noun: str) -> None:
    if not 0 < value <= _MAX_SCALE:
        raise InvalidArgument(f"{noun} must be positive and at most {_MAX_SCALE:.4g}")


# --------------------------------------------------------------------------
# coordinate distributions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian:
    """Centered normal coordinates with standard deviation sigma."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_scale(self.sigma, "gaussian sigma")

    @property
    def tag(self) -> str:
        return f"gaussian({_format_param(self.sigma)})"

    def moments(self) -> "Moments":
        s2 = self.sigma ** 2
        return Moments(mu2=s2, mu4=3.0 * s2 * s2)

    def truncated(self, threshold: float) -> "Moments":
        # Condition on |X| <= K. By parts, with Z = 2 Phi(k) - 1 and
        # k = K / sigma: mu2 = sigma^2 (1 - 2 k phi(k)/Z) and
        # mu4 = sigma^4 (3 - 2 k (k^2 + 3) phi(k)/Z).
        k = threshold / self.sigma
        z = erf(k / math.sqrt(2.0))
        if z == 0.0:
            raise InvalidArgument("truncation threshold underflows the gaussian mass")
        phi = math.exp(-k * k / 2.0) / math.sqrt(2.0 * math.pi)
        mu2 = self.sigma ** 2 * (1.0 - 2.0 * k * phi / z)
        mu4 = self.sigma ** 4 * (3.0 - 2.0 * k * (k * k + 3.0) * phi / z)
        return Moments(mu2=mu2, mu4=mu4)

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        return self.sigma * _rng.standard_normal(gen, shape)


@dataclass(frozen=True)
class Uniform:
    """Uniform coordinates on [-halfwidth, halfwidth]."""

    halfwidth: float

    def __post_init__(self):
        _check_scale(self.halfwidth, "uniform halfwidth")

    @property
    def tag(self) -> str:
        return f"uniform({_format_param(self.halfwidth)})"

    def moments(self) -> "Moments":
        a2 = self.halfwidth ** 2
        return Moments(mu2=a2 / 3.0, mu4=a2 * a2 / 5.0)

    def truncated(self, threshold: float) -> "Moments":
        a = min(self.halfwidth, threshold)
        return Moments(mu2=a * a / 3.0, mu4=a ** 4 / 5.0)

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        return self.halfwidth * (2.0 * _rng.open_uniform(gen, shape) - 1.0)


@dataclass(frozen=True)
class Rademacher:
    """Coordinates uniform on {-1, +1}; X^2 = 1 so Var(X^2) = 0."""

    @property
    def tag(self) -> str:
        return "rademacher"

    def moments(self) -> "Moments":
        return Moments(mu2=1.0, mu4=1.0)

    def truncated(self, threshold: float) -> "Moments":
        if threshold < 1.0:
            raise InvalidArgument(
                "rademacher puts no mass on |x| <= threshold < 1"
            )
        return self.moments()

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        return gen.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


Distribution = Gaussian | Uniform | Rademacher

_TAG_RE = re.compile(r"^(?P<name>[a-z_]+)(?:\((?P<arg>[^)]*)\))?$")


def _tag_param(arg: str, tag: str) -> float:
    try:
        return float(arg)
    except ValueError:
        raise InvalidArgument(f"non-numeric parameter in distribution tag: {tag!r}") from None


def parse_distribution(tag: str) -> Distribution:
    """Parse tags like 'gaussian(1)', 'uniform(1.5)', 'rademacher'."""
    m = _TAG_RE.match(tag.strip())
    if not m:
        raise InvalidArgument(f"unparseable distribution tag: {tag!r}")
    name, arg = m.group("name"), m.group("arg")
    if name == "gaussian":
        return Gaussian(_tag_param(arg, tag) if arg else 1.0)
    if name == "uniform":
        if arg is None:
            raise InvalidArgument("uniform tag needs a halfwidth, e.g. uniform(1.5)")
        return Uniform(_tag_param(arg, tag))
    if name == "rademacher":
        return Rademacher()
    raise InvalidArgument(f"unknown distribution: {tag!r}")


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """Second and fourth coordinate moments with derived barrier constants.

    var_sq = mu4 - mu2^2 is Var(X^2); the barrier constants are
    c_lower = min{var_sq, 2 mu2^2} and c_upper = max{var_sq, 2 mu2^2}.
    A law is degenerate when var_sq = 0 (then c_lower = 0 and every
    barrier statement is vacuous).
    """

    mu2: float
    mu4: float

    def __post_init__(self):
        if not (self.mu2 > 0 and math.isfinite(self.mu2) and math.isfinite(self.mu4)):
            raise InvalidArgument("need finite moments with mu2 > 0")
        if self.mu4 < self.mu2 ** 2 - 1e-12 * max(1.0, abs(self.mu4)):
            raise InvalidArgument("mu4 < mu2^2 violates Jensen's inequality")

    @property
    def var_sq(self) -> float:
        return self.mu4 - self.mu2 ** 2

    @property
    def c_lower(self) -> float:
        return min(self.var_sq, 2.0 * self.mu2 ** 2)

    @property
    def c_upper(self) -> float:
        return max(self.var_sq, 2.0 * self.mu2 ** 2)

    @property
    def degenerate(self) -> bool:
        return self.var_sq <= 1e-15 * max(1.0, self.mu4)


def moments_of(distribution: Distribution) -> Moments:
    """Exact analytic moments of a named coordinate law."""
    return distribution.moments()


def truncated_moments(distribution: Distribution, threshold: float) -> Moments:
    """Conditional moments of X given |X| <= threshold."""
    if not (threshold > 0):
        raise InvalidArgument("truncation threshold must be positive")
    return distribution.truncated(threshold)


# --------------------------------------------------------------------------
# network types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TeacherModel:
    """Planted network: weights W* (m x d)."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self, np.atleast_2d(self.weights), "weights")
        if w.ndim != 2:
            raise InvalidArgument("weights must be a matrix")
        if not np.all(np.isfinite(w)):
            raise InvalidArgument("weights must be finite")

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def gram_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of gram(self), ascending and read-only.

        Computed once per teacher, like singular_values, but from the d x d
        Gram: enough for the spectrum report and, in most cases, for the
        full-rank check (_gram_certifies_full_rank).
        """
        lam = np.linalg.eigvalsh(gram(self))
        lam.setflags(write=False)
        return lam

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the weights, descending and read-only.

        A full SVD of the m x d weights, so it runs only when a caller needs
        sigma_min (the energy barrier and its report) or when the Gram
        eigenvalues cannot decide the rank. Computed once per teacher; the
        weights are frozen, so the cache cannot go stale.
        """
        s = np.linalg.svd(self.weights, compute_uv=False)
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class StudentWeights:
    """Trainable network weights, m_hat x d; m_hat may differ from the teacher."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self, np.atleast_2d(self.weights), "weights")
        if w.ndim != 2:
            raise InvalidArgument("weights must be a matrix")
        if not np.all(np.isfinite(w)):
            raise InvalidArgument("weights must be finite")

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Discrepancy:
    """Teacher Gram minus student Gram, A = (W*)^T W* - W^T W, or a stack
    (..., d, d) of them."""

    matrix: np.ndarray

    def __post_init__(self):
        _frozen_array(self, _symmetric(self.matrix, "discrepancy"), "matrix")

    @property
    def d(self) -> int:
        return self.matrix.shape[-1]


# --------------------------------------------------------------------------
# quadratic forms on tensorized inputs
# --------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# The three layouts below depend on d alone, so each is built once per d and
# returned read-only; every tensorized design and encoding shares them. The
# caches are bounded because d comes from the user.
@lru_cache(maxsize=64)
def _sym_coordinates(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the d(d+1)/2 coordinates of a symmetric
    d x d matrix: the diagonal, then the pairs k < l in lexicographic order."""
    k, l = np.triu_indices(d, 1)
    diag = np.arange(d)
    return _read_only(np.concatenate([diag, k])), _read_only(np.concatenate([diag, l]))


@lru_cache(maxsize=64)
def _pair_weights(d: int) -> np.ndarray:
    """1 on the diagonal coordinates, 2 on the pairs, which X^T M X counts twice."""
    w = np.full(d * (d + 1) // 2, 2.0)
    w[:d] = 1.0
    return _read_only(w)


@lru_cache(maxsize=64)
def _sym_index(d: int) -> np.ndarray:
    """The d x d map from an entry (k, l) to its coordinate, symmetric in k, l."""
    rows, cols = _sym_coordinates(d)
    index = np.empty((d, d), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return _read_only(index)


def _sym_encode(M: np.ndarray) -> np.ndarray:
    """(M_11..M_dd, 2 M_kl for k < l), so that <xi_i, enc(M)> = X_i^T M X_i
    for a row xi_i of TensorizedDesign.xi."""
    d = M.shape[0]
    rows, cols = _sym_coordinates(d)
    return M[rows, cols] * _pair_weights(d)


def _sym_decode(v: np.ndarray, d: int) -> np.ndarray:
    """The symmetric d x d matrix whose encoding is v."""
    return (v / _pair_weights(d))[_sym_index(d)]


def _tensorized(X: np.ndarray) -> np.ndarray:
    """Rows (X_i(k) X_i(l)) over the symmetric coordinates, for inputs X of
    shape (..., N, d): the plain design, or a stack of designs."""
    rows, cols = _sym_coordinates(X.shape[-1])
    return X[..., rows] * X[..., cols]


def _equilibrate(xi: np.ndarray, passes: int = EQUILIBRATION_PASSES) -> np.ndarray:
    """Iterated row and column normalization of a design, or of a stack
    (..., N, D) of designs, along axes -1 and -2. Scaling by positive
    diagonals never changes the rank but collapses the enormous dynamic
    range of power-law designs, without which float64 SVD cannot see full
    rank.

    The copy is C-ordered: numpy sums a row norm pairwise and a column norm
    row by row in that layout, for one design and for a stack alike, so a
    stacked design equilibrates to the same bits as the design alone.
    """
    E = np.array(xi, dtype=float, order="C")
    for _ in range(passes):
        rn = np.linalg.norm(E, axis=-1, keepdims=True)
        E /= np.where(rn > 0, rn, 1.0)
        cn = np.linalg.norm(E, axis=-2, keepdims=True)
        E /= np.where(cn > 0, cn, 1.0)
    return E


# Stacked trial sweeps (landscape.rank_deficient_sweep, geometry.span_sweep)
# take their trials in chunks whose largest temporary holds at most this many
# floats: 120 KiB, below glibc's initial 128 KiB mmap threshold. A larger
# block is mapped afresh on every allocation, and freeing one raises the
# threshold for the rest of the process, which changes how every later
# temporary is allocated; a whole sweep stacked at once would also hold
# megabytes that the per-trial loop never did.
_STACK_FLOATS = 15 << 10


def _chunks(count: int, floats_each: int) -> list[range]:
    """Consecutive ranges covering range(count), each so short that a stack
    of floats_each floats per member fits in _STACK_FLOATS."""
    step = max(1, _STACK_FLOATS // floats_each)
    return [range(start, min(start + step, count)) for start in range(0, count, step)]


class TensorizedDesign:
    """Inputs X (N x d) tensorized once, for many forms X_i^T A X_i.

    xi is the N x d(d+1)/2 design, row i = (X_i(k) X_i(l)) over the
    symmetric coordinates; xi_w doubles its pair columns, so a batch of
    forms of a symmetric A is one product xi_w @ A[rows, cols],
    O(N d(d+1)/2); moment(r) = sum_i r_i X_i X_i^T scatters xi_w^T r back
    through the index map, so it is exactly symmetric. Both arrays are
    read-only, so the span singular values cached from xi cannot go stale.
    """

    def __init__(self, X: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.n, self.d = X.shape
        w = _pair_weights(self.d)
        self.rows, self.cols = _sym_coordinates(self.d)
        raw = _tensorized(X)
        # BLAS rounding depends on memory order: xi is a C-ordered copy and
        # xi_w keeps raw's order, which keeps every artifact byte-stable.
        self.xi = _read_only(np.array(raw, order="C"))
        self.xi_w = _read_only(raw * w)
        self.index = _sym_index(self.d)
        self.unweight = (1.0 / w)[self.index]

    @property
    def dimension(self) -> int:
        return self.xi.shape[1]

    def forms(self, A: np.ndarray) -> np.ndarray:
        return self.xi_w @ A[self.rows, self.cols]

    def gram_forms(self, w: np.ndarray) -> np.ndarray:
        """X_i^T (w^T w) X_i: the outputs of the network with weights w."""
        return self.xi_w @ (w.T @ w)[self.rows, self.cols]

    def moment(self, r: np.ndarray) -> np.ndarray:
        return (self.xi_w.T @ r)[self.index] * self.unweight

    @cached_property
    def span_singular_values(self) -> np.ndarray:
        """Singular values of the equilibrated xi, descending and read-only:
        the one SVD behind the span test (geometry.spans_symmetric)."""
        return _read_only(np.linalg.svd(_equilibrate(self.xi), compute_uv=False))


def quadform(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The quadratic forms X_i^T A X_i over the rows of X (N x d), symmetric A.

    Every batch of such forms goes through TensorizedDesign, so labels,
    residuals and one-off forms share one arithmetic.
    """
    return TensorizedDesign(X).forms(A)


def gram(model_or_weights) -> np.ndarray:
    """Gram matrix W^T W = sum_j W_j W_j^T (d x d, symmetric) of a network
    or of a raw weight matrix."""
    if isinstance(model_or_weights, (TeacherModel, StudentWeights)):
        return _gram_matrix(model_or_weights.weights)
    return _gram_matrix(np.atleast_2d(np.asarray(model_or_weights, dtype=float)))


def _gram_matrix(w: np.ndarray) -> np.ndarray:
    """W^T W of a raw weight matrix, or of each in a stack (..., m, d),
    exactly symmetric."""
    g = w.swapaxes(-1, -2) @ w
    return 0.5 * (g + g.swapaxes(-1, -2))


def discrepancy(teacher: TeacherModel, student: StudentWeights) -> Discrepancy:
    """A = Gram(teacher) - Gram(student)."""
    if teacher.d != student.d:
        raise InvalidArgument(f"dimension mismatch: teacher d={teacher.d}, student d={student.d}")
    return Discrepancy(gram(teacher) - gram(student))
