"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way: explicit
loops, combinatorial moment expansion, exact rational arithmetic. None of
it imports quadland, so agreement between the two is meaningful.
"""

from fractions import Fraction

import numpy as np
from scipy import integrate


def forward_loop(weights, x):
    """Network output sum_j <W_j, x>^2 by a plain double loop over neurons
    and coordinates."""
    m, d = weights.shape
    total = 0.0
    for j in range(m):
        z = 0.0
        for k in range(d):
            z += weights[j, k] * x[k]
        total += z * z
    return total


def quadratic_form_loop(M, x):
    """x^T M x as the double sum sum_kl x_k M_kl x_l."""
    d = len(x)
    total = 0.0
    for k in range(d):
        for l in range(d):
            total += x[k] * M[k, l] * x[l]
    return total


def gram_loop(weights):
    """Entrywise Gram matrix G_kl = sum_j W_jk W_jl."""
    m, d = weights.shape
    G = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            s = 0.0
            for j in range(m):
                s += weights[j, k] * weights[j, l]
            G[k, l] = s
    return G


def empirical_risk_loop(weights, X, Y):
    """Mean squared residual with per-sample forward_loop evaluation."""
    n = len(Y)
    total = 0.0
    for i in range(n):
        r = Y[i] - forward_loop(weights, X[i])
        total += r * r
    return total / n


def quartic_form_expectation(A, mu2, mu4):
    """E[(X^T A X)^2] for X with i.i.d. centered symmetric coordinates.

    Expands the expectation as sum_{ijkl} A_ij A_kl E[x_i x_j x_k x_l] and
    evaluates each fourth moment by pattern matching: mu4 when all four
    indices coincide, mu2^2 when the indices pair up two and two, zero
    otherwise (odd moments vanish by symmetry). O(d^4) but exact, and
    entirely independent of the trace-based closed form.
    """
    d = A.shape[0]
    total = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    idx = (i, j, k, l)
                    if i == j == k == l:
                        m = mu4
                    elif idx.count(i) == 2 and idx.count(k) == 2 and i != k:
                        m = mu2 * mu2
                    elif idx.count(i) == 2 and idx.count(j) == 2 and i != j:
                        m = mu2 * mu2
                    else:
                        m = 0.0
                    total += A[i, j] * A[k, l] * m
    return total


def central_difference_gradient(f, W, step_scale=1e-5):
    """Entrywise central differences with step h = step_scale * (1 + |entry|)."""
    G = np.zeros_like(W)
    for idx in np.ndindex(*W.shape):
        h = step_scale * (1.0 + abs(W[idx]))
        Wp = W.copy()
        Wm = W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        G[idx] = (f(Wp) - f(Wm)) / (2.0 * h)
    return G


def mc_estimate(values):
    """Sample mean and its standard error."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def truncated_moments_quadrature(pdf, threshold):
    """Conditional (mu2, mu4) of a density restricted to [-K, K] via quad."""
    kw = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
    z, _ = integrate.quad(pdf, -threshold, threshold, **kw)
    m2, _ = integrate.quad(lambda x: x * x * pdf(x), -threshold, threshold, **kw)
    m4, _ = integrate.quad(lambda x: x ** 4 * pdf(x), -threshold, threshold, **kw)
    return m2 / z, m4 / z


def gaussian_pdf(sigma=1.0):
    def pdf(x):
        return np.exp(-x * x / (2.0 * sigma * sigma)) / (sigma * np.sqrt(2.0 * np.pi))

    return pdf


def semicircle_second_moment():
    """Integral of x^2 against the semicircle density (2/pi) sqrt(1-x^2)."""
    val, _ = integrate.quad(
        lambda x: x * x * (2.0 / np.pi) * np.sqrt(max(0.0, 1.0 - x * x)), -1.0, 1.0
    )
    return val


def tensorize_loop(X):
    """Row i = (x_1^2 .. x_d^2, x_k x_l for k < l lexicographic), by loops."""
    n, d = X.shape
    D = d * (d + 1) // 2
    Xi = np.zeros((n, D))
    for i in range(n):
        c = 0
        for k in range(d):
            Xi[i, c] = X[i, k] * X[i, k]
            c += 1
        for k in range(d):
            for l in range(k + 1, d):
                Xi[i, c] = X[i, k] * X[i, l]
                c += 1
    return Xi


def exact_rank_rational(rows):
    """Rank of an integer matrix by Gaussian elimination over the rationals."""
    M = [[Fraction(int(v)) for v in row] for row in rows]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if M[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        pv = M[rank][col]
        for r in range(nrows):
            if r != rank and M[r][col] != 0:
                factor = M[r][col] / pv
                M[r] = [a - factor * b for a, b in zip(M[r], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def prime_tensor_values_exact(primes):
    """The distinct node set {p_k^2} union {p_k p_l} as exact integers."""
    d = len(primes)
    values = [primes[k] * primes[k] for k in range(d)]
    for k in range(d):
        for l in range(k + 1, d):
            values.append(primes[k] * primes[l])
    return values


def scalar_quartic_second_derivative(w, x, y):
    """d^2/dw^2 of (1/N) sum (y_i - w^2 x_i^2)^2 for the 1x1 network.

    First derivative: (4/N) sum (w^2 x^2 - y) w x^2.
    Second: (4/N) sum (3 w^2 x^4 - y x^2).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.mean(4.0 * (3.0 * w * w * x ** 4 - y * x ** 2)))
