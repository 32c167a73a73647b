"""Frozen expected values used across the test suite.

Each constant carries its derivation so a reviewer can recompute it by
hand. The values are frozen here, before the implementations they test,
and the tests must not recompute them through the package itself.
"""

# --- coordinate distribution moments -------------------------------------
# Standard normal: E[X^2] = 1, E[X^4] = 3.
GAUSSIAN_MU2 = 1.0
GAUSSIAN_MU4 = 3.0

# Rademacher: X^2 = 1 identically, so both moments are 1 and Var(X^2) = 0.
RADEMACHER_MU2 = 1.0
RADEMACHER_MU4 = 1.0

# Uniform on [-a, a]: mu2 = a^2/3, mu4 = a^4/5. At a = sqrt(3) this is
# unit variance with mu4 = 9/5.
UNIFORM_SQRT3_MU2 = 1.0
UNIFORM_SQRT3_MU4 = 1.8

# Standard normal conditioned on |X| <= K. Integration by parts gives
#   int_{-K}^{K} x^2 phi(x) dx = (2 Phi(K) - 1) - 2 K phi(K)
#   int_{-K}^{K} x^4 phi(x) dx = 3[(2 Phi(K) - 1) - 2 K phi(K)] - 2 K^3 phi(K)
# so mu2(K) = 1 - 2 K phi(K)/Z and mu4(K) = 3 - 2 K (K^2 + 3) phi(K)/Z
# with Z = 2 Phi(K) - 1. Evaluated at K = 2:
TRUNC_GAUSS_K2_MU2 = 0.7737413035499232
TRUNC_GAUSS_K2_MU4 = 1.4161891248494625
# and at K = 1:
TRUNC_GAUSS_K1_MU2 = 0.29112509477279314
TRUNC_GAUSS_K1_MU4 = 0.16450037909117254

# --- forward map ---------------------------------------------------------
# W = I_2, x = (1, 1): ||W x||^2 = 2.
IDENTITY_FORWARD_2D = 2.0

# --- empirical risk ------------------------------------------------------
# d = 1, m = 1, teacher w* = 1, student w = 0, samples x = (1, 2):
# labels y = (1, 4), residuals (1, 4), risk = (1 + 16)/2 = 8.5.
HAND_RISK_1D = 8.5

# --- energy barrier ------------------------------------------------------
# Barrier constant for unit-variance laws: min{mu4 - mu2^2, 2 mu2^2}.
# Gaussian: min{2, 2} = 2. Teacher = I_d has sigma_min = 1, so the
# population barrier is 2.
BARRIER_IDENTITY_GAUSSIAN = 2.0
# Teacher diag(2, 1) embedded in m = 5 rows: sigma_min = 1, barrier 2.
BARRIER_DIAG21_GAUSSIAN = 2.0

# --- tightness construction ----------------------------------------------
# Teacher diag(2, 1): zeroing the smallest Gram eigenvalue leaves the
# discrepancy A = diag(0, 1), so with gaussian moments
# L = tr(A)^2 + 2 tr(A^2) = 1 + 2 = 3 = 3 sigma_min^4.
WORST_RANK_DEFICIENT_DIAG21_RISK = 3.0

# --- sample geometry -----------------------------------------------------
# N*(d) = d(d+1)/2.
CRITICAL_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 10: 55}

# Prime power construction at d = 2 with primes (2, 3): row t is
# (2^(t-1), 3^(t-1)).
PRIME_ROWS_D2_N3 = [[1.0, 1.0], [2.0, 3.0], [4.0, 9.0]]
# Tensorized second row of the above: (x1^2, x2^2, x1 x2) = (4, 9, 6).
PRIME_TENSORIZED_ROW2_D2 = [4.0, 9.0, 6.0]

# Null interpolator at d = 2, teacher = I_2, gaussian moments: the
# population risk of any interpolating-but-wrong student is at least
# min{mu4 - mu2^2, 2 mu2^2} sigma_min^4 = 2.
NULL_INTERP_GAUSSIAN_I2_LOWER = 2.0

# --- initialization ------------------------------------------------------
# Second moment of the semicircle density (2/pi) sqrt(1 - x^2) on [-1, 1]:
# int x^2 (2/pi) sqrt(1-x^2) dx = 1/4.
SEMICIRCLE_SECOND_MOMENT = 0.25

# Identity init scale gamma = m + 4d at m = 100, d = 3.
GAMMA_M100_D3_PLUS = 112.0
