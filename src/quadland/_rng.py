"""Deterministic random streams.

All randomness in the package flows through the counter-based Philox
4x64-10 bit generator, keyed by a (seed, substream) pair. Gaussian
variates are produced by applying the inverse normal CDF to 53-bit
uniforms; unlike ziggurat or polar methods this consumes a fixed number
of draws per variate, so streams are reproducible across platforms.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import InvalidArgument

_MANTISSA = 1 << 53
_ULP = 2.0 ** -53  # 1 / _MANTISSA; scaling by a power of two is exact


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Generator for an independent substream of the given seed."""
    if not (0 <= seed < 2 ** 64 and 0 <= substream < 2 ** 64):
        raise InvalidArgument(
            f"seed and substream must fit in 64 unsigned bits, got ({seed}, {substream})"
        )
    key = np.array([seed, substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def open_uniform(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on the open interval (0, 1); endpoints are never hit."""
    return np.multiply(gen.integers(1, _MANTISSA, size=shape), _ULP)


def standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF standard normals, one uniform consumed per variate."""
    return ndtri(open_uniform(gen, shape))
