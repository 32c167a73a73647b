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


def _key(seed: int, substream: int) -> np.ndarray:
    if not (0 <= seed < 2 ** 64 and 0 <= substream < 2 ** 64):
        raise InvalidArgument(
            f"seed and substream must fit in 64 unsigned bits, got ({seed}, {substream})"
        )
    return np.array([seed, substream], dtype=np.uint64)


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Generator for an independent substream of the given seed."""
    return np.random.Generator(np.random.Philox(key=_key(seed, substream)))


def open_uniform(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on the open interval (0, 1); endpoints are never hit."""
    return np.multiply(gen.integers(1, _MANTISSA, size=shape), _ULP)


def standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF standard normals, one uniform consumed per variate."""
    return ndtri(open_uniform(gen, shape))


def substream_normals(seed: int, substreams: range, count: int) -> np.ndarray:
    """Standard normals of many substreams, one row each: row j holds the
    `count` values standard_normal(stream(seed, substreams[j]), count)
    draws. Each substream makes one draw of uniforms, and one ndtri then
    transforms the whole stack.

    Building a Philox generator costs more than the draw (it gathers OS
    entropy for a seed it then discards), so one generator is re-keyed to
    each substream in turn: its counter and buffer stay at a fresh
    generator's zeros, which makes its state the one stream() starts in.
    """
    gen = np.random.Generator(np.random.Philox())
    state = gen.bit_generator.state
    rows = []
    for substream in substreams:
        state["state"]["key"] = _key(seed, substream)
        gen.bit_generator.state = state
        rows.append(open_uniform(gen, count))
    return ndtri(np.array(rows))
