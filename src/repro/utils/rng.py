"""Seeded random-number-generator helpers.

Every stochastic component of the library (workflow generators, weight
assignment, power-profile scenarios, the experiment grid) accepts either an
integer seed, ``None`` or an already-constructed :class:`numpy.random.Generator`.
These helpers normalise that flexibility into a single code path and provide
deterministic derivation of independent child generators, which keeps large
experiment grids reproducible while every cell still sees an independent
stream.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["ensure_rng", "derive_rng", "RNGLike"]

#: Accepted specification of a random source throughout the library.
RNGLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator (returned
        unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator usable by all library components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(seed: RNGLike, *keys: Union[int, str]) -> np.random.Generator:
    """Derive a child generator that depends deterministically on *keys*.

    This is used by the experiment grid: the same master seed plus the same
    cell coordinates (workflow family, size, scenario, deadline factor, ...)
    always yields the same stream, independent of evaluation order.

    Parameters
    ----------
    seed:
        Master seed (any :data:`RNGLike`).  If a generator is passed, fresh
        entropy from that generator is combined with the keys instead.
    *keys:
        Arbitrary integers or strings identifying the child stream.

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**32 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.generate_state(1)[0])
    elif seed is None:
        base = 0
    else:
        base = int(seed)

    spawn_key = [_key_to_int(k) for k in keys]
    seq = np.random.SeedSequence(entropy=base, spawn_key=tuple(spawn_key))
    return np.random.default_rng(seq)


def _key_to_int(key: Union[int, str]) -> int:
    """Map a string or integer key onto a stable non-negative integer."""
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    # A small stable string hash (FNV-1a, 32 bit); ``hash()`` is salted per
    # process and therefore unusable for reproducibility.
    value = 2166136261
    for byte in str(key).encode("utf8"):
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value
