"""Seeded random-stream derivation.

All randomness in the package flows through numpy ``Generator`` objects
backed by PCG64. A (seed, stream index) pair maps to one reproducible
stream; distinct indices under the same seed give statistically
independent streams (numpy ``SeedSequence`` spawn keys), so every
tally's stream is addressable by its index alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_stream"]


def make_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the PCG64 generator for a (seed, stream index) pair.

    The same pair always yields the identical sequence; different
    indices under one seed are independent.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(seq))
