"""Seeded randomness utilities.

All stochastic behavior in the package flows from a single 64-bit master seed
through PCG64. Per-entity streams use seeds derived with SHA-256 so the
derivation is stable across platforms, processes and Python hash randomization.
"""

from __future__ import annotations

import hashlib
import operator
from functools import reduce

import numpy as np


def derive_seed(master_seed: int, *parts: str | int) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    SHA-256 over the decimal master seed and the parts, separated by an
    ASCII unit separator; the top 8 digest bytes form the child seed.
    """
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode("ascii"))
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: list[float], k: int
) -> list[int]:
    """Draw k distinct indices, each round proportional to the remaining weights.

    Sequential inverse-CDF over rng.random() doubles, so the draw sequence is
    pinned by the PCG64 stream alone and does not depend on library internals.
    """
    if k > len(weights):
        raise ValueError(f"cannot draw {k} items from {len(weights)} weights")
    remaining = np.array(weights, dtype=np.float64)  # drawn items weigh 0
    n = len(remaining)
    out: list[int] = []
    for _ in range(k):
        # cumsum adds left to right (sum does not): each sum is the running
        # total of the weights left, as a drawn item's 0 adds nothing
        cumulative = remaining.cumsum()
        # the first j whose cumulative[j] exceeds the drawn point
        pick = int(cumulative.searchsorted(rng.random() * cumulative[-1], "right"))
        if pick == n:  # round-off at the top end: the last item left
            pick = max(set(range(n)) - set(out))
        out.append(pick)
        remaining[pick] = 0.0
    return out


def left_sum(values) -> float:
    """Float sum accumulated strictly left to right, as `sum()` was before
    Python 3.12 compensated its round-off, so totals match across versions."""
    return reduce(operator.add, values, 0.0)


def shuffled(rng: np.random.Generator, seq: list) -> list:
    """Fisher-Yates shuffle driven by rng.integers; returns a new list."""
    out = list(seq)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out
