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

from .errors import ValidationError, _check_int


def derive_seed(master_seed: int, *parts: str | int) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    SHA-256 over the decimal master seed and the parts, separated by an
    ASCII unit separator; the top 8 digest bytes form the child seed.
    """
    h = hashlib.sha256()
    h.update(str(_check_int("master seed", master_seed)).encode("ascii"))
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for the given seed."""
    return np.random.Generator(np.random.PCG64(_check_int("seed", seed, 0)))


def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: list[float] | np.ndarray, k: int
) -> list[int]:
    """Draw k distinct indices, each round proportional to the remaining weights.

    Sequential inverse-CDF over rng.random() doubles, one per pick, so the
    draw sequence is pinned by the PCG64 stream alone and does not depend on
    library internals. The exact pick (`_exact_pick`) is the first j whose
    left-to-right cumsum c[j] of the remaining weights exceeds x = u * c[-1].

    A fast filter finds that j without the cumsum: `approx` starts as the
    cumsum of all weights and each pick of weight w subtracts w from its
    suffix, one element-wise operation. With x' = u * approx[-1], the
    candidate j = approx.searchsorted(x', "right") is taken only if j < n and
    both approx[j] - x' and x' - approx[j-1] (when j > 0) exceed a margin m
    that bounds |approx[i] - c[i]| + |x' - x|; then c[j-1] < x < c[j], and as
    c is non-decreasing the exact pick is j. Otherwise the exact pick runs
    with the same u. Each pick is therefore the exact one, bit for bit.

    The margin, with unit round-off eps = 2**-53, gamma_m = m*eps/(1 - m*eps)
    and T the real sum of the (non-negative) weights: recursive summation
    keeps |c[i] - S[i]| <= gamma_{n-1} * T, S[i] being the real partial sum of
    the remaining weights (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 4.2). `approx` starts within gamma_{n-1} * T of S
    and each of the k subtractions adds at most eps * (T + that error), so it
    stays within gamma_{n+k} * T. The two products u * total each round by at
    most eps * T (1 + gamma_{n+k}), so |approx[i] - c[i]| + |x' - x| is below
    (2 gamma_{n-1} + 2 gamma_{n+k} + 3 eps) * T, about (2n + k) * 2**-52 * T.
    m = (4n + 2k + 16) * 2**-52 * approx[-1], with approx[-1] the cumsum
    total before the first pick, is about twice that. The added 2**-1022
    covers the absolute error of a product that underflows. A gap is tested
    as `not (gap > m)`, so a NaN or infinite total takes the exact path, and
    a negative weight, for which c need not be non-decreasing, disables the
    filter.
    """
    if _check_int("k", k, 0) > len(weights):
        raise ValidationError(f"cannot draw {k} items from {len(weights)} weights")
    remaining = np.array(weights, dtype=np.float64)  # drawn items weigh 0
    n = len(remaining)
    out: list[int] = []
    if k == 0:
        return out
    approx = remaining.cumsum()
    margin = (4 * n + 2 * k + 16) * 2.0**-52 * float(approx[-1]) + 2.0**-1022
    if (remaining < 0).any():
        margin = np.inf
    for _ in range(k):
        u = rng.random()
        x = u * approx[-1]
        pick = int(approx.searchsorted(x, "right"))
        if not (pick < n and approx[pick] - x > margin
                and (pick == 0 or x - approx[pick - 1] > margin)):
            pick = _exact_pick(remaining, u, out)
        out.append(pick)
        approx[pick:] -= remaining[pick]
        remaining[pick] = 0.0
    return out


def _exact_pick(remaining: np.ndarray, u: float, drawn: list[int]) -> int:
    """The first j whose cumulative[j] exceeds u * the total of `remaining`."""
    # cumsum adds left to right (sum does not): each sum is the running
    # total of the weights left, as a drawn item's 0 adds nothing
    cumulative = remaining.cumsum()
    n = len(remaining)
    pick = int(cumulative.searchsorted(u * cumulative[-1], "right"))
    if pick == n:  # round-off at the top end: the last item left
        pick = max(set(range(n)) - set(drawn))
    return pick


def left_sum(values) -> float:
    """The one ordered float sum: left to right, as `sum()` was before Python 3.12
    compensated its round-off, so totals match; numpy rows add elementwise."""
    return reduce(operator.add, values, 0.0)


def shuffled(rng: np.random.Generator, seq: list) -> list:
    """Fisher-Yates shuffle driven by rng.integers; returns a new list."""
    out = list(seq)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out
