"""Randomized line embeddings of a finite metric (distance-to-random-subset).

A sample picks a scale j uniformly from {0..k}, k = ceil(log2 n), includes
each point in an anchor set A independently with probability 2^-j, and maps
u to d(u, A).  Such a map is 1-Lipschitz for every A, by the triangle
inequality.  For every pair u, v the event

    |f(u) - f(v)| >= d(u, v) / (2k - 1)

has probability at least c1 / (k + 1): some annulus of the alternating ball
system around u and v has at most twice the points of its predecessor, and
conditioned on drawing its scale (probability 1/(k+1)) the anchor set hits
the inner ball and misses the outer one with probability at least
c1 = (1 - e^(-1/2)) / 16 ~ 0.0246: with p chosen so the outer count is in
[1/p, 2/p), missing it costs at least ((1-p)^(1/p))^2 >= 1/16 and hitting
the inner one (at least 1/(2p) points) at least 1 - e^(-1/2).  Tests use
the rounded-down floor 0.02 / (k + 1).

The empty anchor set would leave d(u, A) undefined; it maps to f = 0, which
keeps every trial total, 1-Lipschitz, and constant (never selected as best
while any trial spreads).

best_embedding scores its trials a block at a time: each trial writes its
f into one row of a block of at most _BLOCK_ELEMS values, one sort orders
every row, and each sorted row gets the same 1-D product with the
sorted-prefix coefficients that Embedding.spread() computes.  Every trial
still draws from its own seeded stream, so the draws, every spread, and the
embedding chosen do not depend on the block size, on any metric.  (One
matrix product for the whole block would be faster, but BLAS may round a
row's sum differently from the 1-D product, and differently by its place
in the block.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

# trial rows that best_embedding holds at once: a fixed budget of float64
# values (512 KiB), so its memory does not grow with the number of trials
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class Embedding:
    values: tuple[float, ...]
    seed: int
    scale_index: int
    anchors: frozenset[int]

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) <= 1

    def spread(self) -> float:
        """Sum of |f(u) - f(v)| over unordered pairs."""
        return _spread(np.asarray(self.values))


def _spread(f: np.ndarray) -> float:
    """Sum of |f(u) - f(v)| over unordered pairs, in O(n log n): the i-th
    smallest of n values (i from 0) is added i times and subtracted n-1-i
    times.  Exact when the values are integers, as on hop metrics."""
    return float(np.sort(f) @ _coefficients(f.shape[0]))


def _coefficients(n: int) -> np.ndarray:
    return 2.0 * np.arange(n) - (n - 1)


def scale_count(n: int) -> int:
    """k = ceil(log2 n), the number of dyadic scales minus one."""
    return max(n - 1, 0).bit_length()


def _sample(d: np.ndarray, seed: int, out: np.ndarray):
    """One random line embedding of d as arrays: (scale j, anchor mask, f),
    with f written into `out`."""
    n = d.shape[0]
    if n < 2:
        raise ContractViolation("need at least two points")
    rng = np.random.default_rng((seed, 431))
    j = int(rng.integers(0, scale_count(n) + 1))
    members = rng.random(n) < 2.0 ** (-j)
    anchors = members.nonzero()[0]
    if anchors.size:
        d[:, anchors].min(axis=1, out=out)
    else:
        out[:] = 0.0
    return j, members, out


def _embedding(seed: int, j: int, members: np.ndarray, f: np.ndarray) -> Embedding:
    anchors = frozenset(int(i) for i in np.flatnonzero(members))
    return Embedding(tuple(float(x) for x in f), seed, j, anchors)


def bourgain_sample(d: np.ndarray, seed: int) -> Embedding:
    """One random line embedding of the metric d; deterministic per seed."""
    return _embedding(seed, *_sample(d, seed, np.empty(d.shape[0])))


def default_trials(n: int) -> int:
    """50 per scale: the per-pair success rate is Omega(1/k), so this gives
    a comfortable hit probability at desk scale."""
    return 50 * (scale_count(n) + 1)


def best_embedding(d: np.ndarray, trials: int, seed: int) -> Embedding:
    """The largest-spread embedding over `trials` seeded samples.

    Trial t draws from the derived stream (seed, t); ties in spread keep the
    lowest trial index.  If every trial is constant (possible only for a
    degenerate metric) the first is returned; callers can inspect
    .is_constant.  The trials are scored a block at a time (see the module
    notes), each by the value its Embedding.spread() would have; only the
    winner is drawn again and becomes an Embedding.  On a hop metric every
    spread is an exact integer; on other metrics it may differ from the
    pairwise sum in the last bits.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    n = d.shape[0]
    if n < 2:
        raise ContractViolation("need at least two points")
    rows = max(1, _BLOCK_ELEMS // n)
    block = np.empty((min(rows, trials), n))
    coef = _coefficients(n)
    best_t, best_spread = 0, -np.inf
    for start in range(0, trials, rows):
        f = block[: min(rows, trials - start)]
        for r in range(f.shape[0]):
            _sample(d, _mix(seed, start + r), f[r])
        spreads = np.fromiter(map(coef.__rmatmul__, np.sort(f)), float, f.shape[0])
        r = int(spreads.argmax())
        if spreads[r] > best_spread:
            best_t, best_spread = start + r, spreads[r]
    return bourgain_sample(d, _mix(seed, best_t))


def _mix(seed: int, trial: int) -> int:
    """Independent per-trial streams: splitmix64 of (seed, trial)."""
    z = (seed * 0x9E3779B97F4A7C15 + trial + 1) % (1 << 64)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return z ^ (z >> 31)


def lipschitz_defect(d: np.ndarray, values) -> float:
    """max over pairs of |f(u) - f(v)| - d(u, v); <= 0 means 1-Lipschitz."""
    f = np.asarray(values, dtype=float)
    return float((np.abs(f[:, None] - f[None, :]) - d).max())
