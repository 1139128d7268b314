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

Trial t of seed s draws from default_rng((_mix(s, t), 431)), the stream
bourgain_sample(d, _mix(s, t)) draws from.  best_embedding builds no
SeedSequence per trial (about 24 us on a 2-CPU Xeon, more than the rest of
a trial at n = 130): one numpy pass per block computes every trial's PCG64
seed words as numpy's SeedSequence does (_seed_words), and each trial's
Generator is seeded from its row.  numpy's own SeedSequence is the
reference the tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ContractViolation, _integer

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


def _sample(d: np.ndarray, rng: np.random.Generator, out: np.ndarray):
    """One random line embedding of d as arrays, drawn from rng: (scale j,
    anchor mask, f), with f written into `out`.  f(u) is the least d[a, u]
    over the anchors a, read from their rows; on a metric, which is
    symmetric, these are the values of their columns."""
    n = d.shape[0]
    j = int(rng.integers(0, scale_count(n) + 1))
    members = rng.random(n) < 2.0 ** (-j)
    anchors = members.nonzero()[0]
    if anchors.size:
        d[anchors].min(axis=0, out=out)
    else:
        out[:] = 0.0
    return j, members, out


def _embedding(seed: int, j: int, members: np.ndarray, f: np.ndarray) -> Embedding:
    anchors = frozenset(int(i) for i in np.flatnonzero(members))
    return Embedding(tuple(float(x) for x in f), seed, j, anchors)


def bourgain_sample(d: np.ndarray, seed: int) -> Embedding:
    """One random line embedding of the metric d, drawn from
    default_rng((seed, 431)); deterministic per non-negative integer seed.
    d is read by rows, d[a, u] for anchor a; on a metric, which is
    symmetric, that gives the same values as reading its columns."""
    seed = _integer(seed)
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    _check_metric(d)
    rng = np.random.default_rng((seed, 431))
    return _embedding(seed, *_sample(d, rng, np.empty(d.shape[0])))


def _check_metric(d: np.ndarray) -> None:
    if d.shape[0] < 2:
        raise ContractViolation("need at least two points")
    if not np.isfinite(d).all():
        raise ContractViolation("metric entries must be finite")


def default_trials(n: int) -> int:
    """50 per scale: the per-pair success rate is Omega(1/k), so this gives
    a comfortable hit probability at desk scale."""
    return 50 * (scale_count(n) + 1)


def best_embedding(d: np.ndarray, trials: int, seed: int) -> Embedding:
    """The largest-spread embedding over `trials` seeded samples.

    Trial t draws what bourgain_sample(d, _mix(seed, t)) draws, for any
    integer seed; ties in spread keep the lowest trial index.  If every
    trial is constant, as a trial of scale 0 is on any metric (every point
    is an anchor), the first is returned; callers can inspect .is_constant.
    The trials are scored a block at a time (see the module notes), each by
    the value its Embedding.spread() would have; only the winner is drawn
    again and becomes an Embedding.  On a hop metric every spread is an
    exact integer; on other metrics it may differ from the pairwise sum in
    the last bits.  A block's trial streams are seeded from one _seed_words
    pass, not one SeedSequence per trial.
    """
    if _integer(trials, "trials") < 1:
        raise ContractViolation("trials must be >= 1")
    seed = _integer(seed)
    _check_metric(d)
    n = d.shape[0]
    rows = max(1, _BLOCK_ELEMS // n)
    block = np.empty((min(rows, trials), n))
    coef = _coefficients(n)
    best_t, best_spread = 0, -np.inf
    for start in range(0, trials, rows):
        f = block[: min(rows, trials - start)]
        _sample_block(d, seed, start, f)
        spreads = np.fromiter(map(coef.__rmatmul__, np.sort(f)), float, f.shape[0])
        r = int(spreads.argmax())
        if spreads[r] > best_spread:
            best_t, best_spread = start + r, spreads[r]
    return bourgain_sample(d, _mix(seed, best_t))


def _sample_block(d: np.ndarray, seed: int, start: int, f: np.ndarray) -> None:
    """Row r of f becomes the f of trial start + r, drawn from its stream."""
    words = _seed_words(_mix_block(seed, start, f.shape[0]))
    for r, row in enumerate(words):
        _sample(d, np.random.Generator(np.random.PCG64(_Words(row))), f[r])


def _mix(seed: int, trial: int) -> int:
    """Independent per-trial streams: splitmix64 of (seed, trial)."""
    return int(_mix_block(seed, trial, 1)[0])


def _mix_block(seed: int, start: int, count: int) -> np.ndarray:
    """splitmix64 of (seed, t) for t in start..start+count-1, as uint64."""
    z = np.uint64((seed * 0x9E3779B97F4A7C15 + start + 1) % (1 << 64))
    z = z + np.arange(count, dtype=np.uint64)  # wraps mod 2^64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_words(x: np.ndarray) -> np.ndarray:
    """Row i is np.random.SeedSequence((x[i], 431)).generate_state(4,
    np.uint64), the words PCG64 seeds itself from, for uint64 x.

    numpy's SeedSequence, vectorised: the entropy words are (lo, hi, 431),
    or (lo, 431) when hi = 0, hashed into a pool of 4 uint32 words, the pool
    mixed word by word, and 8 uint32 words drawn from it, paired low word
    first.  A hash's multiplier advances by call, not by value, so one
    sequence of constants serves every row."""
    lo = (x & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (x >> np.uint64(32)).astype(np.uint32)
    short, zero = hi == 0, np.zeros_like(lo)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(lo), hashmix(np.where(short, np.uint32(431), hi)),
            hashmix(np.where(short, zero, np.uint32(431))), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(0xCA01F9DD) * pool[dst]
                         - np.uint32(0x4973F715) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [draw(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=1)


def _hasher(const: int, mult: int):
    """SeedSequence's uint32 hash, whose multiplier advances on every call."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 precomputed words: a Generator on
    PCG64(_Words(_seed_words(x)[i])) draws what default_rng((x[i], 431))
    draws, without hashing the entropy again."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def lipschitz_defect(d: np.ndarray, values) -> float:
    """max over pairs of |f(u) - f(v)| - d(u, v); <= 0 means 1-Lipschitz.
    One finite value per point of the finite metric d is required."""
    f = np.asarray(values, dtype=float)
    if f.shape != d.shape[:1]:
        raise ContractViolation(f"need one value per point, got {f.size} for {d.shape[0]}")
    if not (np.isfinite(f).all() and np.isfinite(d).all()):
        raise ContractViolation("values and metric entries must be finite")
    return float((np.abs(f[:, None] - f[None, :]) - d).max())
