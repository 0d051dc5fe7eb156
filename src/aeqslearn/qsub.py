"""The Grover-family subroutines, simulated exactly on the good/bad plane.

A prepared state enters amplitude estimation, amplification, counting and
maximum finding only through its good-amplitude angle theta, sin^2(theta)
being its mass on the good set: the Grover iterate Q rotates the plane
spanned by the normalized good and bad components by 2 theta.  So every
subroutine here takes the angle (``good_angle``), or per-item good and bad
weights, never a state.  Measurement distributions are computed exactly; a
sample is drawn only where control flow needs an outcome.

Every oracle use (one per good-state phase flip) can be tallied through an
optional QueryCounter.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import BadResolution
from .qqaf import MAX_LIVE_AMPLITUDES

# Rounds of find_maximum served by one generator call, two uniforms per round.
ROUND_BLOCK = 64


class QueryCounter:
    """Monotone tally of oracle calls within one run."""

    __slots__ = ("oracle_calls",)

    def __init__(self):
        self.oracle_calls = 0

    def charge(self, calls: int) -> None:
        if calls < 0:
            raise ValueError("cannot charge a negative number of calls")
        self.oracle_calls += calls

    def __repr__(self) -> str:
        return f"QueryCounter({self.oracle_calls})"


@dataclass(frozen=True)
class EstimationResult:
    """Measured Fourier index z and the angle/amplitude estimates it encodes."""

    z: int
    theta_tilde: float
    zeta_tilde: float
    k: int

    def __post_init__(self):
        if not 0 <= self.z < self.k:
            raise ValueError(f"z={self.z} outside [0, {self.k})")
        if not 0.0 <= self.theta_tilde <= math.pi:
            raise ValueError(f"theta_tilde={self.theta_tilde} outside [0, pi]")
        if not 0.0 <= self.zeta_tilde <= 1.0:
            raise ValueError(f"zeta_tilde={self.zeta_tilde} outside [0, 1]")


def good_angle(good_mass: float) -> float:
    """The angle theta with sin^2(theta) = good mass, the mass clamped to [0, 1]."""
    return math.asin(math.sqrt(min(max(good_mass, 0.0), 1.0)))


def amplified_good_probability(theta: float, j: int) -> float:
    """Probability of seeing a good item after j Grover iterations: sin^2((2j+1) theta)."""
    return math.sin((2 * j + 1) * theta) ** 2


def _plane_scales(theta: float, j: int) -> tuple[float, float]:
    """Factors by which j Grover iterations scale the good and bad components.

    The iterate rotates the good/bad plane, so they are sin((2j+1) theta) /
    sin(theta) and cos((2j+1) theta) / cos(theta); a component of zero weight
    (sin or cos of theta at most 1e-12) gets 0.
    """
    rotated = (2 * j + 1) * theta
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return (math.sin(rotated) / sin_t if sin_t > 1e-12 else 0.0,
            math.cos(rotated) / cos_t if cos_t > 1e-12 else 0.0)


def amplified_marginal(good: np.ndarray, bad: np.ndarray, theta: float, j: int) -> np.ndarray:
    """Per-item probabilities after j Grover iterations.

    Item i of the prepared state carries good weight ``good[i]`` and bad
    weight ``bad[i]``; sin^2(theta) is the total good weight.
    """
    good_scale, bad_scale = _plane_scales(theta, j)
    return good_scale ** 2 * good + bad_scale ** 2 * bad


def sample_amplified(good: np.ndarray, bad: np.ndarray, theta: float, j: int,
                     rng: np.random.Generator) -> int:
    """Draw an item from ``amplified_marginal`` with one uniform.

    Deterministic given the generator state; items of exactly zero
    probability are never drawn.
    """
    cdf = np.cumsum(amplified_marginal(good, bad, theta, j))
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1))


def check_resolution(k: int) -> None:
    """Raise BadResolution unless k is a power of two of at most MAX_LIVE_AMPLITUDES."""
    if k < 1 or k & (k - 1):
        raise BadResolution(f"Fourier resolution k must be a power of two, got {k}")
    if k > MAX_LIVE_AMPLITUDES:
        raise BadResolution(f"Fourier resolution k={k} is more than the "
                            f"{MAX_LIVE_AMPLITUDES} outcomes an estimation may hold")


def phase_distribution(theta: float, k: int) -> np.ndarray:
    """Outcome distribution over z in [0, k) of phase-estimating angle theta."""
    # Q^j on the prepared state has plane coordinates
    # (cos((2j+1) theta), sin((2j+1) theta)); the inverse-Fourier register
    # distribution is the squared DFT of those two coordinate sequences.
    angles = (2.0 * np.arange(k) + 1.0) * theta
    dist = (np.abs(np.fft.fft(np.cos(angles))) ** 2
            + np.abs(np.fft.fft(np.sin(angles))) ** 2) / k**2
    dist /= dist.sum()
    dist.setflags(write=False)
    return dist


class _ArrayMemo:
    """Least-recently-used read-only arrays, at most ``limit`` floats in total."""

    def __init__(self, limit: int):
        self.limit = limit
        self.entries: OrderedDict = OrderedDict()
        self.floats = 0

    def get(self, key, build) -> np.ndarray:
        arr = self.entries.get(key)
        if arr is not None:
            self.entries.move_to_end(key)
            return arr
        arr = build()
        arr.setflags(write=False)
        self.entries[key] = arr
        self.floats += arr.size
        while self.floats > self.limit:
            _, old = self.entries.popitem(last=False)
            self.floats -= old.size
        return arr


ESTIMATION_LAWS = _ArrayMemo(MAX_LIVE_AMPLITUDES)


def estimation_cdf(theta: float, k: int) -> np.ndarray:
    """Cumulative estimation distribution over z in [0, k) for the angle theta.

    The array is read-only and memoized on (theta, k) in ``ESTIMATION_LAWS``.
    """
    check_resolution(k)
    return ESTIMATION_LAWS.get((theta, k), lambda: np.cumsum(phase_distribution(theta, k)))


def estimation_outcomes(cdf: np.ndarray, uniforms: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map uniforms in [0, 1) through the cumulative distribution over [0, k).

    Returns the outcomes z and their estimates theta~ = pi z / k and
    zeta~ = sin^2(theta~), one entry per uniform.  Charges nothing.
    """
    k = cdf.shape[0]
    z = np.minimum(np.searchsorted(cdf, uniforms * cdf[-1], side="right"), k - 1)
    return z, math.pi * z / k, _zeta_table(k)[z]


@lru_cache(maxsize=MAX_LIVE_AMPLITUDES.bit_length())  # every power-of-two k in range
def _zeta_table(k: int) -> np.ndarray:
    """sin^2(pi z / k) for every z in [0, k), read-only.

    Evaluated on Python floats: numpy's square of a float64 can differ from
    Python's x ** 2 in the last bit, and records must not depend on which
    path drew the outcome.
    """
    table = np.array([math.sin(math.pi * z / k) ** 2 for z in range(k)])
    table.setflags(write=False)
    return table


def sample_estimation(cdf: np.ndarray, rng: np.random.Generator,
                      counter: Optional[QueryCounter] = None) -> EstimationResult:
    """Draw the estimation outcome z from the cumulative distribution over [0, k).

    Charges k - 1 oracle calls (the controlled powers Q, Q^2, ..., Q^{k/2}).
    """
    k = cdf.shape[0]
    z, theta_tilde, zeta_tilde = estimation_outcomes(cdf, rng.random(1))
    if counter is not None:
        counter.charge(k - 1)
    return EstimationResult(z=int(z[0]), theta_tilde=float(theta_tilde[0]),
                            zeta_tilde=float(zeta_tilde[0]), k=k)


def counting_cdf(count: int, n: int, k: int) -> np.ndarray:
    """Cumulative estimation distribution for counting ``count`` marked strings of 2^n.

    Under the uniform preparation the good-amplitude angle is
    asin(sqrt(count / 2^n)), so no state needs to be built; counts with the
    same count / 2^n share one memoized law (see ``estimation_cdf``).
    """
    return estimation_cdf(good_angle(count / (1 << n)), k)


ROUNDING_RUNS = _ArrayMemo(MAX_LIVE_AMPLITUDES)


def rounding_runs(n: int, k: int) -> np.ndarray:
    """The runs of equal rounded counts rint(sin^2(pi z / k) 2^n) over z in [0, k).

    Returns a read-only (2, R) int array: run i ends at outcome
    ``runs[0, i]`` and holds the rounded count ``runs[1, i]``, so the last
    run ends at k - 1.  sin^2 rises and then falls on [0, k), so there are
    at most 2^(n+1) + 1 runs.  Memoized on (n, k) in ``ROUNDING_RUNS``, at
    most MAX_LIVE_AMPLITUDES entries in all.
    """
    def build():
        rounded = np.rint(_zeta_table(k) * (1 << n)).astype(int)
        ends = np.append(np.flatnonzero(rounded[1:] != rounded[:-1]), k - 1)
        return np.stack((ends, rounded[ends]))

    return ROUNDING_RUNS.get((n, k), build)


def rounded_counts(cdf: np.ndarray, uniforms: np.ndarray, n: int) -> np.ndarray:
    """The rounded count estimates rint(zeta~ 2^n) that the uniforms draw, as ints.

    Equal to ``np.rint(estimation_outcomes(cdf, uniforms)[2] * 2^n)``.  With
    v = u cdf[-1], the outcome z passes the run ending at e exactly when
    cdf[e] <= v, so a uniform's run (``rounding_runs``) is the number of
    earlier run ends e with cdf[e] <= v; the cap z <= k - 1 changes
    nothing, as the last run ends at k - 1.  Charges nothing.
    """
    runs = rounding_runs(n, cdf.shape[0])
    return runs[1][np.searchsorted(cdf[runs[0, :-1]], uniforms * cdf[-1], side="right")]


@lru_cache(maxsize=64)
def _schedule_ceilings(n_items: int) -> np.ndarray:
    """ceil(m) after t failed rounds of find_maximum over N items, read-only.

    m runs the search's float recurrence, 1 then min(1.2 m, sqrt(N)); past
    the first capped entry, where m stays, the table runs on for a block.
    """
    cap, m, ceilings = math.sqrt(n_items), 1.0, [1]
    while m < cap:
        m = min(m * 1.2, cap)
        ceilings.append(math.ceil(m))
    table = np.array(ceilings + ceilings[-1:] * ROUND_BLOCK)
    table.setflags(write=False)
    return table


def find_maximum(values, rng: np.random.Generator,
                 counter: Optional[QueryCounter] = None, c: float = 15.0) -> int:
    """Threshold-climbing maximum search over an indexed value oracle.

    Durr-Hoyer threshold search on the BBHT exponential schedule: from a
    uniformly drawn start, repeatedly run a Grover search for an index whose
    value beats the current threshold, raising the threshold on success,
    until a budget of ceil(c sqrt(N)) total Grover iterations is spent.  The
    schedule bound m grows by 6/5 per failed round, capped at sqrt(N), and
    resets to 1 on success.  A round takes two uniforms (u_iter, u_meas)
    from blocks of ``ROUND_BLOCK`` pairs drawn at once: j = floor(u_iter
    ceil(m)) iterations, after which a good index is observed iff
    u_meas < sin^2((2j+1) theta_t); one ``rng.integers`` then picks the
    observed good index uniformly, and a bad outcome draws nothing, as it
    leaves the threshold unchanged.  Once no index beats the threshold, a
    round only spends iterations, so the rest of each block is spent in one
    array pass: a cumulative sum of its j, cut where the budget is reached.
    Every iteration and every verification of a measured index costs one
    oracle call, charged once at the end.
    """
    vals = np.asarray(values)
    n_items = int(vals.shape[0])
    if n_items < 1:
        raise ValueError("need at least one value")
    best = int(rng.integers(n_items))
    if n_items == 1:
        return best
    budget = math.ceil(c * math.sqrt(n_items))
    ceilings = _schedule_ceilings(n_items)
    ceiling_list = ceilings.tolist()
    last = len(ceiling_list) - 1 - ROUND_BLOCK  # the first capped entry
    used = 0
    failed = 0  # rounds since the last success: m is at schedule step min(failed, last)
    rounds = 0
    max_rounds = 1000 + 40 * budget  # safety net; never binding in practice
    # the good set depends only on the threshold vals[best], which changes only
    # when a good item is drawn; None marks it stale
    good_idx = None
    while used < budget and rounds < max_rounds:
        row = rounds % ROUND_BLOCK
        if row == 0:
            block = rng.random((ROUND_BLOCK, 2))
            pairs = None  # the block as Python floats, once a scalar round reads it
        if good_idx is None:
            good_idx = np.flatnonzero(vals > vals[best])
            theta = good_angle(good_idx.shape[0] / n_items)
        if good_idx.shape[0] == 0:
            step = min(failed, last)
            spent = np.cumsum((block[row:, 0] * ceilings[step:step + ROUND_BLOCK - row])
                              .astype(np.intp))
            taken = min(int(np.searchsorted(spent, budget - used)) + 1, ROUND_BLOCK - row,
                        max_rounds - rounds)
            used += int(spent[taken - 1])
            rounds += taken
            failed += taken
            continue
        if pairs is None:
            pairs = block.tolist()
        u_iter, u_meas = pairs[row]
        rounds += 1
        j = int(u_iter * ceiling_list[min(failed, last)])
        used += j
        if u_meas < amplified_good_probability(theta, j):
            best = int(good_idx[rng.integers(good_idx.shape[0])])
            failed = 0
            good_idx = None
        else:
            failed += 1
    if counter is not None:
        counter.charge(1 + used + rounds)
    return best
