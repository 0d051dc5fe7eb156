"""Exact state-vector simulations of the Grover-family subroutines.

Amplitude estimation is phase estimation of the Grover iterate Q: the
prepared state lives in a two-dimensional Q-invariant plane spanned by its
normalized good and bad components, where Q acts as a rotation by twice the
good-amplitude angle.  Measurement distributions are computed exactly from
that plane; a sample is drawn only where control flow needs an outcome.

Every oracle use (one per good-state phase flip) can be tallied through an
optional QueryCounter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import BadResolution, DimMismatch, IndexOutOfRange, ZeroAngle
from .qcore import StateVector, UnitaryOperator


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


class GoodSubspace:
    """Boolean table over basis indices marking the good set.

    A table from ``from_mask`` must cover the space exactly; one from
    ``from_indices`` ends at its largest index and reads False beyond it.
    """

    __slots__ = ("table", "padded")

    def __init__(self, table, padded: bool = False):
        self.table = np.array(table, dtype=bool).reshape(-1)
        self.table.setflags(write=False)
        self.padded = padded

    @classmethod
    def from_indices(cls, indices) -> "GoodSubspace":
        idx = np.fromiter((int(i) for i in indices), dtype=np.int64)
        if idx.size and idx.min() < 0:
            raise IndexOutOfRange(f"negative basis index {int(idx.min())}")
        table = np.zeros(int(idx.max()) + 1 if idx.size else 0, dtype=bool)
        table[idx] = True
        return cls(table, padded=True)

    @classmethod
    def from_mask(cls, mask) -> "GoodSubspace":
        return cls(mask)

    def mask(self, dim: int) -> np.ndarray:
        size = self.table.size
        if size == dim:
            return self.table
        if self.padded and size < dim:
            out = np.zeros(dim, dtype=bool)
            out[:size] = self.table
            return out
        raise DimMismatch(f"good set covers {size} indices, the space has {dim}")


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


class PreparationOperator:
    """The state-preparation routine; a matrix, or just the state it prepares.

    Reflections about the prepared state only need the state itself, so large
    preparations can skip materializing the full unitary.
    """

    __slots__ = ("dim", "unitary", "state")

    def __init__(self, dim: int, unitary: Optional[UnitaryOperator], state: StateVector):
        if state.dim != dim or (unitary is not None and unitary.dim != dim):
            raise DimMismatch("preparation pieces disagree on dimension")
        self.dim = dim
        self.unitary = unitary
        self.state = state

    @classmethod
    def from_unitary(cls, u: UnitaryOperator) -> "PreparationOperator":
        return cls(u.dim, u, StateVector(u.entries[:, 0]))

    @classmethod
    def from_state(cls, psi: StateVector) -> "PreparationOperator":
        return cls(psi.dim, None, psi)


def qft(k: int) -> UnitaryOperator:
    """Fourier transform on k levels: entry (d, z) is e^{2 pi i z d / k} / sqrt(k)."""
    if k < 1:
        raise ValueError("need k >= 1")
    z = np.arange(k)
    return UnitaryOperator(np.exp(2j * np.pi * np.outer(z, z) / k) / math.sqrt(k))


def _split(a: PreparationOperator, g: GoodSubspace):
    """Good/bad components of the prepared state and the rotation angle."""
    psi = a.state.amplitudes
    mask = g.mask(a.dim)
    good = np.where(mask, psi, 0.0)
    bad = np.where(mask, 0.0, psi)
    zeta = float(np.sum(np.abs(good) ** 2))
    theta = math.asin(math.sqrt(min(max(zeta, 0.0), 1.0)))
    return good, bad, zeta, theta


def grover_iterate(a: PreparationOperator, g: GoodSubspace) -> UnitaryOperator:
    """Q = C_A C_good: good-state phase flip, then reflection about the prepared state.

    Each application of C_good costs one oracle call; callers that apply Q
    repeatedly charge their counters accordingly.
    """
    psi = a.state.amplitudes
    signs = np.where(g.mask(a.dim), -1.0, 1.0)
    c_a = 2.0 * np.outer(psi, psi.conj()) - np.eye(a.dim)
    return UnitaryOperator(c_a * signs[np.newaxis, :])


def _check_resolution(k: int) -> None:
    if k < 1 or k & (k - 1):
        raise BadResolution(f"Fourier resolution must be a power of two, got {k}")


def phase_distribution(theta: float, k: int) -> np.ndarray:
    """Outcome distribution over z in [0, k) of phase-estimating angle theta."""
    # Q^j on the prepared state has plane coordinates
    # (cos((2j+1) theta), sin((2j+1) theta)); the inverse-Fourier register
    # distribution is the squared DFT of those two coordinate sequences.
    angles = (2.0 * np.arange(k) + 1.0) * theta
    dist = (np.abs(np.fft.fft(np.cos(angles))) ** 2
            + np.abs(np.fft.fft(np.sin(angles))) ** 2) / k**2
    dist = np.maximum(dist, 0.0)
    dist /= dist.sum()
    dist.setflags(write=False)
    return dist


_phase_distribution = lru_cache(maxsize=256)(phase_distribution)


def estimation_distribution(a: PreparationOperator, g: GoodSubspace, k: int) -> np.ndarray:
    """Exact outcome distribution of the estimation measurement over z in [0, k)."""
    _check_resolution(k)
    _, _, _, theta = _split(a, g)
    return _phase_distribution(theta, k)


def sample_estimation(cdf: np.ndarray, rng: np.random.Generator,
                      counter: Optional[QueryCounter] = None) -> EstimationResult:
    """Draw the estimation outcome z from the cumulative distribution over [0, k).

    Charges k - 1 oracle calls (the controlled powers Q, Q^2, ..., Q^{k/2}).
    """
    k = cdf.shape[0]
    z = int(min(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"), k - 1))
    if counter is not None:
        counter.charge(k - 1)
    theta_tilde = math.pi * z / k
    return EstimationResult(z=z, theta_tilde=theta_tilde,
                            zeta_tilde=math.sin(theta_tilde) ** 2, k=k)


def amplitude_estimation(a: PreparationOperator, g: GoodSubspace, k: int,
                         rng: np.random.Generator,
                         counter: Optional[QueryCounter] = None) -> EstimationResult:
    """Phase-estimate the Grover iterate and read off theta ~ pi z / k.

    Charges k - 1 oracle calls (the controlled powers Q, Q^2, ..., Q^{k/2}).
    """
    return sample_estimation(np.cumsum(estimation_distribution(a, g, k)), rng, counter)


def amplitude_amplify(a: PreparationOperator, g: GoodSubspace, theta_tilde: float,
                      counter: Optional[QueryCounter] = None,
                      tol: float = 1e-12) -> StateVector:
    """Apply Q^l to the prepared state with l = floor(pi / (4 theta_tilde)).

    The result has good-subspace probability sin^2((2l+1) theta) where theta
    is the true good-amplitude angle.  Charges l oracle calls.
    """
    if theta_tilde <= tol:
        raise ZeroAngle(f"estimated angle {theta_tilde} too small to amplify")
    good, bad, _, theta = _split(a, g)
    reps = math.floor(math.pi / (4.0 * theta_tilde))
    if counter is not None:
        counter.charge(reps)
    rotated = (2 * reps + 1) * theta
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    amps = np.zeros(a.dim, dtype=complex)
    if cos_t > tol:
        amps += (math.cos(rotated) / cos_t) * bad
    if sin_t > tol:
        amps += (math.sin(rotated) / sin_t) * good
    return StateVector(amps)


def counting_cdf(count: int, n: int, k: int) -> np.ndarray:
    """Cumulative estimation distribution for counting ``count`` marked strings of 2^n.

    Under the uniform preparation the good-amplitude angle is
    asin(sqrt(count / 2^n)), so no state needs to be built.
    """
    _check_resolution(k)
    return np.cumsum(phase_distribution(math.asin(math.sqrt(count / (1 << n))), k))


def quantum_count(marked: GoodSubspace, n: int, k: int, rng: np.random.Generator,
                  counter: Optional[QueryCounter] = None) -> tuple[float, EstimationResult]:
    """Estimate the size of a marked subset of {0,1}^n as zeta_tilde * 2^n.

    Uses the uniform superposition as preparation, so the estimation angle
    satisfies sin^2(theta) = |marked| / 2^n exactly (see ``counting_cdf``).
    """
    count = int(np.count_nonzero(marked.mask(1 << n)))
    result = sample_estimation(counting_cdf(count, n, k), rng, counter)
    return result.zeta_tilde * (1 << n), result


def find_maximum(values, rng: np.random.Generator,
                 counter: Optional[QueryCounter] = None, c: float = 15.0) -> int:
    """Threshold-climbing maximum search over an indexed value oracle.

    Repeatedly runs an exponential-schedule Grover search for an index whose
    value beats the current threshold, raising the threshold on success,
    until a budget of c * sqrt(N) total Grover iterations is spent.  The
    measurement after j iterations is simulated exactly: a good index is
    observed with probability sin^2((2j+1) theta_t) and outcomes are uniform
    within the good and bad sets.  Every iteration and every verification of
    a measured index costs one oracle call.
    """
    vals = np.asarray(values)
    n_items = int(vals.shape[0])
    if n_items < 1:
        raise ValueError("need at least one value")
    best = int(rng.integers(n_items))
    if n_items == 1:
        return best
    if counter is not None:
        counter.charge(1)
    budget = math.ceil(c * math.sqrt(n_items))
    schedule_cap = math.sqrt(n_items)
    used = 0
    m = 1.0
    rounds = 0
    max_rounds = 1000 + 40 * budget  # safety net; never binding in practice
    while used < budget and rounds < max_rounds:
        rounds += 1
        j = int(rng.integers(0, max(1, math.ceil(m))))
        good_mask = vals > vals[best]
        n_good = int(good_mask.sum())
        theta = math.asin(math.sqrt(n_good / n_items))
        p_good = math.sin((2 * j + 1) * theta) ** 2
        used += j
        if counter is not None:
            counter.charge(j + 1)
        pick_good = n_good > 0 and rng.random() < p_good
        pool = np.flatnonzero(good_mask if pick_good else ~good_mask)
        outcome = int(pool[rng.integers(pool.shape[0])])
        if vals[outcome] > vals[best]:
            best = outcome
            m = 1.0
        else:
            m = min(m * 1.2, schedule_cap)
    return best
