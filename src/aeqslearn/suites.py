"""Self-contained verification suites behind the ``verify`` command.

Each suite re-derives its expectations independently (closed forms, dense
eigensolves, planted optima) and reports measured statistics, so a suite
passing means the corresponding subsystem agrees with its oracle at the
stated tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aeqs import AeqsInstance, ground_state, h_fin
from .qcore import phase_distance
from .qqaf import AgreementParams, Machine, index_to_bits, run
from .qsub import (QueryCounter, counting_cdf, find_maximum, good_angle,
                   phase_distribution, sample_estimation)
from .learner import sample_encoding

DEFAULT_SEED = 20250901
EIGHT_OVER_PI_SQ = 8.0 / math.pi**2
FOUR_OVER_PI_SQ = 4.0 / math.pi**2


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "\n".join(f"  {line}" for line in self.lines)
        return f"{status} {self.name}\n{body}" if body else f"{status} {self.name}"


def lemma1_suite(trials: int = 200, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Ground states of generated Hamiltonians equal the run states exactly."""
    rng = np.random.default_rng(seed)
    worst_residual = 0.0
    worst_distance = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        mach = Machine(sample_encoding(rng, m=m, d=8, l_tuples=2, l_designs=2))
        n = int(rng.integers(0, 4))
        x = index_to_bits(int(rng.integers(1 << n)), n)
        inst = AeqsInstance(mach, AgreementParams(0.9))
        h = h_fin(inst, x)
        reached = run(mach, x)
        worst_residual = max(worst_residual,
                             float(np.linalg.norm(h.entries @ reached.amplitudes)))
        worst_distance = max(worst_distance, phase_distance(ground_state(h), reached))
    passed = worst_residual <= 1e-9 and worst_distance <= 1e-9
    return SuiteResult("lemma1", passed, [
        f"{trials} random machines (m <= 3, n <= 3)",
        f"max ||H_fin . run|| = {worst_residual:.2e} (tolerance 1e-9)",
        f"max phase-blind ground-state distance = {worst_distance:.2e} (tolerance 1e-9)",
    ])


def lemma2_suite(trials: int = 500, eta_draws: int = 10,
                 seed: int = DEFAULT_SEED) -> SuiteResult:
    """Norm identity behind the acceptance criterion and its threshold form.

    For a unit state split along the accepting set, the distance to the
    normalized accepting component satisfies ||phi - psi~_1||^2 =
    2 (1 - ||psi_1||); hence closeness at sqrt(2 (1 - eta)) holds exactly
    when the accepting amplitude norm reaches eta, checked both ways.
    """
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    mismatches = 0
    checked = 0
    for _ in range(trials):
        dim = 1 << int(rng.integers(1, 4))
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi = z / np.linalg.norm(z)
        size = int(rng.integers(1, dim))
        acc = rng.choice(dim, size=size, replace=False)
        mask = np.zeros(dim, dtype=bool)
        mask[acc] = True
        psi1 = np.where(mask, phi, 0)
        amp = float(np.linalg.norm(psi1))
        if amp < 1e-12:
            continue
        min_dist = float(np.linalg.norm(phi - psi1 / amp))
        worst_identity = max(worst_identity, abs(min_dist**2 - 2 * (1 - amp)))
        for eta in rng.uniform(0.51, 1.0, size=eta_draws):
            checked += 1
            close = min_dist <= math.sqrt(2 * (1 - eta)) + 1e-12
            reaches = amp >= eta - 1e-12
            if close != reaches:
                mismatches += 1
    passed = worst_identity <= 1e-9 and mismatches == 0
    return SuiteResult("lemma2", passed, [
        f"{trials} random (state, accepting set) pairs, {checked} threshold checks",
        f"max |identity defect| = {worst_identity:.2e} (tolerance 1e-9)",
        f"criterion mismatches = {mismatches}",
    ])


def _masses_near(dist: np.ndarray, k: int, theta: float) -> float:
    target = k * theta / math.pi
    lo, hi = int(math.floor(target)), int(math.ceil(target))
    spots = {lo % k, hi % k, (k - lo) % k, (k - hi) % k}
    return float(sum(dist[z] for z in spots))


def estimation_suite(off_grid_trials: int = 50, k: int = 1024,
                     seed: int = DEFAULT_SEED) -> SuiteResult:
    """Analytic estimation distributions: grid point masses and the 8/pi^2 law."""
    rng = np.random.default_rng(seed)
    grid_defect = 0.0
    for grid_m in (0, 1, 7, k // 4, k // 2):
        theta = math.pi * grid_m / k
        dist = phase_distribution(good_angle(math.sin(theta) ** 2), k)
        pair_mass = float(dist[grid_m] + (dist[k - grid_m] if 0 < grid_m < k // 2 else 0.0))
        grid_defect = max(grid_defect, abs(pair_mass - 1.0))
    worst_offgrid = 1.0
    for _ in range(off_grid_trials):
        zeta = float(rng.uniform(0.01, 0.99))
        theta = math.asin(math.sqrt(zeta))
        if abs(round(k * theta / math.pi) - k * theta / math.pi) < 1e-9:
            continue  # landed on the grid; the bound below is for off-grid angles
        dist = phase_distribution(good_angle(zeta), k)
        worst_offgrid = min(worst_offgrid, _masses_near(dist, k, theta))
    passed = grid_defect <= 1e-9 and worst_offgrid >= EIGHT_OVER_PI_SQ - 0.01
    return SuiteResult("estimation", passed, [
        f"grid eigenphases: max pair-mass defect = {grid_defect:.2e} (tolerance 1e-9)",
        f"{off_grid_trials} off-grid angles at k={k}: min nearest-pair mass = "
        f"{worst_offgrid:.4f} (needs >= {EIGHT_OVER_PI_SQ - 0.01:.4f})",
    ])


def counting_suite(runs: int = 200, n: int = 6, k: int = 4096,
                   seed: int = DEFAULT_SEED) -> SuiteResult:
    """Counting error bound 2 pi sqrt(c N)/k + pi^2 N/k^2 at the 4/pi^2 rate."""
    rng = np.random.default_rng(seed)
    total = 1 << n
    hits = 0
    for i in range(runs):
        c = int(rng.integers(0, total + 1))
        marked = int(np.count_nonzero(_random_subset(rng, total, c)))
        est = _count(marked, n, k, np.random.default_rng([seed, i]))
        bound = 2 * math.pi * math.sqrt(c * total) / k + math.pi**2 * total / k**2
        hits += abs(est - c) <= bound
    rate = hits / runs
    exact_ok = True
    for s in range(20):
        zero = _count(0, n, k, np.random.default_rng(s))
        full = _count(total, n, k, np.random.default_rng(s))
        exact_ok = exact_ok and zero == 0.0 and abs(full - total) <= 1e-9
    passed = rate >= FOUR_OVER_PI_SQ - 0.05 and exact_ok
    return SuiteResult("counting", passed, [
        f"{runs} runs at n={n}, k={k}: bound held in {rate:.3f} "
        f"(needs >= {FOUR_OVER_PI_SQ - 0.05:.3f})",
        f"empty and full sets recovered exactly: {exact_ok}",
    ])


def _count(marked: int, n: int, k: int, rng: np.random.Generator) -> float:
    """Quantum-counting estimate zeta~ 2^n of ``marked`` strings out of 2^n."""
    return sample_estimation(counting_cdf(marked, n, k), rng).zeta_tilde * (1 << n)


def _random_subset(rng: np.random.Generator, total: int, size: int) -> np.ndarray:
    mask = np.zeros(total, dtype=bool)
    mask[rng.choice(total, size=size, replace=False)] = True
    return mask


def maxfind_suite(runs: int = 200, small: int = 64, large: int = 256,
                  seed: int = DEFAULT_SEED) -> SuiteResult:
    """Planted-maximum recovery rates and the sqrt(N) query scaling."""
    rng = np.random.default_rng(seed)

    def planted(n_items):
        # a permutation: all values distinct, one strict maximum, and the
        # threshold has to climb through many levels to reach it
        vals = rng.permutation(n_items)
        return vals, int(np.argmax(vals))

    single_wins = 0
    best_of_five_wins = 0
    queries_small = []
    for i in range(runs):
        vals, peak = planted(small)
        counter = QueryCounter()
        if find_maximum(vals, np.random.default_rng([seed, i]), counter) == peak:
            single_wins += 1
        queries_small.append(counter.oracle_calls)
        picks = [find_maximum(vals, np.random.default_rng([seed, i, r]))
                 for r in range(5)]
        best = max(picks, key=lambda idx: vals[idx])
        best_of_five_wins += best == peak
    queries_large = []
    for i in range(runs):
        vals, _ = planted(large)
        counter = QueryCounter()
        find_maximum(vals, np.random.default_rng([seed, 1000 + i]), counter)
        queries_large.append(counter.oracle_calls)
    single_rate = single_wins / runs
    five_rate = best_of_five_wins / runs
    ratio = float(np.mean(queries_large) / np.mean(queries_small))
    passed = single_rate >= 0.5 and five_rate >= 0.95 and 1.4 <= ratio <= 2.9
    return SuiteResult("maxfind", passed, [
        f"{runs} planted maxima at N={small}: single-pass rate {single_rate:.3f} "
        f"(needs >= 0.5), best-of-5 rate {five_rate:.3f} (needs >= 0.95)",
        f"mean query ratio N={large} vs N={small}: {ratio:.2f} (needs 1.4..2.9)",
    ])


SUITES = {
    "lemma1": lemma1_suite,
    "lemma2": lemma2_suite,
    "estimation": estimation_suite,
    "counting": counting_suite,
    "maxfind": maxfind_suite,
}


def run_suites(name: str) -> list[SuiteResult]:
    if name == "all":
        return [build() for build in SUITES.values()]
    if name not in SUITES:
        raise KeyError(name)
    return [SUITES[name]()]
