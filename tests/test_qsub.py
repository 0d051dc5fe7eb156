import math

import numpy as np
import pytest
from conftest import random_state
from dense_reference import grover_iterate, phase_estimation_distribution, qft

from aeqslearn import (QueryCounter, amplified_good_probability,
                       amplified_marginal, counting_cdf, estimation_cdf,
                       estimation_outcomes, find_maximum, good_angle,
                       phase_distribution, prepared_weights, sample_amplified,
                       sample_estimation)
from aeqslearn.errors import BadResolution
from aeqslearn.qsub import check_resolution

EIGHT_OVER_PI_SQ = 8 / math.pi**2


def prep_with_good_mass(zeta, dim=4, good=(1,)):
    """Real state with exactly the requested good-set probability, and the good mask."""
    amps = np.zeros(dim)
    spread_good = math.sqrt(zeta / len(good))
    bad = [i for i in range(dim) if i not in good]
    spread_bad = math.sqrt((1 - zeta) / len(bad)) if bad else 0.0
    for i in good:
        amps[i] = spread_good
    for i in bad:
        amps[i] = spread_bad
    mask = np.zeros(dim, dtype=bool)
    mask[list(good)] = True
    return amps, mask


def good_probability(psi, good):
    return float(np.sum(np.abs(psi[good]) ** 2))


def amplified_dense(psi, good, theta_tilde):
    """The dense state after floor(pi / (4 theta_tilde)) Grover iterations."""
    reps = math.floor(math.pi / (4 * theta_tilde))
    return np.linalg.matrix_power(grover_iterate(psi, good), reps) @ psi


class TestQft:
    def test_k2_is_hadamard(self):
        assert np.allclose(qft(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-12)

    def test_column_zero_is_uniform(self):
        for k in (1, 3, 8):
            col = qft(k)[:, 0]
            assert np.allclose(col, np.full(k, 1 / math.sqrt(k)), atol=1e-12)

    def test_unitarity_up_to_64(self):
        for k in (1, 2, 3, 4, 5, 8, 16, 32, 64):
            u = qft(k)
            assert np.max(np.abs(u @ u.conj().T - np.eye(k))) <= 1e-9


class TestGroverIterate:
    def test_empty_good_set_fixes_prepared_state(self):
        psi, _ = prep_with_good_mass(0.3)
        q = grover_iterate(psi, np.zeros(4, dtype=bool))
        assert np.allclose(q @ psi, psi, atol=1e-12)

    def test_full_good_set_negates_prepared_state(self):
        psi, _ = prep_with_good_mass(0.3)
        q = grover_iterate(psi, np.ones(4, dtype=bool))
        assert np.allclose(q @ psi, -psi, atol=1e-12)

    def test_matches_hand_built_reflections(self):
        rng = np.random.default_rng(50)
        psi = random_state(rng, 6)
        good = np.isin(np.arange(6), [0, 4])
        c_good = np.diag([-1 if i in (0, 4) else 1 for i in range(6)]).astype(complex)
        c_a = 2 * np.outer(psi, psi.conj()) - np.eye(6)
        assert np.allclose(grover_iterate(psi, good), c_a @ c_good, atol=1e-12)

    def test_rotates_plane_by_twice_the_angle(self):
        zeta = 0.3
        theta = math.asin(math.sqrt(zeta))
        psi, good = prep_with_good_mass(zeta)
        q = grover_iterate(psi, good)
        g_hat = np.where(good, psi, 0) / math.sin(theta)
        b_hat = np.where(good, 0, psi) / math.cos(theta)
        v = psi.copy()
        for j in range(6):
            expected = math.cos((2 * j + 1) * theta) * b_hat \
                + math.sin((2 * j + 1) * theta) * g_hat
            assert np.allclose(v, expected, atol=1e-9)
            v = q @ v


class TestAmplitudeEstimation:
    def test_zero_mass_gives_zero_angle_with_certainty(self):
        theta = good_angle(0.0)
        dist = phase_distribution(theta, 64)
        assert dist[0] == pytest.approx(1.0, abs=1e-12)
        for seed in range(10):
            res = sample_estimation(estimation_cdf(theta, 64), np.random.default_rng(seed))
            assert res.z == 0 and res.theta_tilde == 0.0

    def test_full_mass_gives_half_pi(self):
        cdf = estimation_cdf(good_angle(1.0), 16)
        for seed in range(5):
            res = sample_estimation(cdf, np.random.default_rng(seed))
            assert res.z == 8
            assert res.theta_tilde == pytest.approx(math.pi / 2)
            assert res.zeta_tilde == pytest.approx(1.0)

    def test_exact_grid_eigenphase_pair(self):
        zeta = math.sin(math.pi / 8) ** 2
        dist = phase_distribution(good_angle(zeta), 16)
        assert dist[2] == pytest.approx(0.5, abs=1e-9)
        assert dist[14] == pytest.approx(0.5, abs=1e-9)
        for seed in range(10):
            res = sample_estimation(np.cumsum(dist), np.random.default_rng(seed))
            assert res.z in (2, 14)
            assert res.zeta_tilde == pytest.approx(zeta, abs=1e-12)

    def test_matches_full_circuit_simulation(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            psi = random_state(rng, dim)
            good = rng.integers(2, size=dim).astype(bool)
            k = int(2 ** rng.integers(1, 6))
            dist = phase_distribution(good_angle(good_probability(psi, good)), k)
            oracle = phase_estimation_distribution(psi, good, k)
            assert np.max(np.abs(dist - oracle)) <= 1e-9

    def test_off_grid_mass_on_nearest_pair(self):
        rng = np.random.default_rng(53)
        k = 256
        for _ in range(10):
            zeta = float(rng.uniform(0.02, 0.98))
            dist = phase_distribution(good_angle(zeta), k)
            target = k * math.asin(math.sqrt(zeta)) / math.pi
            lo, hi = int(math.floor(target)), int(math.ceil(target))
            mass = dist[lo] + dist[hi] + dist[(k - lo) % k] + dist[(k - hi) % k]
            assert mass >= EIGHT_OVER_PI_SQ - 1e-9

    def test_resolution_must_be_power_of_two(self):
        with pytest.raises(BadResolution):
            estimation_cdf(good_angle(0.5), 12)

    def test_resolution_is_bounded_before_allocation(self):
        check_resolution(1 << 18)
        for k in (1 << 19, 1 << 40):
            with pytest.raises(BadResolution, match=f"k={k} is more than"):
                check_resolution(k)

    def test_charges_k_minus_one_calls(self):
        counter = QueryCounter()
        sample_estimation(estimation_cdf(good_angle(0.5), 32), np.random.default_rng(0),
                          counter)
        assert counter.oracle_calls == 31

    def test_deterministic_given_seed(self):
        cdf = estimation_cdf(good_angle(0.37), 64)
        a = sample_estimation(cdf, np.random.default_rng(99))
        b = sample_estimation(cdf, np.random.default_rng(99))
        assert a == b


class TestAmplitudeAmplify:
    # the dense Grover iterate, applied floor(pi / (4 theta~)) times, against the law

    def test_full_mass_is_fixed_point(self):
        psi, good = prep_with_good_mass(1.0)
        out = amplified_dense(psi, good, math.pi / 2)
        assert good_probability(out, good) == pytest.approx(1.0)
        assert amplified_good_probability(good_angle(1.0), 0) == pytest.approx(1.0)

    def test_quarter_mass_amplifies_to_one(self):
        psi, good = prep_with_good_mass(0.25)
        out = amplified_dense(psi, good, math.pi / 6)
        assert good_probability(out, good) == pytest.approx(1.0, abs=1e-12)
        assert amplified_good_probability(good_angle(0.25), 1) == pytest.approx(1.0, abs=1e-12)

    def test_half_mass_stays_half(self):
        psi, good = prep_with_good_mass(0.5)
        out = amplified_dense(psi, good, math.pi / 4)
        assert good_probability(out, good) == pytest.approx(0.5, abs=1e-12)
        assert amplified_good_probability(good_angle(0.5), 1) == pytest.approx(0.5, abs=1e-12)

    def test_rotation_law_and_matrix_power_oracle(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            zeta = float(rng.uniform(0.01, 0.99))
            theta = math.asin(math.sqrt(zeta))
            psi, good = prep_with_good_mass(zeta)
            reps = math.floor(math.pi / (4 * theta))
            oracle = amplified_dense(psi, good, theta)
            expected = amplified_good_probability(theta, reps)
            assert abs(good_probability(oracle, good) - expected) <= 1e-9
            weights = np.abs(psi) ** 2
            law = amplified_marginal(np.where(good, weights, 0.0),
                                     np.where(good, 0.0, weights), theta, reps)
            assert np.allclose(law, np.abs(oracle) ** 2, atol=1e-9)


def count_estimate(marked, n, k, rng):
    return sample_estimation(counting_cdf(marked, n, k), rng).zeta_tilde * (1 << n)


class TestQuantumCount:
    def test_no_marked_items(self):
        for seed in range(5):
            assert count_estimate(0, 4, 64, np.random.default_rng(seed)) == 0.0

    def test_all_marked(self):
        for seed in range(5):
            assert count_estimate(16, 4, 64, np.random.default_rng(seed)) == pytest.approx(16.0)

    def test_closed_form_angle_matches_dense_distribution(self):
        # counting reads the angle from the marked count alone; on the uniform
        # preparation that must give the distribution the whole phase-estimation
        # register gives, for every count and wherever the marked set lies
        rng = np.random.default_rng(41)
        k = 64
        for n in range(7):
            dim = 1 << n
            uniform = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
            for c in range(dim + 1):
                mask = np.zeros(dim, dtype=bool)
                mask[rng.permutation(dim)[:c]] = True
                dense = phase_estimation_distribution(uniform, mask, k)
                closed = np.diff(counting_cdf(c, n, k), prepend=0.0)
                assert np.max(np.abs(closed - dense)) <= 1e-12, (n, c)

    def test_shared_sampler_reproduces_quantum_count(self):
        # the array sampler second_algorithm counts with maps fixed uniforms
        # exactly as repeated scalar counting draws do
        for c, k in ((0, 64), (3, 256), (5, 1024), (8, 1024)):
            cdf = counting_cdf(c, 3, k)
            uniforms = np.random.default_rng(c).random(300)
            z, theta, zeta = estimation_outcomes(cdf, uniforms)
            rng = np.random.default_rng(c)
            for i in range(uniforms.size):
                one = sample_estimation(cdf, rng)
                assert (one.z, one.theta_tilde, one.zeta_tilde) == (z[i], theta[i], zeta[i])

    def test_single_marked_error_bound(self):
        # counting one item out of four at k = 1024: the standard error bound
        # 2 pi sqrt(c N)/k + pi^2 N / k^2 should hold on a healthy fraction
        n, k = 2, 1024
        bound = 2 * math.pi * math.sqrt(1 * 4) / k + math.pi**2 * 4 / k**2
        hits = 0
        for seed in range(100):
            hits += abs(count_estimate(1, n, k, np.random.default_rng(seed)) - 1.0) <= bound
        assert hits >= 40


def find_maximum_reference(values, rng, counter=None, c=15.0):
    """The threshold search recomputing its good set over all N items each round."""
    vals = np.asarray(values)
    n_items = int(vals.shape[0])
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
    max_rounds = 1000 + 40 * budget
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


class TestTwoLevelLaw:
    def test_angle_and_good_probability(self):
        assert good_angle(0.0) == 0.0
        assert good_angle(1.0) == good_angle(1.0 + 1e-15) == math.pi / 2
        assert good_angle(-1e-17) == 0.0
        theta = good_angle(0.25)
        assert theta == pytest.approx(math.pi / 6, abs=1e-15)
        assert amplified_good_probability(theta, 0) == pytest.approx(0.25, abs=1e-15)
        assert amplified_good_probability(theta, 1) == pytest.approx(1.0, abs=1e-15)

    def test_marginal_splits_by_the_good_probability(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            weights = rng.random(9)
            weights /= weights.sum()
            good = weights * rng.random(9)
            bad = weights - good
            theta = good_angle(float(good.sum()))
            for j in (0, 1, 4):
                marginal = amplified_marginal(good, bad, theta, j)
                good_part = amplified_marginal(good, np.zeros(9), theta, j)
                assert marginal.sum() == pytest.approx(1.0, abs=1e-12)
                assert good_part.sum() == pytest.approx(
                    amplified_good_probability(theta, j), abs=1e-12)

    def test_zero_good_mass_is_uniform(self):
        good, bad = prepared_weights(np.zeros(6, dtype=int), 3)
        theta = good_angle(float(good.sum()))
        assert theta == 0.0
        for j in (0, 3):
            assert np.allclose(amplified_marginal(good, bad, theta, j), 1 / 6,
                               rtol=0, atol=1e-15)
        draws = [sample_amplified(good, bad, theta, 0, np.random.default_rng(seed))
                 for seed in range(600)]
        assert set(draws) == set(range(6))

    def test_full_good_mass_has_zero_cosine(self):
        good, bad = prepared_weights(np.full(5, 8), 3)  # every machine agrees everywhere
        assert not bad.any()
        theta = good_angle(float(good.sum()))
        assert math.cos(theta) <= 1e-12
        for j in (0, 2):
            marginal = amplified_marginal(good, bad, theta, j)
            assert np.all(np.isfinite(marginal))
            assert np.allclose(marginal, 1 / 5, rtol=0, atol=1e-12)

    def test_single_item(self):
        for count in (0, 3, 8):
            good, bad = prepared_weights(np.array([count]), 3)
            theta = good_angle(float(good[0]))
            for j in (0, 1, 5):
                assert amplified_marginal(good, bad, theta, j).sum() == pytest.approx(
                    1.0, abs=1e-12)
                assert sample_amplified(good, bad, theta, j, np.random.default_rng(j)) == 0


class TestFindMaximum:
    def test_memoized_split_matches_reference_loop(self):
        for n_items in (512, 4096):
            for seed in range(200):
                values = np.random.default_rng([n_items, seed]).integers(
                    0, 9 if seed % 2 else 65, size=n_items)
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                counter, ref_counter = QueryCounter(), QueryCounter()
                assert (find_maximum(values, rng, counter)
                        == find_maximum_reference(values, ref_rng, ref_counter))
                assert counter.oracle_calls == ref_counter.oracle_calls
                assert rng.random() == ref_rng.random()  # same draws consumed

    def test_constant_array(self):
        vals = np.full(32, 7)
        idx = find_maximum(vals, np.random.default_rng(0))
        assert vals[idx] == 7

    def test_single_item(self):
        counter = QueryCounter()
        assert find_maximum([5], np.random.default_rng(3), counter) == 0
        assert counter.oracle_calls == 0

    def test_finds_planted_maximum_often(self):
        rng = np.random.default_rng(55)
        wins = 0
        for seed in range(100):
            vals = rng.integers(0, 50, size=64)
            peak = int(rng.integers(64))
            vals[peak] = 100
            if find_maximum(vals, np.random.default_rng(seed)) == peak:
                wins += 1
        assert wins >= 50

    def test_deterministic_given_seed(self):
        vals = np.arange(64)[::-1].copy()
        a = find_maximum(vals, np.random.default_rng(11))
        b = find_maximum(vals, np.random.default_rng(11))
        assert a == b

    def test_query_budget(self):
        for n_items in (64, 256):
            counter = QueryCounter()
            vals = np.random.default_rng(1).integers(0, 100, size=n_items)
            find_maximum(vals, np.random.default_rng(2), counter)
            assert counter.oracle_calls <= 15 * math.sqrt(n_items) * math.log2(n_items)
