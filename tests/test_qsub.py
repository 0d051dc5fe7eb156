import math

import numpy as np
import pytest
from conftest import random_state, random_unitary

from aeqslearn import (GoodSubspace, PreparationOperator, QueryCounter,
                       StateVector, UnitaryOperator, amplitude_amplify,
                       amplitude_estimation, counting_cdf, estimation_distribution,
                       find_maximum, grover_iterate, qft, quantum_count,
                       sample_estimation)
from aeqslearn.errors import BadResolution, DimMismatch, ZeroAngle

EIGHT_OVER_PI_SQ = 8 / math.pi**2


def prep_with_good_mass(zeta, dim=4, good=(1,)):
    """Real state with exactly the requested good-subspace probability."""
    amps = np.zeros(dim)
    spread_good = math.sqrt(zeta / len(good))
    bad = [i for i in range(dim) if i not in good]
    spread_bad = math.sqrt((1 - zeta) / len(bad)) if bad else 0.0
    for i in good:
        amps[i] = spread_good
    for i in bad:
        amps[i] = spread_bad
    return PreparationOperator.from_state(StateVector(amps)), GoodSubspace.from_indices(good)


def full_circuit_distribution(prep, good, k):
    """Independent oracle: simulate the whole joint register explicitly."""
    q = grover_iterate(prep, good).entries
    joint = np.zeros((k, prep.dim), dtype=complex)
    v = prep.state.amplitudes.copy()
    for j in range(k):
        joint[j] = v / math.sqrt(k)
        v = q @ v
    mixed = qft(k).entries.conj().T @ joint
    return np.sum(np.abs(mixed) ** 2, axis=1)


class TestQft:
    def test_k2_is_hadamard(self):
        assert np.allclose(qft(2).entries,
                           np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-12)

    def test_column_zero_is_uniform(self):
        for k in (1, 3, 8):
            col = qft(k).entries[:, 0]
            assert np.allclose(col, np.full(k, 1 / math.sqrt(k)), atol=1e-12)

    def test_unitarity_up_to_64(self):
        for k in (1, 2, 3, 4, 5, 8, 16, 32, 64):
            u = qft(k).entries
            assert np.max(np.abs(u @ u.conj().T - np.eye(k))) <= 1e-9


class TestGroverIterate:
    def test_empty_good_set_fixes_prepared_state(self):
        prep, _ = prep_with_good_mass(0.3)
        q = grover_iterate(prep, GoodSubspace.from_indices([])).entries
        psi = prep.state.amplitudes
        assert np.allclose(q @ psi, psi, atol=1e-12)

    def test_full_good_set_negates_prepared_state(self):
        prep, _ = prep_with_good_mass(0.3)
        q = grover_iterate(prep, GoodSubspace.from_indices(range(4))).entries
        psi = prep.state.amplitudes
        assert np.allclose(q @ psi, -psi, atol=1e-12)

    def test_matches_hand_built_reflections(self):
        rng = np.random.default_rng(50)
        psi = random_state(rng, 6)
        prep = PreparationOperator.from_state(StateVector(psi))
        good = GoodSubspace.from_indices([0, 4])
        c_good = np.diag([-1 if i in (0, 4) else 1 for i in range(6)]).astype(complex)
        c_a = 2 * np.outer(psi, psi.conj()) - np.eye(6)
        assert np.allclose(grover_iterate(prep, good).entries, c_a @ c_good, atol=1e-12)

    def test_rotates_plane_by_twice_the_angle(self):
        zeta = 0.3
        theta = math.asin(math.sqrt(zeta))
        prep, good = prep_with_good_mass(zeta)
        q = grover_iterate(prep, good).entries
        mask = good.mask(4)
        psi = prep.state.amplitudes
        g_hat = np.where(mask, psi, 0) / math.sin(theta)
        b_hat = np.where(mask, 0, psi) / math.cos(theta)
        v = psi.copy()
        for j in range(6):
            expected = math.cos((2 * j + 1) * theta) * b_hat \
                + math.sin((2 * j + 1) * theta) * g_hat
            assert np.allclose(v, expected, atol=1e-9)
            v = q @ v

    def test_from_unitary_preparation(self):
        rng = np.random.default_rng(51)
        u = UnitaryOperator(random_unitary(rng, 4))
        prep = PreparationOperator.from_unitary(u)
        assert np.allclose(prep.state.amplitudes, u.entries[:, 0])


class TestAmplitudeEstimation:
    def test_zero_mass_gives_zero_angle_with_certainty(self):
        prep, good = prep_with_good_mass(0.0)
        dist = estimation_distribution(prep, good, 64)
        assert dist[0] == pytest.approx(1.0, abs=1e-12)
        for seed in range(10):
            res = amplitude_estimation(prep, good, 64, np.random.default_rng(seed))
            assert res.z == 0 and res.theta_tilde == 0.0

    def test_full_mass_gives_half_pi(self):
        prep, good = prep_with_good_mass(1.0)
        for seed in range(5):
            res = amplitude_estimation(prep, good, 16, np.random.default_rng(seed))
            assert res.z == 8
            assert res.theta_tilde == pytest.approx(math.pi / 2)
            assert res.zeta_tilde == pytest.approx(1.0)

    def test_exact_grid_eigenphase_pair(self):
        zeta = math.sin(math.pi / 8) ** 2
        prep, good = prep_with_good_mass(zeta)
        dist = estimation_distribution(prep, good, 16)
        assert dist[2] == pytest.approx(0.5, abs=1e-9)
        assert dist[14] == pytest.approx(0.5, abs=1e-9)
        for seed in range(10):
            res = amplitude_estimation(prep, good, 16, np.random.default_rng(seed))
            assert res.z in (2, 14)
            assert res.zeta_tilde == pytest.approx(zeta, abs=1e-12)

    def test_matches_full_circuit_simulation(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            psi = random_state(rng, dim)
            good = GoodSubspace.from_mask(rng.integers(2, size=dim).astype(bool))
            prep = PreparationOperator.from_state(StateVector(psi))
            k = int(2 ** rng.integers(1, 6))
            dist = estimation_distribution(prep, good, k)
            oracle = full_circuit_distribution(prep, good, k)
            assert np.max(np.abs(dist - oracle)) <= 1e-9

    def test_off_grid_mass_on_nearest_pair(self):
        rng = np.random.default_rng(53)
        k = 256
        for _ in range(10):
            zeta = float(rng.uniform(0.02, 0.98))
            prep, good = prep_with_good_mass(zeta)
            dist = estimation_distribution(prep, good, k)
            target = k * math.asin(math.sqrt(zeta)) / math.pi
            lo, hi = int(math.floor(target)), int(math.ceil(target))
            mass = dist[lo] + dist[hi] + dist[(k - lo) % k] + dist[(k - hi) % k]
            assert mass >= EIGHT_OVER_PI_SQ - 1e-9

    def test_resolution_must_be_power_of_two(self):
        prep, good = prep_with_good_mass(0.5)
        with pytest.raises(BadResolution):
            amplitude_estimation(prep, good, 12, np.random.default_rng(0))

    def test_charges_k_minus_one_calls(self):
        prep, good = prep_with_good_mass(0.5)
        counter = QueryCounter()
        amplitude_estimation(prep, good, 32, np.random.default_rng(0), counter)
        assert counter.oracle_calls == 31

    def test_deterministic_given_seed(self):
        prep, good = prep_with_good_mass(0.37)
        a = amplitude_estimation(prep, good, 64, np.random.default_rng(99))
        b = amplitude_estimation(prep, good, 64, np.random.default_rng(99))
        assert a == b


class TestAmplitudeAmplify:
    def good_probability(self, state, good):
        return float(np.sum(np.abs(state.amplitudes[good.mask(state.dim)]) ** 2))

    def test_full_mass_is_fixed_point(self):
        prep, good = prep_with_good_mass(1.0)
        out = amplitude_amplify(prep, good, math.pi / 2)
        assert self.good_probability(out, good) == pytest.approx(1.0)

    def test_quarter_mass_amplifies_to_one(self):
        prep, good = prep_with_good_mass(0.25)
        out = amplitude_amplify(prep, good, math.pi / 6)
        assert self.good_probability(out, good) == pytest.approx(1.0, abs=1e-12)

    def test_half_mass_stays_half(self):
        prep, good = prep_with_good_mass(0.5)
        out = amplitude_amplify(prep, good, math.pi / 4)
        assert self.good_probability(out, good) == pytest.approx(0.5, abs=1e-12)

    def test_rotation_law_and_matrix_power_oracle(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            zeta = float(rng.uniform(0.01, 0.99))
            theta = math.asin(math.sqrt(zeta))
            prep, good = prep_with_good_mass(zeta)
            reps = math.floor(math.pi / (4 * theta))
            out = amplitude_amplify(prep, good, theta)
            expected = math.sin((2 * reps + 1) * theta) ** 2
            assert abs(self.good_probability(out, good) - expected) <= 1e-9
            q = grover_iterate(prep, good).entries
            oracle = np.linalg.matrix_power(q, reps) @ prep.state.amplitudes
            assert np.allclose(out.amplitudes, oracle, atol=1e-9)

    def test_zero_angle_rejected(self):
        prep, good = prep_with_good_mass(0.0)
        with pytest.raises(ZeroAngle):
            amplitude_amplify(prep, good, 0.0)

    def test_charges_l_calls(self):
        prep, good = prep_with_good_mass(0.25)
        counter = QueryCounter()
        amplitude_amplify(prep, good, math.pi / 6, counter)
        assert counter.oracle_calls == 1


class TestQuantumCount:
    def test_no_marked_items(self):
        for seed in range(5):
            est, _ = quantum_count(GoodSubspace.from_indices([]), 4, 64,
                                   np.random.default_rng(seed))
            assert est == 0.0

    def test_all_marked(self):
        for seed in range(5):
            est, _ = quantum_count(GoodSubspace.from_indices(range(16)), 4, 64,
                                   np.random.default_rng(seed))
            assert est == pytest.approx(16.0)

    def test_closed_form_angle_matches_dense_distribution(self):
        # counting reads the angle from the marked count alone; on the uniform
        # preparation that must give the distribution the state-level
        # estimation gives, for every count and wherever the marked set lies
        rng = np.random.default_rng(41)
        k = 64
        for n in range(7):
            dim = 1 << n
            uniform = PreparationOperator.from_state(
                StateVector(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)))
            for c in range(dim + 1):
                mask = np.zeros(dim, dtype=bool)
                mask[rng.permutation(dim)[:c]] = True
                dense = estimation_distribution(uniform, GoodSubspace.from_mask(mask), k)
                closed = np.diff(counting_cdf(c, n, k), prepend=0.0)
                assert np.max(np.abs(closed - dense)) <= 1e-12, (n, c)

    def test_shared_sampler_reproduces_quantum_count(self):
        marked = GoodSubspace.from_indices([1, 5, 6])
        for seed in range(20):
            est, result = quantum_count(marked, 3, 256, np.random.default_rng(seed))
            again = sample_estimation(counting_cdf(3, 3, 256), np.random.default_rng(seed))
            assert again == result and est == result.zeta_tilde * 8

    def test_single_marked_error_bound(self):
        # counting one item out of four at k = 1024: the standard error bound
        # 2 pi sqrt(c N)/k + pi^2 N / k^2 should hold on a healthy fraction
        n, k, marked = 2, 1024, GoodSubspace.from_indices([3])
        bound = 2 * math.pi * math.sqrt(1 * 4) / k + math.pi**2 * 4 / k**2
        hits = 0
        for seed in range(100):
            est, _ = quantum_count(marked, n, k, np.random.default_rng(seed))
            hits += abs(est - 1.0) <= bound
        assert hits >= 40


class TestFindMaximum:
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


class TestGoodSubspace:
    def test_mask_must_cover_the_space(self):
        good = GoodSubspace.from_mask([True, False, True, False])
        assert good.mask(4).tolist() == [True, False, True, False]
        with pytest.raises(DimMismatch):
            good.mask(8)

    def test_indices_pad_up_to_the_space(self):
        good = GoodSubspace.from_indices([0, 2])
        assert good.mask(5).tolist() == [True, False, True, False, False]
        assert not GoodSubspace.from_indices([]).mask(3).any()
        with pytest.raises(DimMismatch):
            good.mask(2)
