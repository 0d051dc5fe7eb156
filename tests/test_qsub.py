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
from aeqslearn.qqaf import MAX_LIVE_AMPLITUDES
from aeqslearn.qsub import (ESTIMATION_LAWS, ROUND_BLOCK, check_resolution,
                            rounded_counts, rounding_runs)

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

    def test_counting_law_is_memoized_and_read_only(self):
        for c, n, k in ((0, 3, 64), (5, 3, 1024), (5, 4, 1024), (9, 4, 256),
                        (16, 4, 1)):
            theta = good_angle(c / (1 << n))
            cdf = counting_cdf(c, n, k)
            assert np.array_equal(cdf, np.cumsum(phase_distribution(theta, k)))
            assert ESTIMATION_LAWS.entries[theta, k] is cdf
            assert counting_cdf(c, n, k) is cdf
            assert estimation_cdf(theta, k) is cdf
            assert not cdf.flags.writeable
            with pytest.raises(ValueError):
                cdf[0] = 0.5
        # one law per count / 2^n, whatever n
        assert counting_cdf(10, 4, 1024) is counting_cdf(5, 3, 1024)

    def test_counting_memo_drops_the_least_recently_used_beyond_its_floats(self):
        def key(count, k):
            return good_angle(count / 16), k

        a, b, c = (key(count, 1 << 16) for count in (1, 2, 3))
        for count in (1, 2, 3):
            counting_cdf(count, 4, 1 << 16)
        estimation_cdf(*a)  # a hit: b is now the least recently used
        # 3 * 2^16 + 2^17 floats exceed the bound by 2^16: whatever older entries
        # were held go first, then b alone
        counting_cdf(1, 4, 1 << 17)
        assert list(ESTIMATION_LAWS.entries) == [c, a, key(1, 1 << 17)]
        assert ESTIMATION_LAWS.floats == MAX_LIVE_AMPLITUDES
        # a 2^18-outcome law fills the bound alone
        large = counting_cdf(5, 4, 1 << 18)
        assert list(ESTIMATION_LAWS.entries) == [key(5, 1 << 18)]
        assert ESTIMATION_LAWS.floats == large.size == MAX_LIVE_AMPLITUDES
        estimation_cdf(*a)
        assert list(ESTIMATION_LAWS.entries) == [a]
        assert ESTIMATION_LAWS.floats == 1 << 16

    def test_zeta_is_the_python_float_square_for_every_outcome(self):
        for k in (1, 2, 1024):
            # a uniform law and one uniform inside each outcome's step
            cdf = np.arange(1, k + 1) / k
            z, _, zeta = estimation_outcomes(cdf, (np.arange(k) + 0.5) / k)
            assert z.tolist() == list(range(k))
            assert zeta.tolist() == [math.sin(math.pi * i / k) ** 2 for i in range(k)]

    def test_single_marked_error_bound(self):
        # counting one item out of four at k = 1024: the standard error bound
        # 2 pi sqrt(c N)/k + pi^2 N / k^2 should hold on a healthy fraction
        n, k = 2, 1024
        bound = 2 * math.pi * math.sqrt(1 * 4) / k + math.pi**2 * 4 / k**2
        hits = 0
        for seed in range(100):
            hits += abs(count_estimate(1, n, k, np.random.default_rng(seed)) - 1.0) <= bound
        assert hits >= 40


def rounded_table(n, k):
    """rint(zeta~ 2^n) of every outcome z in [0, k), through ``estimation_outcomes``."""
    uniform_law = np.arange(1, k + 1) / k
    _, _, zeta = estimation_outcomes(uniform_law, (np.arange(k) + 0.5) / k)
    return np.rint(zeta * (1 << n))


def break_uniforms(cdf, ends):
    """Uniforms putting v = u cdf[-1] on each threshold cdf[e] of the given run
    ends where one can, one ulp of u either side, 0 and 1 - 2^-53; and how
    many thresholds they hit."""
    total, targets = cdf[-1], cdf[ends]
    on = targets / total
    scaled = on * total
    on = np.where(scaled < targets, np.nextafter(on, 1.0),
                  np.where(scaled > targets, np.nextafter(on, 0.0), on))
    around = np.stack([np.nextafter(on, 0.0), on, np.nextafter(on, 1.0)], axis=1).ravel()
    u = np.minimum(np.concatenate([[0.0], around, [1.0 - 2.0**-53]]), 1.0 - 2.0**-53)
    return u, int(np.count_nonzero(on * total == targets))


class TestRoundedCounts:
    NS = range(1, 13)
    KS = [1 << j for j in range(13)]

    def test_runs_are_the_rounded_table_in_runs(self):
        for n in self.NS:
            for k in self.KS:
                table = rounded_table(n, k)
                runs = rounding_runs(n, k)
                ends = np.flatnonzero(table[1:] != table[:-1])
                assert runs[0].tolist() == [*ends.tolist(), k - 1]
                assert runs[1].tolist() == table[runs[0]].tolist()
                assert runs.shape[1] <= min(k, (2 << n) + 1)
                assert not runs.flags.writeable and rounding_runs(n, k) is runs

    def test_rounded_counts_hold_at_every_run_break(self):
        # every count of 2^n, n <= 12, at every k <= 4096: v on each break of
        # the runs and one ulp of u either side.  A law depends only on
        # count / 2^n, so each is built once, at n = 12, and maps the break
        # uniforms of every n it serves in one pass.
        top = self.NS[-1]
        hits = 0
        for k in self.KS:
            ends = [np.flatnonzero(np.diff(rounded_table(n, k))) for n in self.NS]
            # the laws that serve NS[i:] take break_uniforms of all their run ends
            # at once: 0, three uniforms per end, 1 - 2^-53; each n takes its share,
            # which is all of them when n = 12 alone is served
            served = []
            for i in range(len(self.NS)):
                sizes = [3 * e.size for e in ends[i:]]
                starts = np.cumsum([1] + sizes)
                shares = [(n, np.r_[0, a:a + size, starts[-1]])
                          for n, a, size in zip(self.NS[i:], starts, sizes)]
                served.append((np.concatenate(ends[i:]),
                               shares if len(shares) > 1 else [(top, slice(None))]))
            for scaled in range((1 << top) + 1):
                cdf = counting_cdf(scaled, top, k)
                twos = (scaled & -scaled).bit_length() - 1 if scaled else top
                all_ends, shares = served[max(0, top - twos - 1)]  # n >= top - twos
                u, hit = break_uniforms(cdf, all_ends)
                hits += hit
                zeta = estimation_outcomes(cdf, u)[2]
                for n, share in shares:
                    want = np.rint(zeta[share] * (1 << n))
                    assert (rounded_counts(cdf, u[share], n) == want).all(), (
                        n, k, scaled >> (top - n))
        assert hits > 0

    def test_rounded_counts_keep_the_shape(self):
        # blocks from one uniform to more than the runs number, at 2^n below,
        # near and above k
        for n, k in ((1, 1024), (3, 1024), (12, 16), (12, 4096)):
            runs = min(k, (2 << n) + 1)
            for count in (0, 1, (1 << n) // 3, 1 << n):
                cdf = counting_cdf(count, n, k)
                for shape in ((1,), (3, runs), (runs + 1,)):
                    u = np.random.default_rng(count).random(shape)
                    got = rounded_counts(cdf, u, n)
                    assert got.shape == shape and got.dtype == np.int_
                    assert np.array_equal(got, np.rint(estimation_outcomes(cdf, u)[2] * (1 << n)))


def find_maximum_reference(values, rng, counter=None, c=15.0):
    """The threshold search on find_maximum's blocks of uniforms, recomputing
    its good set over all N items each round."""
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
    pairs = []
    while used < budget and rounds < max_rounds:
        if not pairs:
            pairs = [tuple(row) for row in rng.random((ROUND_BLOCK, 2))]
        u_iter, u_meas = pairs.pop(0)
        rounds += 1
        j = math.floor(u_iter * math.ceil(m))
        good = np.flatnonzero(vals > vals[best])
        theta = math.asin(math.sqrt(good.shape[0] / n_items))
        used += j
        if counter is not None:
            counter.charge(j + 1)
        if good.shape[0] > 0 and u_meas < math.sin((2 * j + 1) * theta) ** 2:
            best = int(good[rng.integers(good.shape[0])])
            m = 1.0
        else:
            m = min(m * 1.2, schedule_cap)
    return best


def find_maximum_per_round(values, rng, counter=None, c=15.0):
    """The threshold search drawing each round's randomness with scalar generator
    calls, a bad outcome included: the law find_maximum's blocks must keep."""
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


def find_maximum_cases():
    """(values, seed, c) on which find_maximum must follow the reference loop."""
    for n_items in (512, 4096):
        for seed in range(200):
            yield np.random.default_rng([n_items, seed]).integers(
                0, 9 if seed % 2 else 65, size=n_items), seed, 15.0
    for n_items in (2, 3, 17, 64):
        for seed in range(16):
            draws = np.random.default_rng([n_items, seed])
            yield draws.integers(0, 4 if seed % 2 else 1000, size=n_items), seed, 15.0
            yield np.full(n_items, seed), seed, 15.0
            # the maximum sits where the search starts, so from the first round
            # no index beats the threshold and every round is spent in bulk
            values = draws.integers(0, 10, size=n_items)
            values[np.random.default_rng(seed).integers(n_items)] = 10
            yield values, seed, 15.0
    # at N = 2 a round spends at most one iteration, so a budget of
    # ceil(100 sqrt 2) = 142 takes at least 142 rounds: the bulk passes run
    # over three blocks, entered mid-block when the start is not the maximum
    for seed in range(8):
        yield np.array([seed % 2, 1]), seed, 100.0
    # long climbs over a permutation of 65,536 values: with these seeds a
    # block's rounds read its uniforms as floats after the previous block's did
    for seed in (18, 22, 29):
        yield np.random.default_rng([1 << 16, seed]).permutation(1 << 16), seed, 15.0


class TestFindMaximum:
    def test_memoized_split_matches_reference_loop(self):
        for values, seed, c in find_maximum_cases():
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            counter, ref_counter = QueryCounter(), QueryCounter()
            assert (find_maximum(values, rng, counter, c)
                    == find_maximum_reference(values, ref_rng, ref_counter, c))
            assert counter.oracle_calls == ref_counter.oracle_calls
            assert rng.random() == ref_rng.random()  # same draws consumed
            if c == 100.0:  # rounds = calls - 1 - iterations, at most 143 at N = 2
                assert counter.oracle_calls - 1 - 143 > 2 * ROUND_BLOCK

    @pytest.mark.parametrize("case", ["permuted-64-c1", "levels-512-c1"])
    def test_block_law_matches_per_round_loop(self, case):
        # cases where the search often stops short of the maximum: a permutation
        # of 0..63 on a budget of ceil(sqrt(64)) = 8 iterations, and 512 items on
        # nine levels holding 257, 128, ..., 2, 1 of them at c = 1; the blocked
        # draws and the per-round scalar draws run on independent seeds
        if case == "permuted-64-c1":
            vals = np.random.default_rng(5).permutation(64)
        else:
            vals = np.random.default_rng(7).permutation(
                np.repeat(np.arange(9), [257, 128, 64, 32, 16, 8, 4, 2, 1]))
        runs = 800
        found, queries = {}, {}
        for name, search, seed in (("block", find_maximum, 1),
                                   ("per-round", find_maximum_per_round, 2)):
            rng = np.random.default_rng([seed, vals.shape[0]])
            found[name], queries[name] = [], []
            for _ in range(runs):
                counter = QueryCounter()
                found[name].append(vals[search(vals, rng, counter, c=1.0)])
                queries[name].append(counter.oracle_calls)
        levels = np.unique(np.concatenate([found["block"], found["per-round"]]))
        freq = {name: np.array([np.mean(np.equal(f, v)) for v in levels])
                for name, f in found.items()}
        tv = 0.5 * np.abs(freq["block"] - freq["per-round"]).sum()
        # half the sum over levels of 4 standard errors of a difference of two
        # frequencies, each from `runs` draws, at the pooled frequency
        pooled = (freq["block"] + freq["per-round"]) / 2
        tv_bound = 2 * np.sqrt(2 * pooled * (1 - pooled) / runs).sum()
        q_block, q_ref = np.array(queries["block"]), np.array(queries["per-round"])
        q_gap = abs(q_block.mean() - q_ref.mean())
        q_bound = 4 * math.sqrt((q_block.var() + q_ref.var()) / runs)
        report = (f"TV {tv:.4f} (bound {tv_bound:.4f}), mean queries "
                  f"{q_block.mean():.2f} vs {q_ref.mean():.2f}: gap {q_gap:.2f} "
                  f"(bound {q_bound:.2f}), maximum missed in {1 - freq['block'][-1]:.3f}")
        assert freq["block"][-1] < 0.9 and freq["per-round"][-1] < 0.9, report
        assert tv <= tv_bound, report
        assert q_gap <= q_bound, report

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
