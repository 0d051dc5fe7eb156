import math

import numpy as np
import pytest
from conftest import basis_state, random_state, random_unitary

from aeqslearn import (Eigensystem, HermitianOperator, StateVector,
                       UnitaryOperator, epsilon_close, good_angle,
                       hermitian_eigensystem, phase_distance, sample_amplified,
                       spectral_gap, subspace_probability)
from aeqslearn.errors import (DimMismatch, IndexOutOfRange, NonHermitian,
                              NonUnitary)

WH = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
WH_KET0 = StateVector(WH[:, 0])


class TestTypes:
    def test_state_rejects_non_unit_norm(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_state_is_read_only(self):
        s = basis_state(4, 1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(NonHermitian):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(NonUnitary):
            UnitaryOperator([[1.0, 0.0], [1.0, 1.0]])

    def test_eigensystem_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Eigensystem([1.0, 0.0], [basis_state(2, 0), basis_state(2, 1)])

    def test_eigensystem_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Eigensystem([0.0, 1.0], [basis_state(2, 0), basis_state(2, 0)])


class TestEigensystem:
    def test_zero_matrix(self):
        es = hermitian_eigensystem(HermitianOperator(np.zeros((4, 4))))
        assert np.allclose(es.eigenvalues, 0.0)

    def test_diag_plus_minus(self):
        es = hermitian_eigensystem(HermitianOperator(np.diag([1.0, -1.0])))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0])
        assert epsilon_close(es.eigenvectors[0], basis_state(2, 1), 1e-9)
        assert epsilon_close(es.eigenvectors[1], basis_state(2, 0), 1e-9)

    def test_hadamard_conjugated_projector(self):
        # multiply the three 2x2 matrices by hand: WH diag(0,1) WH
        h = HermitianOperator(WH @ np.diag([0.0, 1.0]) @ WH)
        es = hermitian_eigensystem(h)
        assert abs(es.ground_energy) < 1e-12
        assert phase_distance(es.ground_state, WH_KET0) <= 1e-9

    def test_reconstruction_of_random_hermitians(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = HermitianOperator((z + z.conj().T) / 2)
            es = hermitian_eigensystem(h)
            v = np.column_stack([s.amplitudes for s in es.eigenvectors])
            rebuilt = (v * es.eigenvalues) @ v.conj().T
            assert np.max(np.abs(rebuilt - h.entries)) <= 1e-8


class TestSpectralGap:
    def test_simple_diag(self):
        assert spectral_gap(HermitianOperator(np.diag([0.0, 1.0]))) == pytest.approx(1.0)

    def test_degenerate_ground_space_gives_zero(self):
        assert spectral_gap(HermitianOperator(np.diag([0.0, 0.0, 1.0]))) == pytest.approx(0.0)

    def test_start_projector_complement(self):
        # eigenvalues read off the diagonal of diag(0,1,1,1)
        lam = HermitianOperator(np.diag([0.0, 1.0, 1.0, 1.0]))
        assert spectral_gap(lam) == pytest.approx(1.0)


class TestSubspaceProbability:
    def test_full_index_set(self):
        rng = np.random.default_rng(5)
        s = StateVector(random_state(rng, 8))
        assert subspace_probability(s, range(8)) == pytest.approx(1.0)

    def test_hadamard_half(self):
        assert subspace_probability(WH_KET0, {0}) == pytest.approx(0.5)

    def test_empty_set(self):
        assert subspace_probability(basis_state(4, 2), set()) == 0.0

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            subspace_probability(basis_state(4, 0), {4})


def basis_sampler(s: StateVector):
    """Computational-basis measurement of ``s``, drawn by ``sample_amplified``.

    With every probability taken as good weight and no Grover iteration, the
    amplified marginal is the state's own distribution.
    """
    good = s.probabilities()
    bad, theta = np.zeros(s.dim), good_angle(float(good.sum()))
    return lambda rng: sample_amplified(good, bad, theta, 0, rng)


class TestSampleBasis:
    def test_deterministic_on_basis_state(self):
        rng = np.random.default_rng(0)
        draw = basis_sampler(basis_state(8, 3))
        assert all(draw(rng) == 3 for _ in range(50))

    def test_hadamard_frequencies(self):
        rng = np.random.default_rng(42)
        draw = basis_sampler(WH_KET0)
        hits = sum(draw(rng) == 0 for _ in range(10_000))
        assert 0.47 <= hits / 10_000 <= 0.53

    def test_zero_probability_never_sampled(self):
        draw = basis_sampler(StateVector([1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0]))
        rng = np.random.default_rng(7)
        assert all(draw(rng) in (0, 2) for _ in range(500))

    def test_empirical_distribution_total_variation(self):
        rng = np.random.default_rng(123)
        for dim in (2, 5, 16):
            ambient = StateVector(random_state(rng, dim))
            draw = basis_sampler(ambient)
            draws = np.array([draw(rng) for _ in range(100_000)])
            freq = np.bincount(draws, minlength=dim) / draws.size
            tv = 0.5 * np.sum(np.abs(freq - ambient.probabilities()))
            assert tv <= 0.02


class TestCloseness:
    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            phase_distance(basis_state(2, 0), basis_state(4, 0))

    def test_epsilon_close_reflexive(self):
        s = basis_state(2, 0)
        assert epsilon_close(s, s, 0.0)

    def test_epsilon_close_orthogonal(self):
        # distance between orthogonal unit states is sqrt(2)
        assert not epsilon_close(basis_state(2, 0), basis_state(2, 1), 1.0)

    def test_epsilon_close_hadamard(self):
        # || |0> - WH|0> || = sqrt(2 - sqrt(2)) ~ 0.765
        assert epsilon_close(basis_state(2, 0), WH_KET0, 0.77)
        assert not epsilon_close(basis_state(2, 0), WH_KET0, 0.76)

    def test_epsilon_close_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            epsilon_close(basis_state(2, 0), basis_state(4, 0), 1.0)

    def test_norm_overlap_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = random_state(rng, 6)
            b = random_state(rng, 6)
            lhs = np.linalg.norm(a - b) ** 2
            rhs = 2.0 - 2.0 * np.real(np.vdot(a, b))
            assert abs(lhs - rhs) <= 1e-9

    def test_equal_up_to_global_phase(self):
        rng = np.random.default_rng(21)
        a = random_state(rng, 4)
        phase = np.exp(1j * 1.234)
        assert phase_distance(StateVector(a), StateVector(phase * a)) <= 1e-9
        assert phase_distance(StateVector(a), basis_state(4, 0)) > 1e-9


class TestNormPreservation:
    def test_random_unitaries_preserve_norm(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            dim = int(rng.integers(2, 17))
            u = UnitaryOperator(random_unitary(rng, dim))
            s = StateVector(random_state(rng, dim))
            out = u.apply(s)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-9
