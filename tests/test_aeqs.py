import math

import numpy as np
import pytest
from conftest import (WH_PARAMS, basis_state, gate_design, make_machine,
                      random_state)

from aeqslearn import (AeqsInstance, AgreementParams, HermitianOperator,
                       Machine, RelationTable, StateVector, Verdict, accepts,
                       adiabatic_time_bound, e_operator, epsilon_close,
                       ground_state, h_fin, h_ini, index_to_bits, interpolate,
                       phase_distance, run, sample_encoding, solves,
                       spectral_gap, walsh_hadamard)
from aeqslearn.errors import BadTime, DegenerateGroundState, ZeroGap

ETA = AgreementParams(0.9)


def instance(mach, eta=0.9, eps=0.1):
    return AeqsInstance(mach, AgreementParams(eta), eps)


class TestInstance:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            AeqsInstance(make_machine(), ETA, 1.0)


class TestHIni:
    def test_single_qubit_matrix(self):
        h = h_ini(instance(make_machine()))
        assert np.allclose(h.entries, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)

    def test_ground_state_is_spread_start(self):
        for m in (1, 2, 3):
            inst = instance(make_machine(m=m))
            h = h_ini(inst)
            gs = ground_state(h)
            expected = walsh_hadamard(m).apply(basis_state(1 << m, 0))
            assert phase_distance(gs, expected) <= 1e-9
            energy = gs.amplitudes.conj() @ h.entries @ gs.amplitudes
            assert abs(complex(energy)) <= 1e-12

    def test_gap_is_one_for_every_size(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 3):
            mach = Machine(sample_encoding(rng, m=m))
            assert spectral_gap(h_ini(instance(mach))) == pytest.approx(1.0, abs=1e-9)


class TestHFin:
    def test_identity_machine(self):
        h = h_fin(instance(make_machine()), "01")
        assert np.allclose(h.entries, np.diag([0.0, 1.0]))

    def test_gap_always_one(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            mach = Machine(sample_encoding(rng, m=int(rng.integers(1, 4))))
            n = int(rng.integers(0, 4))
            x = index_to_bits(int(rng.integers(1 << n)), n)
            assert spectral_gap(h_fin(instance(mach), x)) == pytest.approx(1.0, abs=1e-9)

    def test_ground_state_is_run_state(self):
        # small-scale run of the ground-state form check; the acceptance suite
        # repeats it over 200 machines
        rng = np.random.default_rng(34)
        for _ in range(20):
            mach = Machine(sample_encoding(rng, m=int(rng.integers(1, 4))))
            n = int(rng.integers(0, 4))
            x = index_to_bits(int(rng.integers(1 << n)), n)
            h = h_fin(instance(mach), x)
            reached = run(mach, x)
            assert float(np.linalg.norm(h.entries @ reached.amplitudes)) <= 1e-9
            assert phase_distance(ground_state(h), reached) <= 1e-9


class TestGroundState:
    def test_simple_diag(self):
        assert epsilon_close(ground_state(HermitianOperator(np.diag([0.0, 1.0]))),
                             basis_state(2, 0), 1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGroundState):
            ground_state(HermitianOperator(np.diag([0.0, 0.0, 1.0])))

    def test_diag_plus_minus(self):
        assert epsilon_close(ground_state(HermitianOperator(np.diag([1.0, -1.0]))),
                             basis_state(2, 1), 1e-9)

    def test_hadamard_conjugated_projector(self):
        # multiply the three 2x2 matrices by hand: WH diag(0,1) WH
        wh = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        h = HermitianOperator(wh @ np.diag([0.0, 1.0]) @ wh)
        gs = ground_state(h)
        assert abs(complex(gs.amplitudes.conj() @ h.entries @ gs.amplitudes)) < 1e-12
        assert phase_distance(gs, StateVector(wh[:, 0])) <= 1e-9

    def test_one_dimensional_operator_raises(self):
        h = HermitianOperator([[2.0]])
        with pytest.raises(ValueError):
            spectral_gap(h)
        with pytest.raises(ValueError):
            ground_state(h)

    def test_single_eigh_without_eigvalsh(self, monkeypatch):
        # the gap is read off the same eigh call that yields the eigenvector
        rng = np.random.default_rng(43)
        cases = []
        for m in (1, 2, 3, 4):
            inst = instance(Machine(sample_encoding(rng, m=m)))
            n = int(rng.integers(0, 4))
            cases += [h_ini(inst), h_fin(inst, index_to_bits(int(rng.integers(1 << n)), n))]
        expected = [np.linalg.eigh(h.entries)[1][:, 0] for h in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("ground_state called eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for h, amplitudes in zip(cases, expected):
            assert ground_state(h).amplitudes.tobytes() == amplitudes.tobytes()


class TestAccepts:
    def test_identity_machine_accepts(self):
        assert accepts(instance(make_machine(s_acc=(0,))), "01") is Verdict.ACCEPT

    def test_identity_machine_rejects(self):
        assert accepts(instance(make_machine(s_acc=(1,))), "01") is Verdict.REJECT

    def test_hadamard_ground_state_is_undecided(self):
        mach = make_machine(s_acc=(0,), L=gate_design(WH_PARAMS))
        assert accepts(instance(mach, eta=0.6), "") is Verdict.UNDECIDED

    def test_never_both_sides(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            mach = Machine(sample_encoding(rng, m=int(rng.integers(1, 3))))
            verdict = accepts(instance(mach, eta=0.7), "10")
            assert verdict in (Verdict.ACCEPT, Verdict.REJECT, Verdict.UNDECIDED)


class TestSolves:
    def test_identity_machine_solves_full_relation(self):
        inst = instance(make_machine(s_acc=(0,)))
        assert solves(inst, RelationTable.from_predicate(2, lambda x: True))

    def test_identity_machine_fails_empty_relation(self):
        inst = instance(make_machine(s_acc=(0,)))
        assert not solves(inst, RelationTable.from_predicate(2, lambda x: False))

    def test_zero_length_domain(self):
        inst = instance(make_machine(s_acc=(0,)))
        assert solves(inst, RelationTable.from_predicate(0, lambda x: True))


class TestInterpolate:
    def setup_method(self):
        self.a = HermitianOperator(np.diag([0.0, 1.0]))
        self.b = HermitianOperator(0.5 * np.array([[1, -1], [-1, 1]]))

    def test_endpoints(self):
        assert np.allclose(interpolate(self.a, self.b, 0.0, 2.0).entries, self.a.entries)
        assert np.allclose(interpolate(self.a, self.b, 2.0, 2.0).entries, self.b.entries)

    def test_midpoint_is_average(self):
        mid = interpolate(self.a, self.b, 1.0, 2.0)
        assert np.allclose(mid.entries, (self.a.entries + self.b.entries) / 2)

    def test_bad_time(self):
        for t, total in ((-0.1, 1.0), (1.1, 1.0), (0.0, 0.0)):
            with pytest.raises(BadTime):
                interpolate(self.a, self.b, t, total)


class TestAdiabaticTimeBound:
    def test_equal_hamiltonians(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        report = adiabatic_time_bound(h, h, 0.1, 1.0, grid=11)
        assert report.norm_diff == 0.0
        assert report.t_bound == 0.0
        assert report.min_gap == pytest.approx(1.0)

    def test_machine_pair_against_closed_form(self):
        # start at the Hadamard-conjugated projector, end at diag(0,1); the
        # interpolated gap is sqrt(s^2 + (1-s)^2), minimized to 1/sqrt(2)
        mach = make_machine()
        start = h_ini(instance(mach))
        end = e_operator(mach, "")
        report = adiabatic_time_bound(start, end, 0.1, 1.0, grid=101)
        fracs = np.linspace(0.0, 1.0, 101)
        oracle_gap = min(math.sqrt(s * s + (1 - s) * (1 - s)) for s in fracs)
        assert report.min_gap == pytest.approx(oracle_gap, abs=1e-12)
        assert report.norm_diff == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        expected = report.norm_diff / (0.1 * report.min_gap**3)
        assert report.t_bound == pytest.approx(expected)
        assert math.isfinite(report.t_bound)
        assert report.max_norm == pytest.approx(1.0, abs=1e-9)

    def test_grid_gap_matches_dense_eigensolve(self):
        rng = np.random.default_rng(37)
        mach = Machine(sample_encoding(rng, m=2))
        start = h_ini(instance(mach))
        end = h_fin(instance(mach), "10")
        report = adiabatic_time_bound(start, end, 0.2, 0.5, grid=41)
        gaps, norms = [], []
        for s in np.linspace(0.0, 1.0, 41):
            h_s = (1 - s) * start.entries + s * end.entries
            evals = np.linalg.eigvalsh(h_s)
            gaps.append(max(0.0, float(evals[1] - evals[0])))
            norms.append(float(np.linalg.norm(h_s, 2)))
        assert report.min_gap == min(gaps)
        assert report.max_norm == pytest.approx(max(norms), rel=1e-12, abs=0.0)
        # each H_t is the one the checked interpolate builds, bit for bit
        spectra = [np.linalg.eigvalsh(interpolate(start, end, s, 1.0).entries)
                   for s in np.linspace(0.0, 1.0, 41)]
        assert report.max_norm == max(float(np.abs(evals).max()) for evals in spectra)

    def test_one_eigvalsh_per_grid_point(self, monkeypatch):
        rng = np.random.default_rng(38)
        mach = Machine(sample_encoding(rng, m=2))
        start = h_ini(instance(mach))
        end = h_fin(instance(mach), "01")
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        adiabatic_time_bound(start, end, 0.2, 0.5, grid=17)
        assert len(calls) == 17

    def test_zero_gap_raises(self):
        start = HermitianOperator(np.diag([0.0, 0.0, 1.0]))
        end = HermitianOperator(np.diag([0.0, 1.0, 1.0]))
        with pytest.raises(ZeroGap):
            adiabatic_time_bound(start, end, 0.1, 1.0, grid=5)


class TestClosenessCriterion:
    """The norm identity behind the acceptance threshold.

    For a unit state split as psi_1 + psi_2 along the accepting set,
    ||phi - psi_1/||psi_1|| ||^2 = 2 (1 - ||psi_1||), so closeness at
    sqrt(2 (1 - eta)) is the same as accepting-amplitude norm >= eta.
    """

    def test_identity_and_equivalence(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            dim = 1 << m
            phi = random_state(rng, dim)
            k = int(rng.integers(1, dim))
            s_acc = rng.choice(dim, size=k, replace=False)
            mask = np.zeros(dim, dtype=bool)
            mask[s_acc] = True
            psi1 = np.where(mask, phi, 0)
            amp = np.linalg.norm(psi1)
            if amp < 1e-12:
                continue
            lhs = np.linalg.norm(phi - psi1 / amp) ** 2
            assert abs(lhs - 2 * (1 - amp)) <= 1e-9
            for eta in rng.uniform(0.51, 1.0, size=10):
                close = np.sqrt(lhs) <= math.sqrt(2 * (1 - eta)) + 1e-12
                assert close == (amp >= eta - 1e-12)
            # the Born-rule direction that holds unconditionally:
            # mass >= eta implies amplitude norm >= eta, hence closeness
            eta = float(rng.uniform(0.51, 1.0))
            if amp**2 >= eta:
                assert np.sqrt(lhs) <= math.sqrt(2 * (1 - eta)) + 1e-12
