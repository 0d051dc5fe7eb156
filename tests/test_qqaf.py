import math

import numpy as np
import pytest
from conftest import (QUARTER_TURN, WH_PARAMS, basis_state, gate_design,
                      make_machine)
from dense_reference import acceptance_probability, agreement_count, agrees

from aeqslearn import (AeqsInstance, AgreementParams, GateParams, Machine,
                       MachineEncoding, MachinePool, RelationTable, Verdict,
                       accepts, all_inputs, bits_to_index, e_operator,
                       epsilon_close, index_to_bits, run, sample_encoding,
                       symbol_unitary)
from aeqslearn import qqaf
from aeqslearn.errors import BadSymbol, LengthMismatch

ETA = AgreementParams(0.9)


def test_bit_string_round_trip():
    for n in range(5):
        for i in range(1 << n):
            assert bits_to_index(index_to_bits(i, n)) == i
    assert bits_to_index("") == 0
    assert bits_to_index("10") == 2  # first character is most significant


class TestAgreementParams:
    def test_rejects_half(self):
        with pytest.raises(ValueError, match=r"\(1/2, 1\]"):
            AgreementParams(0.5)

    def test_accepts_one(self):
        assert AgreementParams(1.0).eta == 1.0


class TestRelationTable:
    def test_from_strings(self):
        r = RelationTable.from_strings(2, ["01", "10"])
        assert r.contains("01") and r.contains("10")
        assert not r.contains("00") and not r.contains("11")
        assert r.size == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            RelationTable.from_strings(2, ["011"])

    def test_complement(self):
        r = RelationTable.from_indices(2, [0])
        assert r.complement().size == 3

    def test_zero_length_domain(self):
        r = RelationTable.from_predicate(0, lambda x: True)
        assert r.n == 0 and r.size == 1 and r.contains("")


class TestRun:
    def test_identity_machine_stays_at_start(self):
        mach = make_machine()
        for x in ("", "0", "1", "0110"):
            assert epsilon_close(run(mach, x), basis_state(2, 0), 1e-9)

    def test_left_endmarker_hadamard(self):
        mach = make_machine(L=gate_design(WH_PARAMS))
        out = run(mach, "")
        assert np.allclose(out.amplitudes,
                           [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_two_quarter_turns_give_minus_start(self):
        mach = make_machine(Z=gate_design(QUARTER_TURN))
        out = run(mach, "00")
        assert np.allclose(out.amplitudes, [-1.0, 0.0], atol=1e-12)

    def test_rejects_non_bits(self):
        with pytest.raises(BadSymbol):
            run(make_machine(), "0a1")

    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mach = Machine(sample_encoding(rng, m=int(rng.integers(1, 4))))
            n = int(rng.integers(0, 4))
            x = index_to_bits(int(rng.integers(1 << n)), n)
            out = run(mach, x)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-9

    def test_symbols_applied_in_reading_order(self):
        # U_R U_1 U_0 U_L on the start state, cross-checked by direct products
        rng = np.random.default_rng(6)
        enc = sample_encoding(rng, m=2, l_tuples=1, l_designs=1)
        mach = Machine(enc)
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        for symbol in ("L", "0", "1", "R"):
            v = symbol_unitary(enc.design_for(symbol), 2).entries @ v
        assert np.allclose(run(mach, "01").amplitudes, v, atol=1e-12)


    def test_refuses_other_than_four_square_arrays(self):
        enc = sample_encoding(np.random.default_rng(2), m=2)
        own = Machine(enc)
        given = [own.unitary(symbol) for symbol in "L01R"]
        assert all(Machine(enc, given).unitary(s) is u for s, u in zip("L01R", given))
        for bad in (given[:3], given * 2, [np.eye(2, dtype=complex)] * 4,
                    given[:3] + [given[3][:3]], given[:3] + [given[3].tolist()],
                    np.stack(given), 4):
            with pytest.raises(ValueError, match=r"need 4 \(4, 4\) arrays, one per symbol"):
                Machine(enc, bad)


class TestAcceptance:
    def test_full_accepting_set(self):
        mach = make_machine(s_acc=(0, 1), L=gate_design(WH_PARAMS))
        assert acceptance_probability(mach, "") == pytest.approx(1.0)

    def test_empty_accepting_set(self):
        mach = make_machine(s_acc=())
        assert acceptance_probability(mach, "0") == 0.0

    def test_hadamard_split(self):
        mach = make_machine(L=gate_design(WH_PARAMS))
        assert acceptance_probability(mach, "") == pytest.approx(0.5)


class TestAgrees:
    def test_certain_acceptance(self):
        mach = make_machine()
        rel = RelationTable.from_predicate(2, lambda x: True)
        assert agrees(mach, "01", rel, ETA)

    def test_boundary_probability_counts(self):
        # probability exactly 1 meets the closed threshold eta = 1
        mach = make_machine()
        rel = RelationTable.from_predicate(1, lambda x: True)
        assert agrees(mach, "0", rel, AgreementParams(1.0))

    def test_half_probability_never_agrees(self):
        mach = make_machine(L=gate_design(WH_PARAMS))
        member = RelationTable.from_predicate(1, lambda x: True)
        non_member = RelationTable.from_predicate(1, lambda x: False)
        for eta in (0.6, 0.75, 1.0):
            assert not agrees(mach, "0", member, AgreementParams(eta))
            assert not agrees(mach, "0", non_member, AgreementParams(eta))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            agrees(make_machine(), "01", RelationTable.from_indices(1, []), ETA)


class TestAgreementCount:
    def test_identity_machine_accepts_everything(self):
        mach = make_machine()
        rel = RelationTable.from_predicate(3, lambda x: True)
        assert agreement_count(mach, rel, ETA) == 8

    def test_empty_relation(self):
        mach = make_machine()
        rel = RelationTable.from_predicate(3, lambda x: False)
        assert agreement_count(mach, rel, ETA) == 0

    def test_zero_length_domain(self):
        mach = make_machine()
        assert agreement_count(mach, RelationTable.from_predicate(0, lambda x: True), ETA) == 1

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            mach = Machine(sample_encoding(rng, m=int(rng.integers(1, 3))))
            n = int(rng.integers(1, 4))
            rel = RelationTable(n, rng.integers(2, size=1 << n).astype(bool))
            etas = sorted(rng.uniform(0.51, 1.0, size=3))
            counts = [agreement_count(mach, rel, AgreementParams(e)) for e in etas]
            assert counts == sorted(counts, reverse=True)

    def test_complement_symmetry(self):
        # complementing the accepting set and the relation together swaps the
        # two threshold tests, leaving every agreement bit unchanged
        rng = np.random.default_rng(14)
        for _ in range(30):
            enc = sample_encoding(rng, m=int(rng.integers(1, 3)))
            states = 1 << enc.m
            flipped = make_complement(enc, states)
            n = int(rng.integers(1, 4))
            rel = RelationTable(n, rng.integers(2, size=1 << n).astype(bool))
            eta = AgreementParams(float(rng.uniform(0.51, 0.99)))
            a = agreement_count(Machine(enc), rel, eta)
            b = agreement_count(Machine(flipped), rel.complement(), eta)
            assert a == b


def make_complement(enc, states):
    comp = tuple(i for i in range(states) if i not in enc.s_acc)
    return MachineEncoding(enc.m, comp, enc.symbol_designs)


class TestEOperator:
    def test_identity_machine_gives_start_projector_complement(self):
        mach = make_machine()
        assert np.allclose(e_operator(mach, "01").entries, np.diag([0.0, 1.0]))

    def test_hadamard_conjugation(self):
        mach = make_machine(L=gate_design(WH_PARAMS))
        expected = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(e_operator(mach, "").entries, expected, atol=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            mach = Machine(sample_encoding(rng, m=m))
            n = int(rng.integers(0, 4))
            x = index_to_bits(int(rng.integers(1 << n)), n)
            evals = np.linalg.eigvalsh(e_operator(mach, x).entries)
            expected = [0.0] + [1.0] * ((1 << m) - 1)
            assert np.allclose(evals, expected, atol=1e-9)


def test_agreement_boundary_tie_is_exact():
    # a quarter turn on symbol 1 sends the start state to |1>, so acceptance
    # probability is exactly 0 and the rejection threshold is met at eta = 1
    mach = make_machine(O=gate_design(QUARTER_TURN))
    rel = RelationTable.from_predicate(1, lambda x: False)
    assert agrees(mach, "1", rel, AgreementParams(1.0))


def test_all_inputs_order():
    assert list(all_inputs(2)) == ["00", "01", "10", "11"]


def test_exact_one_reached_up_to_rounding_meets_eta_one():
    # a three-quarter turn on R sends |0> to |1> exactly, but in floats the
    # accepting mass comes out as 0.9999999999999998; at eta = 1 it must
    # still count as reaching the threshold, on every path forming a verdict
    mach = make_machine(s_acc=(1,), R=gate_design(GateParams(7, 4, 6, 1, 8)))
    rel = RelationTable.from_predicate(1, lambda x: True)
    eta = AgreementParams(1.0)
    assert 1.0 - qqaf.VERDICT_TOL < acceptance_probability(mach, "0") < 1.0
    assert agrees(mach, "0", rel, eta)
    assert MachinePool((mach.encoding,)).agreement_counts(rel, eta).tolist() == [2]
    assert accepts(AeqsInstance(mach, eta), "0") is Verdict.ACCEPT


def random_pools(count):
    """Pools drawn as the agreement walk must handle them.

    Qubit counts are mixed within a pool, grids vary per pool, and about a
    third of the encodings come with a twin holding the complementary
    accepting set, which shares its design set.  Repeated draws are dropped,
    because a pool holds each encoding once.
    """
    rng = np.random.default_rng(7)
    for _ in range(count):
        d = int(rng.choice([1, 2, 4, 8]))
        n = int(rng.integers(1, 5))
        encs = []
        for _ in range(int(rng.integers(4, 24))):
            enc = sample_encoding(rng, m=int(rng.integers(1, 3)), d=d,
                                  l_tuples=2, l_designs=2)
            encs.append(enc)
            if rng.random() < 0.35:
                encs.append(make_complement(enc, 1 << enc.m))
        yield MachinePool(dict.fromkeys(encs)), RelationTable(
            n, rng.integers(2, size=1 << n).astype(bool))


@pytest.mark.parametrize("live", [qqaf.MAX_LIVE_AMPLITUDES, 8])
def test_agreement_table_matches_per_input_reference(monkeypatch, live):
    # live = 8 forces blocks of one design set and input chunks of two or
    # four strings, so the blocked walk is checked against the same reference
    monkeypatch.setattr(qqaf, "MAX_LIVE_AMPLITUDES", live)
    verdicts = 0
    for pool, rel in random_pools(40):
        for eta in (0.75, 0.9, 1.0):
            params = AgreementParams(eta)
            counts = pool.agreement_counts(rel, params)
            reference = [agreement_count(m, rel, params) for m in pool.machines]
            assert not counts.flags.writeable
            assert counts.tolist() == reference, (eta, rel)
            verdicts += pool.s << rel.n
    assert verdicts > 10_000
