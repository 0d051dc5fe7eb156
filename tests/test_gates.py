import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeqslearn import (DesignTuple, GateParams, MachineEncoding, SymbolDesign,
                       SYMBOLS, canonical_text, cnot_matrix, deserialize,
                       design_unitary, lifted_unitary,
                       sample_encoding, serialize, single_qubit_unitary,
                       symbol_unitary, walsh_hadamard)
from aeqslearn.errors import MalformedEncoding, WireOutOfRange

QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestSingleQubitUnitary:
    def test_all_zero_angles_is_identity(self):
        u = single_qubit_unitary(GateParams(0, 0, 0, 0, 4))
        assert np.allclose(u.entries, np.eye(2), atol=1e-12)

    def test_quarter_rotation(self):
        # cos/sin at theta = pi/2
        u = single_qubit_unitary(GateParams(0, 0, 1, 0, 4))
        assert np.allclose(u.entries, QUARTER, atol=1e-12)

    def test_half_turn_phase(self):
        # e^{i pi} = -1
        u = single_qubit_unitary(GateParams(1, 0, 0, 0, 2))
        assert np.allclose(u.entries, -np.eye(2), atol=1e-12)

    @given(d=st.integers(1, 12), data=st.data())
    def test_unit_determinant_and_unitarity(self, d, data):
        idx = [data.draw(st.integers(0, d - 1)) for _ in range(4)]
        u = single_qubit_unitary(GateParams(*idx, d))
        assert abs(abs(np.linalg.det(u.entries)) - 1.0) <= 1e-9
        assert np.max(np.abs(u.entries @ u.entries.conj().T - np.eye(2))) <= 1e-9


class TestLiftedUnitary:
    def test_lifting_identity(self):
        ident = single_qubit_unitary(GateParams(0, 0, 0, 0, 1))
        for wire in (1, 2, 3):
            u = lifted_unitary(wire, 3, ident)
            assert np.allclose(u.entries, np.eye(8), atol=1e-12)

    def test_wire_one_is_most_significant(self):
        u = lifted_unitary(1, 2, single_qubit_unitary(GateParams(0, 0, 1, 0, 4)))
        expected = np.kron(QUARTER, np.eye(2))
        assert np.allclose(u.entries, expected, atol=1e-12)

    def test_distinct_wires_commute(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pa = GateParams(*(int(rng.integers(8)) for _ in range(4)), 8)
            pb = GateParams(*(int(rng.integers(8)) for _ in range(4)), 8)
            a = lifted_unitary(1, 3, single_qubit_unitary(pa)).entries
            b = lifted_unitary(3, 3, single_qubit_unitary(pb)).entries
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12

    def test_wire_out_of_range(self):
        with pytest.raises(WireOutOfRange):
            lifted_unitary(4, 3, single_qubit_unitary(GateParams(0, 0, 0, 0, 1)))


class TestCnot:
    def test_equal_wires_gives_identity(self):
        assert np.allclose(cnot_matrix(2, 2, 3).entries, np.eye(8))

    def test_control_first_wire(self):
        # |10> -> |11>
        u = cnot_matrix(1, 2, 2).entries
        assert np.allclose(u @ np.eye(4)[:, 2], np.eye(4)[:, 3])

    def test_control_second_wire(self):
        # |01> -> |11>
        u = cnot_matrix(2, 1, 2).entries
        assert np.allclose(u @ np.eye(4)[:, 1], np.eye(4)[:, 3])

    def test_wire_out_of_range(self):
        with pytest.raises(WireOutOfRange):
            cnot_matrix(0, 1, 2)


class TestDesignUnitary:
    def test_trivial_design(self):
        u = design_unitary(DesignTuple((), (1, 1)), 1)
        assert np.allclose(u.entries, np.eye(2), atol=1e-12)

    def test_single_rotation(self):
        t = DesignTuple(((1, GateParams(0, 0, 1, 0, 4)),), (1, 1))
        assert np.allclose(design_unitary(t, 1).entries, QUARTER, atol=1e-12)

    def test_cnot_applied_first(self):
        # on |10>: CNOT(1,2) gives |11>, then the wire-2 quarter turn sends
        # |1> to -|0>, so the product maps |10> to -|10>
        t = DesignTuple(((2, GateParams(0, 0, 1, 0, 4)),), (1, 2))
        u = design_unitary(t, 2).entries
        assert np.allclose(u @ np.eye(4)[:, 2], -np.eye(4)[:, 2], atol=1e-12)

    def test_random_designs_are_unitary(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            enc = sample_encoding(rng, m=m, d=8, l_tuples=2, l_designs=2)
            for sd in enc.symbol_designs:
                u = symbol_unitary(sd, m).entries
                defect = np.max(np.abs(u @ u.conj().T - np.eye(1 << m)))
                assert defect <= 1e-9


class TestSymbolUnitary:
    def test_empty_product_is_identity(self):
        assert np.allclose(symbol_unitary(SymbolDesign(), 2).entries, np.eye(4))

    def test_minus_identity_squared(self):
        flip = DesignTuple(((1, GateParams(4, 0, 0, 0, 8)),), (1, 1))
        one = symbol_unitary(SymbolDesign((flip,)), 1).entries
        assert np.allclose(one, -np.eye(2), atol=1e-12)
        two = symbol_unitary(SymbolDesign((flip, flip)), 1).entries
        assert np.allclose(two, np.eye(2), atol=1e-12)

    def test_single_design_matches_design_unitary(self):
        t = DesignTuple(((1, GateParams(3, 1, 2, 5, 8)),), (1, 1))
        a = symbol_unitary(SymbolDesign((t,)), 1).entries
        b = design_unitary(t, 1).entries
        assert np.allclose(a, b)


def test_walsh_hadamard():
    wh1 = walsh_hadamard(1).entries
    assert np.allclose(wh1, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert np.allclose(walsh_hadamard(2).entries, np.kron(wh1, wh1))
    assert np.allclose(walsh_hadamard(0).entries, [[1.0]])


# --- serialization -----------------------------------------------------------

@st.composite
def encodings(draw):
    m = draw(st.integers(1, 3))
    d = draw(st.integers(1, 8))

    def gate_params():
        return GateParams(*(draw(st.integers(0, d - 1)) for _ in range(4)), d)

    def design():
        singles = tuple(
            (draw(st.integers(1, m)), gate_params())
            for _ in range(draw(st.integers(0, 2)))
        )
        cnot = (draw(st.integers(1, m)), draw(st.integers(1, m)))
        return DesignTuple(singles, cnot)

    designs = {
        s: SymbolDesign(tuple(design() for _ in range(draw(st.integers(0, 2)))))
        for s in SYMBOLS
    }
    states = 1 << m
    s_acc = [i for i in range(states) if draw(st.booleans())]
    return MachineEncoding.from_map(m, s_acc, designs)


class TestSerialization:
    @given(encodings())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, enc):
        assert deserialize(serialize(enc)) == enc

    @given(encodings())
    @settings(max_examples=50, deadline=None)
    def test_reserialization_is_identity_on_bytes(self, enc):
        data = serialize(enc)
        assert serialize(deserialize(data)) == data

    def test_accepting_set_order_is_canonical(self):
        designs = {s: SymbolDesign() for s in SYMBOLS}
        a = MachineEncoding.from_map(2, [3, 0, 2], designs)
        b = MachineEncoding.from_map(2, [0, 2, 3], designs)
        assert serialize(a) == serialize(b)

    def test_text_form_shape(self):
        flip = DesignTuple(((1, GateParams(4, 0, 0, 0, 8)),), (1, 1))
        enc = MachineEncoding.from_map(
            1, [0], {"L": SymbolDesign((flip,)), "0": SymbolDesign(),
                     "1": SymbolDesign(), "R": SymbolDesign()})
        assert canonical_text(enc) == "m=1\nsacc=0\nL: [(1,4,0,0,0)] cnot=(1,1) D=8\n"

    @pytest.mark.parametrize("text", [
        "m=0\nsacc=\n",
        "m=1\nsacc=2\n",
        "m=1\nsacc=1,0\n",
        "m=1\nsacc=0,0\n",
        "m=1\n",
        "m=1\nsacc=0\nL: [(1,0,0,0,0)] cnot=(1,1)\n",
        "m=1\nsacc=0\nL: [(2,0,0,0,0)] cnot=(1,1) D=1\n",
        "m=1\nsacc=0\nL: [(1,1,0,0,0)] cnot=(1,1) D=1\n",
        "m=1\nsacc=0\nL: [] cnot=(1,2) D=1\n",
        "m=1\nsacc=0\nR: [] cnot=(1,1) D=1\nL: [] cnot=(1,1) D=1\n",
        "m=1\nsacc=0\nX: [] cnot=(1,1) D=1\n",
    ])
    def test_malformed_inputs(self, text):
        with pytest.raises(MalformedEncoding):
            deserialize(text)

    def test_malformed_bytes(self):
        with pytest.raises(MalformedEncoding):
            deserialize(b"\xff\xfe")

    def test_error_reports_line(self):
        with pytest.raises(MalformedEncoding, match="line 3"):
            deserialize("m=1\nsacc=0\nL: oops\n")


def is_admissible(enc, l_tuples, l_designs):
    """Every symbol holds at most l_designs designs of at most l_tuples singles."""
    return all(len(sd.designs) <= l_designs
               and all(len(t.singles) <= l_tuples for t in sd.designs)
               for sd in enc.symbol_designs)


def test_is_admissible():
    t = DesignTuple(((1, GateParams(0, 0, 0, 0, 2)), (1, GateParams(1, 0, 0, 0, 2))),
                    (1, 1))
    enc = MachineEncoding.from_map(
        1, [0], {"L": SymbolDesign((t,)), "0": SymbolDesign(),
                 "1": SymbolDesign(), "R": SymbolDesign()})
    assert is_admissible(enc, 2, 1)
    assert not is_admissible(enc, 1, 1)   # the design holds two singles
    assert not is_admissible(enc, 2, 0)   # symbol L holds one design

    rng = np.random.default_rng(2)
    sampled = sample_encoding(rng, m=2, d=4, l_tuples=2, l_designs=2)
    assert is_admissible(sampled, 2, 2)
