"""One-way machine semantics: runs, acceptance, agreement with a relation.

A machine reads the endmarked input L x_1 ... x_n R, applying one cached
unitary per symbol to the start state |0>.  Acceptance probability is the
mass on the accepting set; agreement with a relation at threshold eta is
evaluated exactly from amplitudes, never by sampling.

``agreement_table`` computes every machine's agreement on every input in
one batched walk of the input trie; ``agrees`` and ``agreement_vector`` are
the per-input reference it is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadSymbol, LengthMismatch
from .gates import MachineEncoding, START_STATE, SYMBOLS, SymbolDesign, symbol_unitary
from .qcore import NORM_TOL, HermitianOperator, StateVector, subspace_probability

# A probability within this distance below eta still meets the threshold, so
# that exact ties (eta = 1 reached by a state that is exactly on the
# accepting set) do not depend on the rounding of the run's arithmetic.
VERDICT_TOL = 1e-9

# Upper bound on the amplitudes held at once by agreement_table's trie walk.
MAX_LIVE_AMPLITUDES = 1 << 18


def bits_to_index(x: str) -> int:
    """Binary value of a bit string; the first character is most significant."""
    return int(x, 2) if x else 0


def index_to_bits(i: int, n: int) -> str:
    return format(i, f"0{n}b") if n else ""


def all_inputs(n: int):
    for i in range(1 << n):
        yield index_to_bits(i, n)


@dataclass(frozen=True)
class AgreementParams:
    """Accuracy threshold eta; must lie in (1/2, 1]."""

    eta: float

    def __post_init__(self):
        if not 0.5 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (1/2, 1], got {self.eta}")


def meets_threshold(p, eta: float):
    """Does probability ``p`` (a float or an array) reach eta, up to VERDICT_TOL?"""
    return p >= eta - VERDICT_TOL


class RelationTable:
    """Explicit membership table for a relation over {0,1}^n."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members):
        if n < 0:
            raise ValueError("input length must be non-negative")
        table = np.array(members, dtype=bool).reshape(-1)
        if table.size != 1 << n:
            raise LengthMismatch(f"need {1 << n} membership bits, got {table.size}")
        table.setflags(write=False)
        self.n = n
        self.members = table

    @classmethod
    def from_indices(cls, n: int, indices) -> "RelationTable":
        table = np.zeros(1 << n, dtype=bool)
        for i in indices:
            table[int(i)] = True
        return cls(n, table)

    @classmethod
    def from_strings(cls, n: int, strings) -> "RelationTable":
        idx = []
        for x in strings:
            if len(x) != n:
                raise LengthMismatch(f"string {x!r} does not have length {n}")
            idx.append(bits_to_index(x))
        return cls.from_indices(n, idx)

    @classmethod
    def from_predicate(cls, n: int, pred) -> "RelationTable":
        return cls(n, [pred(x) for x in all_inputs(n)])

    def contains(self, x) -> bool:
        i = bits_to_index(x) if isinstance(x, str) else int(x)
        return bool(self.members[i])

    def complement(self) -> "RelationTable":
        return RelationTable(self.n, ~self.members)

    @property
    def size(self) -> int:
        return int(self.members.sum())

    def __eq__(self, other) -> bool:
        return (isinstance(other, RelationTable) and self.n == other.n
                and bool(np.all(self.members == other.members)))

    def __repr__(self) -> str:
        return f"RelationTable(n={self.n}, size={self.size})"


class Machine:
    """A machine encoding together with its cached symbol unitaries.

    Machines built with the same ``shared`` dict, which maps (symbol design,
    qubit count) to read-only unitary entries, build each distinct symbol
    unitary once and share the arrays.
    """

    __slots__ = ("encoding", "_unitaries")

    def __init__(self, encoding: MachineEncoding,
                 shared: Optional[dict[tuple[SymbolDesign, int], np.ndarray]] = None):
        self.encoding = encoding
        cache = {} if shared is None else shared
        self._unitaries = {}
        for symbol, sd in zip(SYMBOLS, encoding.symbol_designs):
            key = (sd, encoding.m)
            if key not in cache:
                cache[key] = symbol_unitary(sd, encoding.m).entries
            self._unitaries[symbol] = cache[key]

    @property
    def lambda0(self) -> HermitianOperator:
        """Projector onto the complement of the start state."""
        diag = np.ones(self.dim)
        diag[START_STATE] = 0.0
        return HermitianOperator(np.diag(diag))

    @property
    def m(self) -> int:
        return self.encoding.m

    @property
    def dim(self) -> int:
        return self.encoding.states

    @property
    def s_acc(self) -> tuple[int, ...]:
        return self.encoding.s_acc

    def unitary(self, symbol: str) -> np.ndarray:
        return self._unitaries[symbol]

    def word_unitary(self, x: str) -> np.ndarray:
        """Matrix for the endmarked word: U_R U_{x_n} ... U_{x_1} U_L."""
        mat = self._unitaries["L"]
        for ch in x:
            if ch not in ("0", "1"):
                raise BadSymbol(f"input may contain only 0 and 1, got {ch!r}")
            mat = self._unitaries[ch] @ mat
        return self._unitaries["R"] @ mat

    def __repr__(self) -> str:
        return f"Machine(m={self.m}, s_acc={self.s_acc})"


def run(mach: Machine, x: str) -> StateVector:
    """Final state after reading the endmarked input from the start state."""
    v = np.zeros(mach.dim, dtype=complex)
    v[START_STATE] = 1.0
    v = mach.unitary("L") @ v
    for ch in x:
        if ch not in ("0", "1"):
            raise BadSymbol(f"input may contain only 0 and 1, got {ch!r}")
        v = mach.unitary(ch) @ v
    return StateVector(mach.unitary("R") @ v)


def acceptance_probability(mach: Machine, x: str) -> float:
    return subspace_probability(run(mach, x), mach.s_acc)


def agrees(mach: Machine, x: str, rel: RelationTable, params: AgreementParams) -> bool:
    """Does the acceptor match the relation on x at threshold eta?

    Members must be accepted with probability >= eta, non-members rejected
    with probability >= eta; equality counts as satisfying the threshold.
    """
    if len(x) != rel.n:
        raise LengthMismatch(f"input length {len(x)} vs relation length {rel.n}")
    p_acc = acceptance_probability(mach, x)
    return bool(meets_threshold(p_acc if rel.contains(x) else 1.0 - p_acc, params.eta))


def agreement_vector(mach: Machine, rel: RelationTable, params: AgreementParams) -> np.ndarray:
    """Agreement bit for every input of length n, in index order."""
    bits = np.zeros(1 << rel.n, dtype=bool)
    for i, x in enumerate(all_inputs(rel.n)):
        bits[i] = agrees(mach, x, rel, params)
    return bits


def agreement_count(mach: Machine, rel: RelationTable, params: AgreementParams) -> int:
    """Number of length-n inputs on which the machine agrees, by exact enumeration."""
    return int(agreement_vector(mach, rel, params).sum())


def e_operator(mach: Machine, x: str) -> HermitianOperator:
    """Conjugate the start-state projector complement by the word unitary."""
    u = mach.word_unitary(x)
    return HermitianOperator(u @ mach.lambda0.entries @ u.conj().T)


def agreement_table(machines: Sequence[Machine], rel: RelationTable,
                    params: AgreementParams) -> np.ndarray:
    """Read-only (s, 2^n) table: entry (i, x) is ``agrees(machines[i], x, rel, params)``.

    Machines with the same qubit count and symbol designs share one run per
    input, so each distinct design set's unitaries are stacked once and the
    input trie is walked breadth-first over the stack: every prefix state is
    computed once, in blocks holding at most MAX_LIVE_AMPLITUDES amplitudes.
    Only the accepting sets, applied last, differ within a design set.
    """
    n = rel.n
    by_qubits: dict[int, dict[tuple, list[int]]] = {}
    for row, mach in enumerate(machines):
        design_sets = by_qubits.setdefault(mach.m, {})
        design_sets.setdefault(mach.encoding.symbol_designs, []).append(row)
    table = np.empty((len(machines), 1 << n), dtype=bool)
    for m, design_sets in by_qubits.items():
        dim = 1 << m
        depth = min(n, max(0, (MAX_LIVE_AMPLITUDES // dim).bit_length() - 1))
        max_rows = max(1, MAX_LIVE_AMPLITUDES // (dim << depth))
        for block in _blocks(list(design_sets.values()), max_rows):
            _fill_block(table, machines, block, rel, params, depth)
    table.setflags(write=False)
    return table


def _blocks(design_sets: list[list[int]], max_rows: int):
    """Consecutive runs of design sets holding at most ``max_rows`` machines (or one set)."""
    block: list[list[int]] = []
    rows = 0
    for machine_rows in design_sets:
        if block and rows + len(machine_rows) > max_rows:
            yield block
            block, rows = [], 0
        block.append(machine_rows)
        rows += len(machine_rows)
    if block:
        yield block


def _fill_block(table: np.ndarray, machines: Sequence[Machine], block: list[list[int]],
                rel: RelationTable, params: AgreementParams, depth: int) -> None:
    """Verdicts for the machines of one block of design sets, 2^depth inputs at a time.

    Each chunk of inputs shares its first n - depth bits; the states after
    that common prefix are computed once per design set and then expanded
    breadth-first over the last ``depth`` bits.
    """
    n = rel.n
    # transposed unitaries, so that states @ right[sym] applies them to row vectors
    right = {sym: np.stack([machines[rows[0]].unitary(sym).T for rows in block])
             for sym in SYMBOLS}
    rows = np.array([r for machine_rows in block for r in machine_rows])
    design_of = np.repeat(np.arange(len(block)), [len(r) for r in block])
    dim = right["L"].shape[1]
    accepting = np.zeros((rows.size, dim))
    for i, r in enumerate(rows):
        accepting[i, list(machines[r].s_acc)] = 1.0
    width = 1 << depth
    for top in range(1 << (n - depth)):
        states = right["L"][:, None, START_STATE, :]  # U_L |0> as (sets, 1, dim)
        for bit in index_to_bits(top, n - depth):
            states = states @ right[bit]
        for _ in range(depth):
            states = np.stack([states @ right["0"], states @ right["1"]], axis=2)
            states = states.reshape(len(block), -1, dim)
        probs = np.abs(states @ right["R"]) ** 2
        defect = float(np.max(np.abs(probs.sum(axis=2) - 1.0)))
        if defect > NORM_TOL:
            raise ValueError(f"run state is not unit norm: max |sum |a|^2 - 1| = {defect!r}")
        p_acc = np.einsum("mpd,md->mp", probs[design_of], accepting)
        cols = slice(top * width, (top + 1) * width)
        side = np.where(rel.members[cols], p_acc, 1.0 - p_acc)
        table[rows, cols] = meets_threshold(side, params.eta)
