"""One-way machine semantics: runs and agreement with a relation.

A machine reads the endmarked input L x_1 ... x_n R, applying one cached
unitary per symbol to the start state |0>.  Acceptance probability is the
mass on the accepting set; agreement with a relation at threshold eta is
evaluated exactly from amplitudes, never by sampling.

``factored_agreement_counts`` computes every machine's agreement count in
one batched walk of the input trie, over machines given as (accepting set,
design set) factors, the form in which ``MachinePool`` holds them.  The
per-input reference it is tested against lives with the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadSymbol, LengthMismatch
from .gates import MachineEncoding, START_STATE, SYMBOLS, SymbolDesign, symbol_unitary
from .qcore import NORM_TOL, HermitianOperator, StateVector

# A probability within this distance below eta still meets the threshold, so
# that exact ties (eta = 1 reached by a state that is exactly on the
# accepting set) do not depend on the rounding of the run's arithmetic.
VERDICT_TOL = 1e-9

# Upper bound on the amplitudes held at once by factored_agreement_counts's
# trie walk; PoolConfig, parse_relation and check_resolution also refuse
# qubit counts, input lengths and Fourier resolutions that need more.
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

    def __repr__(self) -> str:
        return f"RelationTable(n={self.n}, size={self.size})"


UnitaryCache = dict[tuple[SymbolDesign, int], np.ndarray]


def shared_unitary(cache: UnitaryCache, sd: SymbolDesign, m: int) -> np.ndarray:
    """Read-only entries of ``symbol_unitary(sd, m)``, built once per ``cache``."""
    entries = cache.get((sd, m))
    if entries is None:
        entries = cache[sd, m] = symbol_unitary(sd, m).entries
    return entries


class Machine:
    """A machine encoding together with its cached symbol unitaries.

    Machines built with the same ``shared`` cache (see ``shared_unitary``)
    build each distinct symbol unitary once and share the arrays.
    """

    __slots__ = ("encoding", "_unitaries")

    def __init__(self, encoding: MachineEncoding, shared: Optional[UnitaryCache] = None):
        self.encoding = encoding
        cache = {} if shared is None else shared
        self._unitaries = {symbol: shared_unitary(cache, sd, encoding.m)
                           for symbol, sd in zip(SYMBOLS, encoding.symbol_designs)}

    @property
    def lambda0(self) -> np.ndarray:
        """Projector onto the complement of the start state, as a complex matrix."""
        diag = np.ones(self.dim, dtype=complex)
        diag[START_STATE] = 0.0
        return np.diag(diag)

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


def e_operator(mach: Machine, x: str) -> HermitianOperator:
    """Conjugate the start-state projector complement by the word unitary."""
    u = mach.word_unitary(x)
    return HermitianOperator(u @ mach.lambda0 @ u.conj().T)


def factored_agreement_counts(design_sets: Sequence[tuple[int, Sequence[np.ndarray]]],
                              accepting_sets: Sequence[tuple[int, ...]], rows: np.ndarray,
                              rel: RelationTable, params: AgreementParams) -> np.ndarray:
    """Read-only agreement counts, over all 2^n inputs, of machines given by their factors.

    Machine r accepts on ``accepting_sets[rows[r, 0]]`` and runs the design
    set ``design_sets[rows[r, 1]]``, a qubit count with its symbol unitaries
    in SYMBOLS order.  Machines whose design sets hold equal unitaries share
    one run per input, so one design set per distinct run of each qubit
    count is stacked and the input trie is walked breadth-first over the
    stack: every prefix state is computed once, in blocks holding at most
    about MAX_LIVE_AMPLITUDES amplitudes or acceptance probabilities.  An
    (accepting sets, 2^m) 0/1 mask then turns each run's final
    probabilities into the acceptance probability of every accepting set at
    once, and each chunk of inputs adds its verdicts to a count per (run,
    accepting set) pair, which each machine reads once at the end; no
    (s, 2^n) table is held.
    """
    n = rel.n
    counts = np.zeros(rows.shape[0], dtype=int)
    qubits = np.array([m for m, _ in design_sets], dtype=np.intp)
    for m in sorted(set(qubits.tolist())):
        sets = np.flatnonzero(qubits == m)
        mine = np.flatnonzero(qubits[rows[:, 1]] == m)
        used, acc_of = np.unique(rows[mine, 0], return_inverse=True)
        dim = 1 << m
        mask = np.zeros((used.size, dim))
        for j, a in enumerate(used.tolist()):
            mask[j, list(accepting_sets[a])] = 1.0
        # design sets whose symbol unitaries are equal byte for byte run alike: number
        # the runs in order of first appearance and walk the first set of each
        runs: dict[bytes, int] = {}
        run_of = np.array([runs.setdefault(b"".join(u.tobytes() for u in design_sets[g][1]),
                                           len(runs)) for g in sets.tolist()])
        walked = sets[np.unique(run_of, return_index=True)[1]]
        # transposed unitaries, so that states @ right[sym] applies them to row vectors
        right = {sym: np.stack([design_sets[g][1][i].T for g in walked.tolist()])
                 for i, sym in enumerate(SYMBOLS)}
        depth = min(n, max(0, (MAX_LIVE_AMPLITUDES // dim).bit_length() - 1))
        per_block = max(1, MAX_LIVE_AMPLITUDES // (max(dim, used.size) << depth))
        agree = np.zeros((walked.size, used.size), dtype=int)
        for lo in range(0, walked.size, per_block):
            block = {sym: stack[lo:lo + per_block] for sym, stack in right.items()}
            _fill_block(agree[lo:lo + per_block], block, mask, rel, params, depth)
        counts[mine] = agree[run_of[np.searchsorted(sets, rows[mine, 1])], acc_of]
    counts.setflags(write=False)
    return counts


def _fill_block(agree: np.ndarray, right: dict[str, np.ndarray], mask: np.ndarray,
                rel: RelationTable, params: AgreementParams, depth: int) -> None:
    """Add up the verdicts of one block of design sets, 2^depth inputs at a time.

    ``agree[g, a]`` counts the inputs on which stacked design set g, accepting
    on mask row a, agrees with the relation.  Each chunk of inputs shares its
    first n - depth bits; the states after that common prefix are computed
    once per design set and then expanded breadth-first over the last
    ``depth`` bits.
    """
    n = rel.n
    sets, dim = right["L"].shape[:2]
    width = 1 << depth
    for top in range(1 << (n - depth)):
        states = right["L"][:, None, START_STATE, :]  # U_L |0> as (sets, 1, dim)
        for bit in index_to_bits(top, n - depth):
            states = states @ right[bit]
        for _ in range(depth):
            states = np.stack([states @ right["0"], states @ right["1"]], axis=2)
            states = states.reshape(sets, -1, dim)
        probs = np.abs(states @ right["R"]) ** 2
        defect = float(np.max(np.abs(probs.sum(axis=2) - 1.0)))
        if defect > NORM_TOL:
            raise ValueError(f"run state is not unit norm: max |sum |a|^2 - 1| = {defect!r}")
        p_acc = np.einsum("gpd,ad->gpa", probs, mask)
        inside = rel.members[top * width:(top + 1) * width, None]
        side = np.where(inside, p_acc, 1.0 - p_acc)
        agree += meets_threshold(side, params.eta).sum(axis=1)
