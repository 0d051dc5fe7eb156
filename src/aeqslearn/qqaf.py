"""One-way machine semantics: runs and agreement with a relation.

A machine reads the endmarked input L x_1 ... x_n R, applying one cached
unitary per symbol to the start state |0>.  Acceptance probability is the
mass on the accepting set; agreement with a relation at threshold eta is
evaluated exactly from amplitudes, never by sampling.

``factored_agreement_counts`` computes every machine's agreement count in
one batched walk of the input trie over the distinct runs of a pool
(``distinct_runs``), which ``MachinePool`` builds once.  The per-input
reference it is tested against lives with the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


Run = tuple[np.ndarray, ...]  # one (2^m, 2^m) unitary per symbol, in SYMBOLS order


def distinct_runs(design_sets: Sequence[tuple[int, Sequence[SymbolDesign]]]
                  ) -> tuple[tuple[Run, ...], np.ndarray]:
    """The distinct runs of the design sets, numbered in order of first appearance,
    and the run of each.  Each distinct symbol design is built once per qubit count;
    design sets of one qubit count whose unitaries are equal byte for byte run alike."""
    build = cache(lambda sd, m: symbol_unitary(sd, m).entries)
    runs: dict[tuple[int, bytes], tuple[int, Run]] = {}  # key -> (number, unitaries)
    run_of = []
    for m, designs in design_sets:
        unitaries = tuple(build(sd, m) for sd in designs)
        key = (m, b"".join(u.tobytes() for u in unitaries))
        run_of.append(runs.setdefault(key, (len(runs), unitaries))[0])
    return tuple(run for _, run in runs.values()), np.array(run_of, dtype=np.intp)


class Machine:
    """A machine encoding with its symbol unitaries: a given ``Run``, such as a
    pool's (``distinct_runs``), or else its own, built from the encoding."""

    __slots__ = ("encoding", "_unitaries")

    def __init__(self, encoding: MachineEncoding, unitaries: Optional[Sequence] = None):
        self.encoding = encoding
        if unitaries is None:
            unitaries = [symbol_unitary(sd, encoding.m).entries for sd in encoding.symbol_designs]
        square = (encoding.states,) * 2
        if (not isinstance(unitaries, (tuple, list)) or len(unitaries) != len(SYMBOLS)
                or any(not isinstance(u, np.ndarray) or u.shape != square for u in unitaries)):
            raise ValueError(f"need {len(SYMBOLS)} {square} arrays, one per symbol")
        self._unitaries = dict(zip(SYMBOLS, unitaries))

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


def factored_agreement_counts(runs: Sequence[Run], cells: np.ndarray,
                              accepting_sets: Sequence[tuple[int, ...]], rel: RelationTable,
                              params: AgreementParams) -> np.ndarray:
    """Read-only agreement counts, over all 2^n inputs, of machines given by their cells.

    Machine r accepts on ``accepting_sets[cells[r, 0]]`` and makes the run
    ``runs[cells[r, 1]]`` (see ``distinct_runs``).  The runs of each qubit count
    are stacked and the input trie is walked breadth-first over the stack: every
    prefix state is computed once, in blocks holding at most about
    MAX_LIVE_AMPLITUDES amplitudes or acceptance probabilities.  An (accepting
    sets, 2^m) 0/1 mask turns each run's final probabilities into the acceptance
    probability of every accepting set, and the verdicts add up to a count per
    (run, accepting set) pair, which each machine reads once at the end; no
    (s, 2^n) table is held.
    """
    n = rel.n
    counts = np.zeros(cells.shape[0], dtype=int)
    dims = np.array([run[0].shape[0] for run in runs], dtype=np.intp)
    for dim in sorted(set(dims.tolist())):
        walked = np.flatnonzero(dims == dim)
        mine = np.flatnonzero(dims[cells[:, 1]] == dim)
        used, acc_of = np.unique(cells[mine, 0], return_inverse=True)
        mask = np.zeros((used.size, dim))
        for j, a in enumerate(used.tolist()):
            mask[j, list(accepting_sets[a])] = 1.0
        # transposed unitaries, so that states @ right[sym] applies them to row vectors
        right = {sym: np.stack([runs[r][i].T for r in walked.tolist()])
                 for i, sym in enumerate(SYMBOLS)}
        depth = min(n, max(0, (MAX_LIVE_AMPLITUDES // dim).bit_length() - 1))
        per_block = max(1, MAX_LIVE_AMPLITUDES // (max(dim, used.size) << depth))
        agree = np.zeros((walked.size, used.size), dtype=int)
        for lo in range(0, walked.size, per_block):
            block = {sym: stack[lo:lo + per_block] for sym, stack in right.items()}
            _fill_block(agree[lo:lo + per_block], block, mask, rel, params, depth)
        counts[mine] = agree[np.searchsorted(walked, cells[mine, 1]), acc_of]
    counts.setflags(write=False)
    return counts


def _fill_block(agree: np.ndarray, right: dict[str, np.ndarray], mask: np.ndarray,
                rel: RelationTable, params: AgreementParams, depth: int) -> None:
    """Add up the verdicts of one block of runs, 2^depth inputs at a time.

    ``agree[g, a]`` counts the inputs on which stacked run g, accepting
    on mask row a, agrees with the relation.  Each chunk of inputs shares its
    first n - depth bits; the states after that common prefix are computed
    once per run and then expanded breadth-first over the last
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
