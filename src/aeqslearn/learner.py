"""Pool search over machine encodings.

The pool is the full cartesian space of admissible encodings for a given
grid/size budget, in a fixed lexicographic order.  Two trainers pick a
machine agreeing with a supervisor relation: a consistent-machine search
built on amplitude estimation plus amplification, and an agreement maximizer
built on per-machine quantum counting plus threshold maximum finding.  A
classical brute-force scan serves as the verification oracle throughout.
"""
from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import PoolTooLarge
from .gates import (SYMBOLS, DesignTuple, GateParams, MachineEncoding,
                    SymbolDesign, check_accepting_set, design_lines, sacc_line,
                    serialize)
from .qqaf import (MAX_LIVE_AMPLITUDES, AgreementParams, Machine, RelationTable,
                   UnitaryCache, factored_agreement_counts, shared_unitary)
from .qsub import (QueryCounter, counting_cdf, estimation_cdf,
                   estimation_outcomes, find_maximum, good_angle,
                   sample_amplified, sample_estimation)

Trace = Optional[Callable[[str], None]]

DEFAULT_HARD_CAP = 4096

# Count vectors a pool keeps; beyond this many the least recently used is dropped.
COUNTS_MEMO_SIZE = 16


def check_qubit_count(m: int) -> None:
    """A pool's symbol unitaries, of 4^m entries, must fit the walk's amplitude bound."""
    if 2 * m >= MAX_LIVE_AMPLITUDES.bit_length():  # 4^m > MAX_LIVE_AMPLITUDES
        raise ValueError(f"m={m} qubits need symbol unitaries of 4^m entries, "
                         f"more than the {MAX_LIVE_AMPLITUDES} amplitudes a walk holds")


@dataclass(frozen=True)
class PoolConfig:
    """Bounds carving a finite pool out of the encoding space."""

    m: int
    d: int = 1
    l_tuples: int = 1
    l_designs: int = 1
    s_acc_choices: tuple[tuple[int, ...], ...] = ((0,),)
    hard_cap: int = DEFAULT_HARD_CAP

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("qubit count and grid resolution must be positive")
        check_qubit_count(self.m)
        if self.l_tuples < 0 or self.l_designs < 0:
            raise ValueError("size bounds must be non-negative")
        if not self.s_acc_choices:
            raise ValueError("need at least one accepting-set choice")


def pool_size(cfg: PoolConfig) -> int:
    """Closed-form pool size: per-symbol design count raised to the number of
    symbols, times the number of accepting-set choices.

    Enumeration fills the budgets exactly: every design carries l_tuples
    single-qubit gates (m d^4 choices each) plus one of m^2 CNOT pairs, and
    every symbol carries l_designs designs, so the per-symbol count is
    ((m d^4)^l_tuples * m^2)^l_designs.
    """
    per_design = (cfg.m * cfg.d**4) ** cfg.l_tuples * cfg.m**2
    return (per_design**cfg.l_designs) ** len(SYMBOLS) * len(cfg.s_acc_choices)


DesignSet = tuple[int, tuple[SymbolDesign, ...]]  # qubit count, one design per symbol


class MachinePool:
    """Deduplicated encodings in lexicographic canonical-serialization order.

    The pool is held as its factors: the distinct accepting sets, the
    distinct design sets (qubit count and symbol designs), and per row the
    indices of its accepting set and design set.  ``encodings`` and
    ``machines`` are views built on first use; the trainers read the
    agreement counts, which are built from the factors, and build only the
    encoding they return.
    """

    def __init__(self, encodings: Iterable[MachineEncoding]):
        ordered = tuple(sorted(encodings, key=serialize))
        if not ordered:
            raise ValueError("pool must not be empty")
        if len(set(ordered)) != len(ordered):
            raise ValueError("pool contains duplicate encodings")
        for m in {e.m for e in ordered}:
            check_qubit_count(m)
        accepting: dict[tuple[int, ...], int] = {}
        designs: dict[DesignSet, int] = {}
        rows = [(accepting.setdefault(e.s_acc, len(accepting)),
                 designs.setdefault((e.m, e.symbol_designs), len(designs)))
                for e in ordered]
        self._set_factors(tuple(accepting), tuple(designs), np.array(rows, dtype=np.intp))
        self.__dict__["encodings"] = ordered  # the view, already at hand

    @classmethod
    def product(cls, accepting_sets: Sequence[tuple[int, ...]],
                design_sets: Sequence[DesignSet]) -> "MachinePool":
        """The pool whose row a * len(design_sets) + g pairs accepting set a with design set g.

        The caller guarantees that the factors are valid and distinct, and
        that this row order is the canonical-serialization order.
        """
        pool = cls.__new__(cls)
        acc, design = np.divmod(np.arange(len(accepting_sets) * len(design_sets),
                                          dtype=np.intp), len(design_sets))
        pool._set_factors(tuple(accepting_sets), tuple(design_sets),
                          np.stack([acc, design], axis=1))
        return pool

    def _set_factors(self, accepting_sets: tuple[tuple[int, ...], ...],
                     design_sets: tuple[DesignSet, ...], rows: np.ndarray) -> None:
        rows.setflags(write=False)
        self.accepting_sets = accepting_sets
        self.design_sets = design_sets
        self.rows = rows  # (s, 2): accepting-set index, design-set index
        self._unitaries: UnitaryCache = {}  # each distinct symbol unitary, built once
        self._counts: OrderedDict = OrderedDict()

    @property
    def s(self) -> int:
        return self.rows.shape[0]

    def encoding(self, i: int) -> MachineEncoding:
        a, g = self.rows[i].tolist()
        m, symbol_designs = self.design_sets[g]
        return MachineEncoding(m, self.accepting_sets[a], symbol_designs)

    @cached_property
    def encodings(self) -> tuple[MachineEncoding, ...]:
        return tuple(self.encoding(i) for i in range(self.s))

    @cached_property
    def machines(self) -> tuple[Machine, ...]:
        return tuple(Machine(e, self._unitaries) for e in self.encodings)

    def _counts_entry(self, rel: RelationTable, params: AgreementParams) -> "_CountsEntry":
        key = (rel.n, rel.members.tobytes(), params.eta)
        entry = self._counts.get(key)
        if entry is None:
            entry = self._counts[key] = _CountsEntry(factored_agreement_counts(
                [(m, [shared_unitary(self._unitaries, sd, m) for sd in sds])
                 for m, sds in self.design_sets],
                self.accepting_sets, self.rows, rel, params))
            if len(self._counts) > COUNTS_MEMO_SIZE:
                self._counts.popitem(last=False)
        else:
            self._counts.move_to_end(key)
        return entry

    def agreement_counts(self, rel: RelationTable, params: AgreementParams) -> np.ndarray:
        """Read-only agreement count of each machine, over all 2^n inputs.

        Memoized on (n, members, eta), keeping the COUNTS_MEMO_SIZE most
        recently used.  Callers charge their own oracle queries; the memo only
        saves the classical simulation of repeated builds.
        """
        return self._counts_entry(rel, params).counts

    def count_groups(self, rel: RelationTable,
                     params: AgreementParams) -> tuple[tuple[int, np.ndarray], ...]:
        """The machines grouped by agreement count (see ``group_by_count``).

        Built on first use and kept in the same memo entry as the counts, so
        it is dropped with them.
        """
        return self._counts_entry(rel, params).groups


class _CountsEntry:
    """One entry of a pool's counts memo: the counts, and their grouping once built."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts

    @cached_property
    def groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        return group_by_count(self.counts)


def group_by_count(counts: np.ndarray) -> tuple[tuple[int, np.ndarray], ...]:
    """(count, read-only indices of the machines holding it) per distinct count, ascending.

    One stable argsort, so each group's indices are in pool order.
    """
    order = np.argsort(counts, kind="stable")
    order.setflags(write=False)
    ordered = counts[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return tuple(zip(ordered[np.concatenate(([0], starts))].tolist(),
                     np.split(order, starts)))


def _all_design_tuples(cfg: PoolConfig) -> list[DesignTuple]:
    single_choices = [
        (wire, GateParams(p, a, t, b, cfg.d))
        for wire in range(1, cfg.m + 1)
        for p, a, t, b in itertools.product(range(cfg.d), repeat=4)
    ]
    cnot_choices = list(itertools.product(range(1, cfg.m + 1), repeat=2))
    return [
        DesignTuple(singles, cnot)
        for singles in itertools.product(single_choices, repeat=cfg.l_tuples)
        for cnot in cnot_choices
    ]


def enumerate_pool(cfg: PoolConfig) -> MachinePool:
    """Deterministically enumerate every admissible encoding for the config.

    The pool is the product of the accepting-set choices and the design
    sets, each factor sorted once by its own canonical text.  Row order is
    then the order of the serialized encodings: all texts share the m line
    and hold ``l_designs`` lines per symbol, so they compare as their
    (sacc line, L lines, 0 lines, 1 lines, R lines) tuples (see ``gates``).
    A pool of more than ``hard_cap`` or MAX_LIVE_AMPLITUDES encodings raises
    PoolTooLarge from its closed-form size, before anything is built.
    """
    size = pool_size(cfg)
    if size > cfg.hard_cap:
        raise PoolTooLarge(f"pool would hold {size} encodings, cap is {cfg.hard_cap}")
    if size > MAX_LIVE_AMPLITUDES:
        raise PoolTooLarge(f"pool would hold {size} encodings, more than the "
                           f"{MAX_LIVE_AMPLITUDES} a pool may hold")
    # duplicates can only come from accepting-set choices that coincide once normalized
    accepting = sorted({tuple(sorted(set(int(i) for i in s_acc)))
                        for s_acc in cfg.s_acc_choices}, key=sacc_line)
    for s_acc in accepting:
        check_accepting_set(s_acc, cfg.m)
    tuples = _all_design_tuples(cfg)
    symbol_designs = sorted((SymbolDesign(combo)
                             for combo in itertools.product(tuples, repeat=cfg.l_designs)),
                            key=lambda sd: design_lines("", sd))
    design_sets = [(cfg.m, combo)
                   for combo in itertools.product(symbol_designs, repeat=len(SYMBOLS))]
    return MachinePool.product(accepting, design_sets)


@dataclass(frozen=True)
class LearnReport:
    """Outcome of one learning run, verified against the classical oracle."""

    chosen: MachineEncoding
    estimated_agreement: float
    true_agreement: int
    oracle_queries: int
    repetitions: int
    success: bool


def prepared_weights(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-machine good and bad weights of the first algorithm's prepared state.

    Uniform machines, agreement phase flips on every input, then the input
    register folded back through the Hadamard transform leave -f/sqrt(s) on
    |machine>|0^n>|1>, f = counts/2^n: the good weight is f^2/s and the rest
    of the machine's 1/s is bad.
    """
    s = counts.shape[0]
    squares = (counts / (1 << n)) ** 2
    return squares / s, (1.0 - squares) / s


def first_algorithm(pool: MachinePool, rel: RelationTable, params: AgreementParams,
                    *, k: int = 1024, seed: int = 0, reps: int = 5,
                    trace: Trace = None) -> LearnReport:
    """Search the pool for a machine agreeing with the relation everywhere.

    Prepares the joint state, estimates the good-subspace angle, amplifies,
    and measures a candidate machine; a cheap classical scan then checks the
    candidate for full agreement.  Stops at the first fully agreeing machine,
    else after ``reps`` rounds returns the best candidate with success False.
    The state is simulated on its good/bad plane (``prepared_weights``), so a
    round costs O(s) whatever n.
    """
    rng = np.random.default_rng(seed)
    counter = QueryCounter()
    s, n = pool.s, rel.n
    full = 1 << n
    counts = pool.agreement_counts(rel, params)
    counter.charge(s << n)
    good, bad = prepared_weights(counts, n)
    good_mass = float(good.sum())
    theta = good_angle(good_mass)
    cdf = estimation_cdf(theta, k)
    if trace:
        trace(f"pool s={s}, theta={theta:.6f}, good mass={good_mass:.6f}")

    best: Optional[tuple[int, int, float]] = None  # (count, machine index, estimate)
    done = 0
    for rep in range(reps):
        done = rep + 1
        est = sample_estimation(cdf, rng, counter)
        folded = min(est.theta_tilde, math.pi - est.theta_tilde)
        iterations = 0
        if folded > 1e-12:
            iterations = math.floor(math.pi / (4.0 * folded))
            counter.charge(iterations)
        m_idx = sample_amplified(good, bad, theta, iterations, rng)
        count = int(counts[m_idx])
        counter.charge(full)
        agree_est = full * math.sqrt(min(max(est.zeta_tilde * s, 0.0), 1.0))
        if trace:
            trace(f"rep {rep}: z={est.z} theta~={est.theta_tilde:.4f} "
                  f"machine={m_idx} count={count} queries={counter.oracle_calls}")
        if best is None or count > best[0]:
            best = (count, m_idx, agree_est)
        if count == full:
            break

    assert best is not None
    count, m_idx, agree_est = best
    return LearnReport(chosen=pool.encoding(m_idx), estimated_agreement=agree_est,
                       true_agreement=count, oracle_queries=counter.oracle_calls,
                       repetitions=done, success=count == full)


def seeded_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The main generator of a ``second_algorithm`` call and its counting stream.

    The main generator equals ``default_rng(seed)``; the counting stream is
    seeded from a child spawned off the same SeedSequence, so it is
    independent of the main stream.  (``SeedSequence([seed, 0])`` would not
    be: trailing zero words leave the state of ``SeedSequence(seed)``
    unchanged.)
    """
    root = np.random.SeedSequence(seed)
    return np.random.default_rng(root), np.random.default_rng(root.spawn(1)[0])


def second_algorithm(pool: MachinePool, rel: RelationTable, params: AgreementParams,
                     *, k: int = 1024, seed: int = 0, reps: int = 5,
                     exact: bool = False, trace: Trace = None) -> LearnReport:
    """Pick the machine maximizing the agreement count with the relation.

    Each round estimates every machine's agreement count by quantum counting
    and runs the threshold maximum search over the rounded estimates with
    the main generator; the candidate with the best exactly verified count
    across rounds wins.  Counting depends on a machine only through its
    count: the counting stream of ``seeded_streams`` gives one uniform per
    machine and round, in round order, drawn for as many rounds at once as
    fit MAX_LIVE_AMPLITUDES uniforms, and each distinct count's machines
    (``MachinePool.count_groups``) go through its law in one call.  With
    ``exact`` set, counting and maximum finding are both replaced by their
    classical scans, which makes the procedure coincide with the
    brute-force oracle.
    """
    rng, counting = seeded_streams(seed)
    counter = QueryCounter()
    s, n = pool.s, rel.n
    counts = pool.agreement_counts(rel, params)
    counter.charge(s << n)
    brute_count = int(counts.max())
    if exact:
        rounds = itertools.repeat((counts.astype(float), None), reps)
    else:
        rounds = _counting_rounds(pool.count_groups(rel, params), counting, reps, s, n, k)

    best: Optional[tuple[int, int, float]] = None
    for rep, (estimates, rounded) in enumerate(rounds):
        if exact:
            winner = int(np.argmax(estimates))
        else:
            counter.charge(s * (k - 1))
            winner = find_maximum(rounded, rng, counter)
        count = int(counts[winner])
        counter.charge(1 << n)
        if trace:
            trace(f"rep {rep}: winner={winner} estimate={estimates[winner]:.3f} "
                  f"count={count} queries={counter.oracle_calls}")
        if best is None or count > best[0]:
            best = (count, winner, float(estimates[winner]))

    assert best is not None
    count, winner, estimate = best
    return LearnReport(chosen=pool.encoding(winner), estimated_agreement=estimate,
                       true_agreement=count, oracle_queries=counter.oracle_calls,
                       repetitions=reps, success=count == brute_count)


def _counting_rounds(groups: Sequence[tuple[int, np.ndarray]],
                     counting: np.random.Generator, reps: int, s: int, n: int, k: int):
    """Yield each round's counting estimates zeta~ 2^n of the s machines, and their rounding.

    ``counting.random((r, s))`` yields the same doubles as ``r`` calls of
    ``counting.random(s)``, so the rounds are drawn together, as many at a
    time as fit MAX_LIVE_AMPLITUDES uniforms, and each group's columns go
    through its count's law in one call.
    """
    per_draw = max(1, MAX_LIVE_AMPLITUDES // s)
    for first in range(0, reps, per_draw):
        uniforms = counting.random((min(per_draw, reps - first), s))
        estimates = np.empty_like(uniforms)
        for count, members in groups:
            _, _, zeta_tilde = estimation_outcomes(counting_cdf(count, n, k),
                                                   uniforms[:, members])
            estimates[:, members] = zeta_tilde * (1 << n)
        yield from zip(estimates, np.rint(estimates).astype(int))


def brute_force_optimum(pool: MachinePool, rel: RelationTable,
                        params: AgreementParams) -> tuple[MachineEncoding, int]:
    """Exact linear scan for the best-agreeing machine; pool order breaks ties."""
    counts = pool.agreement_counts(rel, params)
    idx = int(np.argmax(counts))
    return pool.encoding(idx), int(counts[idx])


def verify_condition_star(pool: MachinePool, rel: RelationTable,
                          params: AgreementParams) -> bool:
    """Does some pool machine agree with the relation on every input?"""
    return int(pool.agreement_counts(rel, params).max()) == 1 << rel.n


def sample_encoding(rng: np.random.Generator, m: int, d: int = 8,
                    l_tuples: int = 2, l_designs: int = 2) -> MachineEncoding:
    """Draw a random admissible encoding (for property suites and tests)."""
    designs = {}

    def random_tuple() -> DesignTuple:
        singles = tuple(
            (int(rng.integers(1, m + 1)),
             GateParams(*(int(rng.integers(d)) for _ in range(4)), d))
            for _ in range(int(rng.integers(l_tuples + 1)))
        )
        cnot = (int(rng.integers(1, m + 1)), int(rng.integers(1, m + 1)))
        return DesignTuple(singles, cnot)

    for symbol in SYMBOLS:
        designs[symbol] = SymbolDesign(
            tuple(random_tuple() for _ in range(int(rng.integers(l_designs + 1)))))
    states = 1 << m
    s_acc = tuple(int(i) for i in range(states) if rng.integers(2))
    return MachineEncoding.from_map(m, s_acc, designs)
