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
from typing import Callable, Optional

import numpy as np

from .errors import PoolTooLarge
from .gates import (SYMBOLS, DesignTuple, GateParams, MachineEncoding,
                    SymbolDesign, serialize, walsh_hadamard)
from .qcore import StateVector, sample_basis
from .qqaf import AgreementParams, Machine, RelationTable, agreement_table
from .qsub import (GoodSubspace, PreparationOperator, QueryCounter,
                   amplitude_amplify, amplitude_estimation, counting_cdf,
                   find_maximum, sample_estimation)

Trace = Optional[Callable[[str], None]]

DEFAULT_HARD_CAP = 4096

# Agreement tables a pool keeps; beyond this many the least recently used is dropped.
TABLE_MEMO_SIZE = 16


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


@dataclass(frozen=True)
class MachinePool:
    """Deduplicated encodings in lexicographic canonical-serialization order."""

    encodings: tuple[MachineEncoding, ...]

    def __post_init__(self):
        if not self.encodings:
            raise ValueError("pool must not be empty")
        keyed = sorted((serialize(e), e) for e in self.encodings)
        for (k1, _), (k2, _) in zip(keyed, keyed[1:]):
            if k1 == k2:
                raise ValueError("pool contains duplicate encodings")
        object.__setattr__(self, "encodings", tuple(e for _, e in keyed))

    @property
    def s(self) -> int:
        return len(self.encodings)

    @cached_property
    def machines(self) -> tuple[Machine, ...]:
        shared: dict = {}  # each distinct symbol unitary is built once per pool
        return tuple(Machine(e, shared) for e in self.encodings)

    @cached_property
    def _tables(self) -> OrderedDict:
        return OrderedDict()

    def agreement_table(self, rel: RelationTable, params: AgreementParams) -> np.ndarray:
        """The read-only (s, 2^n) agreement table, memoized on (n, members, eta).

        Callers charge their own oracle queries; the memo only saves the
        classical simulation of repeated table builds.
        """
        key = (rel.n, rel.members.tobytes(), params.eta)
        table = self._tables.get(key)
        if table is None:
            table = agreement_table(self.machines, rel, params)
            self._tables[key] = table
            if len(self._tables) > TABLE_MEMO_SIZE:
                self._tables.popitem(last=False)
        else:
            self._tables.move_to_end(key)
        return table


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
    """Deterministically enumerate every admissible encoding for the config."""
    size = pool_size(cfg)
    if size > cfg.hard_cap:
        raise PoolTooLarge(f"pool would hold {size} encodings, cap is {cfg.hard_cap}")
    tuples = _all_design_tuples(cfg)
    symbol_designs = [
        SymbolDesign(combo)
        for combo in itertools.product(tuples, repeat=cfg.l_designs)
    ]
    encodings = []
    for s_acc in cfg.s_acc_choices:
        acc = tuple(sorted(set(int(i) for i in s_acc)))
        for combo in itertools.product(symbol_designs, repeat=len(SYMBOLS)):
            encodings.append(MachineEncoding(cfg.m, acc, combo))
    unique = {serialize(e): e for e in encodings}
    return MachinePool(tuple(unique.values()))


class JointLearningState:
    """Machine x input x agreement-bit register state used by the trainers.

    Within every (machine, input) branch the agreement bit is classical: at
    most one of its two levels carries amplitude.
    """

    __slots__ = ("state", "n")

    def __init__(self, state: StateVector, n: int):
        period = 1 << (n + 1)
        if state.dim % period:
            raise ValueError(f"state dim {state.dim} not divisible by 2^(n+1)")
        branch = state.amplitudes.reshape(-1, 2)
        if float(np.min(np.abs(branch), axis=1).max()) > 1e-9:
            raise ValueError("agreement bit is in superposition within a branch")
        self.state = state
        self.n = n

    @property
    def s(self) -> int:
        return self.state.dim >> (self.n + 1)


def build_joint_state(pool: MachinePool, rel: RelationTable, params: AgreementParams,
                      counter: Optional[QueryCounter] = None) -> JointLearningState:
    """Uniform machine register tensor phase-flipped inputs tensor agreement bits.

    Branch (machine, x) gets amplitude xi / sqrt(s 2^n) on its agreement bit,
    with xi = -1 exactly when the machine agrees with the relation on x.
    Evaluating each of the s * 2^n agreement bits costs one supervisor query.
    """
    s, n = pool.s, rel.n
    table = pool.agreement_table(rel, params)
    if counter is not None:
        counter.charge(s << n)
    amps = np.zeros((s, 1 << n, 2), dtype=complex)
    signs = np.where(table, -1.0, 1.0) / math.sqrt(s * (1 << n))
    rows = np.arange(s)[:, None]
    cols = np.arange(1 << n)[None, :]
    amps[rows, cols, table.astype(int)] = signs
    return JointLearningState(StateVector(amps.ravel()), n)


def finalize_preparation(joint: JointLearningState) -> tuple[StateVector, np.ndarray]:
    """Fold the input register back through the Hadamard transform.

    The amplitude on |machine>|0^n>|1> becomes -f/sqrt(s) where f is that
    machine's agreement fraction; those amplitudes are returned per machine.
    """
    s, n = joint.s, joint.n
    arr = joint.state.amplitudes.reshape(s, 1 << n, 2)
    h = walsh_hadamard(n).entries
    out = np.einsum("ab,mbr->mar", h, arr)
    return StateVector(out.ravel()), out[:, 0, 1].copy()


@dataclass(frozen=True)
class LearnReport:
    """Outcome of one learning run, verified against the classical oracle."""

    chosen: MachineEncoding
    estimated_agreement: float
    true_agreement: int
    oracle_queries: int
    repetitions: int
    seed: int
    success: bool


def _good_after_finalize(n: int, dim: int) -> GoodSubspace:
    return GoodSubspace(np.arange(dim) % (1 << (n + 1)) == 1)


def first_algorithm(pool: MachinePool, rel: RelationTable, params: AgreementParams,
                    *, k: int = 1024, seed: int = 0, reps: int = 5,
                    trace: Trace = None) -> LearnReport:
    """Search the pool for a machine agreeing with the relation everywhere.

    Prepares the joint state, estimates the good-subspace angle, amplifies,
    and measures a candidate machine; a cheap classical scan then checks the
    candidate for full agreement.  Stops at the first fully agreeing machine,
    else after ``reps`` rounds returns the best candidate with success False.
    """
    rng = np.random.default_rng(seed)
    counter = QueryCounter()
    n = rel.n
    joint = build_joint_state(pool, rel, params, counter)
    prepared, good_amps = finalize_preparation(joint)
    prep = PreparationOperator.from_state(prepared)
    good = _good_after_finalize(n, prepared.dim)
    counts = pool.agreement_table(rel, params).sum(axis=1)
    if trace:
        trace(f"pool s={pool.s}, joint dim={prepared.dim}, "
              f"good mass={float(np.sum(np.abs(good_amps) ** 2)):.6f}")

    full = 1 << n
    best: Optional[tuple[int, int, float]] = None  # (count, machine index, estimate)
    done = 0
    for rep in range(reps):
        done = rep + 1
        est = amplitude_estimation(prep, good, k, rng, counter)
        folded = min(est.theta_tilde, math.pi - est.theta_tilde)
        if folded > 1e-12:
            state = amplitude_amplify(prep, good, folded, counter)
        else:
            state = prepared
        idx = sample_basis(state, rng)
        m_idx = idx >> (n + 1)
        count = int(counts[m_idx])
        counter.charge(full)
        agree_est = full * math.sqrt(min(max(est.zeta_tilde * pool.s, 0.0), 1.0))
        if trace:
            trace(f"rep {rep}: z={est.z} theta~={est.theta_tilde:.4f} "
                  f"machine={m_idx} count={count} queries={counter.oracle_calls}")
        if best is None or count > best[0]:
            best = (count, m_idx, agree_est)
        if count == full:
            break

    assert best is not None
    count, m_idx, agree_est = best
    return LearnReport(chosen=pool.encodings[m_idx], estimated_agreement=agree_est,
                       true_agreement=count, oracle_queries=counter.oracle_calls,
                       repetitions=done, seed=seed, success=count == full)


def second_algorithm(pool: MachinePool, rel: RelationTable, params: AgreementParams,
                     *, k: int = 1024, seed: int = 0, reps: int = 5,
                     exact: bool = False, trace: Trace = None) -> LearnReport:
    """Pick the machine maximizing the agreement count with the relation.

    Each round estimates every machine's agreement count by quantum counting
    (under a per-machine derived seed), then runs the threshold maximum
    search over the rounded table; the candidate with the best exactly
    verified count across rounds wins.  With ``exact`` set, counting and
    maximum finding are both replaced by their classical scans, which makes
    the procedure coincide with the brute-force oracle.
    """
    rng = np.random.default_rng(seed)
    counter = QueryCounter()
    s, n = pool.s, rel.n
    counts = pool.agreement_table(rel, params).sum(axis=1)
    counter.charge(s << n)
    brute_count = int(counts.max())
    # counting depends on a machine only through its count, so each distinct
    # count's outcome distribution is computed once
    cdfs = {} if exact else {int(c): counting_cdf(int(c), n, k) for c in np.unique(counts)}

    best: Optional[tuple[int, int, float]] = None
    for rep in range(reps):
        if exact:
            estimates = counts.astype(float)
            winner = int(np.argmax(estimates))
        else:
            estimates = np.empty(s)
            for m_idx in range(s):
                sub_rng = np.random.default_rng([seed, rep, m_idx])
                est = sample_estimation(cdfs[int(counts[m_idx])], sub_rng, counter)
                estimates[m_idx] = est.zeta_tilde * (1 << n)
            winner = find_maximum(np.rint(estimates).astype(int), rng, counter)
        count = int(counts[winner])
        counter.charge(1 << n)
        if trace:
            trace(f"rep {rep}: winner={winner} estimate={estimates[winner]:.3f} "
                  f"count={count} queries={counter.oracle_calls}")
        if best is None or count > best[0]:
            best = (count, winner, float(estimates[winner]))

    assert best is not None
    count, winner, estimate = best
    return LearnReport(chosen=pool.encodings[winner], estimated_agreement=estimate,
                       true_agreement=count, oracle_queries=counter.oracle_calls,
                       repetitions=reps, seed=seed, success=count == brute_count)


def brute_force_optimum(pool: MachinePool, rel: RelationTable,
                        params: AgreementParams) -> tuple[MachineEncoding, int]:
    """Exact linear scan for the best-agreeing machine; pool order breaks ties."""
    counts = pool.agreement_table(rel, params).sum(axis=1)
    idx = int(np.argmax(counts))
    return pool.encodings[idx], int(counts[idx])


def verify_condition_star(pool: MachinePool, rel: RelationTable,
                          params: AgreementParams) -> bool:
    """Does some pool machine agree with the relation on every input?"""
    _, count = brute_force_optimum(pool, rel, params)
    return count == 1 << rel.n


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
