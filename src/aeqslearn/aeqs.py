"""Adiabatic system semantics on top of machine-generated Hamiltonians.

The initial Hamiltonian is the Hadamard conjugate of the start-state
projector complement; the final Hamiltonian for input x is the machine's
generated operator, whose unique ground state is exactly the run state.
Acceptance compares ground-state mass on the accepting set against eta.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BadTime, DegenerateGroundState, DimMismatch, ZeroGap
from .gates import walsh_hadamard
from .qcore import (HermitianOperator, StateVector, eigenvalue_gap,
                    subspace_probability)
from .qqaf import (AgreementParams, Machine, RelationTable, all_inputs, e_operator,
                   meets_threshold)

# A Hamiltonian whose spectral gap is at most this has no unique ground state.
GAP_TOL = 1e-9


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class AeqsInstance:
    """A machine together with its accuracy threshold and closeness bound."""

    machine: Machine
    eta: AgreementParams
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @property
    def m(self) -> int:
        return self.machine.m


@dataclass(frozen=True)
class AdiabaticReport:
    """Evolution-time lower bound and the quantities entering it.

    ``t_bound`` uses the asymptotic constant fixed to 1 and is informational
    only; ``max_norm`` records the other factor of the running-time product.
    """

    norm_diff: float
    min_gap: float
    t_bound: float
    max_norm: float


def h_ini(inst: AeqsInstance) -> HermitianOperator:
    """Hadamard-conjugated start projector complement; input independent."""
    wh = walsh_hadamard(inst.m).entries
    return HermitianOperator(wh @ inst.machine.lambda0 @ wh.conj().T)


def h_fin(inst: AeqsInstance, x: str) -> HermitianOperator:
    return e_operator(inst.machine, x)


def ground_state(h: HermitianOperator) -> StateVector:
    """Eigenvector of least eigenvalue; demands a unique ground state."""
    evals, evecs = np.linalg.eigh(h.entries)
    gap = eigenvalue_gap(evals)
    if gap <= GAP_TOL:
        raise DegenerateGroundState(f"spectral gap {gap:.3e} within tolerance {GAP_TOL:.1e}")
    return StateVector(evecs[:, 0])


def accepts(inst: AeqsInstance, x: str) -> Verdict:
    """Accept/reject if the ground state puts mass >= eta on the respective set.

    The comparison is ``meets_threshold``'s, so it allows VERDICT_TOL for
    rounding.  Accepting is checked first; neither side yields UNDECIDED.
    """
    gs = ground_state(h_fin(inst, x))
    p_acc = subspace_probability(gs, inst.machine.s_acc)
    if meets_threshold(p_acc, inst.eta.eta):
        return Verdict.ACCEPT
    if meets_threshold(1.0 - p_acc, inst.eta.eta):
        return Verdict.REJECT
    return Verdict.UNDECIDED


def solves(inst: AeqsInstance, rel: RelationTable) -> bool:
    """True iff every member is accepted and every non-member rejected."""
    for x in all_inputs(rel.n):
        wanted = Verdict.ACCEPT if rel.contains(x) else Verdict.REJECT
        if accepts(inst, x) is not wanted:
            return False
    return True


def interpolate(h_start: HermitianOperator, h_end: HermitianOperator,
                t: float, total: float) -> HermitianOperator:
    """Linear schedule (1 - t/T) H_start + (t/T) H_end."""
    if h_start.dim != h_end.dim:
        raise DimMismatch(f"dims {h_start.dim} vs {h_end.dim}")
    if total <= 0 or not 0 <= t <= total:
        raise BadTime(f"need 0 <= t <= T with T > 0, got t={t}, T={total}")
    frac = t / total
    return HermitianOperator((1.0 - frac) * h_start.entries + frac * h_end.entries)


def adiabatic_time_bound(h_start: HermitianOperator, h_end: HermitianOperator,
                         eps: float, delta: float, grid: int = 101) -> AdiabaticReport:
    """Scan the linear schedule for its minimum gap and bound the evolution time.

    The gap is sampled at ``grid`` uniform schedule fractions; under linear
    interpolation the scan is independent of the total time, which therefore
    cancels.  The bound is ||H_end - H_start|| / (eps^delta * min_gap^(2+delta)).
    One ``eigvalsh`` per grid point gives both the gap and ||H_t||, which for
    a Hermitian H_t is its largest |eigenvalue|.
    """
    if h_start.dim != h_end.dim:
        raise DimMismatch(f"dims {h_start.dim} vs {h_end.dim}")
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    if grid < 2:
        raise ValueError("need at least 2 grid points")
    diff = h_end.entries - h_start.entries
    norm_diff = float(np.linalg.norm(diff, 2))
    min_gap = np.inf
    max_norm = 0.0
    for frac in np.linspace(0.0, 1.0, grid):
        evals = np.linalg.eigvalsh(interpolate(h_start, h_end, frac, 1.0).entries)
        min_gap = min(min_gap, eigenvalue_gap(evals))
        max_norm = max(max_norm, float(np.abs(evals).max()))
    min_gap = float(min_gap)
    if norm_diff <= 1e-15:
        t_bound = 0.0
    elif min_gap < 1e-12:
        raise ZeroGap(f"minimum sampled gap {min_gap:.3e} makes the bound diverge")
    else:
        t_bound = norm_diff / (eps ** delta * min_gap ** (2.0 + delta))
    return AdiabaticReport(norm_diff=norm_diff, min_gap=min_gap, t_bound=t_bound,
                           max_norm=max_norm)
