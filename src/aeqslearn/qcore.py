"""Complex linear algebra over finite-dimensional Hilbert spaces.

States, Hermitian operators, unitaries, spectral gaps, measurement and
closeness metrics.  Everything is dense complex128 numpy; values are frozen
(read-only arrays) after construction and safe to share between tasks.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatch, IndexOutOfRange, NonHermitian, NonUnitary

# Tolerances: state-level checks and entry-level checks.
NORM_TOL = 1e-9
ENTRY_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class StateVector:
    """Unit-norm complex amplitude vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size == 0:
            raise ValueError("state needs at least one amplitude")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not unit norm: sum |a|^2 = {norm_sq!r}")
        self.amplitudes = _freeze(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class HermitianOperator:
    """Square complex matrix equal to its conjugate transpose."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        defect = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if defect > ENTRY_TOL:
            raise NonHermitian(f"max |H - H^dagger| = {defect:.3e} exceeds {ENTRY_TOL:.1e}")
        self.entries = _freeze(mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class UnitaryOperator:
    """Square complex matrix with U U^dagger = I."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        defect = float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))
        if defect > NORM_TOL:
            raise NonUnitary(f"max |U U^dagger - I| = {defect:.3e} exceeds {NORM_TOL:.1e}")
        self.entries = _freeze(mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, state: StateVector) -> StateVector:
        if self.dim != state.dim:
            raise DimMismatch(f"operator dim {self.dim} vs state dim {state.dim}")
        return StateVector(self.entries @ state.amplitudes)

    def __repr__(self) -> str:
        return f"UnitaryOperator(dim={self.dim})"


def eigenvalue_gap(evals: np.ndarray) -> float:
    """Second-lowest minus lowest of ascending eigenvalues, counted with multiplicity.

    A degenerate ground space therefore yields gap 0.
    """
    if evals.size < 2:
        raise ValueError("spectral gap needs dim >= 2")
    return max(0.0, float(evals[1] - evals[0]))


def spectral_gap(h: HermitianOperator) -> float:
    """``eigenvalue_gap`` of the spectrum of ``h``."""
    return eigenvalue_gap(np.linalg.eigvalsh(h.entries))


def subspace_probability(s: StateVector, indices) -> float:
    """Total probability mass of the given basis indices."""
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= s.dim):
        raise IndexOutOfRange(f"indices {idx} outside [0, {s.dim})")
    if not idx:
        return 0.0
    return float(np.sum(np.abs(s.amplitudes[idx]) ** 2))


def epsilon_close(a: StateVector, b: StateVector, eps: float) -> bool:
    """True iff ||a - b|| <= eps in the l2 norm."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} vs {b.dim}")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return float(np.linalg.norm(a.amplitudes - b.amplitudes)) <= eps


def phase_distance(a: StateVector, b: StateVector) -> float:
    """min over phases phi of ||a - e^{i phi} b||, the phase-blind distance.

    The minimizing phase is <a|b>*/|<a|b>|; the difference is then taken
    componentwise, which stays accurate down to machine precision (the
    closed form sqrt(2 - 2|<a|b>|) loses half the digits near equality).
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} vs {b.dim}")
    inner = np.vdot(a.amplitudes, b.amplitudes)
    phase = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a.amplitudes - phase * b.amplitudes))
