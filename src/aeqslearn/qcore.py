"""Complex linear algebra over finite-dimensional Hilbert spaces.

States, Hermitian operators, unitaries, eigensystems, measurement and
closeness metrics.  Everything is dense complex128 numpy; values are frozen
(read-only arrays) after construction and safe to share between tasks.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import DimMismatch, IndexOutOfRange, NonHermitian, NonUnitary

# Default tolerances: state-level checks and entry-level checks.
NORM_TOL = 1e-9
ENTRY_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class StateVector:
    """Unit-norm complex amplitude vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, tol: float = NORM_TOL):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size == 0:
            raise ValueError("state needs at least one amplitude")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > tol:
            raise ValueError(f"state is not unit norm: sum |a|^2 = {norm_sq!r}")
        self.amplitudes = _freeze(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise IndexOutOfRange(f"basis index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


class HermitianOperator:
    """Square complex matrix equal to its conjugate transpose."""

    __slots__ = ("entries",)

    def __init__(self, entries, *, tol: float = ENTRY_TOL):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        defect = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if defect > tol:
            raise NonHermitian(f"max |H - H^dagger| = {defect:.3e} exceeds {tol:.1e}")
        self.entries = _freeze(mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class UnitaryOperator:
    """Square complex matrix with U U^dagger = I."""

    __slots__ = ("entries",)

    def __init__(self, entries, *, tol: float = NORM_TOL):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        defect = float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))
        if defect > tol:
            raise NonUnitary(f"max |U U^dagger - I| = {defect:.3e} exceeds {tol:.1e}")
        self.entries = _freeze(mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, state: StateVector) -> StateVector:
        if self.dim != state.dim:
            raise DimMismatch(f"operator dim {self.dim} vs state dim {state.dim}")
        return StateVector(self.entries @ state.amplitudes)

    def dagger(self) -> "UnitaryOperator":
        return UnitaryOperator(self.entries.conj().T)

    def __repr__(self) -> str:
        return f"UnitaryOperator(dim={self.dim})"


class Eigensystem:
    """Full spectral decomposition: ascending eigenvalues, orthonormal eigenvectors."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors: Iterable[StateVector]):
        evals = np.array(eigenvalues, dtype=float).reshape(-1)
        vecs = tuple(eigenvectors)
        if evals.size != len(vecs):
            raise ValueError("eigenvalue / eigenvector count mismatch")
        if np.any(np.diff(evals) < -NORM_TOL):
            raise ValueError("eigenvalues must be non-decreasing")
        v = np.column_stack([s.amplitudes for s in vecs])
        gram_defect = float(np.max(np.abs(v.conj().T @ v - np.eye(len(vecs)))))
        if gram_defect > NORM_TOL:
            raise ValueError(f"eigenvectors not orthonormal: defect {gram_defect:.3e}")
        self.eigenvalues = _freeze(evals)
        self.eigenvectors = vecs

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_state(self) -> StateVector:
        return self.eigenvectors[0]


def tensor(a, b):
    """Kronecker product of two states or two operators of the same kind.

    Big-endian convention: the first factor owns the most significant index
    bits, so basis |i> (dim p) tensor |j> (dim q) lands at index i*q + j.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, UnitaryOperator) and isinstance(b, UnitaryOperator):
        return UnitaryOperator(np.kron(a.entries, b.entries))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.entries, b.entries))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def hermitian_eigensystem(h: HermitianOperator) -> Eigensystem:
    """Diagonalize, eigenvalues ascending; the ground state is eigenvectors[0]."""
    evals, evecs = np.linalg.eigh(h.entries)
    return Eigensystem(evals, [StateVector(evecs[:, i]) for i in range(h.dim)])


def spectral_gap(h: HermitianOperator) -> float:
    """Second-lowest minus lowest eigenvalue, counted with multiplicity.

    A degenerate ground space therefore yields gap 0.
    """
    if h.dim < 2:
        raise ValueError("spectral gap needs dim >= 2")
    evals = np.linalg.eigvalsh(h.entries)
    return max(0.0, float(evals[1] - evals[0]))


def subspace_probability(s: StateVector, indices) -> float:
    """Total probability mass of the given basis indices."""
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= s.dim):
        raise IndexOutOfRange(f"indices {idx} outside [0, {s.dim})")
    if not idx:
        return 0.0
    return float(np.sum(np.abs(s.amplitudes[idx]) ** 2))


def sample_basis(s: StateVector, rng: np.random.Generator) -> int:
    """Draw one basis index with probability |amplitude|^2.

    Deterministic given the generator state; indices with exactly zero
    probability are never drawn.
    """
    cdf = np.cumsum(s.probabilities())
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), s.dim - 1))


def dis(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, the overlap magnitude."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


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
