"""Dense references for the subroutines ``qsub`` runs on the good/bad plane.

``qsub`` estimates, counts and amplifies from the good-amplitude angle
alone.  This module simulates the states those laws stand for: the Fourier
transform, the Grover iterate and the whole phase-estimation register on a
plain amplitude vector with a boolean good mask, and the full machine x
input x agreement-bit state of ``first_algorithm`` (reduced there to
``prepared_weights`` and ``qsub.sample_amplified``).  The joint state costs
O(s 4^n): keep n small.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from aeqslearn import (AgreementParams, MachinePool, QueryCounter,
                       RelationTable, StateVector, walsh_hadamard)


def qft(k: int) -> np.ndarray:
    """Fourier transform on k levels: entry (d, z) is e^{2 pi i z d / k} / sqrt(k)."""
    z = np.arange(k)
    return np.exp(2j * np.pi * np.outer(z, z) / k) / math.sqrt(k)


def grover_iterate(psi: np.ndarray, good: np.ndarray) -> np.ndarray:
    """Q = C_psi C_good: phase flip on the good mask, then reflection about psi."""
    signs = np.where(good, -1.0, 1.0)
    c_psi = 2.0 * np.outer(psi, psi.conj()) - np.eye(psi.shape[0])
    return c_psi * signs[np.newaxis, :]


def phase_estimation_distribution(psi: np.ndarray, good: np.ndarray, k: int) -> np.ndarray:
    """Outcome distribution of the whole register: Q^j psi on level j, then QFT^dagger."""
    q = grover_iterate(psi, good)
    joint = np.zeros((k, psi.shape[0]), dtype=complex)
    v = psi.astype(complex)
    for j in range(k):
        joint[j] = v / math.sqrt(k)
        v = q @ v
    return np.sum(np.abs(qft(k).conj().T @ joint) ** 2, axis=1)


class JointLearningState:
    """Machine x input x agreement-bit register state.

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


def amplified_machine_marginal(pool: MachinePool, rel: RelationTable,
                               params: AgreementParams, theta_tilde: float) -> np.ndarray:
    """Machine marginal of the prepared state amplified for the estimate theta_tilde.

    The good set is |machine>|0^n>|1>; the Grover iterate is applied
    floor(pi / (4 theta_tilde)) times to the dense prepared state.
    """
    n = rel.n
    prepared, _ = finalize_preparation(build_joint_state(pool, rel, params))
    psi = prepared.amplitudes
    q = grover_iterate(psi, np.arange(psi.shape[0]) % (1 << (n + 1)) == 1)
    state = psi
    for _ in range(math.floor(math.pi / (4.0 * theta_tilde))):
        state = q @ state
    return (np.abs(state) ** 2).reshape(pool.s, -1).sum(axis=1)
