"""Shared encoding and state factories and the CLI subprocess runner for the tests."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import aeqslearn
from aeqslearn import (DesignTuple, GateParams, Machine, MachineEncoding,
                       StateVector, SymbolDesign, SYMBOLS)
from aeqslearn.errors import IndexOutOfRange

# Exact grid realizations on the default 8-step grid:
#   e^{i pi/2} R(pi/4) diag(e^{-i pi/2}, e^{i pi/2}) is the Hadamard transform,
#   theta index 2 alone is the quarter rotation [[0,-1],[1,0]].
WH_PARAMS = GateParams(2, 2, 1, 0, 8)
QUARTER_TURN = GateParams(0, 0, 2, 0, 8)


def gate_design(params: GateParams, wire: int = 1) -> SymbolDesign:
    return SymbolDesign((DesignTuple(((wire, params),), (1, 1)),))


def make_encoding(m: int = 1, s_acc=(0,), **symbol_overrides) -> MachineEncoding:
    """Encoding with identity designs except for the named symbols.

    Overrides use keys L, Z, O, R (Z and O stand for the symbols 0 and 1).
    """
    keymap = {"L": "L", "Z": "0", "O": "1", "R": "R"}
    designs = {s: SymbolDesign() for s in SYMBOLS}
    for key, sd in symbol_overrides.items():
        designs[keymap[key]] = sd
    return MachineEncoding.from_map(m, s_acc, designs)


def make_machine(m: int = 1, s_acc=(0,), **symbol_overrides) -> Machine:
    return Machine(make_encoding(m, s_acc, **symbol_overrides))


def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise IndexOutOfRange(f"basis index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def run_python(*args):
    """Run the interpreter on ``args`` with the package these tests imported.

    The child gets that package's parent directory in front of PYTHONPATH, so
    it needs neither an install nor a PYTHONPATH set by the caller.
    """
    src = str(Path(aeqslearn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    """Run ``python -m aeqslearn`` on the package these tests imported."""
    return run_python("-m", "aeqslearn", *args)
