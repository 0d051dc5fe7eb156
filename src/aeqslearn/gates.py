"""Gate construction and machine encodings.

A machine over 2^m states is described per tape symbol by a sequence of
"designs": each design is a list of four-angle single-qubit gates on named
wires followed by one CNOT.  Angles live on a uniform grid of D steps of
2*pi/D so the space of encodings is finite and exactly serializable.
The gate builders return plain complex arrays; ``symbol_unitary`` checks
their product unitary, once per symbol design it is asked for.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import MalformedEncoding, WireOutOfRange
from .qcore import UnitaryOperator

# Tape symbols in canonical order: left endmarker, the two input bits,
# right endmarker.
SYMBOLS = ("L", "0", "1", "R")

# The start state is pinned to basis index 0 throughout.
START_STATE = 0

DEFAULT_GRID = 8


@dataclass(frozen=True)
class GateParams:
    """Grid indices for the four angles (psi, alpha, theta, beta) at resolution d."""

    psi: int
    alpha: int
    theta: int
    beta: int
    d: int = DEFAULT_GRID

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"grid resolution must be positive, got {self.d}")
        for name in ("psi", "alpha", "theta", "beta"):
            g = getattr(self, name)
            if not 0 <= g < self.d:
                raise ValueError(f"{name} index {g} outside [0, {self.d})")

    def angles(self) -> tuple[float, float, float, float]:
        step = 2.0 * np.pi / self.d
        return (self.psi * step, self.alpha * step, self.theta * step, self.beta * step)


@dataclass(frozen=True)
class DesignTuple:
    """An ordered run of single-qubit gates on wires plus one CNOT pair."""

    singles: tuple[tuple[int, GateParams], ...] = ()
    cnot: tuple[int, int] = (1, 1)


@dataclass(frozen=True)
class SymbolDesign:
    """The design sequence whose product realizes one symbol's unitary."""

    designs: tuple[DesignTuple, ...] = ()


def check_accepting_set(s_acc: tuple[int, ...], m: int) -> None:
    """An accepting set of an m-qubit machine is sorted, duplicate-free and in range."""
    if list(s_acc) != sorted(set(s_acc)):
        raise ValueError("s_acc must be sorted and duplicate-free")
    states = 1 << m
    if s_acc and (s_acc[0] < 0 or s_acc[-1] >= states):
        raise ValueError(f"s_acc {s_acc} outside [0, {states})")


@dataclass(frozen=True)
class MachineEncoding:
    """Machine over 2^m states: accepting set plus per-symbol design sequences.

    ``symbol_designs`` holds one SymbolDesign per symbol in SYMBOLS order.
    The rejecting set is always the complement of ``s_acc``.
    """

    m: int
    s_acc: tuple[int, ...]
    symbol_designs: tuple[SymbolDesign, SymbolDesign, SymbolDesign, SymbolDesign]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"qubit count must be positive, got {self.m}")
        if len(self.symbol_designs) != len(SYMBOLS):
            raise ValueError("need exactly one design sequence per symbol")
        check_accepting_set(self.s_acc, self.m)
        for sd in self.symbol_designs:
            for t in sd.designs:
                for wire, _ in t.singles:
                    if not 1 <= wire <= self.m:
                        raise WireOutOfRange(f"wire {wire} outside [1, {self.m}]")
                for wire in t.cnot:
                    if not 1 <= wire <= self.m:
                        raise WireOutOfRange(f"wire {wire} outside [1, {self.m}]")

    @classmethod
    def from_map(cls, m: int, s_acc, designs: Mapping[str, SymbolDesign]) -> "MachineEncoding":
        missing = [s for s in SYMBOLS if s not in designs]
        if missing:
            raise ValueError(f"missing designs for symbols {missing}")
        return cls(m, tuple(sorted(set(int(i) for i in s_acc))),
                   tuple(designs[s] for s in SYMBOLS))

    def design_for(self, symbol: str) -> SymbolDesign:
        return self.symbol_designs[SYMBOLS.index(symbol)]

    @property
    def states(self) -> int:
        return 1 << self.m


def walsh_hadamard(n: int) -> UnitaryOperator:
    """n-fold tensor power of the 2x2 Hadamard transform (n = 0 gives [[1]])."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.eye(1)
    for _ in range(n):
        out = np.kron(out, h1)
    return UnitaryOperator(out)


def single_qubit_unitary(p: GateParams) -> np.ndarray:
    """Phase shift times z-rotations sandwiching a real rotation:

    e^{i psi} diag(e^{-i beta}, e^{i beta}) R(theta) diag(e^{-i alpha}, e^{i alpha})
    """
    psi, alpha, theta, beta = p.angles()
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                   dtype=complex)
    left = np.diag([np.exp(-1j * beta), np.exp(1j * beta)])
    right = np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)])
    return np.exp(1j * psi) * (left @ rot @ right)


def lifted_unitary(i: int, n: int, u: np.ndarray) -> np.ndarray:
    """Embed a 2x2 unitary on wire i of n; wire 1 is the most significant qubit."""
    if not 1 <= i <= n:
        raise WireOutOfRange(f"wire {i} outside [1, {n}]")
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 single-qubit unitary, got shape {u.shape}")
    return np.kron(np.eye(1 << (i - 1)), np.kron(u, np.eye(1 << (n - i))))


def cnot_matrix(i: int, j: int, n: int) -> np.ndarray:
    """CNOT with control wire i and target wire j on n qubits; identity when i = j."""
    for wire in (i, j):
        if not 1 <= wire <= n:
            raise WireOutOfRange(f"wire {wire} outside [1, {n}]")
    dim = 1 << n
    if i == j:
        return np.eye(dim, dtype=complex)
    control_bit = 1 << (n - i)
    target_bit = 1 << (n - j)
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        b2 = b ^ target_bit if b & control_bit else b
        mat[b2, b] = 1.0
    return mat


def design_unitary(t: DesignTuple, n: int) -> np.ndarray:
    """Product of the lifted singles, in listed order, times the CNOT.

    The CNOT is the rightmost factor, i.e. it acts first on states.
    """
    mat = cnot_matrix(t.cnot[0], t.cnot[1], n)
    for wire, params in reversed(t.singles):
        mat = lifted_unitary(wire, n, single_qubit_unitary(params)) @ mat
    return mat


def symbol_unitary(d: SymbolDesign, n: int) -> UnitaryOperator:
    """Product of the design unitaries, first design leftmost; empty product is I."""
    mat = np.eye(1 << n, dtype=complex)
    for t in d.designs:
        mat = mat @ design_unitary(t, n)
    return UnitaryOperator(mat)


# --- canonical text form ----------------------------------------------------
#
#   m=<int>
#   sacc=<comma separated indices, possibly empty>
#   <sym>: [(i,gpsi,galpha,gtheta,gbeta),...] cnot=(i,j) D=<int>
#
# One line per design, symbols grouped in L, 0, 1, R order.  All numbers are
# integers (grid indices, never float radians) so encodings round-trip and
# hash exactly.  No line contains a newline, and every character of a line
# sorts above it, so two texts with the same number of lines per symbol
# compare as their tuples of lines do.

_DESIGN_RE = re.compile(
    r"^([L01R]): \[((?:\(\d+,\d+,\d+,\d+,\d+\))(?:,\(\d+,\d+,\d+,\d+,\d+\))*)?\]"
    r" cnot=\((\d+),(\d+)\) D=(\d+)$"
)
_SINGLE_RE = re.compile(r"\((\d+),(\d+),(\d+),(\d+),(\d+)\)")


def _design_line(symbol: str, t: DesignTuple) -> str:
    d = t.singles[0][1].d if t.singles else 1
    for _, p in t.singles:
        if p.d != d:
            raise ValueError("all gate params within one design must share the grid")
    body = ",".join(f"({w},{p.psi},{p.alpha},{p.theta},{p.beta})" for w, p in t.singles)
    return f"{symbol}: [{body}] cnot=({t.cnot[0]},{t.cnot[1]}) D={d}"


def sacc_line(s_acc: tuple[int, ...]) -> str:
    """The canonical text line of an accepting set."""
    return "sacc=" + ",".join(str(i) for i in s_acc)


def design_lines(symbol: str, sd: SymbolDesign) -> tuple[str, ...]:
    """The canonical text lines of one symbol's design sequence."""
    return tuple(_design_line(symbol, t) for t in sd.designs)


def canonical_text(enc: MachineEncoding) -> str:
    lines = [f"m={enc.m}", sacc_line(enc.s_acc)]
    for symbol, sd in zip(SYMBOLS, enc.symbol_designs):
        lines.extend(design_lines(symbol, sd))
    return "\n".join(lines) + "\n"


def serialize(enc: MachineEncoding) -> bytes:
    return canonical_text(enc).encode("utf-8")


def deserialize(data) -> MachineEncoding:
    """Parse the canonical text form; strict, so serialize/deserialize invert."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding(f"not valid UTF-8: {exc}") from None
    else:
        text = str(data)
    lines = text.splitlines()
    if len(lines) < 2:
        raise MalformedEncoding("line 1: expected 'm=<int>' and 'sacc=...' header lines")
    mline = re.fullmatch(r"m=(\d+)", lines[0])
    if not mline:
        raise MalformedEncoding(f"line 1: expected 'm=<int>', got {lines[0]!r}")
    m = int(mline.group(1))
    if m < 1:
        raise MalformedEncoding("line 1: qubit count must be positive")
    sline = re.fullmatch(r"sacc=((\d+)(,\d+)*)?", lines[1])
    if not sline:
        raise MalformedEncoding(f"line 2: expected 'sacc=<indices>', got {lines[1]!r}")
    s_acc = tuple(int(v) for v in sline.group(1).split(",")) if sline.group(1) else ()
    if list(s_acc) != sorted(set(s_acc)):
        raise MalformedEncoding("line 2: accepting set must be sorted and duplicate-free")
    if s_acc and s_acc[-1] >= (1 << m):
        raise MalformedEncoding(f"line 2: accepting index {s_acc[-1]} >= {1 << m}")

    designs: dict[str, list[DesignTuple]] = {s: [] for s in SYMBOLS}
    prev_symbol = -1
    for lineno, line in enumerate(lines[2:], start=3):
        match = _DESIGN_RE.fullmatch(line)
        if not match:
            raise MalformedEncoding(f"line {lineno}: malformed design line {line!r}")
        symbol, body, ci, cj, d = (match.group(1), match.group(2),
                                   int(match.group(3)), int(match.group(4)),
                                   int(match.group(5)))
        order = SYMBOLS.index(symbol)
        if order < prev_symbol:
            raise MalformedEncoding(f"line {lineno}: symbol {symbol!r} out of canonical order")
        prev_symbol = order
        if d < 1:
            raise MalformedEncoding(f"line {lineno}: grid resolution must be positive")
        singles = []
        for sm in _SINGLE_RE.finditer(body or ""):
            wire, gpsi, galpha, gtheta, gbeta = (int(g) for g in sm.groups())
            if not 1 <= wire <= m:
                raise MalformedEncoding(f"line {lineno}: wire {wire} outside [1, {m}]")
            if max(gpsi, galpha, gtheta, gbeta) >= d:
                raise MalformedEncoding(f"line {lineno}: grid index >= D={d}")
            singles.append((wire, GateParams(gpsi, galpha, gtheta, gbeta, d)))
        for wire in (ci, cj):
            if not 1 <= wire <= m:
                raise MalformedEncoding(f"line {lineno}: cnot wire {wire} outside [1, {m}]")
        designs[symbol].append(DesignTuple(tuple(singles), (ci, cj)))

    return MachineEncoding.from_map(m, s_acc,
                                    {s: SymbolDesign(tuple(designs[s])) for s in SYMBOLS})
