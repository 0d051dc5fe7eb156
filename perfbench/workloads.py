"""Workload definitions, their seeded inputs, and the reference oracle.

Every input a workload hands the program (relation files, per-op seeds) is
derived from the workload seed.  The reference agreement counts are computed
here by an independent batched simulation of the machines, so an op's record
is checked against numbers the program under test did not produce.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALGORITHMS = ("second", "first", "brute")
ETA = 0.9
SYMBOLS = ("L", "0", "1", "R")
SACC_01 = ((0,), (1,))
SACC_ALL16 = tuple(tuple(i for i in range(4) if mask >> i & 1) for mask in range(16))
TIE_TOL = 1e-9


@dataclass(frozen=True)
class Relation:
    source: str  # builtin name, or a relation file path relative to the checkout root
    n: int
    members: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class Op:
    index: int
    kind: str  # "condition", or one of ALGORITHMS
    rel: int  # index into Workload.relations
    seed: int


@dataclass
class Workload:
    name: str
    mode: str  # "library": in-process calls; "cli": one fresh process per op
    sacc: tuple[tuple[int, ...], ...]
    relations: list[Relation]
    k: int
    reps: int
    setup_repeats: int
    seed: int

    def pool_kwargs(self) -> dict:
        return dict(m=2, d=1, l_tuples=0, l_designs=1, s_acc_choices=self.sacc)

    def prologue(self) -> list[Op]:
        """Ops run once per run, before the first cycle."""
        if self.mode != "library":
            return []
        return [Op(r, "condition", r, 0) for r in range(len(self.relations))]

    def cycle(self, number: int, start: int, star: list[bool]) -> list[Op]:
        """The ops of one cycle; a run always ends on a cycle boundary."""
        rng = np.random.default_rng([self.seed, number])
        if self.mode == "library":
            # criterion 7, seed-major: one derived seed per cycle, shared by the relations
            seed = int(rng.integers(2**31))
            kinds = []
            for r in range(len(self.relations)):
                kinds.append(("second", r))
                if star[r]:
                    kinds.append(("first", r))
            return [Op(start + j, kind, r, seed) for j, (kind, r) in enumerate(kinds)]
        seeds = rng.integers(2**31, size=6)
        return [Op(start + j, ALGORITHMS[j % 3], j % 2, int(seeds[j])) for j in range(6)]


def builtin_members(name: str, n: int) -> np.ndarray:
    bits = [format(i, f"0{n}b") for i in range(1 << n)]
    if name == "balanced":
        keep = [x.count("0") == x.count("1") for x in bits]
    elif name == "eq":
        keep = [x[: n // 2] == x[n // 2:] for x in bits]
    elif name == "parity-even":
        keep = [x.count("1") % 2 == 0 for x in bits]
    else:
        raise ValueError(f"no reference for builtin {name!r}")
    return np.array(keep, dtype=bool)


def random_relation(root: Path, out: Path, tag: str, n: int,
                    rng: np.random.Generator) -> Relation:
    """Draw a relation uniformly at random and write it as a relation file."""
    members = rng.integers(2, size=1 << n).astype(bool)
    lines = [f"# random relation, {tag}", f"n={n}"]
    lines += [format(i, f"0{n}b") for i in np.flatnonzero(members)]
    path = out / f"{tag}-n{n}.rel"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Relation(path.relative_to(root).as_posix(), n, members)


def make_workload(name: str, seed: int, tiny: bool, root: Path, out: Path) -> Workload:
    """Build a workload and write its relation files under ``out``."""
    rng = np.random.default_rng(seed)
    k, reps = (64, 2) if tiny else (1024, 5)
    repeats = 2 if tiny else 3
    if name == "crit7-sweep":
        rels = [Relation(src, n, builtin_members(src, n))
                for src, n in (("balanced", 3), ("eq", 2), ("parity-even", 3), ("balanced", 2))]
        return Workload(name, "library", SACC_01, rels, k, reps, repeats, seed)
    tag = f"{name}-seed{seed}"
    if name == "cli-wide":
        n = 3 if tiny else 6
        rels = [Relation("balanced", n, builtin_members("balanced", n)),
                random_relation(root, out, tag, n, rng)]
        return Workload(name, "cli", SACC_01, rels, k, reps, repeats, seed)
    if name == "cli-pool4096":
        sacc = SACC_ALL16[:4] if tiny else SACC_ALL16
        rels = [Relation("balanced", 2, builtin_members("balanced", 2)),
                random_relation(root, out, tag, 3, rng)]
        return Workload(name, "cli", sacc, rels, k, reps, repeats, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("crit7-sweep", "cli-wide", "cli-pool4096")


def reference_counts(encodings, rel: Relation, symbol_unitary) -> np.ndarray:
    """Agreement count of every encoding with ``rel`` at threshold ETA.

    Walks the input trie breadth-first over the stacked symbol unitaries, so
    each prefix state is computed once for all machines.  Refuses to decide
    a verdict that lies within TIE_TOL of the threshold.
    """
    m = encodings[0].m
    if any(e.m != m for e in encodings):
        raise ValueError("reference needs one qubit count across the pool")
    cache = {}

    def unitary(sd):
        if sd not in cache:
            cache[sd] = symbol_unitary(sd, m).entries
        return cache[sd]

    stacks = {sym: np.stack([unitary(e.symbol_designs[i]) for e in encodings])
              for i, sym in enumerate(SYMBOLS)}
    s, dim = len(encodings), 1 << m
    states = stacks["L"][:, None, :, 0]  # (s, prefixes, dim): U_L |0>
    for _ in range(rel.n):
        ext = [np.einsum("sij,spj->spi", stacks[b], states) for b in ("0", "1")]
        states = np.stack(ext, axis=2).reshape(s, -1, dim)
    final = np.einsum("sij,spj->spi", stacks["R"], states)
    accepting = np.zeros((s, dim))
    for row, e in enumerate(encodings):
        accepting[row, list(e.s_acc)] = 1.0
    p_acc = np.einsum("spi,si->sp", np.abs(final) ** 2, accepting)
    side = np.where(rel.members[None, :], p_acc, 1.0 - p_acc)
    if np.any(np.abs(side - ETA) < TIE_TOL):
        raise ValueError(f"reference verdict within {TIE_TOL} of eta for {rel.source}@{rel.n}")
    return (side >= ETA).sum(axis=1)
