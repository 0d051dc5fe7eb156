"""Supervisor relation sources: named builtins and membership-list files.

File format: UTF-8 text, ``#`` starts a comment line, the first payload line
is ``n=<int>``, and every following payload line is one accepted string of
exactly n characters over {0,1}.  Duplicates are rejected.
"""
from __future__ import annotations

import os

from .errors import LengthMismatch, MalformedRelationFile, OddLengthForEq
from .qqaf import MAX_LIVE_AMPLITUDES, RelationTable


def _eq(n: int) -> RelationTable:
    if n % 2:
        raise OddLengthForEq(f"builtin 'eq' needs an even length, got {n}")
    half = n // 2
    return RelationTable.from_predicate(n, lambda x: x[:half] == x[half:])


BUILTIN_RELATIONS = {
    "all": lambda n: RelationTable.from_predicate(n, lambda x: True),
    "none": lambda n: RelationTable.from_predicate(n, lambda x: False),
    "eq": _eq,
    "balanced": lambda n: RelationTable.from_predicate(
        n, lambda x: x.count("0") == x.count("1")),
    "parity-even": lambda n: RelationTable.from_predicate(
        n, lambda x: x.count("1") % 2 == 0),
    "majority": lambda n: RelationTable.from_predicate(
        n, lambda x: x.count("1") > x.count("0")),
}


def _check_length(n: int) -> None:
    """Refuse n with 2^n inputs above MAX_LIVE_AMPLITUDES, without forming 2^n."""
    if n >= MAX_LIVE_AMPLITUDES.bit_length():
        raise ValueError(f"n={n} gives 2^n inputs, more than the "
                         f"{MAX_LIVE_AMPLITUDES} a relation may hold")


def parse_relation_text(text: str) -> RelationTable:
    declared = None
    accepted: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if declared is None:
            if not line.startswith("n=") or not line[2:].isdigit():
                raise MalformedRelationFile(
                    f"line {lineno}: first payload line must be 'n=<int>', got {line!r}")
            declared = int(line[2:])
            _check_length(declared)
            continue
        if len(line) != declared:
            raise LengthMismatch(
                f"line {lineno}: string {line!r} does not have length {declared}")
        if set(line) - {"0", "1"}:
            raise MalformedRelationFile(
                f"line {lineno}: string must be over 0/1, got {line!r}")
        if line in seen:
            raise MalformedRelationFile(f"line {lineno}: duplicate string {line!r}")
        seen.add(line)
        accepted.append(line)
    if declared is None:
        raise MalformedRelationFile("missing the 'n=<int>' header line")
    return RelationTable.from_strings(declared, accepted)


def parse_relation(source: str, n: int) -> RelationTable:
    """Resolve a builtin name or a relation file into a membership table.

    File-backed tables must declare the same length n as requested.
    """
    _check_length(n)
    if source in BUILTIN_RELATIONS:
        return BUILTIN_RELATIONS[source](n)
    if not os.path.exists(source):
        names = ", ".join(sorted(BUILTIN_RELATIONS))
        raise MalformedRelationFile(
            f"{source!r} is neither a builtin relation ({names}) nor a readable file")
    with open(source, encoding="utf-8") as fh:
        table = parse_relation_text(fh.read())
    if table.n != n:
        raise LengthMismatch(f"file declares n={table.n} but the run wants n={n}")
    return table
