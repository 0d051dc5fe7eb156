"""Command-line driver.

``aeqslearn run`` learns a relation over an enumerated machine pool and
writes a JSON run record; ``aeqslearn verify`` executes the oracle-backed
verification suites.  Exit codes: 0 on success, 1 on usage or input errors,
2 when a learning run finishes without reaching the brute-force optimum.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import __version__
from .errors import AeqsError
from .gates import canonical_text
from .learner import (LearnReport, PoolConfig, Trace, brute_force_optimum,
                      enumerate_pool, first_algorithm, second_algorithm)
from .qqaf import AgreementParams
from .qsub import check_resolution
from .relations import parse_relation

ALGORITHMS = ("first", "second", "brute")


@dataclass(frozen=True)
class RunConfig:
    """One learning run: relation source, pool bounds, algorithm knobs."""

    relation: str
    n: int
    eta: float = 0.9
    algorithm: str = "second"
    m: int = 2
    grid: int = 1
    ltuples: int = 0
    ldesigns: int = 1
    sacc: tuple[tuple[int, ...], ...] = ((0,), (1,))
    cap: int = 4096
    k: int = 1024
    seed: int = 0
    reps: int = 5

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("input length n must be at least 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        check_resolution(self.k)
        AgreementParams(self.eta)  # surfaces the (1/2, 1] constraint early

    def pool_config(self) -> PoolConfig:
        return PoolConfig(m=self.m, d=self.grid, l_tuples=self.ltuples,
                          l_designs=self.ldesigns, s_acc_choices=self.sacc,
                          hard_cap=self.cap)


@dataclass(frozen=True)
class RunRecord:
    """Persisted outcome of a run; deterministic given the seed except wall time."""

    config: RunConfig
    pool_size: int
    chosen_encoding: str
    estimated_agreement: float
    true_agreement: int
    brute_force_count: int
    oracle_queries: int
    repetitions: int
    success: bool
    wall_time_ms: float

    def __post_init__(self):
        if self.true_agreement > self.brute_force_count:
            raise ValueError("verified agreement exceeds the brute-force optimum")

    def to_json(self) -> str:
        """The record's fields, and the config's, in declaration order."""
        return json.dumps({"artifact_version": __version__, **asdict(self)}, indent=2)


def execute(cfg: RunConfig, trace: Trace = None) -> RunRecord:
    """Enumerate the pool, run the configured algorithm, assemble the record."""
    pool = enumerate_pool(cfg.pool_config())
    rel = parse_relation(cfg.relation, cfg.n)
    params = AgreementParams(cfg.eta)
    if trace:
        trace(f"pool holds {pool.s} encodings, relation has {rel.size} members")
    start = time.perf_counter()
    if cfg.algorithm == "first":
        report = first_algorithm(pool, rel, params, k=cfg.k, seed=cfg.seed,
                                 reps=cfg.reps, trace=trace)
    elif cfg.algorithm == "second":
        report = second_algorithm(pool, rel, params, k=cfg.k, seed=cfg.seed,
                                  reps=cfg.reps, trace=trace)
    else:
        enc, count = brute_force_optimum(pool, rel, params)
        report = LearnReport(chosen=enc, estimated_agreement=float(count), true_agreement=count,
                             oracle_queries=pool.s * (1 << cfg.n), repetitions=1, success=True)
    brute_count = int(pool.agreement_counts(rel, params).max())
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunRecord(config=cfg, pool_size=pool.s,
                     chosen_encoding=canonical_text(report.chosen),
                     estimated_agreement=report.estimated_agreement,
                     true_agreement=report.true_agreement,
                     brute_force_count=brute_count,
                     oracle_queries=report.oracle_queries,
                     repetitions=report.repetitions,
                     success=report.success, wall_time_ms=wall_ms)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeqslearn",
        description="Learn relations over pools of gate-design quantum machines.")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left unset takes its RunConfig default
    runp = sub.add_parser("run", help="run one learning configuration",
                          argument_default=argparse.SUPPRESS)
    runp.add_argument("--relation", required=True,
                      help="builtin relation name or relation file path")
    runp.add_argument("--n", type=int, required=True, help="input length (>= 1)")
    runp.add_argument("--eta", type=float, help="agreement threshold in (1/2, 1]")
    runp.add_argument("--algorithm", choices=ALGORITHMS)
    runp.add_argument("--m", type=int, help="machine qubit count")
    runp.add_argument("--grid", type=int, metavar="D", help="angle grid resolution")
    runp.add_argument("--ltuples", type=int, help="single-qubit gates per design")
    runp.add_argument("--ldesigns", type=int, help="designs per symbol")
    runp.add_argument("--sacc", action="append", metavar="IDX[,IDX...]",
                      help="accepting-set choice, repeatable (default: 0 and 1)")
    runp.add_argument("--cap", type=int, help="hard cap on the pool size")
    runp.add_argument("--k", type=int, help="Fourier resolution for estimation/counting")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--reps", type=int)
    runp.add_argument("--out", default=None, metavar="PATH",
                      help="also write the record here")
    runp.add_argument("--trace", action="store_true", default=False,
                      help="per-step norms and query tallies on stderr")
    runp.set_defaults(handler=cmd_run)

    verifyp = sub.add_parser("verify", help="run an oracle-backed property suite")
    verifyp.add_argument("suite", help="a suite name, or all; an unknown name lists them")
    verifyp.set_defaults(handler=cmd_verify)
    return parser


def _parse_sacc(raw: list[str]) -> tuple[tuple[int, ...], ...]:
    choices = []
    for chunk in raw:
        chunk = chunk.strip()
        choices.append(tuple(int(v) for v in chunk.split(",")) if chunk else ())
    return tuple(choices)


def cmd_run(args) -> int:
    trace = (lambda msg: print(f"trace: {msg}", file=sys.stderr)) if args.trace else None
    try:
        given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if hasattr(args, f.name)}
        if "sacc" in given:
            given["sacc"] = _parse_sacc(given["sacc"])
        cfg = RunConfig(**given)
        record = execute(cfg, trace)
        text = record.to_json()
        if args.out:  # written first, so a bad path fails before anything is printed
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (AeqsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0 if record.success else 2


def cmd_verify(args) -> int:
    from .suites import SUITES, run_suites  # here, so that `run` never loads them
    try:
        results = run_suites(args.suite)
    except KeyError:
        names = ", ".join(sorted(SUITES) + ["all"])
        print(f"error: unknown suite {args.suite!r}; valid names: {names}",
              file=sys.stderr)
        return 1
    for result in results:
        print(result.report())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
