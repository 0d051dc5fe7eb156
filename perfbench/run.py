#!/usr/bin/env python3
"""aeqslearn benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crit7-sweep --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` instead wraps the
program's public names and reports per-layer metrics.  Ops run one at a
time until ``--seconds`` of op time, scaled to the reference host speed,
have passed; a run always ends on a cycle boundary, so every run holds the
same mix of ops.  Output: one line per metric, a ``detail:`` line
(environment, record digest, bases of every ratio), and last one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_out/``.  perfbench/README.md explains the
workloads, the metrics and the scaling.
"""
from __future__ import annotations

import os

# One op at a time on a small host: keep numerical libraries single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, merge_summaries  # noqa: E402
from workloads import ETA, WORKLOADS, Op, Workload, make_workload, reference_counts  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HELD_OUT_SEED = 104729  # later performance claims must also hold on this seed
OP_TIMEOUT_S = 60
OVERRUN_S = 60  # a run ends on a cycle boundary unless reaching it takes this much longer
# Median calibration time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11).
# Times are reported at that host speed; see calibrate().
CALIBRATION_REF_MS = 20.0

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("setup_s", "s"),
    ("success_rate", "ratio"),
    ("completion_rate", "ratio"),
    ("queries_per_op", "queries"),
    ("peak_rss_mb", "MiB"),
)
QUERY_LAYERS = ("learner.build_joint_state", "learner.first_algorithm",
                "learner.second_algorithm", "qsub.amplitude_estimation",
                "qsub.amplitude_amplify", "qsub.find_maximum")


@dataclass
class OpResult:
    op: Op
    ms: float
    ok: bool  # completed and passed the output check
    success: bool  # verified agreement equals the reference optimum
    queries: int
    record: dict | None  # timing-stripped record, digested
    reason: str = ""
    scaled_ms: float = 0.0  # ms at the reference host speed; see Calibrator


def calibrate() -> float:
    """Milliseconds for a fixed mix of interpreter and small-array work."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    vec = np.arange(16.0)
    for _ in range(4_000):
        vec = np.sqrt(vec * vec + 1.0)
    return (time.perf_counter() - start) * 1e3


class Calibrator:
    """Brackets every timed interval with calibration samples.

    The host's speed drifts by tens of percent over seconds, because other
    tenants share its cores, and CPU time moves with wall time.  Each timed
    interval is therefore scaled by CALIBRATION_REF_MS over the mean
    calibration time of the gaps just before and just after it.  The kernel
    runs none of the program's code, so a change to the program moves the
    scaled times as it moves the raw ones.
    """

    SHARE = 0.10  # calibrate for this share of the preceding interval, at least once

    def __init__(self):
        self.gaps: list[list[float]] = []

    def gap(self, after_ms: float = 0.0) -> float:
        """Take one gap's samples; returns the milliseconds they took."""
        samples = [calibrate()]
        while sum(samples) < self.SHARE * after_ms:
            samples.append(calibrate())
        self.gaps.append(samples)
        return sum(samples)

    def scale(self, ms: float) -> float:
        """``ms`` of the interval between the last two gaps, at reference speed."""
        before, after = self.gaps[-2], self.gaps[-1]
        speed = (statistics.mean(before) + statistics.mean(after)) / 2
        return ms * CALIBRATION_REF_MS / speed


def import_program():
    """Import aeqslearn from this checkout's ``src``; refuse any other copy."""
    init = SRC / "aeqslearn" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no program source at {init.relative_to(ROOT)}; "
                 "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import aeqslearn
    if Path(aeqslearn.__file__).resolve() != init.resolve():
        sys.exit(f"error: aeqslearn was imported from {aeqslearn.__file__}, not from {SRC}")
    return aeqslearn


class Bench:
    """One workload: its pool, its reference, and the op runners."""

    def __init__(self, wl: Workload, aeq):
        self.wl, self.aeq = wl, aeq
        self.pool = aeq.learner.enumerate_pool(aeq.PoolConfig(**wl.pool_kwargs()))
        self.index = {aeq.canonical_text(e): i for i, e in enumerate(self.pool.encodings)}
        self.counts = [reference_counts(self.pool.encodings, rel, aeq.symbol_unitary)
                       for rel in wl.relations]
        self.optimum = [int(c.max()) for c in self.counts]
        self.star = [opt == 1 << rel.n for opt, rel in zip(self.optimum, wl.relations)]
        self.errors: list[str] = []
        self.calibrator = Calibrator()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        if wl.mode == "library":
            self.params = aeq.AgreementParams(ETA)
            self.tables = [aeq.parse_relation(rel.source, rel.n) for rel in wl.relations]
            for table, rel in zip(self.tables, wl.relations):
                if not np.array_equal(table.members, rel.members):
                    self.errors.append(f"parse_relation({rel.source!r}, {rel.n}) differs")
            _ = self.pool.machines  # the shared pool is built once, before timing
        else:  # compile the program's bytecode before the first timed process
            subprocess.run([sys.executable, "-c", "import aeqslearn.cli"], cwd=ROOT,
                           env=self.env, check=True, timeout=OP_TIMEOUT_S)

    def first_batch(self) -> list[Op]:
        prologue = self.wl.prologue()
        return prologue + self.wl.cycle(0, len(prologue), self.star)

    # --- output check ------------------------------------------------------

    def _check(self, op: Op, chosen: str, true_agreement: int, success_flag: bool) -> list[str]:
        rel = self.wl.relations[op.rel]
        problems = []
        idx = self.index.get(chosen)
        if idx is None:
            problems.append("chosen encoding is not in the pool")
        elif int(self.counts[op.rel][idx]) != true_agreement:
            problems.append(f"true_agreement {true_agreement} but the chosen machine "
                            f"agrees on {int(self.counts[op.rel][idx])}")
        target = 1 << rel.n if op.kind == "first" else self.optimum[op.rel]
        if success_flag != (true_agreement == target):
            problems.append(f"success={success_flag} with true_agreement {true_agreement}")
        return problems

    def _result(self, op, ms, record, true_agreement, queries, problems) -> OpResult:
        ok = not problems
        return OpResult(op, ms, ok, ok and true_agreement == self.optimum[op.rel],
                        queries if ok else 0, record, "; ".join(problems))

    # --- library ops -------------------------------------------------------

    def run_library_op(self, op: Op) -> OpResult:
        learner, rel = self.aeq.learner, self.wl.relations[op.rel]
        table = self.tables[op.rel]
        start = time.perf_counter()
        try:
            if op.kind == "condition":
                star = learner.verify_condition_star(self.pool, table, self.params)
                out = (star, *learner.brute_force_optimum(self.pool, table, self.params))
            else:
                train = learner.second_algorithm if op.kind == "second" else learner.first_algorithm
                out = train(self.pool, table, self.params, k=self.wl.k, seed=op.seed,
                            reps=self.wl.reps)
        except Exception as exc:  # a raising op is counted as failed, not fatal
            return OpResult(op, (time.perf_counter() - start) * 1e3, False, False, 0, None,
                            f"raised {exc!r}")
        ms = (time.perf_counter() - start) * 1e3
        name = f"{rel.source}@{rel.n}"
        if op.kind == "condition":
            star, enc, count = out
            chosen = self.aeq.canonical_text(enc)
            record = {"op": "condition", "relation": name, "star": bool(star),
                      "chosen": chosen, "brute_force_count": int(count)}
            problems = self._check(op, chosen, int(count), int(count) == self.optimum[op.rel])
            if int(count) != self.optimum[op.rel]:
                problems.append(f"brute_force_optimum found {count}, "
                                f"expected {self.optimum[op.rel]}")
            if bool(star) != self.star[op.rel]:
                problems.append(f"verify_condition_star={star}")
            # two brute scans, each s * 2^n modelled queries as in the CLI's brute record
            return self._result(op, ms, record, int(count),
                                2 * self.pool.s << rel.n, problems)
        rep = out
        chosen = self.aeq.canonical_text(rep.chosen)
        record = {"op": op.kind, "relation": name, "seed": op.seed, "chosen": chosen,
                  "estimated_agreement": rep.estimated_agreement,
                  "true_agreement": rep.true_agreement, "oracle_queries": rep.oracle_queries,
                  "repetitions": rep.repetitions, "success": rep.success}
        problems = self._check(op, chosen, rep.true_agreement, rep.success)
        return self._result(op, ms, record, rep.true_agreement, rep.oracle_queries, problems)

    # --- CLI ops -----------------------------------------------------------

    def cli_argv(self, op: Op) -> list[str]:
        rel, wl = self.wl.relations[op.rel], self.wl
        argv = ["run", "--relation", rel.source, "--n", str(rel.n), "--algorithm", op.kind,
                "--eta", str(ETA), "--m", "2", "--grid", "1", "--ltuples", "0",
                "--ldesigns", "1", "--k", str(wl.k), "--seed", str(op.seed),
                "--reps", str(wl.reps)]
        return argv + [f"--sacc={','.join(map(str, c))}" for c in wl.sacc]

    def run_cli_op(self, op: Op, trace_files: tuple[Path, Path] | None = None) -> OpResult:
        if trace_files is None:
            cmd = [sys.executable, "-m", "aeqslearn", *self.cli_argv(op)]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_files[0]),
                   str(trace_files[1]), str(op.index), *self.cli_argv(op)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return OpResult(op, (time.perf_counter() - start) * 1e3, False, False, 0, None,
                            f"timed out after {OP_TIMEOUT_S}s")
        ms = (time.perf_counter() - start) * 1e3
        if proc.returncode not in (0, 2):  # 2 is a completed run below the optimum
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return OpResult(op, ms, False, False, 0, None, f"exit {proc.returncode}: {tail[0]}")
        try:
            rec = json.loads(proc.stdout)
            record = {k: v for k, v in rec.items() if k != "wall_time_ms"}
            record["exit"] = proc.returncode
            ta, flag = int(rec["true_agreement"]), bool(rec["success"])
            problems = self._check(op, rec["chosen_encoding"], ta, flag)
            cfg, rel = rec["config"], self.wl.relations[op.rel]
            if (cfg["algorithm"], cfg["n"], cfg["seed"]) != (op.kind, rel.n, op.seed):
                problems.append(f"record echoes config {cfg}")
            if rec["pool_size"] != self.pool.s:
                problems.append(f"pool_size {rec['pool_size']}, expected {self.pool.s}")
            if rec["brute_force_count"] != self.optimum[op.rel]:
                problems.append(f"brute_force_count {rec['brute_force_count']}, "
                                f"expected {self.optimum[op.rel]}")
            if proc.returncode != (0 if flag else 2):
                problems.append(f"exit {proc.returncode} with success={flag}")
            queries = int(rec["oracle_queries"])
        except (ValueError, KeyError, TypeError) as exc:
            return OpResult(op, ms, False, False, 0, None, f"unreadable record: {exc!r}")
        return self._result(op, ms, record, ta, queries, problems)

    # --- the timed loop ----------------------------------------------------

    def loop(self, seconds: float, run_op) -> tuple[list[OpResult], bool]:
        """Run whole cycles until ``seconds`` of reference-speed op time have passed.

        Returns the results and whether the run was cut mid-cycle, which
        happens only when it overruns ``seconds`` by OVERRUN_S of wall time.
        """
        results: list[OpResult] = []
        batch, number, cut, scaled_s = self.first_batch(), 0, False, 0.0
        start = time.perf_counter()
        self.calibrator.gap()
        while True:
            for op in batch:
                result = run_op(op)
                self.calibrator.gap(result.ms)
                result.scaled_ms = self.calibrator.scale(result.ms)
                scaled_s += result.scaled_ms / 1e3
                results.append(result)
                if time.perf_counter() - start > seconds + OVERRUN_S:
                    cut = True
                    break
            if cut or scaled_s >= seconds:
                return results, cut
            number += 1
            batch = self.wl.cycle(number, len(results), self.star)

    def measure_setup(self) -> list[tuple[float, float]]:
        """(raw, scaled) set-up seconds in fresh interpreters, ``setup_repeats`` times."""
        spec = json.dumps({"pool": self.wl.pool_kwargs(),
                           "relations": [[r.source, r.n] for r in self.wl.relations]})
        times = []
        self.calibrator.gap()
        for _ in range(self.wl.setup_repeats):
            proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), spec],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
            self.calibrator.gap()
            if proc.returncode != 0:
                self.errors.append(f"set-up probe exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-200:]}")
                continue
            probe = json.loads(proc.stdout)
            if probe["pool"] != self.pool.s:
                self.errors.append(f"set-up probe built {probe['pool']} machines")
            times.append((probe["setup_s"], self.calibrator.scale(probe["setup_s"])))
        return times


def digest(results: list[OpResult]) -> str:
    payload = json.dumps([r.record for r in results], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def tail_stat(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with min(10, N // 4) samples beyond it: (ms, percentile, beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n // 4)
    idx = n - 1 - beyond
    return ordered[idx], (100.0 * idx / (n - 1) if n > 1 else 100.0), beyond


def end_to_end(bench: Bench, results: list[OpResult], setup: list[tuple[float, float]],
               rss_mb: float) -> tuple[dict, dict]:
    """Metrics at reference host speed; the unscaled values go to the detail."""
    n = len(results)
    done = [r for r in results if r.ok]
    values, unscaled = {}, {}
    for out, times, setup_s in ((values, [r.scaled_ms for r in results], [t[1] for t in setup]),
                                (unscaled, [r.ms for r in results], [t[0] for t in setup])):
        out["ops_per_s"] = n / (sum(times) / 1e3)
        out["op_ms.p50"] = statistics.median(times)
        out["op_ms.tail"], pct, beyond = tail_stat(times)
        out["setup_s"] = statistics.median(setup_s) if setup_s else 0.0
    values.update({
        "success_rate": sum(r.success for r in results) / n,
        "completion_rate": len(done) / n,
        "queries_per_op": sum(r.queries for r in done) / len(done) if done else 0.0,
        "peak_rss_mb": rss_mb,
    })
    gaps = bench.calibrator.gaps
    detail = {"op_ms.tail": {"percentile": pct, "samples": n, "beyond": beyond},
              "unscaled": unscaled,
              "setup_s": {"samples": [t[0] for t in setup]},
              "op_ms": [round(r.ms, 3) for r in results],
              "calibration": {"reference_ms": CALIBRATION_REF_MS,
                              "median_ms": statistics.median(ms for g in gaps for ms in g),
                              "gaps_ms": [[round(ms, 3) for ms in g] for g in gaps]},
              "fail_rate": (n - len(done)) / n,
              "success_rate": {"successes": sum(r.success for r in results), "ops": n},
              "completion_rate": {"completed": len(done), "ops": n}}
    return {name: (values[name], unit) for name, unit in END_TO_END}, detail


def per_layer(summary: dict, results: list[OpResult], overhead: float) -> tuple[dict, dict]:
    """Per-op layer metrics from a trace summary, and the bases of its ratios."""
    ops = len(results)
    layers, counts, queries = summary["layers"], summary["counts"], summary["queries"]

    def stat(layer, i):
        return layers.get(layer, (0, 0, 0))[i]

    def ms(layer):
        return (f"{layer}.ms", "ms/op", stat(layer, 1) / 1e6 / ops)

    def self_ms(layer):
        return (f"{layer}.self_ms", "ms/op", stat(layer, 2) / 1e6 / ops)

    def calls(layer):
        return (f"{layer}.calls", "calls/op", stat(layer, 0) / ops)

    cells = counts.get("cells", 0)
    distinct_cells = counts.get("distinct_cells", 0)
    su_calls = counts.get("symbol_unitary_calls", 0)
    su_distinct = counts.get("symbol_unitary_distinct", 0)
    fm_calls = stat("qsub.find_maximum", 0)
    charged = sum(queries.values())
    recorded = sum(r.queries for r in results)
    rows = [
        ms("qqaf.agreement_vector"), calls("qqaf.agreement_vector"),
        ms("qqaf.agreement_count"), calls("qqaf.agreement_count"),
        ("learner.brute_force_optimum.calls_per_op", "calls/op",
         stat("learner.brute_force_optimum", 0) / ops),
        ("qqaf.cells", "cells/op", cells / ops),
        ("qqaf.matvecs", "matvecs/op", counts.get("matvecs", 0) / ops),
        ("qqaf.cell_reuse_ratio", "ratio", distinct_cells / cells if cells else 0.0),
        ms("qqaf.Machine"), calls("qqaf.Machine"),
        ("gates.symbol_unitary.calls", "calls/op", su_calls / ops),
        ("gates.symbol_unitary.distinct_ratio", "ratio",
         su_distinct / su_calls if su_calls else 0.0),
        ms("learner.enumerate_pool"),
        ms("qsub.amplitude_estimation"), calls("qsub.amplitude_estimation"),
        self_ms("qsub.quantum_count"), self_ms("learner.second_algorithm"),
        self_ms("learner.first_algorithm"),
        ("qsub.GoodSubspace.mask.entries", "entries/op", counts.get("mask_entries", 0) / ops),
        ms("qsub.GoodSubspace.mask"),
        self_ms("learner.build_joint_state"), ms("learner.finalize_preparation"),
        ms("qsub.amplitude_amplify"),
        ms("qsub.find_maximum"), calls("qsub.find_maximum"),
        ("qsub.find_maximum.max_n", "items", counts.get("find_maximum_n_max", 0)),
        ("qcore.StateVector.count", "count/op", counts.get("statevectors", 0) / ops),
        ms("relations.parse_relation"),
        self_ms("cli.main"),
    ]
    rows += [(f"queries.{layer}", "queries/op", queries.get(layer, 0) / ops)
             for layer in QUERY_LAYERS]
    rows += [("queries.other", "queries/op",
              sum(v for k, v in queries.items() if k not in QUERY_LAYERS) / ops),
             ("queries.uncharged", "queries/op", (recorded - charged) / ops),
             ("trace.overhead_ratio", "ratio", overhead)]
    detail = {
        "ops": ops, "spans": summary["spans"], "absent_layers": summary["absent"],
        "computed": {
            "qqaf.cells": "calls x 2^n over agreement_vector and agreement_count calls",
            "qqaf.matvecs": "cells x (n + 2)",
            "qqaf.cell_reuse_ratio": {"distinct_cells": distinct_cells, "evaluated_cells": cells,
                                      "distinct_within": "one process"},
            "gates.symbol_unitary.distinct_ratio": {"distinct": su_distinct, "calls": su_calls,
                                                    "distinct_within": "one process"},
            "qsub.find_maximum.n": {"max": counts.get("find_maximum_n_max", 0),
                                    "mean": counts.get("find_maximum_n_sum", 0) / fm_calls
                                    if fm_calls else 0.0},
            "queries": {"charged": charged, "recorded": recorded},
        },
    }
    return {name: (value, unit) for name, unit, value in rows}, detail


def environment(aeq, seed: int) -> dict:
    sources = sorted((SRC / "aeqslearn").rglob("*.py"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": git_head(), "src_sha256": tree.hexdigest()[:16],
            "aeqslearn": aeq.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "workload_seed": seed, "held_out_seed": HELD_OUT_SEED}


def git_head() -> str | None:
    """The checked-out commit, read from .git directly (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args, aeq) -> int:
    OUT.mkdir(exist_ok=True)
    wl = make_workload(args.workload, args.seed, args.size == "tiny", ROOT, OUT)
    bench = Bench(wl, aeq)
    library = wl.mode == "library"
    untraced = bench.run_library_op if library else bench.run_cli_op
    tag = f"{wl.name}-seed{args.seed}-{args.size}"
    detail = {"workload": wl.name, "size": args.size, "trace": args.trace,
              "environment": environment(aeq, args.seed),
              "reference_optimum": {f"{r.source}@{r.n}": opt
                                    for r, opt in zip(wl.relations, bench.optimum)}}
    start = time.perf_counter()
    if not args.trace:
        results, cut = bench.loop(args.seconds, untraced)
        usage = resource.getrusage(resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN)
        setup = bench.measure_setup()
        metrics, extra = end_to_end(bench, results, setup, usage.ru_maxrss / 1024.0)
        correct = True
    else:
        prefix, _ = bench.loop(0, untraced)  # the first batch, untraced
        spans_path = OUT / f"spans-{tag}.tsv"
        spans_path.write_text("op\tindex\tparent\tname\tstart_ns\tend_ns\n", encoding="utf-8")
        if library:
            tracer = Tracer()
            tracer.install()

            def traced(op):
                tracer.op = op.index
                try:
                    return bench.run_library_op(op)
                finally:
                    tracer.op = -1
            try:
                results, cut = bench.loop(args.seconds, traced)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            with open(spans_path, "a", encoding="utf-8") as fh:
                tracer.write_spans(fh)
        else:
            summary_path, parts = OUT / f"summary-{tag}.json", []

            def traced(op):
                result = bench.run_cli_op(op, (summary_path, spans_path))
                if summary_path.is_file():
                    parts.append(json.loads(summary_path.read_text(encoding="utf-8")))
                    summary_path.unlink()
                return result
            results, cut = bench.loop(args.seconds, traced)
            summary = merge_summaries(parts)
        k = len(prefix)
        overhead = (sum(r.scaled_ms for r in results[:k])
                    / sum(r.scaled_ms for r in prefix) - 1.0)
        metrics, extra = per_layer(summary, results, overhead)
        extra["untraced_digest"] = digest(prefix)
        extra["spans_file"] = spans_path.relative_to(ROOT).as_posix()
        correct = digest(results[:k]) == extra["untraced_digest"]
        if not correct:
            bench.errors.append("traced records differ from untraced records")
    failed = sum(not r.ok for r in results)
    detail.update(extra)
    detail.update({
        "ops": len(results), "wall_s": time.perf_counter() - start, "cut_mid_cycle": cut,
        "digest": digest(results[:len(bench.first_batch())]),
        "digest_ops": len(bench.first_batch()),
        "op_kinds": {kind: sum(r.op.kind == kind for r in results)
                     for kind in sorted({r.op.kind for r in results})},
        "failures": [f"op {r.op.index} {r.op.kind}: {r.reason}" for r in results if not r.ok][:10],
        "errors": bench.errors,
    })
    correct = correct and failed == 0 and not bench.errors
    result = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1), encoding="utf-8")
    print(f"{wl.name}: {len(results)} ops in {detail['wall_s']:.1f} s, seed {args.seed}, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    if "fail_rate" in detail:  # not gated on, because it is 0 when the program is right
        print(f"  {'fail_rate':<42} {detail['fail_rate']:>14.6g} ratio")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--size", args.size],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            merged["metrics"][f"{name}:{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, import_program())


if __name__ == "__main__":
    raise SystemExit(main())
