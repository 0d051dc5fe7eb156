#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that the traced
records digest to the same value as the untraced ones, and that no op
fails at the seed.  Then runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must fail without printing a
result.  Exits 1 if any check fails.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                           "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return detail, json.loads(lines[-1])


def check_workload(spec: dict, name: str) -> list[str]:
    problems, details = [], {}
    for trace, metric_spec in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(ROOT, name, trace)
        if proc.returncode != 0:
            return [f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
        detail, result = parse(proc)
        details[trace] = detail
        want = {m["name"]: m["unit"] for m in metric_spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                            "missing or extra, or units differ")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{name} trace {trace}: correct={result['correct']} "
                            f"failed={result['failed']}: {detail['failures']} {detail['errors']}")
        if trace == 0 and detail["fail_rate"] != 0:
            problems.append(f"{name}: fail_rate {detail['fail_rate']}")
    if not (details[0]["digest"] == details[1]["digest"] == details[1]["untraced_digest"]):
        problems.append(f"{name}: traced digest {details[1]['digest']} differs from "
                        f"untraced {details[0]['digest']}")
    print(f"{name}: {'ok' if not problems else 'FAILED'} (digest {details[0]['digest']}, "
          f"absent layers {details[1]['absent_layers']})")
    return problems


def check_without_source() -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "crit7-sweep", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without the program source: exit {proc.returncode}, stdout {proc.stdout!r}"]
    print(f"without the program source: exit {proc.returncode} ({proc.stderr.strip()})")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        problems += check_workload(spec, workload["name"])
    problems += check_without_source()
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
