"""Golden seeded records: what they cover, and how to regenerate them.

    PYTHONPATH=src python tests/golden.py

rewrites ``tests/golden/cli.json`` and ``tests/golden/library.jsonl`` from
the checked-out code.  ``test_golden.py`` recomputes both and compares them
exactly, so a change that alters any seeded record shows in the diff of
these files; such a change regenerates them and names the changed fields.
The records depend on numpy's generator streams and FFT rounding: they are
generated with numpy 2.4.6, the version CI installs.

- ``cli.json``: the run record, minus ``wall_time_ms``, of the README
  configuration at seed 0 for each algorithm, of the three criterion-9
  configurations, and of the s=4096 pool (all 16 accepting sets of two
  qubits, the empty one included) for each algorithm on balanced@2 and
  parity-even@3 at seed 0, computed in-process through ``cli.execute``.
- ``library.jsonl``: one compact line per (relation, algorithm, seed) for
  the four criterion-7 relations, both trainers and seeds 0-39 on the s=512
  learning pool: the chosen encoding's pool index, ``repr`` of the
  estimate, the true agreement, the queries, the repetitions and the
  success flag.
"""
from __future__ import annotations

import json
from pathlib import Path

from aeqslearn import (AgreementParams, PoolConfig, RunConfig, enumerate_pool,
                       execute, first_algorithm, parse_relation, second_algorithm)

GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_FILE = GOLDEN / "cli.json"
LIBRARY_FILE = GOLDEN / "library.jsonl"

README = dict(relation="balanced", n=3, m=2, grid=1, ltuples=0, ldesigns=1,
              sacc=((0,), (1,)), k=1024, seed=0, reps=5)
CRITERION_9 = dict(m=1, grid=1, ltuples=1, ldesigns=1, k=256, reps=3, seed=21)
# every subset of the four basis states of two qubits: 16 x 256 = 4096 machines
SACC_ALL16 = tuple(tuple(i for i in range(4) if mask >> i & 1) for mask in range(16))
POOL_4096 = dict(m=2, grid=1, ltuples=0, ldesigns=1, sacc=SACC_ALL16, k=1024,
                 seed=0, reps=5)
CLI_CONFIGS = {
    **{f"readme-{alg}": RunConfig(algorithm=alg, **README)
       for alg in ("first", "second", "brute")},
    "crit9-second": RunConfig(relation="balanced", n=3, algorithm="second", **CRITERION_9),
    "crit9-first": RunConfig(relation="eq", n=2, algorithm="first", **CRITERION_9),
    "crit9-brute": RunConfig(relation="parity-even", n=2, algorithm="brute", **CRITERION_9),
    **{f"pool4096-{name}@{n}-{alg}": RunConfig(relation=name, n=n, algorithm=alg, **POOL_4096)
       for name, n in (("balanced", 2), ("parity-even", 3))
       for alg in ("first", "second", "brute")},
}
RELATIONS = (("balanced", 3), ("eq", 2), ("parity-even", 3), ("balanced", 2))
TRAINERS = {"first": first_algorithm, "second": second_algorithm}
SEEDS = range(40)


def cli_records() -> dict:
    records = {}
    for label, cfg in CLI_CONFIGS.items():
        record = json.loads(execute(cfg).to_json())
        record.pop("wall_time_ms")
        records[label] = record
    return records


def library_lines() -> list[str]:
    pool = enumerate_pool(PoolConfig(m=2, d=1, l_tuples=0, l_designs=1,
                                     s_acc_choices=((0,), (1,))))
    index = {enc: i for i, enc in enumerate(pool.encodings)}
    params = AgreementParams(0.9)
    lines = []
    for name, n in RELATIONS:
        rel = parse_relation(name, n)
        for alg, trainer in TRAINERS.items():
            for seed in SEEDS:
                report = trainer(pool, rel, params, k=1024, seed=seed, reps=5)
                lines.append(json.dumps({
                    "relation": f"{name}@{n}", "algorithm": alg, "seed": seed,
                    "chosen": index[report.chosen],
                    "estimate": repr(report.estimated_agreement),
                    "true": report.true_agreement, "queries": report.oracle_queries,
                    "reps": report.repetitions, "success": report.success,
                }, separators=(",", ":")))
    return lines


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    CLI_FILE.write_text(json.dumps(cli_records(), indent=1) + "\n", encoding="utf-8")
    LIBRARY_FILE.write_text("\n".join(library_lines()) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
