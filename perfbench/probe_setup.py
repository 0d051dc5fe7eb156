"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/probe_setup.py SPEC_JSON

SPEC_JSON holds the pool configuration and the relations as (source, n).
Prints the seconds from ``import aeqslearn`` until the pool is enumerated,
its machines are built and every relation is parsed.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import aeqslearn
    pool = aeqslearn.enumerate_pool(aeqslearn.PoolConfig(
        **{**spec["pool"], "s_acc_choices": tuple(map(tuple, spec["pool"]["s_acc_choices"]))}))
    machines = pool.machines
    tables = [aeqslearn.parse_relation(source, n) for source, n in spec["relations"]]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "pool": len(machines), "relations": len(tables)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
