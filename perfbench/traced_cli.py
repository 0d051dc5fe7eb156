"""Run one ``aeqslearn`` CLI invocation with the tracer installed.

    python3 perfbench/traced_cli.py SUMMARY_JSON SPANS_TSV OP_ID run --relation ...

Prints what the CLI prints, appends this process's spans to SPANS_TSV,
writes its per-layer summary to SUMMARY_JSON and exits with the CLI's code.
"""
import json
import sys
from pathlib import Path

from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import aeqslearn.cli  # noqa: E402


def main() -> int:
    summary_path, spans_path, op_id, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        code = aeqslearn.cli.main(argv)
    finally:
        tracer.op = -1
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "a", encoding="utf-8") as fh:
            tracer.write_spans(fh)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
