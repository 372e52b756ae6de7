"""Record the golden result of every operation a workload's seed can draw.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_golden.py [workload ...]

Writes ``golden/<workload>.json``, one operation per line.  The benchmark
compares every run's outputs with these files.
"""

from __future__ import annotations

import json
import sys

from run import prepare_environment


def record(workload) -> dict:
    golden = {}
    for op in workload.pool():
        if op.key not in golden:
            golden[op.key] = workload.outcome(op, workload.execute(op))
    return golden


def main(names: list) -> int:
    prepare_environment()
    import workloads

    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        golden = record(workload)
        lines = [f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                 for key, value in golden.items()]
        workloads.GOLDEN_DIR.mkdir(exist_ok=True)
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{path}: {len(golden)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
