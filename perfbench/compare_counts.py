"""Compare the per-operation counts of two traced runs.

    python3 perfbench/compare_counts.py A.counts.jsonl B.counts.jsonl

Counts (calls per wrapped function, sweep steps, square tests, lattice
failures, method, certified, ...) do not depend on the machine, so two runs
with the same workload and seed must agree on every operation both ran.
Exits 1 on the first difference.
"""

import json
import sys


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows_a = [json.loads(line) for line in fa]
        rows_b = [json.loads(line) for line in fb]
    common = min(len(rows_a), len(rows_b))
    if common == 0:
        print("no operations to compare")
        return 1
    for i in range(common):
        if rows_a[i] != rows_b[i]:
            print(f"operation {i} differs:\n  {rows_a[i]}\n  {rows_b[i]}")
            return 1
    print(f"{common} operations identical ({len(rows_a)} and {len(rows_b)} traced)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
