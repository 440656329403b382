"""Record SHA-256 digests of the closed-forms workload's CLI output.

Run from the root of a qcorr checkout whose closed forms are trusted:

    PYTHONPATH=src python3 perfbench/record_golden.py 0 1 2 3 4 5 6 7 8 9

Each output is first checked value by value against direct closed-form
calls; only a seed whose every output passes is recorded. The digests go
to perfbench/golden.json, which the benchmark then checks byte for byte.
"""

from __future__ import annotations

import json
import sys

import child
import workloads as wl

WORKLOAD = "closed-forms"


def main(seeds: list[int]) -> int:
    try:
        with open(child.GOLDEN) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    recorded = table.setdefault(WORKLOAD, {})
    for seed in seeds:
        batch = wl.build_batch(WORKLOAD, seed)
        _, _, outputs = child.run_batch(batch)
        checker = child.Checker(batch, golden=None)
        checker.check(outputs)
        if checker.failed:
            print(f"seed {seed}: {checker.failed} failed check(s), not recorded:",
                  *checker.messages, sep="\n  ", file=sys.stderr)
            return 1
        recorded[str(seed)] = [wl.digest(text) for _, text in outputs]
        print(f"seed {seed}: {len(outputs)} outputs recorded")
    table[WORKLOAD] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    with open(child.GOLDEN, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main([int(s) for s in sys.argv[1:]]))
