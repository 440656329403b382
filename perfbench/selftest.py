"""Show that the benchmark's checks count a corrupted output as a failure.

Run from the root of a qcorr checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

Real CLI outputs pass; the same outputs with one value or one byte
changed, or with a wrong exit code, each add exactly one failed
operation, which is what fail_frac = failed / attempted reports.
"""

from __future__ import annotations

import child
import workloads as wl


def verdict(batch, outputs, golden=None) -> tuple[int, int]:
    checker = child.Checker(batch, golden)
    checker.check(outputs)
    return checker.attempted, checker.failed


def corrupt_value(text: str, line: int, column: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    small = wl.build_batch("oracle-small-d", 0)
    closed = wl.build_batch("closed-forms", 0)
    # a Werner oracle-compare grid, a compute --numeric call and two figures
    batch = [small[0], small[-3], closed[3], closed[8]]
    _, _, outputs = child.run_batch(batch)
    golden = [wl.digest(text) for _, text in outputs]

    attempted, failed = verdict(batch, outputs)
    assert failed == 0 and verdict(batch, outputs, golden)[1] == 0, "clean outputs must pass"

    cases = {}
    bad = list(outputs)
    bad[0] = (0, corrupt_value(outputs[0][1], 1, 6, 1e-5))   # oracle numeric off by 1e-5
    cases["oracle value beyond 1e-6"] = (bad, None)
    bad = list(outputs)
    code, text = outputs[1]
    bad[1] = (code, text.replace(",closed", ",numeric", 1))  # closed row relabelled
    cases["compute row mislabelled"] = (bad, None)
    bad = list(outputs)
    bad[2] = (0, corrupt_value(outputs[2][1], 5, 1, 1e-6))   # figure value off by 1e-6
    cases["figure value"] = (bad, None)
    bad = list(outputs)
    text = outputs[3][1]
    bad[3] = (0, text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")  # one byte
    cases["one byte against the recorded digest"] = (bad, golden)
    bad = list(outputs)
    bad[2] = (3, outputs[2][1])
    cases["unexpected exit code"] = (bad, None)

    for name, (outs, gold) in cases.items():
        got_attempted, got_failed = verdict(batch, outs, gold)
        assert got_attempted == attempted, (name, got_attempted, attempted)
        assert got_failed == 1, (name, got_failed)
        print(f"ok  {name}: failed 1 of {attempted}, fail_frac {got_failed / attempted:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
