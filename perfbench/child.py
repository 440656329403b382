"""One workload in one fresh interpreter; prints a JSON report as its last line.

Modes:
  measure  warm up, then repeat the batch until --seconds of timed batches
           are used; reports every batch time (tracing off).
  layers   warm up, then the per-layer probes that need tracing off: the
           RSS mark after the sweep part, the memory of the d=8000 call
           (tracemalloc, in a call of its own) and the objective cost.
  traced   warm up, then run every call of the batch twice, once plain and
           once with qcorr's public functions wrapped, the two adjacent in
           time; reports span aggregates, both call times, and writes the
           spans to perfbench/out/.

Run by perfbench/run.py from the root of a checkout, with src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

t_import = time.perf_counter()
import qcorr  # noqa: E402
from qcorr import cli  # noqa: E402
import_s = time.perf_counter() - t_import

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
AGREE_ATOL = 1e-9
EVAL_PROBE_CALLS = 200


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def invoke(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def timed(argv: list[str]) -> tuple[float, tuple[int, str]]:
    t0 = time.perf_counter()
    output = invoke(argv)
    return time.perf_counter() - t0, output


def run_batch(batch):
    """Run every call once; returns (wall seconds, per-call seconds, outputs)."""
    outputs, calls = [], []
    t0 = time.perf_counter()
    for inv in batch:
        seconds, output = timed(inv.argv)
        calls.append(seconds)
        outputs.append(output)
    return time.perf_counter() - t0, calls, outputs


def run_paired(batch, rec: tracing.Recorder):
    """Each call plain and traced back to back, the order alternating per call.

    A pair sits within seconds, so a change of host speed moves both
    halves alike. Returns (plain seconds, traced seconds, plain outputs,
    traced outputs), per call.
    """
    plain_s, traced_s, plain_out, traced_out = [], [], [], []
    for index, inv in enumerate(batch):
        rec.op_id = index
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            uninstall = tracing.install(rec) if traced else None
            try:
                seconds, output = timed(inv.argv)
            finally:
                if uninstall:
                    uninstall()  # the plain half and the checks run untraced
            (traced_s if traced else plain_s).append(seconds)
            (traced_out if traced else plain_out).append(output)
    return plain_s, traced_s, plain_out, traced_out


class Checker:
    """Checks outputs; equal bytes from an earlier batch reuse that verdict."""

    def __init__(self, batch, golden):
        self.batch, self.golden = batch, golden
        self.memo = {}
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def check(self, outputs, indices=None):
        """Check outputs of the batch calls at `indices` (default: all, in order)."""
        for index, (code, text) in zip(indices or range(len(outputs)), outputs):
            key = (index, code, wl.digest(text))
            if key not in self.memo:
                expected = self.golden[index] if self.golden else None
                self.memo[key] = wl.check_output(self.batch[index], code, text, expected)
            ops, failed, messages = self.memo[key]
            self.attempted += ops
            self.failed += failed
            self.messages.extend(messages[: max(0, 20 - len(self.messages))])


def load_golden(workload: str, seed: int):
    """Recorded per-call digests for this seed, or None."""
    try:
        with open(GOLDEN) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def eval_probe(dims, seed: int) -> dict:
    """Median cost of one objective evaluation on a seeded state and basis."""
    from qcorr import (PseudoPureParams, build_pseudo_pure, gd_objective,
                       measured_conditional_entropy, random_schmidt_vector, random_unitary)

    out = {}
    for d in dims:
        rho = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, seed + d)))
        basis = random_unitary(d, seed + 100 + d)
        samples = []
        for _ in range(EVAL_PROBE_CALLS):
            t0 = time.perf_counter()
            measured_conditional_entropy(rho, basis)
            gd_objective(rho, basis)
            samples.append((time.perf_counter() - t0) / 2.0)
        out[f"oracle.eval_us.d{d}"] = (statistics.median(samples) * 1e6, len(samples))
    return out


def _median(values):
    return (statistics.median(values), len(values)) if values else None


def span_metrics(workload, rec: tracing.Recorder, batch, outputs, bias) -> dict:
    """Per-layer metrics of one traced batch, as name -> (value, samples)."""
    names = rec.names
    self_t = rec.self_times(*bias)
    part_of = [inv.part for inv in batch]
    layer_self: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    durations: dict[tuple[str, int], list[float]] = {}
    builds = []
    build_names = {n for n in names if n.startswith("states.build_")}
    for i in range(len(rec.start)):
        name = names[rec.name[i]]
        part = part_of[rec.op[i]]
        layer = name.split(".", 1)[0]
        layer_self[(layer, part)] = layer_self.get((layer, part), 0.0) + self_t[i]
        calls[(name, part)] = calls.get((name, part), 0) + 1
        dur = rec.end[i] - rec.start[i]
        if rec.tag[i] >= 0:
            durations.setdefault((name, rec.tag[i]), []).append(dur)
        p = rec.parent[i]
        if name in build_names and (p < 0 or names[rec.name[p]] not in build_names):
            builds.append(dur)

    def total(table, key, parts=None):
        return sum(v for (k, part), v in table.items()
                   if k == key and (parts is None or part in parts))

    def spans(prefix, parts=None):
        return sum(v for (k, part), v in calls.items()
                   if k.startswith(prefix) and (parts is None or part in parts))

    m = {}
    if workload.startswith("oracle"):
        m["oracle.self_s"] = (total(layer_self, "oracle"), spans("oracle."))
        for d in wl.ORACLE_DIMS[workload]:
            m[f"oracle.point_s.d{d}"] = _median(
                durations.get(("oracle.discord_numeric", d), [])
                + durations.get(("oracle.gd_numeric", d), []))
            runs = [vals for tag, vals in rec.restarts if tag == d]
            restarts = sum(len(vals) for vals in runs)
            agree = sum(sum(v <= min(vals) + AGREE_ATOL for v in vals) for vals in runs)
            m[f"oracle.restart_agree_frac.d{d}"] = (agree / restarts, restarts) if runs else None
    if workload == "oracle-small-d":
        m["oracle.negativity_s"] = _median(
            [v for (n, _), vals in durations.items() if n == "oracle.negativity_numeric"
             for v in vals])
        m["states.build_s"] = (sum(builds), len(builds))
        m["states.build_calls"] = (len(builds), 1)
        m["linalg.self_s"] = (total(layer_self, "linalg"), spans("linalg."))
        m["linalg.calls"] = (spans("linalg."), 1)
    if workload == "closed-forms":
        sweep_rows = sum(wl.output_rows(text) for inv, (_, text) in zip(batch, outputs)
                         if inv.part == "sweep")
        sweep = {"sweep"}
        m["closed_forms.self_s"] = (total(layer_self, "closed_forms"), spans("closed_forms."))
        m["closed_forms.us_per_row"] = (
            total(layer_self, "closed_forms", sweep) * 1e6 / sweep_rows, sweep_rows)
        for d in wl.LARGE_DIMS:
            m[f"closed_forms.negativity_s.d{d}"] = _median(
                durations.get(("closed_forms.pp_negativity", d), []))
        m["cli.self_s"] = (total(layer_self, "cli"), spans("cli."))
        m["cli.rows_out"] = (sum(wl.output_rows(text) for _, text in outputs), 1)
        m["cli.us_per_row"] = (total(layer_self, "cli", sweep) * 1e6 / sweep_rows, sweep_rows)
        m["states.validate_calls_per_row"] = (
            spans("states.validate_schmidt", sweep) / sweep_rows, sweep_rows)
        m["states.params_calls_per_row"] = (
            (spans("states.PseudoPureParams", sweep) + spans("states.WernerParams", sweep))
            / sweep_rows, sweep_rows)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--mode", required=True, choices=("measure", "layers", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(qcorr.__file__).startswith(src + os.sep):
        print(f"qcorr imported from {qcorr.__file__}, not from {src}", file=sys.stderr)
        return 2

    for inv in wl.build_warmup(args.workload):
        invoke(inv.argv)

    batch = wl.build_batch(args.workload, args.seed)
    checker = Checker(batch, load_golden(args.workload, args.seed))
    report = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "import_s": import_s}
    layer = {}
    if args.mode == "measure":
        walls, call_s = [], []
        while True:
            wall, calls, outputs = run_batch(batch)
            walls.append(wall)
            call_s.append(calls)
            checker.check(outputs)
            if sum(walls) + statistics.median(walls) > args.seconds:
                break
        report.update(batch_wall_s=walls, call_s=call_s)
    elif args.mode == "layers":
        if args.workload == "closed-forms":
            # The sweep runs first in a fresh process, so the mark is its own.
            sweep = [i for i, inv in enumerate(batch) if inv.part == "sweep"]
            checker.check([invoke(batch[i].argv) for i in sweep], sweep)
            layer["cli.sweep_peak_rss_mb"] = (peak_rss_mb(), 1)
            # tracemalloc slows allocation, so it watches only this one call.
            big = [i for i, inv in enumerate(batch) if inv.part == "large-d.d8000"]
            tracemalloc.start()
            checker.check([invoke(batch[big[0]].argv)], big)
            layer["closed_forms.negativity_rss_mb.d8000"] = (
                tracemalloc.get_traced_memory()[1] / 2**20, 1)
            tracemalloc.stop()
        else:
            layer.update(eval_probe(wl.ORACLE_DIMS[args.workload], args.seed))
    else:
        rec = tracing.Recorder()
        bias = tracing.calibrate()
        plain_s, traced_s, plain_out, traced_out = run_paired(batch, rec)
        checker.check(plain_out)
        checker.check(traced_out)
        layer = span_metrics(args.workload, rec, batch, traced_out, bias)
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write_csv(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
        report.update(plain_call_s=plain_s, traced_call_s=traced_s, spans=len(rec.start),
                      tracer_bias_us={"parent": bias[0] * 1e6, "own": bias[1] * 1e6})
    report.update(
        peak_rss_mb=peak_rss_mb(), attempted=checker.attempted, failed=checker.failed,
        messages=checker.messages,
        versions={"python": sys.version.split()[0],
                  "numpy": sys.modules["numpy"].__version__,
                  "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules
                  else None, "qcorr": qcorr.__version__})
    report["layer_metrics"] = layer
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
