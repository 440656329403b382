"""qcorr benchmark: one workload per call, end-to-end or per-layer metrics.

Usage, from the root of a qcorr checkout:

    python3 perfbench/run.py --workload oracle-small-d --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of the workload (tracing off);
--trace 1 prints the per-layer metrics, which come from a traced batch of
every workload, so each traced run reports the same names. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# A child may outlast --seconds by its warm-up, the checks and a first
# batch longer than --seconds; traced runs (--seconds 0) get the margin.
CHILD_MARGIN_S = 150
# Oracle matrices are at most 64 x 64; extra BLAS threads only add noise.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def run_child(env, workload, seed, mode, seconds=0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    timeout = seconds + CHILD_MARGIN_S
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ({mode}) did not finish in {timeout} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def setup_samples(env, n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import qcorr` returns.

    Both ends read CLOCK_MONOTONIC, which is one clock for all processes.
    """
    code = ("import time, qcorr; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC), qcorr.__file__)")
    src = os.path.realpath(env["PYTHONPATH"].split(os.pathsep)[0])
    samples = []
    for i in range(n + 1):  # the first call fills the bytecode and file caches
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("import qcorr did not finish in 60 s") from exc
        done, _, path = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or not os.path.realpath(path).startswith(src + os.sep):
            raise BenchError(f"import qcorr failed or came from outside {src}:\n"
                             f"{proc.stderr[-2000:]}")
        if i:
            samples.append(float(done) - t0)
    return samples


def scipy_import_s(env) -> float:
    """Median cumulative import time of the top-level scipy modules (-X importtime)."""
    values = []
    for _ in range(IMPORTTIME_SAMPLES):
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qcorr"],
                                  env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("python -X importtime did not finish in 60 s") from exc
        if proc.returncode != 0:
            raise BenchError(f"python -X importtime failed:\n{proc.stderr[-2000:]}")
        total_us = 0
        stack: list[tuple[int, bool]] = []   # (depth, inside scipy), parents first
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue  # the column header
            depth = len(name) - len(name.lstrip())
            while stack and stack[-1][0] >= depth:
                stack.pop()
            in_scipy = bool(stack) and stack[-1][1]
            is_scipy = name.strip().split(".")[0] == "scipy"
            if is_scipy and not in_scipy:
                total_us += int(cumulative)
            stack.append((depth, in_scipy or is_scipy))
        values.append(total_us / 1e6)
    return statistics.median(values)


def provenance(root: str, args, env) -> dict:
    sha, dirty = None, None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {k: env[k] for k in THREAD_ENV}, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def declared_units(root: str, trace: int) -> dict:
    """Metric name -> unit, from the end_to_end or per_layer list of BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(env, args):
    setup = setup_samples(env, SETUP_SAMPLES)
    report = run_child(env, args.workload, args.seed, "measure", args.seconds)
    # Each call's median over the batches, summed: a burst of host noise
    # during one batch moves only the calls it overlapped.
    per_call = [statistics.median(times) for times in zip(*report["call_s"])]
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (sum(per_call), len(report["call_s"])),
        "peak_rss_mb": (report["peak_rss_mb"], 1),
        "pass_frac": (1.0 - report["failed"] / report["attempted"], report["attempted"]),
    }
    return values, [report], {"setup_s": setup, "wall_s": report["batch_wall_s"]}


def per_layer(env, args):
    values = {"import.scipy_s": (scipy_import_s(env), IMPORTTIME_SAMPLES)}
    reports = []
    for workload in wl.WORKLOADS:
        probes = run_child(env, workload, args.seed, "layers")
        traced = run_child(env, workload, args.seed, "traced")
        reports += [probes, traced]
        for report in (probes, traced):
            for name, sample in report["layer_metrics"].items():
                if sample is None:
                    raise BenchError(f"{workload}: no samples for {name}")
                old = values.get(name, (0.0, 0))
                # oracle.self_s is reported by both oracle workloads: the sum
                values[name] = (old[0] + sample[0], old[1] + sample[1])
        # Each call ran plain and traced back to back: sum the differences.
        values[f"trace.overhead_s.{workload}"] = (
            sum(traced["traced_call_s"]) - sum(traced["plain_call_s"]),
            len(traced["plain_call_s"]))
    return values, reports, {}


def main() -> int:
    ap = argparse.ArgumentParser(description="qcorr benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcorr", "__init__.py")):
        print(f"perfbench: no src/qcorr package under {root}; run from a qcorr checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    units = declared_units(root, args.trace)
    try:
        values, reports, samples = (per_layer if args.trace else end_to_end)(env, args)
        if set(values) != set(units):
            raise BenchError(f"measured {sorted(set(values) ^ set(units))} "
                             "differ from the metrics BENCHMARK.json declares")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    prov = provenance(root, args, env)
    prov["versions"] = reports[0]["versions"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for report in reports:
        if "tracer_bias_us" in report:
            print(f"tracer bias {report['workload']}: "
                  + json.dumps(report["tracer_bias_us"], sort_keys=True))
        for msg in report["messages"]:
            print(f"FAIL {report['workload']}: {msg}")
    metrics = {}
    for name, (value, n) in values.items():
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>14.6g} {unit:<9} n={n}")
    if not args.trace:
        print(f"{'fail_frac':<40} {failed / attempted:>14.6g} {'ratio':<9} n={attempted}")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "samples": samples,
              "attempted": attempted, "failed": failed,
              "children": [{k: v for k, v in r.items() if k != "layer_metrics"}
                           for r in reports]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
