#!/usr/bin/env python3
"""End-to-end benchmark of qsteer (see README.md in this directory).

Builds the driver from the checkout's sources, then runs each requested
workload in its own process:

  python3 perfbench/run.py --workload nightly_B --seed 3 --seconds 30 --trace 0
  python3 perfbench/run.py --seed 3              # all three workloads
  python3 perfbench/run.py --self-test           # the driver's unit tests

--trace 0 prints every end-to-end metric with its unit and sample count and
checks the outputs. --trace 1 runs the workload twice at the seed,
untraced and traced, and prints the per-layer metrics (marked exact where
both processes counted the same), the span table and the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
The exit code is 0 only when the build, every run and every output check
succeed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("nightly_B", "serve_fresh_A", "fleet_mixed_B")
# Each driver process must finish well inside a run's 180 s.
PROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build(target):
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", "3"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return BUILD / target


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def probe(driver):
    out = subprocess.run([str(driver), "probe"], capture_output=True, text=True,
                         timeout=PROCESS_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError("machine-speed probe failed")
    return float(out.stdout.strip())


def drive(driver, workload, seed, seconds, trace=False):
    """Runs one workload in a fresh process; returns its parsed result."""
    state = ROOT / ".bench_build" / "state" / f"{workload}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    cmd = [str(driver), "run", workload, f"--seed={seed}", f"--seconds={seconds}",
           f"--state-dir={state}"]
    cmd += ["--trace"] if trace else []
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: driver exceeded {PROCESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    # Exit code 1 means an output check failed; the result still prints.
    if out.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: driver exited with code {out.returncode}")
    result = json.loads(lines[-1])
    if result["correct"] != (out.returncode == 0):
        raise BenchError(f"{workload}: exit code disagrees with the checks")
    return result


def fmt(value):
    return f"{value:.6g}"


def print_checks(result):
    for check in result["checks"]:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'} - {check['detail']}")


def run_untraced(driver, workload, seed, seconds, gated):
    probe_ms = probe(driver)
    result = drive(driver, workload, seed, seconds)
    print(f"== {workload}  seed {seed}  {seconds} s  machine probe {fmt(probe_ms)} ms")
    bounds = {m["name"]: m["bound"] for m in gated}
    for m in result["e2e"]:
        gate = f"  bound {bounds[m['name']]:.0%}" if m["name"] in bounds else ""
        print(f"  {m['name']:<20} {fmt(m['value']):>14} {m['unit']:<9}"
              f" ({m['samples']} samples){gate}")
    print_checks(result)
    return result


def run_traced(driver, workload, seed, seconds):
    probe_ms = probe(driver)
    plain = drive(driver, workload, seed, seconds)
    traced = drive(driver, workload, seed, seconds, trace=True)
    print(f"== {workload}  seed {seed}  {seconds} s  traced  machine probe {fmt(probe_ms)} ms")
    print("  per-layer metrics (exact: equal in the untraced and the traced process;"
          " timing: from spans, traced process only)")
    plain_layers = {m["name"]: m["value"] for m in plain["layers"]}
    for m in traced["layers"]:
        if m["unit"] in ("ms", "us"):
            mark = "timing"
        else:
            mark = "exact" if plain_layers.get(m["name"]) == m["value"] else "varies"
        print(f"  {m['name']:<38} {fmt(m['value']):>14} {m['unit']:<8} {mark}")
    print("  spans: name, calls, busy ms, self ms, p50 ms, p95 ms")
    for row in traced["spans"]:
        p50 = fmt(row["p50_ms"]) if row["p50_ms"] is not None else "-"
        p95 = fmt(row["p95_ms"]) if row["p95_ms"] is not None else "-"
        print(f"  {row['name']:<38} {row['calls']:>8} {fmt(row['busy_ms']):>12}"
              f" {fmt(row['self_ms']):>12} {p50:>10} {p95:>10}")
    print("  tracing overhead: end-to-end metric, untraced, traced, traced - untraced")
    plain_e2e = {m["name"]: m["value"] for m in plain["e2e"]}
    for m in traced["e2e"]:
        if m["name"] in plain_e2e:
            base = plain_e2e[m["name"]]
            print(f"  {m['name']:<20} {fmt(base):>14} {fmt(m['value']):>14}"
                  f" {fmt(m['value'] - base):>14} {m['unit']}")
    print_checks(plain)
    print_checks(traced)
    traced["correct"] = plain["correct"] and traced["correct"]
    return traced


def final_line(results, names, key, prefix_workload):
    metrics = {}
    for workload, result in results:
        values = {m["name"]: m for m in result[key]}
        for spec in names:
            if spec["name"] not in values:
                raise BenchError(f"{workload}: metric {spec['name']} was not measured")
            m = values[spec["name"]]
            name = f"{workload}.{spec['name']}" if prefix_workload else spec["name"]
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the driver's unit tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.self_test:
            return subprocess.run([str(build("perfbench_tests"))]).returncode
        e2e, per_layer = load_spec()
        driver = build("perfbench_driver")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            if args.trace:
                results.append((workload, run_traced(driver, workload, args.seed, args.seconds)))
            else:
                results.append((workload, run_untraced(driver, workload, args.seed,
                                                       args.seconds, e2e)))
        line = final_line(results, per_layer if args.trace else e2e,
                          "layers" if args.trace else "e2e", args.workload == "all")
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
