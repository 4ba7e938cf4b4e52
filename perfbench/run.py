#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Every run first configures and builds perfbench/ (the library from src/ and
the benchmark binary, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; after the first build only changed files recompile.
Build output goes to standard error. The binary's standard output is passed
through: its last line is the JSON result. --trace 1 also writes a Chrome
trace-event file under the build directory's traces/.

--selftest builds, runs every workload of BENCHMARK.json once at tiny size
with and without tracing, and checks that every metric BENCHMARK.json names
is printed with its unit and a finite value, that the tail percentiles match
perfbench/ledger.json, and that each trace file parses.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
LEDGER = os.path.join(HERE, "ledger.json")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def source_id():
    """The git commit when ROOT is a git work tree, else a source-tree hash."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True)
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "perfbench"],
                                   capture_output=True, text=True, check=True)
            return "git:" + head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def run_binary(exe, workload, seed, seconds, trace, extra=(), capture=False):
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, f"{workload}-seed{seed}.json")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", trace_out, "--source-id", source_id(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc, trace_out


def load_json(path):
    with open(path) as f:
        return json.load(f)


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def run_all(exe, args):
    """Every workload in turn; prints one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in (w["name"] for w in load_json(BENCHMARK)["workloads"]):
        proc, _ = run_binary(exe, wl, args.seed, args.seconds, args.trace,
                             capture=True)
        sys.stdout.write(proc.stdout)
        try:
            res = last_json_line(proc.stdout)
        except ValueError:
            sys.exit(f"perfbench: {wl} printed no result (exit {proc.returncode})")
        combined["correct"] = combined["correct"] and res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            combined["metrics"][f"{wl}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def selftest(exe):
    spec = load_json(BENCHMARK)
    ledger = load_json(LEDGER)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{wl} --trace {trace}"
            proc, trace_out = run_binary(exe, wl, ledger["seeds"]["development"],
                                         1, trace, extra=["--tiny"], capture=True)
            try:
                res = last_json_line(proc.stdout)
            except ValueError as e:
                errors.append(f"{where}: no JSON result ({e})")
                continue
            if proc.returncode != 0 or not res.get("correct") or res.get("failed") != 0:
                errors.append(f"{where}: exit {proc.returncode}, result {res}")
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(res)}")
            if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1):
                errors.append(f"{where}: attempted {res.get('attempted')}")
            got = res.get("metrics", {})
            if set(got) != set(wanted[trace]):
                errors.append(f"{where}: missing {sorted(set(wanted[trace]) - set(got))}, "
                              f"unexpected {sorted(set(got) - set(wanted[trace]))}")
            for name, unit in wanted[trace].items():
                m = got.get(name)
                if m is None:
                    continue
                value = m.get("value")
                if m.get("unit") != unit:
                    errors.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(f"{where}: {name} value {value} is not finite")
                elif trace == 0 and value <= 0:
                    errors.append(f"{where}: end-to-end metric {name} is {value}")
            tail = f"tail percentile p{ledger['tail_percentile'][wl]},"
            if tail not in proc.stdout:
                errors.append(f"{where}: output does not state '{tail}'")
            if trace:
                try:
                    with open(trace_out) as f:
                        events = json.load(f)["traceEvents"]
                    names = {e["name"] for e in events}
                    if not {"round", "scenario"} <= names or any(
                            e["ph"] != "X" or e["dur"] < 0 for e in events):
                        errors.append(f"{where}: trace lacks round/scenario spans")
                except (OSError, ValueError, KeyError) as e:
                    errors.append(f"{where}: trace file {trace_out}: {e}")
            print(f"selftest: {where}: {len(got)} metrics checked", file=sys.stderr)
    for e in errors:
        print("selftest FAILED: " + e)
    if not errors:
        print("selftest: OK")
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")
    exe = build()
    if args.selftest:
        return selftest(exe)
    if args.workload == "all":
        return run_all(exe, args)
    proc, _ = run_binary(exe, args.workload, args.seed, args.seconds, args.trace)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
