#!/usr/bin/env python3
"""End-to-end route benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--design-seed N] [--scale F] [--edits N]
  python3 perfbench/run.py --all [--seed N] [--seconds S]
  python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the router from ../src) into
.bench_build/perfbench under the checkout, runs one workload and prints,
as the last line, {"correct", "attempted", "failed", "metrics"}. Earlier
lines describe the environment and any failed correctness check. --all
runs every workload untraced and traced and prints every metric as a
table. Exit status is 0 for a correct run, 1 for an incorrect one, 2 when
the benchmark cannot build or run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sadp_perfbench"
WORKLOADS = ("test1_full", "test3_alg1", "eco_240")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("router sources not found next to perfbench/ (%s)" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j4",
                  "--target", "sadp_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            die("build failed: " + " ".join(cmd))


def metric_tables():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def run_binary(args):
    """Runs the benchmark binary once; returns (info lines, result dict)."""
    cmd = [str(BINARY)] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        die("exit %d: %s" % (r.returncode, " ".join(cmd)))
    # Only the binary's JSON lines; the in-process server logs plain text.
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if not lines:
        die("no result from " + " ".join(cmd))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line: " + lines[-1])
    return lines[:-1], result


def check_metrics(result, table, where):
    """Names every metric of `table` that is missing or has another unit."""
    got = result["metrics"]
    bad = [n for n, unit in table.items()
           if n not in got or got[n].get("unit") != unit]
    extra = sorted(set(got) - set(table))
    problems = []
    if bad:
        problems.append("%s: missing or wrong unit: %s" % (where, bad))
    if extra:
        problems.append("%s: not in BENCHMARK.json: %s" % (where, extra))
    return problems


def self_test():
    """Every workload at a tiny scale: each named metric is emitted with its
    unit in both modes, and a corrupted fingerprint fails the run."""
    build()
    end_to_end, per_layer = metric_tables()
    tiny = {"test1_full": ["--scale", "0.02"],
            "test3_alg1": ["--scale", "0.01"],
            "eco_240": ["--scale", "0.25", "--edits", "12"]}
    problems = []
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "1", "--seconds", "0.05"] + tiny[w]
        for trace, table in (("0", end_to_end), ("1", per_layer)):
            _, res = run_binary(base + ["--trace", trace])
            where = "%s --trace %s" % (w, trace)
            problems += check_metrics(res, table, where)
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: reported incorrect" % where)
        _, res = run_binary(base + ["--trace", "0", "--corrupt-fingerprint"])
        if res["correct"] or res["failed"] < 1:
            problems.append("%s: corrupted fingerprint went unnoticed" % w)
        print("self-test %-11s %s" % (w, "ok" if not problems else "FAIL"))
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    return 1 if problems else 0


def run_checked(args, trace):
    """One run of the binary whose metrics must match BENCHMARK.json."""
    info, result = run_binary(args + ["--trace", str(trace)])
    end_to_end, per_layer = metric_tables()
    problems = check_metrics(result, per_layer if trace else end_to_end,
                             " ".join(args[:2]))
    if problems:
        die("; ".join(problems))
    return info, result


def report_all(seed, seconds):
    """Every workload, untraced then traced: each metric with its unit."""
    build()
    status = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            _, res = run_checked(["--workload", w, "--seed", str(seed),
                                  "--seconds", repr(seconds)], trace)
            print("%s --trace %d: correct=%s attempted=%d failed=%d"
                  % (w, trace, res["correct"], res["attempted"],
                     res["failed"]))
            for name, m in res["metrics"].items():
                print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
            status = status or (0 if res["correct"] else 1)
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--design-seed", type=int, default=0,
                    help="held-out design (0 = the workload's default)")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--edits", type=int, default=100)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.all:
        return report_all(a.seed, a.seconds)
    if a.workload is None:
        ap.error("--workload is required")
    build()
    info, result = run_checked([
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--design-seed", str(a.design_seed),
        "--scale", repr(a.scale), "--edits", str(a.edits)], a.trace)
    for line in info:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
