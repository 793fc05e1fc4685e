#!/usr/bin/env python3
"""Builds the dyserve benchmark from source and runs it.

    python3 dyserve/run.py --workload read_mostly --seed 1 --seconds 10 --trace 0
    python3 dyserve/run.py --self-test

Run from the root of a checkout.  The binary is built with CMake under
.bench_build/dyserve (or $CARGO_TARGET_DIR/dyserve); every build and tool
message goes to standard error, so the last line of standard output is the
benchmark's JSON result.  After a build that changed the binary, the
self-test runs first: each workload at a tiny size, the oracle's planted
faults, and a check that BENCHMARK.json declares exactly the metrics the
binary emits.  A traced run writes its spans to
.bench_build/dyserve/trace-<workload>-seed<seed>.csv.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "dyserve")


def run_tool(cmd):
    """Runs a build step with its output on standard error."""
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    """Configures once, then builds incrementally; returns (binary, rebuilt)."""
    bdir = build_dir()
    binary = os.path.join(bdir, "dyserve")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        run_tool(["cmake", "-S", HERE, "-B", bdir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    run_tool(["cmake", "--build", bdir, "--target", "dyserve",
              "-j", str(len(os.sched_getaffinity(0)))])
    return binary, os.path.getmtime(binary) != before


def source_id():
    """The commit when the checkout is a git work tree, else a digest of the
    sources the benchmark builds."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            if head.returncode == 0:
                return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "dyserve"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def check_declared_metrics(binary):
    """BENCHMARK.json must list exactly the metrics the binary declares."""
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    declared = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit, better = line.split()
        declared[kind].append((name, unit, better))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for kind, want in declared.items():
        have = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
        if have != want:
            print("run.py: BENCHMARK.json %s differs from the binary's "
                  "metrics:\n  json:   %s\n  binary: %s" % (kind, have, want),
                  file=sys.stderr)
            ok = False
    return ok


def self_test(binary):
    test = subprocess.run([binary, "--self-test"], stdout=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    return test.returncode == 0 and check_declared_metrics(binary)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary, rebuilt = build()
    if args.self_test or rebuilt:
        if not self_test(binary):
            fail("self-test failed")
        if args.self_test:
            return 0

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-seed%d.csv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
