#!/usr/bin/env python3
"""Build and run the benchmark ledger for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every call configures and builds perfbench/ (which compiles the simulator
sources under src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; after the first call the build is incremental.
Build output goes to stderr. The ledger's stdout is relayed unchanged: a header line (host,
build, seed, threads), a detail line (sample counts, failure share, checks) and,
last, the result object {"correct", "attempted", "failed", "metrics"}. The exit
code is the ledger's: non-zero when a correctness check fails.

Traced runs (--trace 1) write their spans, one JSON object per line, to
<build dir>/spans-<workload>-<seed>.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("deploy_churn", "trace_replay")
# A run must end within this many seconds of wall time.
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configure and build the ledger (incrementally); returns its path or None."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", bdir, "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(bdir, "ledger")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not 0 < args.seconds <= 60 or args.seed < 0:
        print("run.py: --seconds must be in (0, 60] and --seed >= 0", file=sys.stderr)
        return 2
    ledger = build()
    if ledger is None:
        return 1
    cmd = [ledger, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(build_dir(), f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: ledger exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        print("run.py: ledger printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
