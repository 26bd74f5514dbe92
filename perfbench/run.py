#!/usr/bin/env python3
"""Benchmark command: builds the benchmark from source with dune, runs one
workload, and passes its output through.

    python3 perfbench/run.py --workload present|ledger|clearing \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is the
result object; the line before it holds diagnostics (machine calibration,
tail percentile, set-up times, per-kind latencies). See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a checkout: %s is missing" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0 or not os.path.exists(EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    build()
    code, out = run_group(
        [EXE, "--workload", a.workload, "--seed", a.seed,
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        RUN_TIMEOUT_S,
        capture=True,
    )
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = text.strip().splitlines()
    if code != 0:
        sys.exit(code)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        fail("malformed or incorrect result")


if __name__ == "__main__":
    main()
