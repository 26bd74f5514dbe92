#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Each run is one nominal second.

1. The OCaml unit checks (dune build @perfbench/selftest): tap self-time
   attribution on a synthetic nested exchange, JSON string quoting, the
   tail-percentile rule, exact operation shares.
2. Exact repeat: two same-seed runs of every workload, untraced and traced,
   must agree exactly on every count metric, on sim_latency_p50_ms and
   heap_live_mb, on the operation count and on the operation shares.
3. A second seed must keep the same operation shares.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("present", "ledger", "clearing")
# Metrics that are wall-clock measurements; everything else must repeat.
TIMED_UNITS = {"ms", "s", "%", "1/s"}
EXACT_TIMES = {"sim_latency_p50_ms"}
SECONDS = 1


def run(workload, seed, trace):
    p = subprocess.run(
        [EXE, "--workload", workload, "--seed", seed, "--seconds", str(SECONDS),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit("FAIL %s seed %s trace %d: exit %d\n%s" % (workload, seed, trace, p.returncode, p.stderr))
    lines = p.stdout.strip().splitlines()
    diag = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), diag


def exact(result):
    out = {"attempted": result["attempted"], "failed": result["failed"]}
    for name, m in result["metrics"].items():
        if m["unit"] not in TIMED_UNITS or name in EXACT_TIMES:
            out[name] = m["value"]
    return out


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    for target in ("./perfbench/bench.exe", "@perfbench/selftest"):
        if subprocess.run(["dune", "build", "--root", ".", "--force", target], env=env).returncode:
            sys.exit("FAIL dune build " + target)
    failures = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            (r1, d1), (r2, d2) = run(w, "7", trace), run(w, "7", trace)
            e1, e2 = exact(r1), exact(r2)
            diff = sorted(k for k in e1 if e1[k] != e2.get(k))
            if d1["shares"] != d2["shares"]:
                diff.append("shares")
            status = "ok  " if not diff else "FAIL"
            failures += bool(diff)
            print("%s %s trace %d: %d exact values repeat%s" % (
                status, w, trace, len(e1), "" if not diff else "; differ: " + ", ".join(diff)))
        _, other = run(w, "8", 0)
        same = other["shares"] == d1["shares"]
        failures += not same
        print("%s %s: second seed keeps shares %s" % ("ok  " if same else "FAIL", w, other["shares"]))
    if failures:
        sys.exit("%d failures" % failures)


if __name__ == "__main__":
    main()
