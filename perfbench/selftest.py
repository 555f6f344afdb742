#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload (`learn` too, which BENCHMARK.json does not list)
it checks that

* an untraced run prints every end-to-end metric with its unit, with
  `correct` true and no failed operations;
* a traced run prints every per-layer metric with its unit;
* a run whose reference fingerprint is deliberately altered
  (`--corrupt-reference`) reports failed operations and `correct` false.

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"FAIL {' '.join(cmd)}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def check_metrics(result, wanted, what):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in wanted}, f"{what}: every metric named, no others")
    for m in wanted:
        v = got[m["name"]]
        expect(v["unit"] == m["unit"] and isinstance(v["value"], (int, float)),
               f"{what}: {m['name']} in {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Every workload the binary takes; BENCHMARK.json lists all but `learn`.
    for w in ("megasweep", "stream", "learn"):
        plain = run(w, 0)
        check_metrics(plain, bench["end_to_end"], f"{w} untraced")
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1,
               f"{w} untraced: outputs check")
        traced = run(w, 1)
        check_metrics(traced, bench["per_layer"], f"{w} traced")
        expect(traced["correct"] and traced["failed"] == 0, f"{w} traced: outputs check")
        bad = run(w, 0, "--corrupt-reference")
        expect(not bad["correct"] and bad["failed"] >= 1,
               f"{w}: altered reference reported as {bad['failed']} failed operations")
    print("selftest passed")


if __name__ == "__main__":
    main()
