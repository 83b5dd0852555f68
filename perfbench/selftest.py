#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It builds the benchmark (as run.py does) and checks that:
  1. the self times of the spans in one traced Get add up to the Get's
     root span (perfbench --check-trace-self-times);
  2. a value mismatch planted in the first checked Get is counted as a
     failed op, so failed_ops_frac > 0 and the result is not correct;
  3. every workload in BENCHMARK.json prints every end_to_end metric in
     an untraced run and every per_layer metric in a traced run, with the
     units BENCHMARK.json gives, and no other metric; and that the run is
     correct, with each latency printed with its sample count.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (build helper and binary path)

SECONDS = "2"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def invoke(args):
    """Runs the binary; returns (exit code, detail records, result object)."""
    proc = subprocess.run([run.BINARY] + args, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, [], None
    details = [json.loads(line) for line in lines[:-1]]
    return proc.returncode, details, json.loads(lines[-1])


def check_trace_self_times():
    proc = subprocess.run([run.BINARY, "--check-trace-self-times"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return ["traced Get self times: " + proc.stdout.strip()]
    return []


def check_planted_mismatch():
    code, details, result = invoke(["--workload", "point-read", "--seed", "3",
                                    "--seconds", "1", "--trace", "0",
                                    "--plant-mismatch"])
    if result is None:
        return ["planted mismatch: run failed with exit code %d" % code]
    frac = [d["value"] for d in details if d["metric"] == "failed_ops_frac"]
    errors = []
    if result["failed"] < 1 or result["correct"]:
        errors.append("planted mismatch not counted: %s" % json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed")}))
    if not frac or not frac[0] > 0:
        errors.append("planted mismatch: failed_ops_frac is %s" % frac)
    return errors


def check_workload(workload, trace, expected):
    where = "%s --trace %d" % (workload, trace)
    code, details, result = invoke(["--workload", workload, "--seed", "5",
                                    "--seconds", SECONDS, "--trace",
                                    str(trace)])
    if result is None:
        return ["%s: run failed with exit code %d" % (where, code)]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if not result.get("correct") or result.get("failed") != 0:
        errors.append("%s: not correct (%d of %d failed)" % (
            where, result.get("failed", -1), result.get("attempted", -1)))
    metrics = result.get("metrics", {})
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        errors.append("%s: missing metrics %s" % (where, missing))
    if extra:
        errors.append("%s: metrics not in BENCHMARK.json %s" % (where, extra))
    for name, spec in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != spec["unit"]:
            errors.append("%s: %s has unit %s, BENCHMARK.json says %s" % (
                where, name, got.get("unit"), spec["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, name, value))
    for d in details:
        if d["metric"].endswith(("_p50_us", "_p95_us", "_p99_us")) and \
                not d.get("samples"):
            errors.append("%s: %s has no sample count" % (where, d["metric"]))
        for key in ("unit", "workload", "seed", "commit"):
            if key not in d:
                errors.append("%s: record %s lacks %s" % (where, d["metric"],
                                                          key))
    return errors


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    errors = check_trace_self_times() + check_planted_mismatch()
    for workload in [w["name"] for w in spec["workloads"]]:
        errors += check_workload(workload, 0, end_to_end)
        errors += check_workload(workload, 1, per_layer)
    for error in errors:
        print("FAIL", error)
    print("selftest: %s" % ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
