#!/usr/bin/env python3
"""Self-check of the benchmark on a shortened segment.

    python3 perfbench/selfcheck.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py once with --trace 0 and once with --trace 1 on the first
round of the test segment only (one scene, one set-up), and verifies:

  - the last stdout line has exactly the keys correct/attempted/failed/metrics,
    and the output check passed (correct, no failed operation);
  - every metric BENCHMARK.json names for that mode is printed exactly once,
    with BENCHMARK.json's unit, and no other metric is printed;
  - unknown flags are rejected with a usage message and exit code 2, by
    run.py and by the harness binary alike.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py: build() and the harness location)

# First round of each workload's test segment (registration + one round).
SHORT_END_FRAME = {"ds1_adaptive": 1900, "ds1_gated_durable": 1900, "ds2_highres": 2600}


def run_bench(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def check_result(proc, expected, label, failures):
    if proc.returncode != 0:
        failures.append("%s: exit code %d\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
        return
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: result keys %s" % (label, sorted(result)))
        return
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures.append("%s: output check failed (%s)" % (label, last[:300]))
    printed = result["metrics"]
    for name, unit in expected.items():
        if last.count('"%s": {' % name) != 1:
            failures.append("%s: metric %s printed %d times" % (label, name,
                                                               last.count('"%s": {' % name)))
        elif printed[name].get("unit") != unit:
            failures.append("%s: metric %s has unit %r, BENCHMARK.json says %r"
                            % (label, name, printed[name].get("unit"), unit))
        elif not isinstance(printed[name].get("value"), (int, float)):
            failures.append("%s: metric %s has no numeric value" % (label, name))
    for name in sorted(set(printed) - set(expected)):
        failures.append("%s: metric %s is not named in BENCHMARK.json" % (label, name))


def main():
    os.chdir(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []

    for workload in [w["name"] for w in bench["workloads"]]:
        short = ["--workload", workload, "--seed", "777", "--seconds", "1",
                 "--end-frame", str(SHORT_END_FRAME[workload])]
        check_result(run_bench(short + ["--trace", "0"]),
                     end_to_end, workload + " --trace 0", failures)
        check_result(run_bench(short + ["--trace", "1"]), per_layer, workload + " --trace 1",
                     failures)

    bogus = run_bench(["--workload", "ds1_adaptive", "--bogus-flag"])
    if bogus.returncode != 2 or "usage" not in bogus.stderr:
        failures.append("run.py accepted an unknown flag (exit %d)" % bogus.returncode)
    binary = run.build()["perfbench"]
    harness = subprocess.run([binary, "--workload", "ds1_adaptive", "--bogus-flag", "1"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if harness.returncode != 2 or "usage" not in harness.stderr:
        failures.append("harness accepted an unknown flag (exit %d)" % harness.returncode)

    for failure in failures:
        print("FAIL: " + failure)
    print("selfcheck: %s" % ("PASS" if not failures else "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
