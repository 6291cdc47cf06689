#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It builds suvbench, runs every workload of BENCHMARK.json at a tiny scale
(STAMP scale 0.05, 64 sharded-KV ops per thread, the fewest passes) in both
the timed and the traced mode, and fails unless

- every metric of BENCHMARK.json appears in the result with its unit;
- ok_share is 1.0 and no simulation failed, on every workload;
- the exact counters agree across passes (suvbench fails any pass whose
  RunResult differs from the first) and across the two processes;
- the traced run wrote a span trace holding every span name;
- with a cycle cap so low that every simulation fails, every workload ends
  long before --seconds, counts each simulation once as failed, reports
  ok_share 0 and stays correct (a failure to finish is not wrong output);
- run.py exits non-zero, without a result line, in a directory holding
  only BENCHMARK.json and this directory.

Takes about a minute after the build.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = dict(scale=0.05, kv_ops=64)
SPAN_NAMES = {"pass", "simulation", "sim.construct", "stamp.build", "sim.run",
              "stamp.verify", "runner.harvest", "obs.harvest"}


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_workload(bench, workload, seed):
    timed = run.measure(workload, seed, 0, **TINY)
    trace_path = run.BUILD_DIR / f"selftest-trace-{workload}.json"
    traced = run.measure(workload, seed, 0, trace_path, **TINY)
    for trace, raw in ((0, timed), (1, traced)):
        units = run.metric_units(bench, trace)
        _, out = run.result(raw, trace, units)
        check(out["correct"] and out["failed"] == 0,
              f"{workload}: trace {trace} run failed simulations")
        check(out["attempted"] >= 2, f"{workload}: too few simulations")
        for name, unit in units.items():
            got = out["metrics"].get(name)
            check(got is not None and got["unit"] == unit and
                  isinstance(got["value"], (int, float)),
                  f"{workload}: metric {name} missing or without unit {unit}")
        if trace == 0:
            check(out["metrics"]["ok_share"]["value"] == 1.0,
                  f"{workload}: ok_share below 1")
            check(raw["passes"] >= 2, f"{workload}: fewer than two passes")
    check(timed["counters"] == traced["counters"] and
          timed["result_fingerprint"] == traced["result_fingerprint"],
          f"{workload}: exact counters differ between processes")
    with open(trace_path) as f:
        names = {e["name"] for e in json.load(f)["traceEvents"]
                 if e["ph"] == "X"}
    check(names == SPAN_NAMES, f"{workload}: span names {sorted(names)}")
    print(f"ok {workload}: {timed['attempted']} + {traced['attempted']} "
          f"simulations, fingerprint {timed['result_fingerprint']}")


def test_all_fail(bench, workload, seed):
    seconds = 60
    for trace in (0, 1):
        trace_path = (run.BUILD_DIR / f"selftest-fail-{workload}.json"
                      if trace else None)
        t0 = time.monotonic()
        raw = run.measure(workload, seed, seconds, trace_path, max_cycles=100,
                          **TINY)
        elapsed = time.monotonic() - t0
        _, out = run.result(raw, trace, run.metric_units(bench, trace))
        proofs = 1 if workload in run.PROVE_FIRST else 0
        expected = raw["simulations_per_pass"] * (1 + proofs)
        check(elapsed < seconds / 2,
              f"{workload}: trace {trace} run with nothing left to run "
              f"kept going for {elapsed:.1f} s")
        check(out["attempted"] == expected and out["failed"] == expected,
              f"{workload}: trace {trace}: {out['attempted']} attempted, "
              f"{out['failed']} failed, expected {expected} of each")
        check(out["correct"], f"{workload}: trace {trace}: a capped run "
              "was reported as wrong output")
        if trace == 0:
            check(out["metrics"]["ok_share"]["value"] == 0.0,
                  f"{workload}: ok_share above 0 with every simulation "
                  "failed")
    print(f"ok {workload}: every simulation over the cycle cap, run ended "
          "early")


def test_bare_directory():
    bare = run.BUILD_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "stamp_suv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "bare directory: run.py exited 0")
    check('"correct"' not in proc.stdout, "bare directory: printed a result")
    print("ok bare directory: run.py refuses to run")


def main():
    bench = run.spec()
    run.build()
    for wl in bench["workloads"]:
        test_workload(bench, wl["name"], run.DEFAULT_SEED)
        test_all_fail(bench, wl["name"], run.DEFAULT_SEED)
    test_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
