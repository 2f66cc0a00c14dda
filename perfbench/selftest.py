#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, at a tiny catalog scale and a one-second run:
  1. every workload in BENCHMARK.json runs correctly and prints every
     end-to-end metric with its unit (and, with --trace 1, every per-layer
     metric with its unit);
  2. a deliberately wrong reference answer is caught: the run reports
     failures, correct=false, and exits non-zero;
  3. in a directory holding only BENCHMARK.json and the benchmark's files
     the command fails fast without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SCALE = "0.1"


def run(args, cwd=ROOT, timeout=900):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(cond, message, failures):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for workload in bench["workloads"]:
            name = workload["name"]
            out = run(["--workload", name, "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--scale", SCALE])
            result = last_json(out.stdout)
            label = f"{name} trace={trace}"
            check(out.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: runs and every answer is correct", failures)
            if result is None:
                print(out.stderr[-2000:])
                continue
            got = result["metrics"]
            check(set(got) == set(wanted),
                  f"{label}: prints exactly the {key} metrics "
                  f"(missing {sorted(set(wanted) - set(got))}, "
                  f"extra {sorted(set(got) - set(wanted))})", failures)
            check(all(got[m]["unit"] == u for m, u in wanted.items()
                      if m in got),
                  f"{label}: every metric carries its unit", failures)
            # The human-readable report names each metric with its unit.
            for m, u in wanted.items():
                if not any(line.split()[1:2] == [m] and u in line.split()
                           for line in out.stdout.splitlines()
                           if line.startswith(key)):
                    check(False, f"{label}: report line for {m}", failures)

    out = run(["--workload", "short_query_storm", "--seed", "7",
               "--seconds", "1", "--trace", "0", "--scale", SCALE,
               "--corrupt-reference"])
    result = last_json(out.stdout)
    check(out.returncode != 0 and result is not None
          and not result["correct"] and result["failed"] > 0,
          "a wrong reference answer is caught", failures)

    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(["--workload", "q8_pipeline", "--seed", "1", "--seconds", "1",
               "--trace", "0"], cwd=bare, timeout=180)
    check(out.returncode != 0 and not out.stdout.strip(),
          "without the sources the command fails and prints no result",
          failures)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
