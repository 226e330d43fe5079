"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload conj

Runs ``bench/run.py`` once for each of SEEDS seeds, one run at a time, each
in a fresh process, with the ``run_seconds`` of BENCHMARK.json.  For every
end-to-end metric it prints the median and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  A spread at or above a
third of its bound is marked; ``setup_s`` is exempt from the spread rule.
Exits 1 when a run fails or reports incorrect answers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run-to-run spread of end-to-end metrics")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
        result = one_run(args.workload, seed, spec["run_seconds"])
        ok &= result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        mark = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- wide"
        print(f"{args.workload} {m['name']}: median {med:.6g} {m['unit']}, "
              f"spread {spread:.4f} (bound {m['bound']}){mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
