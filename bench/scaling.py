"""Scaling report for the "linear-time conjugacy" claim (not gated).

    python3 bench/scaling.py

Times ``conjugate_linear`` and ``conjugate_quadratic`` on one generated pair
per (|P|, class, n) for n = 2^4 .. 2^MAX_EXP, at |P| in {3, 8, 42, 110}, on
positive, negative and periodic inputs.  A series stops after its first
call slower than MAX_CALL_S.  It prints the fitted log-log slope of each series
(points with n >= 64), the smallest measured n at which the linear algorithm
beats the quadratic one, and the time of ``UniversalContext`` at
|P| in {42, 72, 110, 156}.  Results also go to .bench_runs/scaling.json.
It is a report for reading, outside the repeated benchmark runs.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys
import time

import run

run._pin_hash_seed()
run._import_program()

import gen  # noqa: E402
import workloads  # noqa: E402
from cycrew import fastconj, samples, universal  # noqa: E402

PREGROUPS = {
    3: samples.dihedral_infinity,
    8: samples.z4_amalgam_z6,
    42: samples.hnn_s3,
    110: lambda: workloads._hnn_cyclic(10, 2),
}
CONTEXT_SIZES = {42: 6, 72: 8, 110: 10, 156: 12}  # |P| -> n of HNN(Z_n, Z_2)
ALGOS = {"linear": fastconj.conjugate_linear, "quadratic": universal.conjugate_quadratic}
CLASSES = ("positive", "negative", "periodic")
MAX_EXP = 15
MAX_CALL_S = 3.0
SEED = 1


def make_pair(ctx, kind, n, rng, tools):
    p = ctx.pregroup
    words, inv, carry = tools
    if kind == "periodic":
        pg = gen.periodic_word(rng, words, n)
    else:
        pg = words.cyclically_reduced(rng, n)
    pv = gen.negative_for(rng, words, inv, pg) if kind == "negative" else pg
    return gen.to_gamma(pg, p), gen.conjugate_of(rng, pv, p, ctx.alphabet, carry)


def slope(points):
    """Least-squares slope of log t against log n over points with n >= 64
    (all points when fewer than two qualify)."""
    pts = [(n, t) for n, t in points if n >= 64] or points
    if len(pts) < 2:
        return None
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(t) for _, t in pts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def main() -> int:
    report = {"series": [], "crossover": {}, "context_s": {}, "mismatches": []}
    for size, build in PREGROUPS.items():
        ctx = universal.UniversalContext(build())
        p = ctx.pregroup
        tools = (gen.ReducedWords(p), gen.invariant_for(p), gen.carriers(p))
        for kind in CLASSES:
            times = {algo: [] for algo in ALGOS}
            stopped = set()
            for e in range(4, MAX_EXP + 1):
                n = 2 ** e
                rng = random.Random(f"scaling:{SEED}:{size}:{kind}:{n}")
                try:
                    u, v = make_pair(ctx, kind, n, rng, tools)
                except ValueError as exc:  # e.g. no negatives of equal length
                    print(f"|P|={size} {kind} n={n}: no input ({exc})", flush=True)
                    break
                for algo in ALGOS:
                    if algo in stopped:
                        continue
                    t0 = time.perf_counter()
                    answer = ALGOS[algo](u, v, ctx)
                    dt = time.perf_counter() - t0
                    if answer.verdict != (kind != "negative"):
                        report["mismatches"].append([size, kind, n, algo])
                    times[algo].append((n, dt))
                    if dt > MAX_CALL_S:
                        stopped.add(algo)
                    print(f"|P|={size} {kind} {algo} n={n}: {dt:.4f} s", flush=True)
                if len(stopped) == len(ALGOS):
                    break
            for algo, pts in times.items():
                report["series"].append({"P": size, "class": kind, "algo": algo,
                                         "points": pts, "slope": slope(pts)})
            lin, quad = dict(times["linear"]), dict(times["quadratic"])
            wins = [n for n in sorted(lin) if n in quad and lin[n] < quad[n]]
            report["crossover"][f"{size}/{kind}"] = wins[0] if wins else None
    for size, n in CONTEXT_SIZES.items():
        p = workloads._hnn_cyclic(n, 2)
        t0 = time.perf_counter()
        universal.UniversalContext(p)
        report["context_s"][size] = time.perf_counter() - t0
    print("\nslopes (log t / log n, n >= 64):")
    for s in report["series"]:
        last = s["points"][-1][0] if s["points"] else None
        sl = "n/a" if s["slope"] is None else f"{s['slope']:.2f}"
        print(f"  |P|={s['P']:>3} {s['class']:<9} {s['algo']:<9} slope {sl:>5}  up to n={last}")
    print("linear beats quadratic from n (None: never within the measured range):")
    for key, n in report["crossover"].items():
        print(f"  |P|={key}: {n}")
    print("UniversalContext seconds by |P|:")
    for size, t in report["context_s"].items():
        print(f"  |P|={size}: {t:.3f}")
    if report["mismatches"]:
        print(f"WRONG VERDICTS: {report['mismatches']}")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.OUT_DIR, "scaling.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
