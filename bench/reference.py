"""One reference run of the single-run baselines quoted in ROADMAP.md.

    python3 bench/reference.py

Times, once each, ``thue_completion`` and ``check_strong_confluence`` on the
S_eps system of hnn_s3 (|P| = 42, 7,687 rules) and ``UniversalContext`` on
HNN(Z10, Z2) (|P| = 110), in wall seconds and in the normalised seconds of
``run.py``, and writes them with the environment to bench/REFERENCE.json.  These calls are too slow for the repeated runs of
``run.py``; the file lets later changes relate the benchmark's workloads to
the numbers quoted there.  Takes about a minute and a half.
"""

from __future__ import annotations

import json
import os

import run

run._pin_hash_seed()
run._import_program()

import workloads  # noqa: E402
from cycrew import completion, pregroup, rewrite, samples, universal  # noqa: E402


def main() -> int:
    s_eps = pregroup.derive_system(samples.hnn_s3(), "S_eps")
    calls = {
        "check_strong_confluence_hnn_s3": lambda: rewrite.check_strong_confluence(s_eps),
        "thue_completion_hnn_s3": lambda: completion.thue_completion(s_eps, check_confluence=False),
        "universal_context_p110": lambda: universal.UniversalContext(workloads._hnn_cyclic(10, 2)),
    }
    wall, normalised, results = {}, {}, {}
    with run.SpeedSampler() as sampler:
        for name, call in calls.items():
            t = run.Timed(sampler)
            results[name] = call()
            t.stop()
            wall[name], normalised[name] = t.wall, t.normalised
    crs, stage = results["thue_completion_hnn_s3"]
    out = {
        "environment": run.environment(),
        "wall_s": wall,
        "normalised_s": normalised,
        "hnn_s3_rules": len(s_eps.rules),
        "confluent": results["check_strong_confluence_hnn_s3"].ok,
        "thue_stage": stage,
        "thue_extra_pairs": len(crs.extra),
        "roadmap_quotes_s": {"thue_completion_hnn_s3": 52.6, "check_strong_confluence_hnn_s3": 13.8,
                             "universal_context_p110": 1.56},
    }
    path = os.path.join(run.BENCH_DIR, "REFERENCE.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
