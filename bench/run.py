"""Benchmark entry point.

    python3 bench/run.py --workload conj|complete|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the run sets up the
workload several times (``setup_s`` is the median), then runs a fixed number
of whole cycles of operations in one closed loop, as many as fill about S
seconds on the host where the benchmark was defined (``cycles_for``), checks
every answer after the timed phase and prints the end-to-end metrics.  With
``--trace 1`` it runs the same loop once untraced and once with the span
recorder of ``tracing.py`` installed, and prints the per-layer metrics.

Reported times are normalised to the speed of a reference host, because the
speed a shared host gives one process drifts by tens of percent, in phases
of seconds to minutes.  Every timed call (each operation and each set-up)
is bracketed by calibration kernels of fixed work (``calibrate``), and its
wall time is scaled by ``CAL_REF_S`` over the mean of the two calibrations.
The kernels are benchmark code, so a change to the program moves normalised
times as it moves wall times, while a slow phase of the host cancels out.
The report also prints the wall-clock values and the run record keeps both.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A record of the run (inputs digest, environment,
metrics, first failures) and, when traced, the spans are written under
``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HASH_SEED = "0"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_runs")


def _pin_hash_seed() -> None:
    """Re-execute this process with PYTHONHASHSEED pinned, so set and dict
    iteration orders repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0])] + sys.argv[1:], env)


def _import_program():
    """Import cycrew from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import cycrew
    except ImportError as exc:
        raise SystemExit(f"error: cannot import cycrew from {src}: {exc}")
    if not os.path.abspath(cycrew.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: cycrew imported from {cycrew.__file__}, not {src}")
    return cycrew


def git_sha():
    """The commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


# Calibration time, in seconds, on the host where the benchmark was defined
# (2 vCPUs, Python 3.11.7).  Times are reported in seconds of that host; see
# ``Timed``.
CAL_REF_S = 0.0003

# Two kernels in the shape of the program's hot code: a carry-set dynamic
# program over a fixed random partial table (tuple-row lookups, None tests,
# set building), and the allocation of frozen dataclass rules indexed in a
# dict and sorted (rule-system construction).  Their geometric mean tracked
# the speed changes of the workloads' operations within a few percent over
# one-second windows; a small dict/set loop tracked them several times worse.
_KERNEL_RNG = random.Random(7)
_KERNEL_SIZE = 48
_KERNEL_TABLE = tuple(
    tuple(_KERNEL_RNG.randrange(_KERNEL_SIZE) if _KERNEL_RNG.random() < 0.3 else None
          for _ in range(_KERNEL_SIZE))
    for _ in range(_KERNEL_SIZE)
)
_KERNEL_WORD = tuple(_KERNEL_RNG.randrange(_KERNEL_SIZE) for _ in range(12))


@dataclasses.dataclass(frozen=True)
class _KernelRule:
    lhs: tuple
    rhs: tuple


def _dp_kernel() -> float:
    t0 = time.perf_counter()
    table = _KERNEL_TABLE
    carries = {0}
    for a in _KERNEL_WORD:
        nxt = set()
        for c in carries:
            m = table[c][a]
            row = table[a if m is None else m]
            for x in range(_KERNEL_SIZE):
                y = row[x]
                if y is not None and table[y][a] is not None:
                    nxt.add(x)
        carries = nxt or {0}
    return time.perf_counter() - t0


def _alloc_kernel() -> float:
    t0 = time.perf_counter()
    index = {}
    for i in range(300):
        rule = _KernelRule((i % 41, i % 37), (i % 13,))
        index.setdefault((rule.lhs, i & 3), []).append(rule)
    sorted(index, key=lambda k: (len(k[0]), k))
    return time.perf_counter() - t0


def calibrate() -> float:
    """Geometric mean of the fastest of three runs of each kernel (about
    2.5 ms in all): the speed the host gives this process at the moment."""
    dp = min(_dp_kernel() for _ in range(3))
    alloc = min(_alloc_kernel() for _ in range(3))
    return (dp * alloc) ** 0.5


class SpeedSampler:
    """Calibrates every `interval` seconds of wall time from a SIGALRM
    handler, so a long call's speed is known along its whole length and
    not only at its ends.  Python runs the handler between bytecodes of the
    main thread; its own time is taken out of the call's time."""

    interval = 0.1

    def __init__(self):
        self.events = []  # (start, end, calibration) of each handler run

    def _handler(self, _signum, _frame):
        t0 = time.perf_counter()
        cal = calibrate()
        self.events.append((t0, time.perf_counter(), cal))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class Timed:
    """Times one call between two calibrations.  `wall` is its wall time
    without the sampler's handler runs; `normalised` is the same time in
    reference-host seconds, each stretch between calibrations scaled by
    CAL_REF_S over the mean of the calibrations at its two ends."""

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.before = calibrate()
        self.first_event = len(sampler.events) if sampler else 0
        self.start = time.perf_counter()

    def stop(self):
        end = time.perf_counter()
        events = self.sampler.events[self.first_event:] if self.sampler else []
        events = [e for e in events if self.start <= e[0] < end]
        after = calibrate()
        cals = [self.before] + [cal for _s, _e, cal in events] + [after]
        starts = [self.start] + [e for _s, e, _c in events]
        ends = [s for s, _e, _c in events] + [end]
        self.wall = self.normalised = 0.0
        for i, (a, b) in enumerate(zip(starts, ends)):
            self.wall += b - a
            self.normalised += (b - a) * CAL_REF_S / ((cals[i] + cals[i + 1]) / 2)
        return self


def time_setup(wl, repeats: int, sampler=None):
    """Median time of the workload's set-up calls (wall and normalised),
    and the objects of the last repeat."""
    walls, norms = [], []
    objs = None
    for _ in range(repeats):
        # each repeat starts, as in a fresh process, without the previous
        # repeat's garbage
        objs = None
        gc.collect()
        t = Timed(sampler)
        objs = wl.setup()
        t.stop()
        walls.append(t.wall)
        norms.append(t.normalised)
    return statistics.median(walls), statistics.median(norms), objs


class Loop:
    """Outcome of one closed loop: per-operation times and records."""

    def __init__(self):
        self.wall = []  # wall seconds per operation
        self.normalised = []  # reference-host seconds per operation
        self.records = []  # (op, result, exception text or None)
        self.cycles = 0
        self.cycle_digests = []

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / sum(self.normalised)


def cycles_for(wl, seconds: float, traced: bool = False) -> int:
    """The number of cycles a run of `seconds` measures: as many as filled
    that time on the host where the benchmark was defined (`wl.cycle_s`),
    and at least the `wl.min_cycles` its latency percentiles need (at least
    one when traced, as the traced run reports no percentiles).  It depends
    on nothing measured, so every version of the program is timed on the
    same inputs, and the percentiles fall on the same operations."""
    return max(1 if traced else wl.min_cycles, round(seconds / wl.cycle_s))


def closed_loop(wl, objs, gen, seed: int, cycles: int, work_dir: str, sampler=None) -> Loop:
    """Run `cycles` whole cycles; the inputs of cycle i depend only on
    (workload, seed, i).  All inputs are made before the timed phase; then
    the heap is collected once and everything alive is frozen, so the
    collector's own work during the loop is that of the objects the program
    allocates.  Calibrations are untimed."""
    loop = Loop()
    batches = []
    for index in range(cycles):
        ops = wl.cycle(objs, random.Random(f"{wl.name}:{seed}:{index}"), index)
        loop.cycle_digests.append(gen.digest(repr(ops).replace(work_dir, "<work>")))
        batches.append(ops)
    gc.collect()
    gc.freeze()
    try:
        for ops in batches:
            for op in ops:
                t = Timed(sampler)
                try:
                    result, error = wl.call(objs, op), None
                except Exception as exc:  # a crash is a failed operation, not a failed run
                    result, error = None, f"{type(exc).__name__}: {exc}"
                t.stop()
                loop.wall.append(t.wall)
                loop.normalised.append(t.normalised)
                loop.records.append((op, result, error))
            loop.cycles += 1
    finally:
        gc.unfreeze()
    return loop


def check_loop(wl, objs, loop: Loop) -> list:
    """Failure reasons, one per failed operation."""
    failures = []
    for op, result, error in loop.records:
        if error is None:
            try:
                error = wl.check(objs, op, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    return failures


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10 samples
    above it.  With 10 samples or fewer no percentile qualifies, and the
    maximum is reported as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_s: float, times: list) -> tuple:
    """The end-to-end metrics from a set-up time and per-operation times,
    and the percentile the tail value stands for."""
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(times), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, tail_pct


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    """One benchmark run; returns the result object and the run record."""
    import gen
    import workloads

    wl = workloads.WORKLOADS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    try:
        with SpeedSampler() as sampler:
            setup_wall, setup_s, objs = time_setup(wl, 1 if traced else wl.setup_repeats, sampler)
            wl.prepare(objs, work_dir)
            loop = closed_loop(wl, objs, gen, seed, cycles_for(wl, seconds, traced), work_dir,
                               sampler)
        loops = [(objs, loop)]
        lines = []
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                # the traced set-up only yields spans; the loop reuses the
                # prepared objects of the untraced run
                root = tracer.begin("bench.setup")
                wl.setup()
                tracer.end(root)
                root = tracer.begin("bench.loop")
                traced_loop = closed_loop(wl, objs, gen, seed, loop.cycles, work_dir)
                tracer.end(root)
            finally:
                tracer.uninstall()
            loops.append((objs, traced_loop))
            layer = tracing.layer_metrics(tracer, traced_loop.cycles)
            layer["trace.overhead_ratio"] = traced_loop.ops_per_s / loop.ops_per_s
            tracer.write_spans(os.path.join(OUT_DIR, f"{tag}.spans.tsv"))
            metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
            lines.append(
                "trace: wall {:.4f} s = layers {:.4f} s + benchmark {:.4f} s; {} spans".format(
                    layer["trace.wall_s"], layer["trace.layers_self_s"],
                    layer["trace.bench_self_s"], len(tracer.spans),
                )
            )
            lines.append(
                "trace: most self time in "
                + ", ".join(f"{n} {s:.3f} s" for n, s in tracing.top_self(tracer))
            )
        else:
            metrics, tail_pct = end_to_end(setup_s, loop.normalised)
            wall, _pct = end_to_end(setup_wall, loop.wall)
            lines.append(f"latency_tail_ms is p{tail_pct:.1f} of {len(loop.wall)} samples")
            lines.append(
                "wall-clock values: "
                + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in wall.items() if k != "peak_rss_mb")
            )
        failures = []
        attempted = 0
        for lobjs, lp in loops:
            failures += check_loop(wl, lobjs, lp)
            attempted += len(lp.records)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines.append(f"fail_ratio = {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for reason in failures[:5]:
        lines.append(f"failure: {reason}")
    inputs_digest = gen.digest(loop.cycle_digests)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "cycles": loop.cycles,
        "inputs_digest": inputs_digest,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures[:50],
        "wall_s": loop.wall,
        "normalised_s": loop.normalised,
        "report": lines,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    return result, record


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "fastconj.nf_per_decision":
        return "calls/op"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("conj", "complete", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_hash_seed()
    _import_program()
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["environment"]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{record['cycles']} cycles, inputs {record['inputs_digest']}, "
        f"git {env['git_sha']}, python {env['python']}, nproc {env['nproc']}, "
        f"PYTHONHASHSEED={env['PYTHONHASHSEED']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for line in record["report"]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
