"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

Checks that the answer checks catch wrong answers (a flipped verdict, a
corrupted certificate, a wrong pinned completion result, a wrong exit code)
and that an exception counts as a failed operation; that inputs are a pure
function of the seed; and that a traced run attributes its wall time to
layers and puts most of the conj self time in ``universal.nf_carries``.
The smoke sizes keep the whole test under a minute.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import unittest

import run

run._pin_hash_seed()
run._import_program()

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cycrew.universal import ConjugacyAnswer  # noqa: E402

SMOKE_CONJ = workloads.Conj(n_range=(8, 24))
SMOKE_COMPLETE = workloads.Complete(systems=("hnn_z4_z2",))


class Smoke(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        self.work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
        self.addCleanup(shutil.rmtree, self.work_dir, True)

    def loop(self, wl, seed=1):
        objs = wl.setup()
        wl.prepare(objs, self.work_dir)
        return objs, run.closed_loop(wl, objs, gen, seed, 1, self.work_dir)

    def fails(self, wl, objs, op, result):
        """The answer checks count this result for op as one failure."""
        loop = run.Loop()
        loop.records.append((op, result, None))
        return len(run.check_loop(wl, objs, loop)) == 1

    def test_conj_answers_pass_and_tampering_fails(self):
        objs, loop = self.loop(SMOKE_CONJ)
        self.assertEqual(run.check_loop(SMOKE_CONJ, objs, loop), [])
        positive = next(r for r in loop.records if r[0][0] != "negative")
        negative = next(r for r in loop.records if r[0][0] == "negative")
        op, answer, _err = positive
        flipped = ConjugacyAnswer(False, None, answer.method)
        self.assertTrue(self.fails(SMOKE_CONJ, objs, op, flipped))
        bad = answer.certificate + (0,)
        corrupted = ConjugacyAnswer(True, bad, answer.method)
        self.assertTrue(self.fails(SMOKE_CONJ, objs, op, corrupted))
        op, answer, _err = negative
        self.assertTrue(self.fails(SMOKE_CONJ, objs, op, ConjugacyAnswer(True, (), "linear")))

    def test_exception_counts_as_failure(self):
        class Crashing(workloads.Conj):
            def call(self, objs, op):
                if op[0] == "negative":
                    raise RuntimeError("boom")
                return super().call(objs, op)

        wl = Crashing(n_range=(8, 24))
        objs, loop = self.loop(wl)
        failures = run.check_loop(wl, objs, loop)
        negatives = sum(1 for r in loop.records if r[0][0] == "negative")
        self.assertEqual(len(failures), negatives)
        self.assertTrue(all("boom" in f for f in failures))

    def test_complete_pins(self):
        objs, loop = self.loop(SMOKE_COMPLETE)
        self.assertEqual(run.check_loop(SMOKE_COMPLETE, objs, loop), [])
        thue = next(r for r in loop.records if r[0][1] == "thue")
        crs, stage = thue[1]
        self.assertTrue(self.fails(SMOKE_COMPLETE, objs, thue[0], (crs, stage + 1)))
        crs.extra = crs.extra[:-1]
        self.assertTrue(self.fails(SMOKE_COMPLETE, objs, thue[0], (crs, stage)))

    def test_cli_checks(self):
        wl = workloads.WORKLOADS["cli"]
        objs, loop = self.loop(wl)
        self.assertEqual(run.check_loop(wl, objs, loop), [])
        for op, (code, out, err), _e in loop.records:
            if op["kind"] == "conj":
                self.assertTrue(self.fails(wl, objs, op, (1 - code, out, err)))
            if op["kind"] in ("from-hnn", "complete"):
                self.assertTrue(self.fails(wl, objs, op, (code, out[: len(out) // 2], err)))
            if op["kind"] == "nf":
                self.assertTrue(self.fails(wl, objs, op, (code, "", err)))

    def test_inputs_are_a_function_of_the_seed(self):
        def digest(seed):
            objs = SMOKE_CONJ.setup()
            SMOKE_CONJ.prepare(objs, self.work_dir)
            return gen.digest(SMOKE_CONJ.cycle(objs, random.Random(f"conj:{seed}:0"), 0))

        self.assertEqual(digest(3), digest(3))
        self.assertNotEqual(digest(3), digest(4))

    def test_trace_attributes_wall_time(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            root = tracer.begin("bench.setup")
            objs = SMOKE_CONJ.setup()
            tracer.end(root)
            SMOKE_CONJ.prepare(objs, self.work_dir)
            root = tracer.begin("bench.loop")
            loop = run.closed_loop(SMOKE_CONJ, objs, gen, 1, 1, self.work_dir)
            tracer.end(root)
        finally:
            tracer.uninstall()
        m = tracing.layer_metrics(tracer, loop.cycles)
        self.assertAlmostEqual(m["trace.wall_s"], m["trace.layers_self_s"] + m["trace.bench_self_s"],
                               delta=1e-6 * m["trace.wall_s"])
        self.assertEqual(tracing.top_self(tracer, 1)[0][0], "universal.nf_carries")
        self.assertGreater(m["universal.nf_carries.calls"], 0)
        # uninstall restores the original bindings
        from cycrew import fastconj, universal

        self.assertIs(fastconj._nf_carries, universal._nf_carries)
        self.assertEqual(universal._nf_carries.__name__, "_nf_carries")

    def test_cycles_depend_on_seconds_only(self):
        conj, complete = workloads.WORKLOADS["conj"], workloads.WORKLOADS["complete"]
        self.assertEqual(run.cycles_for(conj, 20), 8)
        self.assertEqual(run.cycles_for(complete, 20), complete.min_cycles)
        self.assertEqual(run.cycles_for(complete, 20, traced=True), 1)

    def test_tail_percentile(self):
        self.assertEqual(run.tail(list(range(8))), (7, 100.0))
        value, pct = run.tail(list(range(100)))
        self.assertEqual((value, pct), (89, 90.0))


if __name__ == "__main__":
    unittest.main()
