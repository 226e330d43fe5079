"""The three benchmark workloads: ``conj``, ``complete`` and ``cli``.

A workload has four parts, called by ``run.py`` in this order:

* ``setup()`` makes the program's own set-up calls (pregroup construction,
  ``UniversalContext``, ``derive_system``) and returns their objects.  Only
  this is timed as ``setup_s``.
* ``prepare(objs, work_dir)`` does the benchmark's own preparation, such as
  writing input files; it is never timed.
* ``cycle(objs, rng, index)`` generates cycle number ``index`` of operations
  from a seeded RNG.  A cycle has a fixed composition, so whole cycles give
  the same mix of operations on every seed.
* ``call(objs, op)`` is one timed operation and ``check(objs, op, result)``
  verifies its answer independently, after the timed phase; it returns a
  failure reason or None.

Library functions are always called through their module
(``universal.UniversalContext``, ``fastconj.conjugate_linear``, ...) so that
the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import gen

from cycrew import cli, completion, fastconj, formats, pregroup, rewrite, samples, universal
from cycrew import constructions
from cycrew.words import involute


def _hnn_cyclic(n: int, k: int):
    """HNN(Z_n, t; t^-1 A t = A) with A the subgroup of order k and phi the
    identity; |P| = n + 2 (n / k) n."""
    H = constructions.FiniteGroupTable.cyclic(n, "x")
    sub = [tok for i, tok in enumerate(H.elements) if i % (n // k) == 0]
    return constructions.hnn_pregroup(H, sub, sub, {tok: tok for tok in sub})


# ---------------------------------------------------------------- conj

class Conj:
    """Closed-loop stream of conjugate_linear decisions on one long-lived
    context over hnn_s3 (|P| = 42).

    A cycle holds 8 positive, 8 negative and 4 periodic pairs, with cyclic
    length n log-uniform in [16, 256]: one value per stratum of log n, drawn
    within the eighth of the stratum that the cycle index selects
    (``gen.log_uniform_strata``).  Negatives cost most and set the latency tail, the
    11th slowest decision of the run; with the 8 cycles of a 20-second run
    it falls among the negatives of the second-highest stratum.  The
    negatives of the two highest strata therefore take the geometric
    midpoint of their stratum, so the tail does not depend on where random
    draws landed.
    """

    name = "conj"
    cycle_s = 2.5  # reference-host seconds per cycle (see run.CAL_REF_S)
    min_cycles = 1
    setup_repeats = 9
    classes = (("positive", 8), ("negative", 8), ("periodic", 4))

    def __init__(self, n_range=(16, 256)):
        self.n_range = n_range

    def setup(self):
        p = samples.hnn_s3()
        return {"ctx": universal.UniversalContext(p)}

    def prepare(self, objs, work_dir):
        p = objs["ctx"].pregroup
        objs["words"] = gen.ReducedWords(p)
        objs["inv"] = gen.invariant_for(p)
        objs["carry"] = gen.carriers(p)

    def cycle(self, objs, rng, index):
        ctx = objs["ctx"]
        p, alphabet = ctx.pregroup, ctx.alphabet
        words, inv = objs["words"], objs["inv"]
        ops = []
        for kind, count in self.classes:
            lengths = gen.log_uniform_strata(rng, *self.n_range, count, index)
            if kind == "negative":
                lengths[-2:] = gen.log_uniform_strata(None, *self.n_range, count)[-2:]
            for n in lengths:
                if kind == "periodic":
                    pg = gen.periodic_word(rng, words, n)
                else:
                    pg = words.cyclically_reduced(rng, n)
                pv = gen.negative_for(rng, words, inv, pg) if kind == "negative" else pg
                u = gen.to_gamma(pg, p)
                v = gen.conjugate_of(rng, pv, p, alphabet, objs["carry"])
                ops.append((kind, u, v))
        rng.shuffle(ops)
        return ops

    def call(self, objs, op):
        _kind, u, v = op
        return fastconj.conjugate_linear(u, v, objs["ctx"])

    def check(self, objs, op, answer):
        kind, u, v = op
        return check_conjugacy(objs["ctx"], objs["inv"], u, v, kind != "negative", answer)


def check_conjugacy(ctx, inv, u, v, expected: bool, answer):
    """Verdict against construction; a positive certificate is replayed with
    equal_in_U and against the invariant image."""
    if bool(answer.verdict) != expected:
        return f"verdict {answer.verdict}, expected {expected}"
    if not expected:
        return None if answer.certificate is None else "certificate on a negative"
    x = answer.certificate
    if x is None:
        return "positive without certificate"
    if not universal.equal_in_U(x + u + involute(x, ctx.alphabet), v, ctx):
        return "certificate fails equal_in_U replay"
    p = ctx.pregroup
    if not inv.certifies(gen.to_p(x, p), gen.to_p(u, p), gen.to_p(v, p)):
        return "certificate fails the invariant image"
    return None


# ------------------------------------------------------------ complete

# Results of the four calls on S_eps of HNN(Z4, Z2) and HNN(Z6, Z3), as
# computed by cycrew when this benchmark was written: pair counts and digests
# of the sorted canonical pairs (pairs_digest).  A faster implementation must
# give the same results.
COMPLETE_PINS = {
    "hnn_z4_z2": {
        "thue_stage": 1,
        "thue_pairs": 16,
        "thue_digest": "7a12ce496cfbb0bb",
        "cstar_pairs": 32,
        "cstar_digest": "5ea47d732e6d7e72",
        "cdagger_pairs": 16,
        "cdagger_digest": "7a12ce496cfbb0bb",
    },
    "hnn_z6_z3": {
        "thue_stage": 1,
        "thue_pairs": 24,
        "thue_digest": "d8822864b868da17",
        "cstar_pairs": 48,
        "cstar_digest": "2675cacd38654c87",
        "cdagger_pairs": 24,
        "cdagger_digest": "d8822864b868da17",
    },
}


def pairs_digest(pairs) -> str:
    return gen.digest(sorted((u.canon, v.canon) for u, v in pairs))


class Complete:
    """Four completion calls on each of two S_eps systems per cycle, in a
    seeded order: check_strong_confluence, thue_completion without its own
    confluence check, resolve_short_pairs (C*) and cdagger (C-dagger).

    C* and C-dagger, which cost least, run three times per system, so that
    each latency percentile rests on six samples of one call: in the two
    cycles of a run (32 calls) the median falls among the C* calls on
    HNN(Z4, Z2) and the tail (p68.75) among the C* calls on HNN(Z6, Z3).
    """

    name = "complete"
    cycle_s = 14.0
    min_cycles = 2
    setup_repeats = 15
    calls = ("confluence", "thue") + ("cstar", "cdagger") * 3
    groups = {"hnn_z4_z2": (4, 2), "hnn_z6_z3": (6, 3)}  # HNN(Z_n, Z_k)

    def __init__(self, systems=tuple(groups)):
        self.systems = systems

    def setup(self):
        return {
            name: pregroup.derive_system(_hnn_cyclic(*self.groups[name]), "S_eps")
            for name in self.systems
        }

    def prepare(self, objs, work_dir):
        pass

    def cycle(self, objs, rng, index):
        ops = [(system, call) for system in self.systems for call in self.calls]
        rng.shuffle(ops)
        return ops

    def call(self, objs, op):
        system_name, call = op
        s = objs[system_name]
        if call == "confluence":
            return rewrite.check_strong_confluence(s)
        if call == "thue":
            return completion.thue_completion(s, check_confluence=False)
        if call == "cstar":
            return completion.resolve_short_pairs(s)
        return completion.cdagger(s)

    def check(self, objs, op, result):
        system_name, call = op
        pins = COMPLETE_PINS[system_name]
        if call == "confluence":
            return None if result.ok else f"not confluent: {result.counterexample}"
        if call == "thue":
            crs, stage = result
            got = (stage, len(crs.extra), pairs_digest(crs.extra))
            want = (pins["thue_stage"], pins["thue_pairs"], pins["thue_digest"])
        else:
            got = (len(result.extra), pairs_digest(result.extra))
            want = (pins[f"{call}_pairs"], pins[f"{call}_digest"])
        return None if got == want else f"{call}: got {got}, pinned {want}"


# ----------------------------------------------------------------- cli

class Cli:
    """Closed-loop stream of one-shot in-process ``cycrew.cli.main(argv)``
    calls on files written before the timed phase.

    Pregroups: z4_amalgam_z6 (|P| = 8, "small"), hnn_s3 (42, "mid") and
    HNN(Z10, Z2) (110, "big").  One cycle of 32 calls, cheapest first:

    * 7 cheap calls: six queries on the small pregroup and from-amalgam;
    * cdagger, from-hnn and axioms on the mid pregroup;
    * 16 calls of similar cost: reduce, nf and conj queries on the mid
      pregroup, the hat extension and 3 cyclic-reduce queries.  The median
      lands in the middle of this block;
    * 5 C* completions, where the latency tail lands: it is the 11th slowest
      call, and with the 5 cycles of a 20-second run the big queries fill
      only the top 5 ranks;
    * 1 query on the big pregroup, rotating through reduce, nf,
      cyclic-reduce and conj from cycle to cycle.
    """

    name = "cli"
    cycle_s = 4.0
    min_cycles = 1
    setup_repeats = 3
    big_rotation = ("reduce", "nf", "cyclic-reduce", "conj")

    def setup(self):
        return {
            "small": samples.z4_amalgam_z6(),
            "mid": samples.hnn_s3(),
            "big": _hnn_cyclic(10, 2),
            "rws": pregroup.derive_system(_hnn_cyclic(4, 2), "S_eps"),
            "s3": samples.s3_table(),
            "z4": constructions.FiniteGroupTable.cyclic(4, "x"),
            "z6": constructions.FiniteGroupTable.cyclic(6, "y"),
        }

    def prepare(self, objs, work_dir):
        files = {}

        def put(name, text):
            path = os.path.join(work_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files[name] = path

        for key in ("small", "mid", "big"):
            put(f"{key}.pg", formats.emit_pg(objs[key]))
        put("s_eps.rws", formats.emit_rws(objs["rws"]))
        put("s3.grp", formats.emit_grp(objs["s3"], {"A": ("e", "s")}, {}))
        put("z4.grp", formats.emit_grp(objs["z4"], {"H": ("e", "x2")}, {}))
        put("z6.grp", formats.emit_grp(objs["z6"], {"H": ("e", "y3")}, {}))
        objs["files"] = files
        checkers = {}
        for key in ("small", "mid", "big"):
            p = objs[key]
            checkers[key] = {
                "words": gen.ReducedWords(p),
                "inv": gen.invariant_for(p),
                "alphabet": pregroup.gamma_alphabet(p),
                "carry": gen.carriers(p),
            }
        objs["checkers"] = checkers
        objs["contexts"] = {}

    def _query(self, objs, rng, key, command):
        f = objs["files"][f"{key}.pg"]
        c = objs["checkers"][key]
        a, p = c["alphabet"], objs[key]
        if command == "axioms":
            return {"argv": ["axioms", f, "--json"], "kind": "axioms", "key": key}
        if command.startswith("conj"):
            expected = command == "conj+"
            # even lengths: cyclically reduced words over an amalgam alternate factors
            pg = c["words"].cyclically_reduced(rng, rng.choice((2, 4)))
            pv = pg if expected else gen.negative_for(rng, c["words"], c["inv"], pg)
            u = gen.to_gamma(pg, p)
            v = gen.conjugate_of(rng, pv, p, a, c["carry"], max_conj=(12 - len(pg)) // 2)
            argv = ["conj", f, "-u", a.format(u), "-v", a.format(v), "--json"]
            return {"argv": argv, "kind": "conj", "key": key, "u": u, "v": v,
                    "expected": expected}
        w = gen.random_gamma(rng, len(a), 12) or (0,)
        return {"argv": [command, f, "-w", a.format(w)], "kind": command, "key": key, "w": w}

    def cycle(self, objs, rng, index):
        files = objs["files"]
        ops = []
        for command in ("axioms", "reduce", "nf", "cyclic-reduce", "conj+", "conj-"):
            ops.append(self._query(objs, rng, "small", command))
        ops.append({"argv": ["from-amalgam", "-a", files["z4.grp"], "-b", files["z6.grp"],
                             "--ha", "H", "--hb", "H"], "kind": "from-amalgam", "size": 8})
        ops.append(self._complete(objs, "cdagger"))
        ops.append({"argv": ["from-hnn", files["s3.grp"], "--sub-a", "A", "--sub-b", "A"],
                    "kind": "from-hnn", "size": 6 + 2 * 3 * 6})
        ops.append(self._query(objs, rng, "mid", "axioms"))
        for command in ("reduce", "nf", "conj+") * 3 + ("conj-",) * 3:
            ops.append(self._query(objs, rng, "mid", command))
        ops.append(self._complete(objs, "hat"))
        for _ in range(3):
            ops.append(self._query(objs, rng, "mid", "cyclic-reduce"))
        for _ in range(5):
            ops.append(self._complete(objs, "cstar"))
        rotation = self.big_rotation[index % len(self.big_rotation)]
        ops.append(self._query(objs, rng, "big", "conj+" if rotation == "conj" else rotation))
        rng.shuffle(ops)
        return ops

    def _complete(self, objs, mode):
        return {"argv": ["complete", objs["files"]["s_eps.rws"], "--mode", mode],
                "kind": "complete", "mode": mode}

    def call(self, objs, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return code, out.getvalue(), err.getvalue()

    def _context(self, objs, key):
        ctx = objs["contexts"].get(key)
        if ctx is None:
            ctx = objs["contexts"][key] = universal.UniversalContext(objs[key])
        return ctx

    def check(self, objs, op, result):
        code, out, err = result
        kind = op["kind"]
        expected_code = 0 if op.get("expected", True) else 1
        if code != expected_code:
            return f"{kind}: exit {code}, expected {expected_code}: {err.strip()[:200]}"
        if kind in ("from-amalgam", "from-hnn"):
            size = len(formats.parse_pg(out))
            return None if size == op["size"] else f"{kind}: |P| = {size}, expected {op['size']}"
        if kind == "complete":
            return _check_complete(objs, op["mode"], out)
        key = op["key"]
        p = objs[key]
        if kind == "axioms":
            payload = json.loads(out)
            if not all(payload["axioms"][a]["ok"] for a in ("P1", "P2", "P3", "P4", "P5")):
                return "axioms: a valid pregroup reported a violation"
            want = len(p.base_h) if key != "small" else len(p.subgroup_h)
            return None if len(payload["G_P"]) == want else "axioms: wrong G_P size"
        ctx = self._context(objs, key)
        inv = objs["checkers"][key]["inv"]
        if kind == "conj":
            payload = json.loads(out)
            cert = payload["certificate"]
            answer = universal.ConjugacyAnswer(
                payload["verdict"], None if cert is None else ctx.alphabet.parse(cert)
            )
            return check_conjugacy(ctx, inv, op["u"], op["v"], op["expected"], answer)
        got = ctx.alphabet.parse(out.strip())
        pw, pgot = gen.to_p(op["w"], p), gen.to_p(got, p)
        if not pregroup.is_reduced(got, p):
            return f"{kind}: output not reduced"
        if kind == "cyclic-reduce":
            if len(got) > 1 and p.table[pgot[-1]][pgot[0]] is not None:
                return "cyclic-reduce: output not cyclically reduced"
            if inv.separates(pw, pgot):
                return "cyclic-reduce: invariant class changed"
            want = universal.cyclic_reduce(op["w"], ctx).canon
        else:
            if inv.image(pw) != inv.image(pgot):
                return f"{kind}: invariant image changed"
            if not universal.equal_in_U(got, op["w"], ctx):
                return f"{kind}: output not equal to input in U(P)"
            if kind == "reduce":
                return None
            want = universal.shortlex_nf(op["w"], ctx)
        return None if got == want else f"{kind}: got {got}, library gives {want}"


# rules of the hat extension of S_eps(HNN(Z4, Z2)), pinned like COMPLETE_PINS
HAT_RULES = 8617


def _check_complete(objs, mode, out):
    system, pairs = formats.parse_rws(out)
    pins = COMPLETE_PINS["hnn_z4_z2"]
    if mode == "hat":
        got, want = (len(system.rules), len(pairs)), (HAT_RULES, 0)
    else:
        got = (len(system.rules), len(pairs), pairs_digest(pairs))
        want = (len(objs["rws"].rules), pins[f"{mode}_pairs"], pins[f"{mode}_digest"])
    return None if got == want else f"complete {mode}: got {got}, expected {want}"


WORKLOADS = {w.name: w for w in (Conj(), Complete(), Cli())}
