"""Span recorder for the traced run.

The tracer wraps cross-module call boundaries of ``cycrew`` from outside:
each target name is replaced, in every ``cycrew`` module that bound it, by a
wrapper that records a span (name, start, end, parent) in memory, or only a
call count for leaves that run about a million times per pass.  Self time of
a span is its duration minus the time its child spans cover, so the self
times of all spans add up to the wall time of the benchmark's root spans.
"""

from __future__ import annotations

import collections
import sys
import time

from cycrew import completion, constructions, fastconj, formats, pregroup, rewrite, universal, words
from cycrew import cli

# (owner, attribute, span name, mode); mode "span" records a timed span,
# "count" only counts calls.  Owners that are classes get the attribute
# replaced on the class.
TARGETS = (
    (words.CyclicWord, "of", "words.canonicalize", "count"),
    (rewrite, "check_strong_confluence", "rewrite.check_strong_confluence", "span"),
    (rewrite, "cyclic_successors", "rewrite.cyclic_successors", "span"),
    (rewrite, "word_successors", "rewrite.word_successors", "count"),
    (rewrite, "_strongly_joinable", "rewrite.strongly_joinable", "count"),
    (rewrite.RewriteSystem, "__init__", "rewrite.system_init", "span"),
    (completion, "thue_completion", "completion.thue_completion", "span"),
    (completion, "resolve_short_pairs", "completion.resolve_short_pairs", "span"),
    (completion, "cdagger", "completion.cdagger", "span"),
    (completion.CyclicRuleSet, "one_step", "completion.one_step", "count"),
    (completion, "_descending_closure", "completion.closure", "count"),
    (completion, "_thue_reachable", "completion.closure", "count"),
    (pregroup, "check_axioms", "pregroup.check_axioms", "span"),
    (pregroup, "check_p6", "pregroup.check_p678", "span"),
    (pregroup, "check_p7", "pregroup.check_p678", "span"),
    (pregroup, "check_p8", "pregroup.check_p678", "span"),
    (pregroup, "derive_system", "pregroup.derive_system", "span"),
    (universal, "_nf_carries", "universal.nf_carries", "span"),
    (universal, "_interleaving_equal", "universal.interleaving_equal", "span"),
    (universal, "_stack_reduce", "universal.stack_reduce", "span"),
    (universal, "_canonical_traced", "universal.canonical", "span"),
    (universal, "_certify", "universal.certify", "span"),
    (universal, "_letter_closure_traced", "universal.letter_closure", "count"),
    (universal.UniversalContext, "__init__", "universal.context", "span"),
    (fastconj, "conjugate_linear", "fastconj.conjugate_linear", "span"),
    (fastconj, "kmp_search", "fastconj.kmp", "span"),
    (constructions, "hnn_pregroup", "constructions.hnn_pregroup", "span"),
    (constructions, "amalgam_pregroup", "constructions.amalgam_pregroup", "span"),
    (formats, "parse_pg", "formats.parse", "span"),
    (formats, "parse_rws", "formats.parse", "span"),
    (formats, "parse_grp", "formats.parse", "span"),
    (formats, "emit_pg", "formats.emit", "span"),
    (formats, "emit_rws", "formats.emit", "span"),
    (formats, "emit_grp", "formats.emit", "span"),
    (cli, "main", "cli.main", "span"),
)


class Tracer:
    """In-memory spans plus per-name aggregates, filled by the wrappers."""

    def __init__(self):
        self.names = []  # span name id -> name
        self._ids = {}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.extra = collections.Counter()  # letters, matches, hits, ...
        self.pair_hashes = set()
        self._stack = []  # open span indices
        self._child = []  # child time covered, per open span
        self._undo = []

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.name_id(name), time.perf_counter(), None, parent))
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def end(self, idx: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        covered = self._child.pop()
        nid, t0, _end, parent = self.spans[idx]
        self.spans[idx] = (nid, t0, t1, parent)
        d = t1 - t0
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += d - covered
        if self._child:
            self._child[-1] += d

    def span_wrapper(self, name, fn, hook):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def count_wrapper(self, name, fn, hook):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            if hook is not None:
                hook(self, args)
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Replace every target, in every cycrew module that bound it."""
        for owner, attr, name, mode in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, mode, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, mode, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "cycrew":
                    continue
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, mode, fn):
        if mode == "span":
            return self.span_wrapper(name, fn, SPAN_HOOKS.get(name))
        return self.count_wrapper(name, fn, COUNT_HOOKS.get(name))

    # -- output --------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (nid, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{t0!r}\t{t1!r}\t{parent}\n")

    def outer_seconds(self) -> dict:
        """Inclusive time per name, counting only spans not nested in a span
        of the same name."""
        out = collections.defaultdict(float)
        spans = self.spans
        for nid, t0, t1, parent in spans:
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                out[self.names[nid]] += t1 - t0
        return out

    def child_counts(self, child: str, parent: str) -> int:
        """Spans named child whose direct parent span is named parent."""
        c, p = self._ids.get(child), self._ids.get(parent)
        if c is None or p is None:
            return 0
        spans = self.spans
        return sum(1 for nid, _a, _b, par in spans if nid == c and par >= 0 and spans[par][0] == p)


def _letters(tracer, args, _result, key):
    tracer.extra[key] += len(args[0])


def _thue_result(tracer, _args, result):
    crs, stage = result
    tracer.extra["completion.extra_pairs"] += len(crs.extra)
    tracer.extra["completion.stage"] = max(tracer.extra["completion.stage"], stage)


def _derive_rules(tracer, _args, result):
    tracer.extra["pregroup.derive_system.rules"] += len(result.rules)


def _kmp_matches(tracer, _args, result):
    tracer.extra["fastconj.kmp.matches"] += len(result)


def _closure_hit(tracer, args):
    # (c, crs, cache): a hit when the key is already in the cache passed in
    if args[0] in args[2]:
        tracer.extra["completion.closure.hits"] += 1


def _pair_seen(tracer, args):
    tracer.pair_hashes.add(hash((args[0], args[1])))


SPAN_HOOKS = {
    "universal.nf_carries": lambda t, a, r: _letters(t, a, r, "universal.nf_carries.letters"),
    "universal.interleaving_equal": lambda t, a, r: _letters(
        t, a, r, "universal.interleaving_equal.letters"
    ),
    "completion.thue_completion": _thue_result,
    "pregroup.derive_system": _derive_rules,
    "fastconj.kmp": _kmp_matches,
}
COUNT_HOOKS = {
    "completion.closure": _closure_hit,
    "rewrite.strongly_joinable": _pair_seen,
}

# roots opened by the benchmark itself; their self time is the benchmark's own
BENCH_ROOTS = ("bench.setup", "bench.loop")


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer metrics from one traced run; every name is always present
    (zero where the workload does not reach the layer)."""
    calls, self_s, extra = tracer.calls, tracer.self_s, tracer.extra
    outer = tracer.outer_seconds()
    decisions = calls["fastconj.conjugate_linear"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "words.canonicalize.calls": calls["words.canonicalize"],
        "rewrite.check_strong_confluence.s": outer["rewrite.check_strong_confluence"],
        "rewrite.cyclic_successors.calls": calls["rewrite.cyclic_successors"],
        "rewrite.cyclic_successors.self_s": self_s["rewrite.cyclic_successors"],
        "rewrite.word_successors.calls": calls["rewrite.word_successors"],
        "rewrite.strongly_joinable.calls": calls["rewrite.strongly_joinable"],
        "rewrite.strongly_joinable.unique_ratio": ratio(
            len(tracer.pair_hashes), calls["rewrite.strongly_joinable"]
        ),
        "rewrite.system_init.s": outer["rewrite.system_init"],
        "completion.thue_completion.s": outer["completion.thue_completion"],
        "completion.resolve_short_pairs.s": outer["completion.resolve_short_pairs"],
        "completion.cdagger.s": outer["completion.cdagger"],
        "completion.one_step.calls": calls["completion.one_step"],
        "completion.closure.calls": calls["completion.closure"],
        "completion.closure.hit_ratio": ratio(
            extra["completion.closure.hits"], calls["completion.closure"]
        ),
        "completion.stage": extra["completion.stage"],
        "completion.extra_pairs": ratio(extra["completion.extra_pairs"], cycles),
        "pregroup.check_axioms.s": outer["pregroup.check_axioms"],
        "pregroup.check_p678.s": outer["pregroup.check_p678"],
        "pregroup.derive_system.s": outer["pregroup.derive_system"],
        "pregroup.derive_system.rules": extra["pregroup.derive_system.rules"],
        "universal.nf_carries.calls": calls["universal.nf_carries"],
        "universal.nf_carries.self_s": self_s["universal.nf_carries"],
        "universal.nf_carries.letters": extra["universal.nf_carries.letters"],
        "universal.interleaving_equal.calls": calls["universal.interleaving_equal"],
        "universal.interleaving_equal.self_s": self_s["universal.interleaving_equal"],
        "universal.interleaving_equal.letters": extra["universal.interleaving_equal.letters"],
        "universal.stack_reduce.calls": calls["universal.stack_reduce"],
        "universal.stack_reduce.self_s": self_s["universal.stack_reduce"],
        "universal.canonical.self_s": self_s["universal.canonical"],
        "universal.certify.s": outer["universal.certify"],
        "universal.letter_closure.calls": calls["universal.letter_closure"],
        "universal.context.s": outer["universal.context"],
        "fastconj.conjugate_linear.self_s": self_s["fastconj.conjugate_linear"],
        "fastconj.b_tried": tracer.child_counts(
            "universal.stack_reduce", "fastconj.conjugate_linear"
        ),
        "fastconj.nf_per_decision": ratio(
            tracer.child_counts("universal.nf_carries", "fastconj.conjugate_linear"), decisions
        ),
        "fastconj.kmp.calls": calls["fastconj.kmp"],
        "fastconj.kmp.self_s": self_s["fastconj.kmp"],
        "fastconj.kmp.matches": extra["fastconj.kmp.matches"],
        "constructions.hnn_pregroup.s": outer["constructions.hnn_pregroup"],
        "constructions.amalgam_pregroup.s": outer["constructions.amalgam_pregroup"],
        "formats.parse.s": outer["formats.parse"],
        "formats.emit.s": outer["formats.emit"],
        "cli.main.self_s": self_s["cli.main"],
    }
    bench_self = sum(self_s[name] for name in BENCH_ROOTS)
    m["trace.wall_s"] = sum(outer[name] for name in BENCH_ROOTS)
    m["trace.bench_self_s"] = bench_self
    m["trace.layers_self_s"] = sum(self_s.values()) - bench_self
    return m


def top_self(tracer: Tracer, k: int = 5) -> list:
    """The k names with the most self time, benchmark roots excluded."""
    items = [(s, n) for n, s in tracer.self_s.items() if n not in BENCH_ROOTS]
    return [(n, s) for s, n in sorted(items, reverse=True)[:k]]
