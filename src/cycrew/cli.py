"""Command-line interface.

Answers go to stdout, diagnostics to stderr.  Exit codes: 0 success/yes,
1 negative verdict (axiom violation, not conjugate), 2 usage/parse/
precondition error, 3 inconclusive (oracle ran out of conjugator length).
main is the one place that turns an error into exit 2 and its "error: "
line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import completion as completion_mod
from .constructions import InvalidEmbedding, amalgam_pregroup, hnn_pregroup
from .formats import ParseError, emit_pg, emit_rws, parse_grp, parse_pg, parse_rws
from .pregroup import canonical_subgroup, check_axioms, check_p6, check_p7, check_p8
from .rewrite import reduce_greedy
from .universal import (
    UniversalContext,
    cyclic_reduce,
    conjugate_quadratic,
    reduce_word,
    shortlex_nf,
)
from .fastconj import conjugate_linear, conjugate_oracle


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from None


def _write(path, text: str) -> None:
    """Write text to the file at path, or to stdout when path is empty."""
    if not path:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(str(exc)) from None


def _context(path: str) -> UniversalContext:
    return UniversalContext(parse_pg(_read(path)))


def cmd_axioms(args) -> int:
    p = parse_pg(_read(args.file))
    report = check_axioms(p)
    payload = {
        "axioms": {
            name: {"ok": report.ok(name), "witnesses": [p.tokens(w) for w in v[:5]]}
            for name, v in report.violations.items()
        },
    }
    # P6-P8 and G_P mean something only on a table that satisfies P1-P5
    checked = report.ok()
    for name, check in (("P6", check_p6), ("P7", check_p7), ("P8", check_p8)):
        ok, witnesses = check(p) if checked else (None, [])
        payload[name] = {"ok": ok, "witnesses": [p.tokens(w) for w in witnesses[:5]]}
    payload["G_P"] = list(p.tokens(sorted(canonical_subgroup(p)))) if checked else []
    if args.json:
        print(json.dumps(payload))
    else:
        checks = dict(payload["axioms"], P6=payload["P6"], P7=payload["P7"], P8=payload["P8"])
        for name, info in checks.items():
            if info["ok"] is None:
                status = "not checked (P1-P5 fail)"
            else:
                status = "ok" if info["ok"] else f"FAIL {info['witnesses']}"
            print(f"{name}: {status}")
        print("G_P = {" + ", ".join(payload["G_P"]) + "}")
    return 0 if checked else 1


# The word queries: command -> (help, its query on a word over a .pg file);
# reduce reads a .rws file by greedy reduction instead
_WORD_QUERIES = {
    "reduce": ("greedy reduction (.pg or .rws)", reduce_word),
    "nf": ("shortlex normal form over a .pg file", shortlex_nf),
    "cyclic-reduce": (
        "cyclically reduce over a .pg file",
        lambda w, ctx: cyclic_reduce(w, ctx).canon,
    ),
}


def cmd_word_query(args) -> int:
    if args.command == "reduce" and args.file.endswith(".rws"):
        system, _pairs = parse_rws(_read(args.file))
        w = system.alphabet.parse(args.word)
        print(system.alphabet.format(reduce_greedy(w, system)))
        return 0
    ctx = _context(args.file)
    _help, query = _WORD_QUERIES[args.command]
    print(ctx.alphabet.format(query(ctx.alphabet.parse(args.word), ctx)))
    return 0


# --algo: the decision procedure; only the oracle reads --max-conj-len
_CONJ_ALGOS = {
    "linear": conjugate_linear,
    "quadratic": conjugate_quadratic,
    "oracle": conjugate_oracle,
}


def cmd_conj(args) -> int:
    ctx = _context(args.file)
    u = ctx.alphabet.parse(args.u)
    v = ctx.alphabet.parse(args.v)
    bound = (args.max_conj_len,) if args.algo == "oracle" else ()
    answer = _CONJ_ALGOS[args.algo](u, v, ctx, *bound)
    if answer is None:  # the oracle ran out of conjugator length
        verdict, cert, method = None, None, "oracle"
    else:
        verdict, method = answer.verdict, answer.method
        cert = None if answer.certificate is None else ctx.alphabet.format(answer.certificate)
    if args.json:
        print(json.dumps({"verdict": verdict, "certificate": cert, "method": method}))
    elif verdict is None:
        print("inconclusive")
    elif verdict:
        print(f"yes  conjugator: {cert if cert else '1'}")
    else:
        print("no")
    return 3 if verdict is None else 0 if verdict else 1


# --mode: an extension returns a system, a completion a CyclicRuleSet
_COMPLETE_MODES = {
    "hat": completion_mod.hat_extension,
    "circle": completion_mod.circle_extension,
    "cstar": completion_mod.resolve_short_pairs,
    "cdagger": completion_mod.cdagger,
}


def cmd_complete(args) -> int:
    system, cyclic_pairs = parse_rws(_read(args.file))
    if cyclic_pairs:
        # every mode completes the [rules] alone
        raise ParseError(
            f"complete reads no [cyclic-rules] section and would drop the "
            f"{len(cyclic_pairs)} pair(s) in {args.file}"
        )
    out = _COMPLETE_MODES[args.mode](system)
    if isinstance(out, completion_mod.CyclicRuleSet):
        out, cyclic_pairs = out.base, out.extra
    _write(args.output, emit_rws(out, cyclic_pairs))
    return 0


def _subgroup_tokens(spec: str, subgroups: dict):
    if spec in subgroups:
        return list(subgroups[spec])
    return spec.replace(",", " ").split()


def _token_pairs(flag: str, spec: str) -> dict:
    """The x:y entries of a comma-separated --map or --phi value; an x given
    twice is an error."""
    pairs = {}
    for chunk in spec.split(","):
        x, sep, y = chunk.partition(":")
        if not sep:
            raise InvalidEmbedding(f"{flag} entry {chunk.strip()!r} is not of the form x:y")
        x = x.strip()
        if x in pairs:
            raise InvalidEmbedding(f"{flag} gives {x!r} twice")
        pairs[x] = y.strip()
    return pairs


def cmd_from_amalgam(args) -> int:
    A, subs_a, _maps_a = parse_grp(_read(args.a))
    B, subs_b, _maps_b = parse_grp(_read(args.b))
    ha = _subgroup_tokens(args.ha, subs_a)
    hb = _subgroup_tokens(args.hb, subs_b)
    phi = dict(zip(ha, hb)) if args.map is None else _token_pairs("--map", args.map)
    _write(args.output, emit_pg(amalgam_pregroup(A, B, ha, hb, phi)))
    return 0


def cmd_from_hnn(args) -> int:
    H, subs, maps = parse_grp(_read(args.file))
    sub_a = _subgroup_tokens(args.sub_a, subs)
    sub_b = _subgroup_tokens(args.sub_b, subs)
    if args.phi is not None:
        phi = _token_pairs("--phi", args.phi)
    elif (args.sub_a, args.sub_b) in maps:
        phi = maps[(args.sub_a, args.sub_b)]
    else:
        phi = dict(zip(sub_a, sub_b))
    _write(args.output, emit_pg(hnn_pregroup(H, sub_a, sub_b, phi)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycrew",
        description="Rewriting on cyclic words, pregroups, and conjugacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="check pregroup axioms of a .pg file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_axioms)

    for name, (help_text, _query) in _WORD_QUERIES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("-w", "--word", required=True)
        p.set_defaults(func=cmd_word_query)

    p = sub.add_parser("conj", help="decide conjugacy over a .pg file")
    p.add_argument("file")
    p.add_argument("-u", required=True)
    p.add_argument("-v", required=True)
    p.add_argument("--algo", choices=tuple(_CONJ_ALGOS), default="linear")
    p.add_argument("--max-conj-len", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("complete", help="extend or complete a .rws system")
    p.add_argument("file")
    p.add_argument("--mode", choices=tuple(_COMPLETE_MODES), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("from-amalgam", help="build an amalgam pregroup .pg")
    p.add_argument("-a", required=True, help="factor A .grp file")
    p.add_argument("-b", required=True, help="factor B .grp file")
    p.add_argument("--ha", required=True, help="H inside A: subgroup name or token list")
    p.add_argument("--hb", required=True, help="H inside B: subgroup name or token list")
    p.add_argument("--map", help="isomorphism 'x:y,...' from H in A to H in B")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_from_amalgam)

    p = sub.add_parser("from-hnn", help="build an HNN pregroup .pg")
    p.add_argument("file", help="base group .grp file")
    p.add_argument("--sub-a", required=True)
    p.add_argument("--sub-b", required=True)
    p.add_argument("--phi", help="isomorphism 'x:y,...'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_from_hnn)

    return parser


# parse_args leaves the parser unchanged, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
