"""Command-line interface.

Answers go to stdout, diagnostics to stderr.  Exit codes: 0 success/yes,
1 negative verdict (axiom violation, not conjugate), 2 usage/parse/
precondition error, 3 inconclusive (oracle ran out of conjugator length).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import completion as completion_mod
from .constructions import (
    Embedding,
    FiniteGroupTable,
    InvalidEmbedding,
    amalgam_pregroup,
    hnn_pregroup,
)
from .formats import ParseError, emit_pg, emit_rws, parse_grp, parse_pg, parse_rws
from .pregroup import (
    PregroupError,
    canonical_subgroup,
    check_axioms,
    check_p6,
    check_p7,
    check_p8,
)
from .rewrite import BudgetExhausted, reduce_greedy
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
    try:
        for name, check in (("P6", check_p6), ("P7", check_p7), ("P8", check_p8)):
            ok, witnesses = check(p)
            payload[name] = {"ok": ok, "witnesses": [p.tokens(w) for w in witnesses[:5]]}
        payload["G_P"] = list(p.tokens(sorted(canonical_subgroup(p))))
    except PregroupError as exc:
        if report.ok():
            raise
        # P6-P8 and G_P presuppose P1-P5, which fail on this table
        print(f"note: {exc}", file=sys.stderr)
        for name in ("P6", "P7", "P8"):
            payload[name] = {"ok": None, "witnesses": []}
        payload["G_P"] = []
    if args.json:
        print(json.dumps(payload))
    else:
        for name in ("P1", "P2", "P3", "P4", "P5"):
            info = payload["axioms"][name]
            status = "ok" if info["ok"] else f"FAIL {info['witnesses']}"
            print(f"{name}: {status}")
        for name in ("P6", "P7", "P8"):
            info = payload[name]
            if info["ok"] is None:
                status = "not checked (P1-P5 fail)"
            else:
                status = "ok" if info["ok"] else f"FAIL {info['witnesses']}"
            print(f"{name}: {status}")
        print("G_P = {" + ", ".join(payload["G_P"]) + "}")
    return 0 if report.ok() else 1


def cmd_reduce(args) -> int:
    if args.file.endswith(".rws"):
        system, _pairs = parse_rws(_read(args.file))
        w = system.alphabet.parse(args.word)
        try:
            print(system.alphabet.format(reduce_greedy(w, system, args.budget)))
        except BudgetExhausted as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0
    ctx = _context(args.file)
    print(ctx.alphabet.format(reduce_word(ctx.alphabet.parse(args.word), ctx)))
    return 0


def cmd_nf(args) -> int:
    ctx = _context(args.file)
    print(ctx.alphabet.format(shortlex_nf(ctx.alphabet.parse(args.word), ctx)))
    return 0


def cmd_cyclic_reduce(args) -> int:
    ctx = _context(args.file)
    c = cyclic_reduce(ctx.alphabet.parse(args.word), ctx)
    print(ctx.alphabet.format(c.canon))
    return 0


def cmd_conj(args) -> int:
    ctx = _context(args.file)
    u = ctx.alphabet.parse(args.u)
    v = ctx.alphabet.parse(args.v)
    if args.algo == "oracle":
        answer = conjugate_oracle(u, v, ctx, args.max_conj_len)
        if answer is None:
            if args.json:
                print(json.dumps({"verdict": None, "method": "oracle"}))
            else:
                print("inconclusive")
            return 3
    elif args.algo == "quadratic":
        answer = conjugate_quadratic(u, v, ctx)
    else:
        answer = conjugate_linear(u, v, ctx)
    cert = (
        ctx.alphabet.format(answer.certificate)
        if answer.certificate is not None
        else None
    )
    if args.json:
        print(
            json.dumps(
                {"verdict": answer.verdict, "certificate": cert, "method": answer.method}
            )
        )
    elif answer.verdict:
        print(f"yes  conjugator: {cert if cert else '1'}")
    else:
        print("no")
    return 0 if answer.verdict else 1


def cmd_complete(args) -> int:
    system, cyclic_pairs = parse_rws(_read(args.file))
    if cyclic_pairs:
        # every mode completes the [rules] alone
        raise ParseError(
            f"complete reads no [cyclic-rules] section and would drop the "
            f"{len(cyclic_pairs)} pair(s) in {args.file}"
        )
    if args.mode == "hat":
        out = completion_mod.hat_extension(system)
    elif args.mode == "circle":
        out = completion_mod.circle_extension(system)
    elif args.mode == "cstar":
        crs = completion_mod.resolve_short_pairs(system)
        out, cyclic_pairs = crs.base, crs.extra
    else:
        crs = completion_mod.cdagger(system)
        out, cyclic_pairs = crs.base, crs.extra
    _write(args.output, emit_rws(out, cyclic_pairs))
    return 0


def _subgroup_tokens(spec: str, subgroups: dict):
    if spec in subgroups:
        return list(subgroups[spec])
    return [t for t in spec.replace(",", " ").split() if t]


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
    if len(ha) != len(hb):
        raise InvalidEmbedding("subgroup token lists differ in size")
    if args.map:
        pairing = _token_pairs("--map", args.map)
        unknown = sorted(set(pairing) - set(ha))
        missing = [t for t in ha if t not in pairing]
        if unknown or missing:
            raise InvalidEmbedding(
                f"--map must pair every A-side subgroup token: unknown {unknown}, "
                f"missing {missing}"
            )
        hb = [pairing[t] for t in ha]
    unknown = [t for t in ha if t not in A.index]
    if unknown:
        raise InvalidEmbedding(f"--ha names elements not in A: {unknown}")
    # H as an abstract table carried by the A-side tokens
    h_set = {A.index[t] for t in ha}
    if not A.is_subgroup(h_set):
        raise InvalidEmbedding("listed elements are not a subgroup of A")
    H = FiniteGroupTable.from_function(
        ha, A.elements[A.eps], lambda x, y: A.elements[A.mul(A.index[x], A.index[y])]
    )
    iA = Embedding.from_tokens(H, A, {t: t for t in ha})
    iB = Embedding.from_tokens(H, B, dict(zip(ha, hb)))
    _write(args.output, emit_pg(amalgam_pregroup(A, B, iA, iB)))
    return 0


def cmd_from_hnn(args) -> int:
    H, subs, maps = parse_grp(_read(args.file))
    sub_a = _subgroup_tokens(args.sub_a, subs)
    sub_b = _subgroup_tokens(args.sub_b, subs)
    if args.phi:
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

    p = sub.add_parser("reduce", help="greedy reduction (.pg or .rws)")
    p.add_argument("file")
    p.add_argument("-w", "--word", required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("nf", help="shortlex normal form over a .pg file")
    p.add_argument("file")
    p.add_argument("-w", "--word", required=True)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("cyclic-reduce", help="cyclically reduce over a .pg file")
    p.add_argument("file")
    p.add_argument("-w", "--word", required=True)
    p.set_defaults(func=cmd_cyclic_reduce)

    p = sub.add_parser("conj", help="decide conjugacy over a .pg file")
    p.add_argument("file")
    p.add_argument("-u", required=True)
    p.add_argument("-v", required=True)
    p.add_argument("--algo", choices=("linear", "quadratic", "oracle"), default="linear")
    p.add_argument("--max-conj-len", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("complete", help="extend or complete a .rws system")
    p.add_argument("file")
    p.add_argument("--mode", choices=("hat", "circle", "cstar", "cdagger"), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("from-amalgam", help="build an amalgam pregroup .pg")
    p.add_argument("-a", required=True, help="factor A .grp file")
    p.add_argument("-b", required=True, help="factor B .grp file")
    p.add_argument("--ha", required=True, help="H inside A: subgroup name or token list")
    p.add_argument("--hb", required=True, help="H inside B: subgroup name or token list")
    p.add_argument("--map", help="explicit pairing 'x:y,...' from A-side to B-side")
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
