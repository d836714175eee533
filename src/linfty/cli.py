"""
Batch command line: verify structure files, compute restrictions and
compositions, print unshuffle tables, run the combinatorial oracle, and emit
the built-in fixture bundles.

Exit codes are uniform across commands: 0 on success, 1 on a mathematical
failure (a nonzero residual, an oracle mismatch), 2 on input errors.
Warnings (canonicalized entries, unverified inputs) go to stderr and never
change the exit code by themselves.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings as _warnings
from pathlib import Path
from typing import List, Optional, Tuple

from . import fixtures as _fixtures
from .gfa import Elem
from .jsonio import (KINDS, Bundle, FormatError, digest, kind_of, merge_bundles, parse_bundle,
                     serialize_bundle)
# oracle and perm are imported inside the commands that use them.  restrict
# must stay here although only one command runs it: bench/tracing.py's
# Tracer.install imports each module it wraps, in turn, after wrapping
# structures; a restrict first imported then binds the wrappers of
# structures.first_failure and structures.compose, and Tracer.remove, which
# restores only the bindings it replaced, leaves them in place.
from .restrict import (
    RestrictionContext,
    RestrictionError,
    UnverifiedInputWarning,
    context,
    restrict_module,
    restrict_morphism,
)
from .structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    complete_bound,
    compose as compose_morphisms,
    first_failure,
)

OK, MATH_FAIL, INPUT_ERROR = 0, 1, 2


def _thread_cap() -> int:
    """1: verification is serial.  This stays only because the benchmark
    prints it with each run."""
    return 1


def _read(paths: List[str]) -> List[Tuple[str, Bundle]]:
    """Each file's text and parsed bundle, read once.  One unbuffered binary
    read, decoded, takes about a third of the time of Path.read_text, which
    wraps the same system calls in pathlib and a text-mode reader; line
    ends are then read as that reader reads them, CRLF and a lone CR as LF,
    so an input's digest does not depend on them."""
    out = []
    for p in paths:
        try:
            with open(p, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            out.append((text, parse_bundle(text)))
        except (OSError, UnicodeDecodeError, FormatError) as exc:
            raise FormatError(f"{p}: {exc}") from None
    return out


def _merge(read: List[Tuple[str, Bundle]]) -> Bundle:
    merged = merge_bundles([bundle for _, bundle in read])
    for w in merged.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return merged


def _write(path: str, text: str) -> None:
    """Write text to the path, or to stdout when the path is '-'."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _witness_doc(n: int, key: tuple, value: Elem) -> dict:
    return {"arity": n, "inputs": [list(b) for b in key],
            "value": {"degree": value.degree,
                      "elements": [[value.degree, i] for i in value.indices()]}}


def cmd_verify(args) -> int:
    if args.max_arity is not None and args.max_arity < 1:
        raise ValueError(f"--max-arity must be >= 1, got {args.max_arity}")
    bundle = _merge(_read(args.paths))
    items = [(name, st) for name, st in sorted(bundle.structures.items())
             if args.kind in (None, kind_of(st))]
    if not items:
        raise FormatError("nothing to verify")
    report = {"results": []}
    bad = False
    lines = sys.stderr if args.report == "-" else sys.stdout  # stdout holds the report alone
    for name, st in items:
        bound = complete_bound(st)
        N = bound if args.max_arity is None else args.max_arity
        if N < bound:
            print(f"warning: {name}: --max-arity {N} is below the complete bound {bound}; "
                  "the check is not exhaustive", file=sys.stderr)
        failure = first_failure(st, N)
        kind = kind_of(st)
        result = {"name": name, "kind": kind, "max_arity": N, "exhaustive": N >= bound,
                  "ok": failure is None}
        if failure is None:
            print(f"ok    {name} ({kind}): residuals zero for n <= {N}", file=lines)
        else:
            bad = True
            n, key, value = failure
            elems = " + ".join(f"({value.degree},{i})" for i in value.indices())
            print(f"FAIL  {name} ({kind}): arity {n}, inputs {list(key)} -> {elems}", file=lines)
            result["witness"] = _witness_doc(n, key, value)
        report["results"].append(result)
    report["max_arity"] = max(r["max_arity"] for r in report["results"])
    if args.report:
        _write(args.report, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return MATH_FAIL if bad else OK


def _pick(bundle: Bundle, cls, name: Optional[str], what: str):
    named = bundle.of_kind(cls)
    if name is not None:
        if name not in named:
            raise FormatError(f"no {what} named {name!r} in the inputs")
        return name, named[name]
    if len(named) != 1:
        raise FormatError(
            f"expected exactly one {what} in the inputs, found {sorted(named)}; "
            f"use the name option to disambiguate")
    return next(iter(named.items()))


def cmd_restrict(args) -> int:
    read = _read([args.morphism, args.module] + (args.also_morphism or []))
    bundle = _merge(read)
    mor_name, morphism = _pick(bundle, LinfMorphism, args.morphism_name, "algebra morphism")
    mod_name, module = _pick(bundle, LinfModule, args.module_name, "module")

    verify = not args.no_verify
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        ctx = context(morphism) if verify else \
            RestrictionContext(morphism, morphism.max_arity, False)
        out = Bundle()
        out.spaces = dict(bundle.spaces)
        out.structures = {name: st for name, st in bundle.structures.items()
                          if isinstance(st, LinfAlgebra)}
        try:
            out.structures[f"{mod_name}_restricted"] = restrict_module(ctx, module, verify=verify)
            for _, extra in read[2:]:
                # the extra file was already merged; restrict every module
                # morphism it brought along
                for name, st in extra.structures.items():
                    if isinstance(st, ModuleMorphism):
                        res = restrict_morphism(ctx, st, verify=verify)
                        out.structures[f"{name}_restricted_source"] = res.source
                        out.structures[f"{name}_restricted_target"] = res.target
                        out.structures[f"{name}_restricted"] = res
        except RestrictionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return MATH_FAIL
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    verified = verify and not any(issubclass(w.category, UnverifiedInputWarning) for w in caught)

    provenance = {
        "command": "restrict",
        "inputs": {"morphism": digest(read[0][0]), "module": digest(read[1][0])},
        "max_arity": morphism.max_arity,
        "verified": verified,
    }
    _write(args.output, serialize_bundle(out, provenance=provenance))
    return OK


def cmd_compose(args) -> int:
    bundle = _merge(_read(args.paths))
    f_name, f = _pick(bundle, ModuleMorphism, args.f, "module morphism (inner)")
    g_name, g = _pick(bundle, ModuleMorphism, args.g, "module morphism (outer)")
    composed = compose_morphisms(g, f)
    out = Bundle()
    out.spaces = dict(bundle.spaces)
    keep = {f.source, f.target, g.source, g.target, f.source.algebra}
    for name, st in bundle.structures.items():
        if isinstance(st, (LinfAlgebra, LinfModule)) and st in keep:
            out.structures[name] = st
    out.structures[f"{g_name}_after_{f_name}"] = composed
    _write(args.output, serialize_bundle(out, provenance={"command": "compose",
                                                          "f": f_name, "g": g_name}))
    return OK


def cmd_unshuffles(args) -> int:
    from .perm import BlockSpec, filtered_unshuffles, one_line, primed_unshuffles, unshuffles

    spec = BlockSpec(tuple(args.sizes))
    if args.primed:
        perms = primed_unshuffles(spec)
    else:
        perms = unshuffles(spec)
    if args.anchor:
        # filtered_unshuffles checks the anchor's range for both families
        anchored = set(filtered_unshuffles(spec, *args.anchor))
        perms = [s for s in perms if s in anchored]
    for s in perms:
        print(one_line(s))
    return OK


def cmd_lemma4(args) -> int:
    from .oracle import lemma4_lhs, lemma4_rhs

    lhs, rhs = lemma4_lhs(args.n), lemma4_rhs(args.n)
    equal = lhs == rhs
    print(f"n={args.n}: lhs {sum(lhs.values())} summands, "
          f"rhs {sum(rhs.values())} summands: {'PASS' if equal else 'FAIL'}")
    if args.dump:
        for label, side in (("lhs", lhs), ("rhs", rhs)):
            print(f"# {label}")
            for form in sorted(_format_operator(op) + (f" x{c}" if c > 1 else "")
                               for op, c in side.items()):
                print(form)
    return OK if equal else MATH_FAIL


def _format_operator(op) -> str:
    items = [("(" + ",".join(map(str, b)) + ")") for b in op.blocks]
    items.insert(op.module_index, "m")
    return " ".join(items)


def cmd_fixtures(args) -> int:
    names = sorted(_fixtures.FIXTURES) if args.name == "all" else [args.name]
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        bundle = _fixtures.build(name)
        path = outdir / f"{name}.json"
        path.write_text(serialize_bundle(bundle))
        print(f"wrote {path}")
    return OK


def _anchor(text: str) -> Tuple[int, int]:
    try:
        p, v = text.split("=")
        return int(p), int(v)
    except ValueError:
        raise argparse.ArgumentTypeError("anchor must look like P=V") from None


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and reused by later calls."""
    parser = argparse.ArgumentParser(
        prog="linfty",
        description="verify and transform L-infinity structures over F2")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check every defining relation in the given bundles")
    p.add_argument("paths", nargs="+")
    p.add_argument("--max-arity", type=int, default=None,
                   help="check n <= N (default: each structure's complete bound, "
                        "from its highest nonzero operations)")
    p.add_argument("--kind", choices=list(KINDS))
    p.add_argument("--report", help="write the JSON report here ('-' for stdout, which then "
                   "holds the report alone: the ok/FAIL lines go to stderr)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("restrict", help="pull a module back along an algebra morphism")
    p.add_argument("--morphism", required=True, help="bundle file holding the algebra morphism")
    p.add_argument("--module", required=True, help="bundle file holding the module")
    p.add_argument("--morphism-name")
    p.add_argument("--module-name")
    p.add_argument("--also-morphism", action="append",
                   help="bundle file with module morphisms to restrict as well")
    p.add_argument("-o", "--output", required=True, help="output path ('-' for stdout)")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("compose", help="compose two module morphisms")
    p.add_argument("paths", nargs="+")
    p.add_argument("--f", help="name of the inner morphism")
    p.add_argument("--g", help="name of the outer morphism")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("unshuffles", help="enumerate an unshuffle family")
    p.add_argument("sizes", nargs="+", type=int)
    p.add_argument("--primed", action="store_true")
    p.add_argument("--anchor", type=_anchor, default=None, metavar="P=V")
    p.set_defaults(fn=cmd_unshuffles)

    p = sub.add_parser("lemma4", help="compare the two unshuffle presentations as multisets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump", action="store_true")
    p.set_defaults(fn=cmd_lemma4)

    p = sub.add_parser("fixtures", help="write a named fixture bundle")
    p.add_argument("name", choices=sorted(_fixtures.FIXTURES) + ["all"])
    p.add_argument("-o", "--output", default=".")
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
