"""Command-line front end.

Commands: `field info`, `family gen`, `corr`, `verify`, `code weights`,
`census`.  All reports go to stdout (or --out) as JSON; human-oriented
side notes go to stderr.  Exit codes: 0 success, 1 validation failure or
claim mismatch, 2 usage error or refused resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import correlation as corr
from . import families as fam
from . import fieldeq, theory, verify
from .gf2n import (
    N_MAX,
    TABLE_MAX_N,
    FieldCtx,
    MalformedPolynomial,
    NonPrimitivePolynomial,
    TooLarge,
    UnsupportedN,
    half_odd,
    make_field,
    poly_from_hex,
)
from .quadform import InvalidK, valid_k

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class UnwritableOut(Exception):
    """--out names a path that cannot be opened for writing (a usage error)."""


def _open_out(path: str):
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise UnwritableOut(f"cannot write --out {path}: {exc.strerror}") from exc


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with _open_out(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_past_tables(args) -> None:
    """Every command but field info and spectral corr reads 2^n-entry field
    tables, which a context builds only up to TABLE_MAX_N; refuse a larger n
    before any work."""
    if args.n > TABLE_MAX_N:
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None),
                                         getattr(args, "engine", None))))
        raise TooLarge(f"{command} reads 2^n-entry field tables, built only for "
                       f"n <= {TABLE_MAX_N} (TABLE_MAX_N), not n = {args.n}; "
                       "past it only field info and spectral corr run")


def _field(args, tables: bool = True) -> FieldCtx:
    if tables:
        _refuse_past_tables(args)
    poly = poly_from_hex(args.poly) if args.poly else None
    return make_field(args.n, poly)


def _resolve_k(ctx: FieldCtx, args, kind: fam.FamilyKind) -> int:
    k = args.k
    if kind == fam.FamilyKind.LARGE_KASAMI:
        forced = ctx.half + 1
        if k is not None and k != forced:
            print(f"warning: --k {k} ignored; the large Kasami set fixes k = {forced}",
                  file=sys.stderr)
        return forced
    if kind == fam.FamilyKind.SMALL_KASAMI and k is None:
        return ctx.half + 1
    if k is None:
        k = 2 if half_odd(ctx.n) else 1
        print(f"note: --k not given, using k = {k}", file=sys.stderr)
    return k


def cmd_field_info(args) -> int:
    ctx = _field(args, tables=False)
    _emit(
        {
            "n": ctx.n,
            "poly": ctx.poly_hex,
            "order": ctx.order,
            "group_order": ctx.group_order,
            "alpha": ctx.element_label(ctx.alpha),
            "beta": {"label": ctx.element_label(ctx.beta), "value": ctx.beta},
            "subfield_order": 1 << ctx.half,
            "valid_k": [k for k in range(1, ctx.n) if valid_k(ctx.n, k)],
        },
        args.out,
    )
    return EXIT_OK


def cmd_family_gen(args) -> int:
    ctx = _field(args)
    kind = fam.FamilyKind(args.kind)
    k = _resolve_k(ctx, args, kind)
    params = fam.family_params(ctx, kind, k)
    family = fam.build_family(params)
    fam.member_blocks(family)  # refuses above FAMILY_MAX_N before --out is opened
    if args.out:
        with _open_out(args.out) as fh:
            count = fam.write_family(family, args.format, fh)
    else:
        count = fam.write_family(family, args.format, sys.stdout)
    print(f"family size {count} (kind {kind.value}, n = {ctx.n}, k = {params.k})",
          file=sys.stderr)
    return EXIT_OK


def cmd_corr(args) -> int:
    ctx = _field(args, tables=args.engine == "brute")
    kind = fam.FamilyKind(args.kind)
    k = _resolve_k(ctx, args, kind)
    params = fam.family_params(ctx, kind, k)
    if args.engine == "brute" and ctx.n > corr.BRUTE_DEFAULT_MAX_N and not args.force:
        print(
            f"refusing brute engine at n = {ctx.n} (cap {corr.BRUTE_DEFAULT_MAX_N}); "
            "pass --force to override",
            file=sys.stderr,
        )
        return EXIT_USAGE
    family = fam.build_family(params)
    if args.engine == "brute":
        report = corr.full_distribution_brute(family, jobs=args.jobs)
    else:
        report = corr.full_distribution_spectral(family)
    predicted = corr.predicted_histogram(family)
    obj = report.to_json_dict(predicted)
    _emit(obj, args.out)
    return EXIT_OK if obj["match"] else EXIT_MISMATCH


def cmd_verify(args) -> int:
    _refuse_past_tables(args)
    if args.n not in verify.VERIFY_NS:
        print(f"verify supports n in {verify.VERIFY_NS}", file=sys.stderr)
        return EXIT_USAGE
    ctx = _field(args)
    k = _resolve_k(ctx, args, fam.FamilyKind.GENERALIZED)
    report = verify.claims_report(ctx, k, jobs=args.jobs)
    width = max(len(c["name"]) for c in report["claims"])
    for claim in report["claims"]:
        status = "PASS" if claim["match"] else "FAIL"
        note = f"  ({claim['note']})" if claim.get("note") else ""
        print(f"{status}  {claim['name']:<{width}}{note}", file=sys.stderr)
    print(f"{'PASS' if report['pass'] else 'FAIL'}  overall (n = {args.n}, k = {k})",
          file=sys.stderr)
    _emit(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_MISMATCH


def cmd_code_weights(args) -> int:
    ctx = _field(args)
    k = _resolve_k(ctx, args, fam.FamilyKind.GENERALIZED)
    code = theory.build_code(ctx, k)
    predicted = theory.predict("code-weights", ctx.n, k)
    match = code.weight_histogram == predicted
    _emit(
        {
            "n": ctx.n,
            "k": k,
            "length": code.length,
            "dimension": code.dimension,
            "weights": code.weight_histogram.to_json_dict()["entries"],
            "predicted": predicted.to_json_dict()["entries"],
            "dual_low_weights": theory.dual_low_weights(code, 3),
            "match": match,
        },
        args.out,
    )
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_census(args) -> int:
    ctx = _field(args)
    k = _resolve_k(ctx, args, fam.FamilyKind.GENERALIZED)
    report = fieldeq.census_report(ctx, k)
    _emit(report, args.out)
    return EXIT_OK if report["match"] else EXIT_MISMATCH


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, with_k: bool = True) -> None:
    p.add_argument("--n", type=int, required=True,
                   help=f"field degree (even, 4..{N_MAX}; above {TABLE_MAX_N} "
                        "field info and spectral corr only)")
    if with_k:
        p.add_argument("--k", type=int, default=None, help="exponent parameter")
    p.add_argument("--poly", type=str, default=None,
                   help="defining polynomial as a hex bitmask, e.g. 0x13")
    p.add_argument("--out", type=str, default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkasami",
        description="Generalized Kasami sequence families and their exact "
                    "correlation, imbalance and weight distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    field = sub.add_parser("field", help="field context utilities")
    fsub = field.add_subparsers(dest="subcommand", required=True)
    finfo = fsub.add_parser("info", help="describe one GF(2^n) context")
    _add_common(finfo, with_k=False)
    finfo.set_defaults(func=cmd_field_info)

    family = sub.add_parser("family", help="sequence family utilities")
    fasub = family.add_subparsers(dest="subcommand", required=True)
    fgen = fasub.add_parser("gen", help="generate a family, one sequence per line")
    _add_common(fgen)
    fgen.add_argument("--kind", choices=[k.value for k in fam.FamilyKind],
                      default="fk")
    fgen.add_argument("--format", choices=fam.FORMATS, default="bits")
    fgen.set_defaults(func=cmd_family_gen)

    pcorr = sub.add_parser("corr", help="full correlation distribution report")
    _add_common(pcorr)
    pcorr.add_argument("--kind", choices=[k.value for k in fam.FamilyKind],
                       default="fk")
    pcorr.add_argument("--engine", choices=["brute", "spectral"], default="spectral")
    pcorr.add_argument("--jobs", type=positive_int, default=1,
                       help="accepted and ignored: the brute engine runs on one thread")
    pcorr.add_argument("--force", action="store_true",
                       help="override the brute-engine size guard")
    pcorr.set_defaults(func=cmd_corr)

    pverify = sub.add_parser("verify", help="verify every applicable closed form")
    _add_common(pverify)
    pverify.add_argument("--jobs", type=positive_int, default=1,
                         help="accepted and ignored: the brute engine runs on one thread")
    pverify.set_defaults(func=cmd_verify)

    code = sub.add_parser("code", help="linear-code utilities")
    csub = code.add_subparsers(dest="subcommand", required=True)
    cweights = csub.add_parser("weights", help="enumerate code weights and duals")
    _add_common(cweights)
    cweights.set_defaults(func=cmd_code_weights)

    pcensus = sub.add_parser("census", help="brute-force equation census report")
    _add_common(pcensus)
    pcensus.set_defaults(func=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TooLarge, UnwritableOut) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedN, MalformedPolynomial, NonPrimitivePolynomial, InvalidK) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
