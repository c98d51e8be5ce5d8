"""Command-line front end.

Subcommands: analyze, survey, decompose, verify, profile, exclude.
Exit codes: 0 success/verified, 1 verification-failure verdict, 2 usage or
parse errors, 3 budget exhaustion, 4 internal error (one `error:` line).
JSON output is schema-versioned and serialized canonically (sorted keys, tight
separators, `search.dumps`) so that byte-identical round trips hold.  `survey`
streams records task by task; `--resume DIR` keeps `manifest.json` and
`task-NNNNNN.jsonl` files in DIR, which may be moved between runs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import nullcontext

from . import cm, cycles, pairs, search
from .errors import DomainError, InvariantViolation, ParseError, PreconditionError, SpectileError
from .zn import GroupContext, group, parse_multiset, zero_set

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(obj, as_json, human_lines):
    if as_json:
        print(search.dumps(obj))
    else:
        for line in human_lines:
            print(line)


def _parse_set_arg(text):
    try:
        return parse_multiset(text)
    except ParseError as exc:
        pos = f" at position {exc.position}" if exc.position is not None else ""
        print(f"error: bad set literal{pos}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _parse_factored(text):
    n_plain = text.strip()
    if re.fullmatch(r"\d+", n_plain):
        return group(int(n_plain))
    fact = []
    for term in n_plain.split("*"):
        m = re.fullmatch(r"\s*(\d+)(?:\^(\d+))?\s*", term)
        if not m:
            print(f"error: bad factored order term {term!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        fact.append((int(m.group(1)), int(m.group(2) or 1)))
    try:
        return GroupContext.from_factorization(fact)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _check_budget(args):
    if args.budget < 0:
        raise DomainError("--budget must be at least 0")


def _cmd_analyze(args):
    _check_budget(args)
    a = _parse_set_arg(args.set)
    za = zero_set(a)
    report = cm.check_t1t2(a)
    out = {
        "schema": "spectile.analyze/1",
        "n": a.n,
        "set": list(a.support()),
        "size": a.mass(),
        "zero_divisors": sorted(za.vanishing_divisors),
        "zero_residues": sorted(za.residues()),
        "cm": report.to_json(),
    }
    if report.ok:
        t = cm.build_tiling_complement_cm(a)
        b = cm.build_laba_spectrum(a)
        out["spectral"] = {"verdict": "found", "witness": sorted(b.support()), "nodes": 0}
        out["tile"] = {"verdict": "found", "witness": sorted(t.support()), "nodes": 0}
    else:
        out["spectral"] = search.find_spectrum(a, args.budget).to_json()
        out["tile"] = search.find_tiling_complement(a, args.budget).to_json()
    human = [
        f"set {a.to_text()}  (|A| = {a.mass()})",
        f"zero set: divisors {out['zero_divisors']}, residues {out['zero_residues']}",
        f"structure: T1 {'holds' if report.t1_holds else 'fails'} "
        f"({report.t1_lhs} vs {report.t1_rhs}), "
        f"T2 {'holds' if report.t2_holds else 'fails'}"
        + (f" (witness {report.t2_witness})" if report.t2_witness else ""),
        f"spectrum: {out['spectral']['verdict']} {out['spectral']['witness'] or ''}",
        f"tiling complement: {out['tile']['verdict']} {out['tile']['witness'] or ''}",
    ]
    _emit(out, args.json, human)
    if "unknown" in (out["spectral"]["verdict"], out["tile"]["verdict"]):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_decompose(args):
    a = _parse_set_arg(args.set)
    try:
        dec = cycles.lam_leung_decompose(a)
    except PreconditionError as exc:
        _emit(
            {"schema": "spectile.decompose/1", "ok": False, "reason": str(exc)},
            args.json,
            [f"no decomposition: {exc}"],
        )
        return EXIT_FAIL
    out = {"schema": "spectile.decompose/1", "ok": True}
    out.update(dec.to_json())
    human = [
        f"p = {dec.prime_p} cycle bases: {sorted(dec.p_part.support())}"
        f" (multiplicities {[dec.p_part.coeffs[i] for i in dec.p_part.support()]})",
        f"q = {dec.prime_q} cycle bases: {sorted(dec.q_part.support())}"
        f" (multiplicities {[dec.q_part.coeffs[i] for i in dec.q_part.support()]})",
    ]
    _emit(out, args.json, human)
    return EXIT_OK


def _cmd_verify(args):
    a = _parse_set_arg(args.sets[0])
    b = _parse_set_arg(args.sets[1])
    if args.spectral:
        check = pairs.verify_spectral_pair(a, b)
        kind = "spectral"
    else:
        check = pairs.verify_tiling_pair(a, b)
        kind = "tiling"
    out = {"schema": "spectile.verify/1", "kind": kind}
    out.update(check.to_json())
    human = [
        f"{kind} pair: {'VERIFIED' if check.ok else 'FAILED'}"
        + (f" ({check.reason}, witness {check.witness})" if not check.ok else "")
    ]
    _emit(out, args.json, human)
    return EXIT_OK if check.ok else EXIT_FAIL


def _cmd_profile(args):
    a = _parse_set_arg(args.sets[0])
    b = _parse_set_arg(args.sets[1])
    check = pairs.verify_spectral_pair(a, b)
    if not check.ok:
        out = {"schema": "spectile.profile/1", "ok": False}
        out.update(check.to_json())
        _emit(out, args.json, [f"not a spectral pair: {check.reason} {check.witness}"])
        return EXIT_FAIL
    a.ctx.prime_pair()  # root profiles need a two-prime order: DomainError, exit 2
    out = {"schema": "spectile.profile/1", "ok": True}
    out.update(pairs.diagnostics_panel(check.pair))
    human = [
        "verified spectral pair",
        f"member A: {out['profile']['a']}",
        f"member B: {out['profile']['b']}",
        f"pattern symmetry: p {out['symmetry']['p']['equal']}, q {out['symmetry']['q']['equal']}",
        f"primitive: A {out['primitive_a']}, B {out['primitive_b']}",
    ]
    _emit(out, args.json, human)
    return EXIT_OK


def _cmd_exclude(args):
    ctx = _parse_factored(args.n)
    verdict = pairs.exclusion_predicate(ctx)
    out = {"schema": "spectile.exclude/1"}
    out.update(verdict.to_json())
    human = [f"{verdict.verdict}: " + "; ".join(verdict.reasons)]
    _emit(out, args.json, human)
    return EXIT_OK if verdict.verdict == "EXCLUDED" else EXIT_FAIL


def _cmd_survey(args):
    # an empty plan would certify completeness over nothing
    if args.size is not None and not 1 <= args.size <= args.n:
        raise DomainError(f"--size {args.size} lies outside 1..{args.n}")
    if args.limit_per_size is not None and args.limit_per_size < 1:
        raise DomainError("--limit-per-size must be at least 1")
    if args.threads < 1:
        raise DomainError("--threads must be at least 1")
    _check_budget(args)
    opts = search.SurveyOptions(
        sizes=(args.size,) if args.size is not None else None,
        affine=args.affine,
        node_budget=args.budget,
        per_size_limit=args.limit_per_size,
        seed=args.seed,
        threads=args.threads,
        collect_records=False,
        cursor_dir=args.resume,
        progress=not args.json,
    )
    # a path that cannot be written is a usage error; a failure later in the run is not
    try:
        if args.resume is not None:
            os.makedirs(args.resume, exist_ok=True)
        out_fh = open(args.out, "w", encoding="utf-8") if args.out is not None else None
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE

    # without --json or --out no record is printed, so none is serialised
    line_out = out_fh if out_fh is not None else sys.stdout if args.json else None
    with out_fh or nullcontext():
        result = search.fuglede_survey(group(args.n), opts, line_out=line_out)
    summary = result.summary
    if args.json:
        print(search.dumps(summary))
    else:
        print(f"survey of Z_{summary['n']}: {summary['orbits_surveyed']}/"
              f"{summary['orbits_total']} orbits, "
              f"spectral-non-tiles found: {summary['f_count']}, "
              f"complete: {summary['complete']} "
              f"({summary['elapsed_s']} s)")
        for k, slot in summary["per_size"].items():
            print(f"  size {k}: {slot['surveyed']}/{slot['total']} surveyed, "
                  f"{slot['spectral']} spectral, {slot['tiles']} tiles")
    if summary["f_count"] > 0:
        return EXIT_FAIL
    if not summary["complete"]:
        return EXIT_BUDGET
    return EXIT_OK


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-stable JSON output")
    parser = argparse.ArgumentParser(
        prog="spectile",
        description="exact computations with spectral sets and tiles in cyclic groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="zero set, structure report, witnesses")
    p.add_argument("set")
    p.add_argument("--budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("survey", parents=[common], help="classify all canonical subsets of Z_N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--affine", action="store_true")
    p.add_argument("--budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    p.add_argument("--limit-per-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (default: hardware parallelism)",
    )
    p.add_argument("--resume", metavar="CURSOR", default=None,
                   help="cursor directory for resumable runs")
    p.add_argument("--out", default=None, help="write record lines to this file")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("decompose", parents=[common], help="cycle decomposition of a vanishing sum")
    p.add_argument("set")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", parents=[common], help="verify a spectral or tiling pair")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--spectral", action="store_true")
    grp.add_argument("--tiling", action="store_true")
    p.add_argument("sets", nargs=2)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("profile", parents=[common], help="root-pattern diagnostics of a spectral pair")
    p.add_argument("sets", nargs=2)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("exclude", parents=[common], help="exponent-shape exclusion for p^m q^n")
    p.add_argument("--n", required=True, metavar="FACTORED_N", help="e.g. 2^9*3^100")
    p.set_defaults(func=_cmd_exclude)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # exit 1 is a verdict, so no failure may end there
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SpectileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
