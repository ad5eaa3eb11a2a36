"""Command-line driver: verification suites and object inspection.

Exit codes: 0 all checks pass (or skipped without --strict), 1 any
formula/oracle mismatch, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraDescriptor, CurrentElement, classify_element, centralizer_dim, is_regular
from .errors import CurrentRepError, InvalidDescriptor, TooLarge
from .meataxe import weight_character
from .modrep import DEFAULT_LIMIT, ModuleRep, check_module_axioms
from .pchar import PChar, pchar_from_element, support_degree, pchar_jordan
from .suites import SUITES, SuiteConfig, run_suite


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="currentrep",
                                 description="exact verification toolkit for "
                                             "truncated current Lie algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--kind", choices=["sl", "gl"], required=True)
    v.add_argument("-n", type=int, required=True)
    v.add_argument("-p", type=int, required=True)
    v.add_argument("-m", type=int, required=True)
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    v.add_argument("--format", choices=["json", "tsv", "pretty"], default="pretty")
    v.add_argument("--out", default=None)
    v.add_argument("--strict", action="store_true")

    i = sub.add_parser("inspect", help="inspect an algebra, element, character or module")
    isub = i.add_subparsers(dest="entity", required=True)

    ia = isub.add_parser("algebra")
    ia.add_argument("kind", choices=["sl", "gl"])
    ia.add_argument("n", type=int)
    ia.add_argument("p", type=int)
    ia.add_argument("m", type=int)

    ie = isub.add_parser("element")
    ie.add_argument("file")

    ip = isub.add_parser("pchar")
    ip.add_argument("mode", choices=["from-element", "from-json"])
    ip.add_argument("file")

    im = isub.add_parser("module")
    im.add_argument("file")
    return ap


def cmd_verify(args) -> int:
    try:
        cfg = SuiteConfig(kind=args.kind, n=args.n, p=args.p, m=args.m,
                          suite=args.suite, seed=args.seed, samples=args.samples,
                          limit=args.limit)
        cfg.descriptor()
        if cfg.samples < 1 or cfg.limit < 1:
            raise InvalidDescriptor("the sample count and the size limit must be at least 1")
    except InvalidDescriptor as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 2
    try:
        report = run_suite(cfg)
    except TooLarge as ex:
        print(f"skipped: {ex}", file=sys.stderr)
        return 1 if args.strict else 0
    except CurrentRepError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    if args.format == "json":
        text = report.to_json()
    elif args.format == "tsv":
        text = report.to_tsv()
    else:
        text = report.to_pretty()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report.passed:
        return 1
    if report.skipped and args.strict:
        return 1
    return 0


def cmd_inspect(args) -> int:
    try:
        if args.entity == "algebra":
            alg = AlgebraDescriptor(args.kind, args.n, args.p, args.m)
            print(json.dumps({
                "label": alg.label(), "dim_g": alg.dim_g, "dim_gm": alg.dim_gm,
                "rank": alg.rank, "positive_roots": alg.num_pos_roots,
                "dim_z": alg.dim_z}, indent=2))
            return 0
        with open(args.file) as fh:
            data = json.load(fh)
        if args.entity == "element":
            x = CurrentElement.from_json_dict(data)
            print(json.dumps({
                "algebra": x.alg.label(),
                "support_degrees": x.support_degrees(),
                "class": classify_element(x),
                "centralizer_dim": centralizer_dim(x),
                "regular": is_regular(x)}, indent=2))
            return 0
        if args.entity == "pchar":
            if args.mode == "from-element":
                chi = pchar_from_element(CurrentElement.from_json_dict(data))
            else:
                chi = PChar.from_json_dict(data)
            k, hom = support_degree(chi)
            s, nn = pchar_jordan(chi)
            print(json.dumps({
                "algebra": chi.alg.label(),
                "support_degrees": chi.support_degrees(),
                "max_degree": k,
                "homogeneous_degree": hom,
                "zero": chi.is_zero(),
                "class": chi.classify(),
                "jordan_parts": {"semisimple_zero": s.is_zero(),
                                 "nilpotent_zero": nn.is_zero()}}, indent=2))
            return 0
        if args.entity == "module":
            M = ModuleRep.from_json_dict(data)
            axioms = check_module_axioms(M)
            out = {"algebra": M.alg.label(), "dim": M.dim,
                   "axioms_ok": axioms.ok,
                   "bracket_failures": len(axioms.bracket_failures),
                   "power_failures": len(axioms.power_failures)}
            try:
                out["weight_character"] = {str(k): v for k, v in
                                           sorted(weight_character(M).items())}
            except CurrentRepError as ex:
                out["weight_character"] = f"unavailable: {ex}"
            print(json.dumps(out, indent=2))
            return 0
    except FileNotFoundError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except InvalidDescriptor as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 2
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_inspect(args)


if __name__ == "__main__":
    sys.exit(main())
