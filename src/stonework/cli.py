"""Command-line surface: build corpus entries, run law checks, dualize.

Exit codes form a stable contract: 0 on success, 1 when a law check found
failures, 2 on input errors (unknown generators, malformed files, size
bounds).  Global flags can also come from STONEWORK_* environment
variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import DEFAULT_LIMITS, Limits
from .corpus import GENERATORS, build
from .duality import round_trip_groupoid, round_trip_monoid, stone_groupoid
from .errors import MorphismError, NotBooleanError, StoneworkError, StructureError
from .groupoids import all_bisections_monoid, check_covering
from .inverse_core import InverseMonoid
from .laws import (
    boolean_monoid_suite,
    clifford_report,
    compatible_join_laws,
    filter_laws,
    filter_semigroup_laws,
    local_complement_laws,
    order_meet_laws,
    point_filter_laws,
    ultra_equivalence_laws,
)
from .reporting import LawReport
from .serialize import (
    groupoid_to_json,
    load_entry,
    monoid_to_json,
    render,
    save_entry,
)

MONOID_LAW_SETS = ("bm", "order", "filters", "filter-semigroup",
                   "ultra-equivalence", "basic-open", "clifford", "all")
ALL_LAW_SETS = MONOID_LAW_SETS + ("point-filters", "covering", "axioms")


def _env(name, default):
    return os.environ.get(f"STONEWORK_{name}", default)


def _add_common(parser, *, suppress: bool) -> None:
    # shared flags work both before and after the subcommand; the subparser
    # copy must not clobber an already-parsed value with its default
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--store",
                        default=d or _env("STORE", "./stonework-store"),
                        help="directory for corpus entries")
    parser.add_argument("--max-size", type=int,
                        default=d or int(_env("MAX_SIZE", str(DEFAULT_LIMITS.bisection_bound))),
                        help="cap on groupoid size when materializing all bisections")
    parser.add_argument("--format", choices=("json", "dot", "text"),
                        default=d or _env("FORMAT", "json"))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stonework",
        description="finite duality between boolean inverse monoids and groupoids")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    build_p = sub.add_parser("build", help="generate a corpus entry", parents=[common])
    build_p.add_argument("generator", choices=sorted(GENERATORS))
    build_p.add_argument("--name", help="override the default entry name")
    build_p.add_argument("--size", type=int)
    build_p.add_argument("--atoms", type=int)
    build_p.add_argument("--order", type=int)
    build_p.add_argument("--orders")
    build_p.add_argument("--length", type=int)
    build_p.add_argument("--points", type=int)
    build_p.add_argument("--n", type=int)
    build_p.add_argument("--expr")

    check_p = sub.add_parser("check", help="run a law suite against an entry",
                             parents=[common])
    check_p.add_argument("entry", help="entry name in the store, or a path")
    check_p.add_argument("--laws", default="all", choices=ALL_LAW_SETS)

    dual_p = sub.add_parser("dualize", help="map an entry across the duality",
                            parents=[common])
    dual_p.add_argument("entry")
    dual_p.add_argument("--round-trip", action="store_true",
                        help="also certify the double dual against the input")
    return parser


def _limits(args) -> Limits:
    return Limits(bisection_bound=args.max_size)


def _build_params(args) -> dict:
    keys = ("size", "atoms", "order", "orders", "length", "points", "n", "expr")
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def cmd_build(args) -> int:
    limits = _limits(args)
    params = _build_params(args)
    name, kind, obj, summary = build(args.generator, **params, limits=limits)
    name = args.name or name
    if kind == "monoid":
        payload = monoid_to_json(obj)
    elif kind == "groupoid":
        payload = groupoid_to_json(obj)
    else:
        from .polycyclic import format_cn

        payload = {"n": obj.n, "expr": format_cn(obj)}
    path = save_entry(Path(args.store), name, kind, payload)
    out = {"entry": name, "kind": kind, "path": str(path), "summary": summary}
    if args.format == "dot":
        print(render(obj, kind, "dot"))
    elif args.format == "text":
        lines = [f"{name} ({kind}) -> {path}"]
        lines += [f"  {k}: {v}" for k, v in summary.items()]
        print("\n".join(lines))
    else:
        print(json.dumps(out, indent=2))
    return 0


def _monoid_report(monoid: InverseMonoid, law_set: str) -> LawReport:
    if law_set == "bm":
        report = LawReport("boolean axioms")
        law = report.new("boolean-axioms")
        law.tick()
        cert = monoid.check_boolean()
        if not cert.is_boolean:
            law.fail((cert.axiom, cert.detail, tuple(cert.elements)))
        return report
    if law_set == "clifford":
        return clifford_report(monoid)
    if law_set == "all":
        report = _monoid_report(monoid, "bm")
        if report.ok:
            report.extend(boolean_monoid_suite(monoid))
        return report
    try:
        if law_set == "order":
            report = order_meet_laws(monoid)
            report.extend(local_complement_laws(monoid))
            report.extend(compatible_join_laws(monoid))
            return report
        if law_set == "filters":
            return filter_laws(monoid)
        if law_set == "filter-semigroup":
            return filter_semigroup_laws(monoid)
        if law_set == "ultra-equivalence":
            return ultra_equivalence_laws(monoid)
        if law_set == "basic-open":
            from .duality import verify_basic_open_laws

            return verify_basic_open_laws(monoid)
    except NotBooleanError as err:
        report = LawReport(f"{law_set} (requires a boolean monoid)")
        law = report.new("boolean-precondition")
        law.tick()
        cert = err.certificate
        law.fail((cert.axiom, cert.detail, tuple(cert.elements)))
        return report
    raise StructureError(f"law set {law_set!r} does not apply to a monoid")


def cmd_check(args) -> int:
    limits = _limits(args)
    name, kind, obj = load_entry(args.entry, Path(args.store), limits=limits)
    if kind == "monoid":
        report = _monoid_report(obj, args.laws)
    elif kind == "groupoid":
        if args.laws not in ("point-filters", "all"):
            raise StructureError(f"law set {args.laws!r} does not apply to a groupoid")
        report = point_filter_laws(obj, limits=limits)
    elif kind == "functor":
        if args.laws not in ("covering", "all"):
            raise StructureError(f"law set {args.laws!r} does not apply to a functor")
        report = LawReport("covering functor")
        law = report.new("covering")
        law.tick()
        result = check_covering(obj)
        if not result.ok:
            law.fail(result.witness)
    elif kind == "morphism":
        if args.laws not in ("axioms", "all"):
            raise StructureError(f"law set {args.laws!r} does not apply to a morphism")
        report = LawReport("morphism axioms")
        law = report.new("axioms")
        law.tick()
        try:
            obj.validate(weak=False)
        except MorphismError as err:
            law.fail((err.stage, err.witness))
    else:
        raise StructureError(f"no law sets for entries of kind {kind!r}")

    payload = {"entry": name, **report.to_json()}
    if args.format == "text":
        print(f"{name}: {'ok' if report.ok else 'FAIL'} "
              f"({report.failure_count} failures)")
        for result in report.results:
            status = "ok " if result.ok else "FAIL"
            print(f"  [{status}] {result.name} ({result.instances} instances)")
            for witness in result.failures:
                print(f"         witness: {witness}")
    else:
        print(json.dumps(payload, indent=2))
    return 0 if report.ok else 1


def cmd_dualize(args) -> int:
    limits = _limits(args)
    name, kind, obj = load_entry(args.entry, Path(args.store), limits=limits)
    out: dict = {"entry": name}
    if kind == "monoid":
        sg = stone_groupoid(obj)
        dual_name = f"{name}-dual"
        payload = groupoid_to_json(sg)
        payload["ultrafilters"] = [list(f) for f in sg.ultrafilters]
        path = save_entry(Path(args.store), dual_name, "groupoid", payload)
        out.update({"dual": dual_name, "kind": "groupoid", "arrows": sg.m,
                    "path": str(path)})
        if args.round_trip:
            out["certificate"] = round_trip_monoid(obj, sg, limits=limits).to_json()
            out["preserved_size"] = obj.n
    elif kind == "groupoid":
        bm = all_bisections_monoid(obj, limits=limits)
        dual_name = f"{name}-dual"
        path = save_entry(Path(args.store), dual_name, "monoid",
                          monoid_to_json(bm.monoid))
        out.update({"dual": dual_name, "kind": "monoid", "elements": bm.monoid.n,
                    "path": str(path)})
        if args.round_trip:
            out["certificate"] = round_trip_groupoid(obj, bm, limits=limits).to_json()
            out["preserved_size"] = obj.m
    else:
        raise StructureError(f"cannot dualize an entry of kind {kind!r}")

    if args.format == "dot":
        _, dual_kind, dual_obj = load_entry(out["dual"], Path(args.store), limits=limits)
        print(render(dual_obj, dual_kind, "dot"))
    elif args.format == "text":
        print(f"{name} -> {out['dual']} ({out['kind']}), stored at {out['path']}")
        if "certificate" in out:
            laws = ", ".join(f"{law['law']}x{law['instances']}"
                             for law in out["certificate"]["checked_laws"])
            print(f"  round trip certified: {laws}")
    else:
        print(json.dumps(out, indent=2))
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "dualize":
            return cmd_dualize(args)
    except (StoneworkError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
