"""Command-line surface: build corpus entries, run law checks, dualize.

Exit codes form a stable contract: 0 on success, 1 when a law check found
failures, 2 on input errors (unknown generators, malformed files, size
bounds, unreadable paths).  Every setting comes from the command line: a
global flag that is not given takes its default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from .corpus import GENERATORS, build
from .duality import (clifford_check, round_trip_groupoid, round_trip_monoid, stone_groupoid,
                      verify_basic_open_laws)
from .errors import MorphismError, NotBooleanError, StoneworkError, StructureError
from .groupoids import all_bisections_monoid, check_covering, groupoid_to_dot
from .inverse_core import MAX_ELEMENTS
from .laws import (
    boolean_monoid_suite,
    compatible_join_laws,
    filter_laws,
    filter_semigroup_laws,
    local_complement_laws,
    order_meet_laws,
    point_filter_laws,
    ultra_equivalence_laws,
)
from .reporting import LawReport, one_law
from .serialize import KINDS, check_dot, groupoid_to_json, load_entry, save_entry

FORMATS = ("json", "dot", "text")


def _size(text: str) -> int:
    """The type of --max-size: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


# dest -> (default, type, choices, help) of each global flag
GLOBAL_FLAGS = {
    "store": ("./stonework-store", str, None, "directory for corpus entries"),
    "max_size": (MAX_ELEMENTS, _size, None,
                 f"most bisections to materialize (at most {MAX_ELEMENTS})"),
    "format": ("json", str, FORMATS, None),
}


# -- law sets: entry kind -> law set -> report of (entry, bisection bound) ----------


def _boolean_witness(cert):
    return None if cert.is_boolean else (cert.axiom, cert.detail, tuple(cert.elements))


def _boolean_axioms(monoid, bound) -> LawReport:
    return one_law("boolean axioms", "boolean-axioms", _boolean_witness(monoid.check_boolean()))


def _order_laws(monoid, bound) -> LawReport:
    report = order_meet_laws(monoid)
    report.extend(local_complement_laws(monoid))
    report.extend(compatible_join_laws(monoid))
    return report


def _all_monoid_laws(monoid, bound) -> LawReport:
    report = _boolean_axioms(monoid, bound)
    if report.ok:
        report.extend(boolean_monoid_suite(monoid, bisection_bound=bound))
    return report


def _morphism_axioms(morphism, bound) -> LawReport:
    try:
        morphism.validate(weak=False)
    except MorphismError as err:
        return one_law("morphism axioms", "axioms", (err.stage, err.witness))
    return one_law("morphism axioms", "axioms", None)


# `all` runs a kind's one law set; every monoid law set but `bm` and `all`
# needs a boolean monoid, and reports the failed precondition otherwise
LAW_SETS = {
    "monoid": {
        "bm": _boolean_axioms,
        "order": _order_laws,
        "filters": lambda monoid, _: filter_laws(monoid),
        "filter-semigroup": lambda monoid, _: filter_semigroup_laws(monoid),
        "ultra-equivalence": lambda monoid, _: ultra_equivalence_laws(monoid),
        "basic-open": lambda monoid, bound: verify_basic_open_laws(
            monoid, bisection_bound=bound),
        "clifford": lambda monoid, _: clifford_check(monoid),
        "all": _all_monoid_laws,
    },
    "groupoid": {"point-filters": lambda groupoid, bound: point_filter_laws(
        groupoid, bisection_bound=bound)},
    "functor": {"covering": lambda functor, _: check_covering(functor)},
    "morphism": {"axioms": _morphism_axioms},
}


# each generator parameter, in order of first appearance -> the type of its default
BUILD_FLAGS = {dest: type(param.default) for func in GENERATORS.values()
               for dest, param in inspect.signature(func).parameters.items()}


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for dest, (_, type, choices, help) in GLOBAL_FLAGS.items():
        common.add_argument(f"--{dest.replace('_', '-')}", type=type, choices=choices,
                            help=help)
    parser = argparse.ArgumentParser(
        prog="stonework", parents=[common],
        description="finite duality between boolean inverse monoids and groupoids")
    sub = parser.add_subparsers(dest="command", required=True)

    build_p = sub.add_parser("build", help="generate a corpus entry", parents=[common])
    build_p.add_argument("generator", choices=sorted(GENERATORS))
    build_p.add_argument("--name", help="override the default entry name")
    for dest, type in BUILD_FLAGS.items():
        build_p.add_argument(f"--{dest}", type=type)

    check_p = sub.add_parser("check", help="run a law suite against an entry",
                             parents=[common])
    check_p.add_argument("entry", help="entry name in the store, or a path")
    check_p.add_argument("--laws", default="all", choices=tuple(dict.fromkeys(
        law_set for law_sets in LAW_SETS.values() for law_set in law_sets)))

    dual_p = sub.add_parser("dualize", help="map an entry across the duality",
                            parents=[common])
    dual_p.add_argument("entry")
    dual_p.add_argument("--round-trip", action="store_true",
                        help="also certify the double dual against the input")
    return parser


def _output(args, out: dict, text, shown: tuple, saved: tuple | None = None) -> None:
    """Print a command's result in the --format asked for: ``out`` as JSON,
    the lines ``text(out)``, or ``shown`` = (object, kind) as dot, which
    only a groupoid has.  ``saved`` = (name, kind, payload) is stored, and
    its path put in ``out``, only once the rendering has not been refused."""
    check_dot(args.format, shown[1])
    page = groupoid_to_dot(shown[0]) if args.format == "dot" else None
    if saved is not None:
        out["path"] = str(save_entry(Path(args.store), *saved))
    if page is None:
        page = "\n".join(text(out)) if args.format == "text" else json.dumps(out, indent=2)
    try:
        print(page, flush=True)
    except BrokenPipeError:     # a closed stdout is no input error: drop the rest, now and at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_build(args) -> int:
    name, kind, obj, summary = build(args.generator, **{
        k: getattr(args, k) for k in BUILD_FLAGS if getattr(args, k) is not None})
    name = name if args.name is None else args.name
    out = {"entry": name, "kind": kind, "path": None, "summary": summary}
    _output(args, out, lambda out: [f"{name} ({kind}) -> {out['path']}",
                                    *(f"  {k}: {v}" for k, v in summary.items())],
            (obj, kind), (name, kind, KINDS[kind][0](obj)))
    return 0


def _report_lines(name: str, report: LawReport) -> list[str]:
    lines = [f"{name}: {'ok' if report.ok else 'FAIL'} ({report.failure_count} failures)"]
    for result in report.results:
        status = "ok " if result.ok else "FAIL"
        lines.append(f"  [{status}] {result.name} ({result.instances} instances)")
        lines += [f"         witness: {witness}" for witness in result.failures]
    return lines


def cmd_check(args) -> int:
    name, kind, obj = load_entry(args.entry, Path(args.store))
    if kind not in LAW_SETS:
        raise StructureError(f"no law sets for entries of kind {kind!r}")
    law_sets = LAW_SETS[kind]
    law_set = next(iter(law_sets)) if len(law_sets) == 1 and args.laws == "all" else args.laws
    if law_set not in law_sets:
        raise StructureError(f"law set {law_set!r} does not apply to a {kind}")
    check_dot(args.format, "law report")        # refused before the work
    try:
        report = law_sets[law_set](obj, args.max_size)
    except NotBooleanError as err:
        report = one_law(f"{law_set} (requires a boolean monoid)", "boolean-precondition",
                         _boolean_witness(err.certificate))
    _output(args, {"entry": name, **report.to_json()}, lambda _: _report_lines(name, report),
            (report, "law report"))
    return 0 if report.ok else 1


def cmd_dualize(args) -> int:
    name, kind, obj = load_entry(args.entry, Path(args.store))
    out: dict = {"entry": name, "dual": f"{name}-dual"}
    if kind == "monoid":
        dual = stone_groupoid(obj)
        payload = groupoid_to_json(dual)
        payload["ultrafilters"] = [row.nonzero()[0].tolist()
                                   for row in obj.order().matrix[dual.ultrafilters]]
        out.update({"kind": "groupoid", "arrows": dual.m, "path": None})
        if args.round_trip:
            out.update({"certificate": round_trip_monoid(
                obj, bisection_bound=args.max_size).to_json(), "preserved_size": obj.n})
    elif kind == "groupoid":
        check_dot(args.format, "monoid")
        dual = all_bisections_monoid(obj, bisection_bound=args.max_size).monoid
        payload = KINDS["monoid"][0](dual)
        out.update({"kind": "monoid", "elements": dual.n, "path": None})
        if args.round_trip:
            out.update({"certificate": round_trip_groupoid(obj).to_json(),
                        "preserved_size": obj.m})
    else:
        raise StructureError(f"cannot dualize an entry of kind {kind!r}")

    def text(out):
        lines = [f"{name} -> {out['dual']} ({out['kind']}), stored at {out['path']}"]
        if "certificate" in out:
            laws = ", ".join(f"{law['law']}x{law['instances']}"
                             for law in out["certificate"]["checked_laws"])
            lines.append(f"  round trip certified: {laws}")
        return lines

    _output(args, out, text, (dual, out["kind"]), (out["dual"], out["kind"], payload))
    return 0


COMMANDS = {"build": cmd_build, "check": cmd_check, "dualize": cmd_dualize}
PARSER = make_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        for dest, (default, *_) in GLOBAL_FLAGS.items():
            vars(args).setdefault(dest, default)
        return COMMANDS[args.command](args)
    except (StoneworkError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
