"""Command-line entry point.

Subcommands ingest JSON scenario files (rationals as "p/q" strings) and
dispatch to the library.  Exit codes: 0 success, 1 input or validation
error, 2 mathematical obstruction.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cochain as cochain_mod
from . import corpus
from .dual_complex import boundary_matrix, build_dual_complex, homology, torus_rank
from .lattice import (
    Obstructed,
    PreconditionError,
    component_group,
    denominator_bound,
    extend_nef,
    extend_trivial,
    validate_lattice,
)
from .pic0 import (
    NotSemistable,
    ObstructionCertificate,
    SncFiber,
    classify_curve_fiber,
    classify_snc_fiber,
    extension_obstruction,
)
from .scenario import load_scenario_file, parse_rational

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OBSTRUCTED = 2


class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []
        self.payload: dict = {}

    def human(self, line: str):
        self.lines.append(line)

    def emit(self, code: int) -> int:
        if self.fmt == "machine":
            self.payload["exit_code"] = code
            print(json.dumps(self.payload, indent=2))
        else:
            for line in self.lines:
                print(line)
        return code


def _rat(x):
    return str(x)


def _rats(xs):
    return [str(x) for x in xs]


def _need(scenario, attr, what):
    value = getattr(scenario, attr)
    if value is None or value == {} or value == ():
        raise ValueError(f"scenario file lacks a {what!r} section")
    return value


def cmd_extend(args) -> int:
    out = _Output(args.format)
    scenario = load_scenario_file(args.file)
    lattice = _need(scenario, "lattice", "lattice")
    trace = _need(scenario, "trace", "trace")
    report = validate_lattice(lattice)
    if not report.valid:
        raise PreconditionError(f"invalid lattice: failed {report.failed()}")
    if args.mode == "trivial":
        result = extend_trivial(lattice, trace)
        symbol = "a"
    else:
        targets = None
        if args.targets:
            targets = [parse_rational(t) for t in args.targets.split(",")]
        result = extend_nef(lattice, trace, targets)
        symbol = "b"
    if isinstance(result, Obstructed):
        out.payload = {"obstructed": True, "reason": result.reason,
                       "value": _rat(result.value) if result.value is not None else None}
        detail = f" = {_rat(result.value)} != 0" if result.value is not None else ""
        out.human(f"obstructed: {result.reason}{detail}")
        return out.emit(EXIT_OBSTRUCTED)
    out.payload = {
        "coefficients": _rats(result.coefficients),
        "denominator": result.denominator,
        "normalization": result.normalization,
        "achieved_trace": _rats(result.achieved_trace),
    }
    coeffs = ", ".join(_rats(result.coefficients))
    out.human(f"{symbol} = ({coeffs}); m = {result.denominator}")
    out.human(f"achieved trace = ({', '.join(_rats(result.achieved_trace))})")
    out.human(f"normalization: {result.normalization}")
    if args.mode == "trivial":
        out.human(f"denominator bound = {denominator_bound(lattice)}; "
                  f"component group invariants = {list(component_group(lattice).invariant_factors)}")
        out.payload["denominator_bound"] = denominator_bound(lattice)
        out.payload["component_group"] = list(component_group(lattice).invariant_factors)
    return out.emit(EXIT_OK)


def _homology_summary(profile):
    parts = []
    for k, (b, tors) in enumerate(zip(profile.betti, profile.torsion)):
        pieces = (["Z"] * b if b else []) + [f"Z/{d}" for d in tors]
        parts.append(f"H{k} = " + (" + ".join(pieces) if pieces else "0"))
    return "; ".join(parts)


def cmd_dual_complex(args) -> int:
    out = _Output(args.format)
    scenario = load_scenario_file(args.file)
    strata = _need(scenario, "strata", "strata")
    complex = build_dual_complex(strata)
    profile = homology(complex)
    out.payload = {
        "simplex_counts": list(complex.counts),
        "betti": list(profile.betti),
        "torsion": [list(t) for t in profile.torsion],
        "torus_rank": torus_rank(complex),
        "euler_characteristic": complex.euler_characteristic(),
    }
    out.human(f"simplices per dimension: {list(complex.counts)}")
    out.human(_homology_summary(profile))
    out.human(f"torus rank {torus_rank(complex)}")
    if args.matrices:
        out.payload["boundary_matrices"] = {
            str(r): boundary_matrix(complex, r) for r in range(1, complex.dimension + 1)
        }
        for r in range(1, complex.dimension + 1):
            out.human(f"B_{r} = {boundary_matrix(complex, r)}")
    return out.emit(EXIT_OK)


def cmd_cochain(args) -> int:
    out = _Output(args.format)
    scenario = load_scenario_file(args.file)
    strata = _need(scenario, "strata", "strata")
    data = _need(scenario, "cochain", "cochain")
    phi = data.bind(strata)
    closed = cochain_mod.is_closed(phi)
    if not closed:
        out.payload = {"closed": False, "witness": closed.witness}
        out.human(f"not closed; witness {closed.witness}")
        return out.emit(EXIT_OBSTRUCTED)
    cls = cochain_mod.h1_class(phi)
    # The class of phi is trivial exactly when phi is exact: one solve.
    exact = cls.is_trivial
    out.payload = {
        "closed": True,
        "exact": exact,
        "class_trivial": exact,
        "h1_rank": cls.group_profile.rank,
        "h1_torsion": list(cls.group_profile.torsion),
    }
    if exact:
        out.payload["potential"] = [list(v) for v in cls.potential.values]
    out.human("closed" + ("; exact" if exact else "; not exact"))
    out.human(f"class {'trivial' if exact else 'nontrivial'}; "
              f"H1 profile rank {cls.group_profile.rank}, torsion {list(cls.group_profile.torsion)}")
    return out.emit(EXIT_OK)


def cmd_pic0(args) -> int:
    out = _Output(args.format)
    scenario = load_scenario_file(args.file)
    results = {}
    try:
        for label, fiber in scenario.curve_fibers.items():
            kind = classify_curve_fiber(fiber)
            results[label] = kind
        if scenario.strata is not None:
            kind = classify_snc_fiber(SncFiber(scenario.strata, scenario.h1_structure))
            results["snc"] = kind
    except NotSemistable as exc:
        out.payload = {"error": "NotSemistable", "detail": str(exc)}
        out.human(f"not semistable: {exc}")
        return out.emit(EXIT_OBSTRUCTED)
    if not results:
        raise ValueError("scenario file has no fiber to classify")
    out.payload = {
        label: {"torus_rank": k.torus_rank, "abelian_dim": k.abelian_dim,
                "proper": k.proper, "label": k.label}
        for label, k in results.items()
    }
    for label, k in results.items():
        out.human(f"{label}: semi-abelian type: {k.label}, (t,a)=({k.torus_rank},{k.abelian_dim})"
                  + (", proper" if k.proper else ""))
    return out.emit(EXIT_OK)


def cmd_obstruction(args) -> int:
    out = _Output(args.format)
    scenario = load_scenario_file(args.file)
    data = _need(scenario, "obstruction", "obstruction")
    result = extension_obstruction(data)
    if isinstance(result, ObstructionCertificate):
        out.payload = {"obstructed": True, "witnesses": list(result.witnesses),
                       "values": [list(v) for v in result.values], "note": result.note}
        out.human(f"obstructed; witnesses {result.witnesses[0]!r}, {result.witnesses[1]!r}")
        out.human(result.note)
        return out.emit(EXIT_OBSTRUCTED)
    out.payload = {"obstructed": False, "reason": result.reason}
    out.human(f"unobstructed: {result.reason}")
    return out.emit(EXIT_OK)


def cmd_corpus(args) -> int:
    out = _Output(args.format)
    if args.action == "list":
        catalog = corpus.list_scenarios()
        out.payload = {"scenarios": [{"name": n, "citation": c} for n, c in catalog]}
        for name, citation in catalog:
            out.human(f"{name}: {citation}")
        return out.emit(EXIT_OK)
    reports = [corpus.run_scenario(args.name)] if args.name else corpus.run_all()
    all_ok = all(r.passed for r in reports)
    out.payload = {"reports": [
        {"name": r.name, "passed": r.passed,
         "checks": [{"op": c.op, "passed": c.passed, "expected": c.expected,
                     "actual": c.actual, "provenance": c.provenance} for c in r.checks]}
        for r in reports
    ]}
    for r in reports:
        out.human(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
        for c in r.checks:
            mark = "ok" if c.passed else "FAIL"
            out.human(f"  [{mark}] {c.op}: expected {c.expected}; got {c.actual}")
    return out.emit(EXIT_OK if all_ok else EXIT_INPUT)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="fiberext",
        description="Exact divisor extension, dual complexes, and Pic^0 of degenerate fibers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p = sub.add_parser("extend", help="solve the divisor-extension system of a fiber lattice")
    p.add_argument("file")
    p.add_argument("--mode", choices=("trivial", "nef"), default="trivial")
    p.add_argument("--targets", help="comma-separated nonnegative rational targets (nef mode)")
    add_format(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("dual-complex", help="build the dual complex and compute homology")
    p.add_argument("file")
    p.add_argument("--matrices", action="store_true", help="print the boundary matrices")
    add_format(p)
    p.set_defaults(func=cmd_dual_complex)

    p = sub.add_parser("cochain", help="closedness, exactness, and H1 class of a gluing cochain")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_cochain)

    p = sub.add_parser("pic0", help="classify the semi-abelian type of Pic^0 of a fiber")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_pic0)

    p = sub.add_parser("obstruction", help="certify an extension obstruction scenario")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("corpus", help="list or run the bundled scenario corpus")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?", help="run a single scenario by name")
    add_format(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
