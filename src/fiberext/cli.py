"""Command-line entry point.

Subcommands ingest JSON scenario files (rationals as "p/q" strings) and
dispatch to the library.  Each handler computes every value once and
returns ``(exit code, payload, human lines)``; ``main`` alone renders the
result, as the lines or (``--format machine``) as the payload in JSON with
the exit code added.  It turns an input error into exit code 1 and one
``error:`` line, and a failed certificate into exit code 3 and one
``internal error:`` line.  The exit codes are defined in ``errors``.

Options, defaults and choices are defined once, in ``_COMMANDS``.
``read_argv`` reads the plain shape of argv straight from that table in
one walk; any other argv, including ``--help`` and every usage error, goes
to the argparse parser that ``build_parser`` builds from the same table,
so help text, usage errors and exit status 2 are argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import cochain as cochain_mod
from . import corpus
from .dual_complex import boundary_matrix, homology, torus_rank
from .errors import EXIT_CERTIFICATE, EXIT_INPUT, EXIT_OBSTRUCTED, EXIT_OK, CertificateError, NotSemistable
from .lattice import Obstructed, component_group, denominator_bound, extend_nef, extend_trivial
from .pic0 import ObstructionCertificate, classify_curve_fiber, classify_snc_fiber, extension_obstruction
from .scenario import load_scenario_file


def cmd_extend(args) -> tuple[int, dict, list[str]]:
    if args.targets is not None and args.mode != "nef":
        raise ValueError("--targets needs --mode nef")
    scenario = load_scenario_file(args.file)
    lattice, trace = scenario.need("lattice"), scenario.need("trace")
    if args.mode == "trivial":
        result, symbol = extend_trivial(lattice, trace), "a"
    else:
        targets = None if args.targets is None else args.targets.split(",")
        result, symbol = extend_nef(lattice, trace, targets), "b"
    if isinstance(result, Obstructed):
        return (EXIT_OBSTRUCTED, {"obstructed": True, "reason": result.reason, "value": str(result.value)},
                [f"obstructed: {result.reason} = {result.value} != 0"])
    coeffs = [str(x) for x in result.coefficients]
    achieved = [str(x) for x in result.achieved_trace]
    payload = {"coefficients": coeffs, "denominator": result.denominator,
               "normalization": result.normalization, "achieved_trace": achieved}
    lines = [f"{symbol} = ({', '.join(coeffs)}); m = {result.denominator}",
             f"achieved trace = ({', '.join(achieved)})",
             f"normalization: {result.normalization}"]
    # Both invariants are of integer matrices; a rational lattice has neither.
    if args.mode == "trivial" and lattice.is_integral():
        bound = denominator_bound(lattice)
        factors = list(component_group(lattice).torsion)
        payload.update(denominator_bound=bound, component_group=factors)
        lines.append(f"denominator bound = {bound}; component group invariants = {factors}")
    return EXIT_OK, payload, lines


def cmd_dual_complex(args) -> tuple[int, dict, list[str]]:
    complex = load_scenario_file(args.file).need("strata")
    profile = homology(complex)
    rank = torus_rank(complex)
    payload = {
        "simplex_counts": list(complex.counts),
        "betti": list(profile.betti),
        "torsion": [list(t) for t in profile.torsion],
        "torus_rank": rank,
        "euler_characteristic": complex.euler_characteristic(),
    }
    groups = [" + ".join(["Z"] * b + [f"Z/{d}" for d in tors]) or "0"
              for b, tors in zip(profile.betti, profile.torsion)]
    lines = [f"simplices per dimension: {list(complex.counts)}",
             "; ".join(f"H{k} = {g}" for k, g in enumerate(groups)),
             f"torus rank {rank}"]
    if args.matrices:
        matrices = {str(r): boundary_matrix(complex, r) for r in range(1, complex.dimension + 1)}
        payload["boundary_matrices"] = matrices
        lines += [f"B_{r} = {m}" for r, m in matrices.items()]
    return EXIT_OK, payload, lines


def cmd_cochain(args) -> tuple[int, dict, list[str]]:
    result = cochain_mod.glue_check(load_scenario_file(args.file).need("cochain"))
    if not result:
        return (EXIT_OBSTRUCTED, {"closed": False, "witness": result.witness},
                [f"not closed; witness {result.witness}"])
    # The class is trivial exactly when the cochain is exact: one solve.
    exact, profile = result.is_trivial, result.group_profile
    rank, torsion = profile.rank, list(profile.torsion)
    payload = {"closed": True, "exact": exact, "class_trivial": exact,
               "h1_rank": rank, "h1_torsion": torsion}
    if exact:
        payload["potential"] = [list(v) for v in result.potential.values]
    return EXIT_OK, payload, [
        "closed; exact" if exact else "closed; not exact",
        f"class {'trivial' if exact else 'nontrivial'}; H1 profile rank {rank}, torsion {torsion}",
    ]


def cmd_pic0(args) -> tuple[int, dict, list[str]]:
    scenario = load_scenario_file(args.file)
    if scenario.strata is not None and "snc" in scenario.curve_fibers:
        raise ValueError("curve_fibers.snc: the label 'snc' names the strata fiber")
    try:
        kinds = {label: classify_curve_fiber(f) for label, f in scenario.curve_fibers.items()}
        if scenario.strata is not None:
            kinds["snc"] = classify_snc_fiber(scenario.strata, scenario.h1_structure)
    except NotSemistable as exc:
        return EXIT_OBSTRUCTED, {"error": "NotSemistable", "detail": str(exc)}, [f"not semistable: {exc}"]
    if not kinds:
        raise ValueError("scenario file has no fiber to classify")
    payload = {label: {"torus_rank": k.torus_rank, "abelian_dim": k.abelian_dim,
                       "proper": k.proper, "label": k.label} for label, k in kinds.items()}
    return EXIT_OK, payload, [
        f"{label}: semi-abelian type: {k.label}, (t,a)=({k.torus_rank},{k.abelian_dim})"
        + (", proper" if k.proper else "") for label, k in kinds.items()]


def cmd_obstruction(args) -> tuple[int, dict, list[str]]:
    result = extension_obstruction(load_scenario_file(args.file).need("obstruction"))
    if isinstance(result, ObstructionCertificate):
        payload = {"obstructed": True, "witnesses": list(result.witnesses),
                   "values": [list(v) for v in result.values], "note": result.note}
        return EXIT_OBSTRUCTED, payload, [
            f"obstructed; witnesses {result.witnesses[0]!r}, {result.witnesses[1]!r}", result.note]
    return EXIT_OK, {"obstructed": False, "reason": result}, [f"unobstructed: {result}"]


def cmd_corpus(args) -> tuple[int, dict, list[str]]:
    if args.action == "list":
        catalog = corpus.list_scenarios()
        return (EXIT_OK, {"scenarios": [{"name": n, "citation": c} for n, c in catalog]},
                [f"{n}: {c}" for n, c in catalog])
    reports = corpus.run_all() if args.name is None else [corpus.run_scenario(args.name)]
    payload = {"reports": [
        {"name": r.name, "passed": r.passed,
         "checks": [{"op": c.op, "passed": c.passed, "expected": c.expected,
                     "actual": c.actual, "provenance": c.provenance} for c in r.checks]}
        for r in reports
    ]}
    lines = []
    for r in reports:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
        lines += [f"  [{'ok' if c.passed else 'FAIL'}] {c.op}: expected {c.expected}; got {c.actual}"
                  for c in r.checks]
    return (EXIT_OK if all(r.passed for r in reports) else EXIT_INPUT), payload, lines


_FILE = ("file", {})
# Every subcommand takes --format too; build_parser and read_argv add it last.
_FORMAT = ("--format", {"choices": ("human", "machine"), "default": "human"})
# name -> (handler, help, arguments)
_COMMANDS = {
    "extend": (cmd_extend, "solve the divisor-extension system of a fiber lattice", [
        _FILE,
        ("--mode", {"choices": ("trivial", "nef"), "default": "trivial"}),
        ("--targets", {"help": "comma-separated nonnegative rational targets (nef mode)"})]),
    "dual-complex": (cmd_dual_complex, "build the dual complex and compute homology", [
        _FILE, ("--matrices", {"action": "store_true", "help": "print the boundary matrices"})]),
    "cochain": (cmd_cochain, "closedness, exactness, and H1 class of a gluing cochain", [_FILE]),
    "pic0": (cmd_pic0, "classify the semi-abelian type of Pic^0 of a fiber", [_FILE]),
    "obstruction": (cmd_obstruction, "certify an extension obstruction scenario", [_FILE]),
    "corpus": (cmd_corpus, "list or run the bundled scenario corpus", [
        ("action", {"choices": ("list", "run")}),
        ("name", {"nargs": "?", "help": "run a single scenario by name"})]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="fiberext",
        description="Exact divisor extension, dual complexes, and Pic^0 of degenerate fibers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for arg, options in (*arguments, _FORMAT):
            p.add_argument(arg, **options)
        p.set_defaults(func=handler)
    return parser


def _reading(handler, arguments):
    """``(defaults, positionals, options)`` of one subcommand for
    ``read_argv``: each argument as ``(dest, is_flag, choices, optional)``,
    the positionals in order and the options by their exact names."""
    defaults, positionals, options = {"func": handler}, [], {}
    for arg, kw in (*arguments, _FORMAT):
        dest, flag = arg.lstrip("-"), kw.get("action") == "store_true"
        defaults[dest] = False if flag else kw.get("default")
        entry = (dest, flag, kw.get("choices"), kw.get("nargs") == "?")
        if arg.startswith("-"):
            options[arg] = entry
        else:
            positionals.append(entry)
    return defaults, positionals, options


_READING = {name: _reading(handler, arguments) for name, (handler, _, arguments) in _COMMANDS.items()}


def read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read in one
    walk when ``argv`` has the plain shape: a subcommand, its positionals,
    then distinct options by their exact names, each a flag or followed by
    its value.  Every token must be a nonempty string, no positional or
    value may start with '-', and every choice must be valid.  Any other
    argv gives None and is left to argparse, which alone prints help and
    usage errors."""
    if not argv or not all(type(t) is str and t for t in argv) or argv[0] not in _READING:
        return None
    defaults, positionals, options = _READING[argv[0]]
    values, i, n = dict(defaults, command=argv[0]), 1, len(argv)
    for dest, _, choices, optional in positionals:
        if i < n and argv[i][0] != "-":
            if choices and argv[i] not in choices:
                return None
            values[dest], i = argv[i], i + 1
        elif not optional:
            return None
    unseen = dict(options)
    while i < n:
        entry = unseen.pop(argv[i], None)
        if entry is None:
            return None
        dest, flag, choices, _ = entry
        if flag:
            values[dest], i = True, i + 1
        elif i + 1 < n and argv[i + 1][0] != "-" and (not choices or argv[i + 1] in choices):
            values[dest], i = argv[i + 1], i + 2
        else:
            return None
    return argparse.Namespace(**values)


def to_json(x, indent: str = "\n") -> str:
    """``json.dumps(x, indent=2)``, written directly: with an indent, the
    json module falls back to its pure-Python encoder.  ``indent`` is the
    line break and indentation that close ``x``."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        items = [to_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(x, dict):
        items = [_json_key(k) + ": " + to_json(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    return json.dumps(x)


def _json_key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):  # json writes these keys as strings
        return '"' + json.dumps(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.format == "machine":
            print(to_json({**payload, "exit_code": code}))
        else:
            for line in lines:
                print(line)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    return code


if __name__ == "__main__":
    sys.exit(main())
