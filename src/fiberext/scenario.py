"""Parsing of JSON scenario files.

Rationals are integers or ``[+-]?[0-9]+(/[0-9]+)?`` strings, read by the
one parser the library constructors share, ``lattice.parse_rational``;
float literals are refused, so no inexact number leaks into a computation.

JSON integers in lattice matrices and traces stay Python ints.  A lattice
matrix goes to ``FiberLattice`` as it is, which makes an all-int one its
sparse integer rows after one type test of the whole matrix; its rows are
walked again only to name a fault.  Trace values pass one ``type(x) is
int`` test each (others go through ``parse_rational``), and ``DivisorTrace``
keeps the ints as its integer form.  Flags (``connected``, ``nodal``,
``proper``) must be JSON booleans.  Integer fields (multiplicities,
genera, curve edges, strata indices, cochain and obstruction values) take
JSON integers only, and ids, facet references and labels strings; nothing
behind this boundary coerces.  Each section, and each entry of
``curve_fibers``, must be a JSON object, and ``expect`` a list of them.  A
wrong type or a missing required key raises an error naming its path, e.g.
``lattice``, ``strata.levels[0][1].indices[0]`` or
``lattice.matrix[1][0]``.  Paths are formatted only when a check fails.

``strata`` loads as one ``DeltaComplex`` (``build_dual_complex`` makes the
snc checks) and ``cochain`` as a ``Cochain`` bound to it.  These two
sections are the bulk of a large file, so each is walked once with no
helper call per leaf.  The helpers check the level list and the list of
cochain values; a level's entries and their leaves are tested inline and
the strata go to ``build_dual_complex`` as plain ``(id, indices, facets)``
tuples, every type check before any snc check; the cochain values
go to ``Cochain`` unchecked, since ``CoefficientGroup.reduce`` already
checks every coordinate and width.  The helpers walk a stratum, or the
cochain values, only once a fault is found there, to name it.

A JSON integer literal longer than ``sys.get_int_max_str_digits()`` is
reported with its digit count and the limit, found by decoding the file
again only after the first decode has failed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .cochain import Cochain, CoefficientGroup
from .dual_complex import DeltaComplex, build_dual_complex
from .lattice import DivisorTrace, FiberLattice, parse_rational
from .pic0 import CurveFiber, ObstructionScenario, SamplePoint, SemiAbelianType


def _rationals(values, path: str, *args) -> list:
    """``values``, a JSON list of exact rationals: ints pass through, other
    entries go through ``parse_rational``; a bad entry is named by its path."""
    try:
        return [x if type(x) is int else parse_rational(x) for x in values]
    except ValueError:
        # Find the entry again to name it; parse_rational raises on it.
        for i, x in enumerate(values):
            try:
                parse_rational(x)
            except ValueError as exc:
                raise ValueError(f"{path.format(*args)}[{i}]: {exc}") from None


_WANT = {int: ("an integer", "a list of integers"), str: ("a string", "a list of strings"),
         bool: ("true or false", "a list of booleans"), list: ("a list", "a list of lists"),
         dict: ("a JSON object", "a list of JSON objects")}


def _one(x, kind, path: str, *args):
    """``x``, which must be a JSON value of type ``kind`` (a bool is no int).
    ``path.format(*args)`` names it in the error, so paths are formatted
    only when a check fails."""
    if type(x) is not kind:
        raise TypeError(f"{path.format(*args)} must be {_WANT[kind][0]}, got {x!r}")
    return x


def _list(x, kind, path: str, *args) -> tuple:
    """``x`` as a tuple; it must be a JSON list of values of type ``kind``."""
    if type(x) is not list:
        raise TypeError(f"{path.format(*args)} must be {_WANT[kind][1]}, got {x!r}")
    for i, v in enumerate(x):
        if type(v) is not kind:
            _one(v, kind, path + f"[{i}]", *args)
    return tuple(x)


def _get(data, key: str, kind, at: str, *args):
    """The required ``data[key]``, of JSON type ``kind``; ``[kind]`` asks for
    a JSON list of such values, returned as a tuple.  ``at.format(*args)`` is
    the path of ``data`` with a trailing dot (empty at the top level), so
    ``at + key`` names the value if it is missing or of the wrong type."""
    try:
        x = data[key]
    except KeyError:
        raise ValueError(f"{at.format(*args)}{key} is missing") from None
    if type(kind) is list:
        return _list(x, kind[0], at + key, *args)
    return x if type(x) is kind else _one(x, kind, at + key, *args)


def _lacks(section: str) -> ValueError:
    return ValueError(f"scenario file lacks a {section!r} section")


def parse_lattice(data) -> FiberLattice:
    """The lattice of a ``lattice`` section.  Only when it fails are the
    matrix rows walked again, to name a bad entry before any later fault."""
    labels = _get(data, "labels", [str], "lattice.")
    matrix = _get(data, "matrix", [list], "lattice.")
    try:
        return FiberLattice(labels, matrix, _get(data, "multiplicities", [int], "lattice."),
                            _one(data.get("connected", True), bool, "lattice.connected"))
    except (TypeError, ValueError):
        for i, row in enumerate(matrix):
            _rationals(row, "lattice.matrix[{}]", i)
        raise


def parse_trace(data) -> DivisorTrace:
    return DivisorTrace(values=_rationals(_get(data, "values", list, "trace."), "trace.values"))


def parse_strata(data) -> DeltaComplex:
    """The dual complex of a ``strata`` section.

    Ids and facet references must be strings and index sets lists of JSON
    integers; ``build_dual_complex`` then makes every snc check.  The level
    list goes through the helpers once; each level is walked once, its
    entries and their leaves tested inline.  Only at an entry that fails do
    the helpers run: first on its level, to name an entry that is no JSON
    object, then on the entry, to name its first fault."""
    at = "strata.levels[{}][{}]."
    levels = []
    for r, level in enumerate(_get(data, "levels", [list], "strata.")):
        strata = []
        for k, s in enumerate(level):
            ok = type(s) is dict
            if ok:
                ident, idx, facets = s.get("id"), s.get("indices"), s.get("facets", ())
                ok = type(ident) is str and type(idx) is list and (type(facets) is list or facets == ())
            if ok:
                for i in idx:
                    if type(i) is not int:
                        ok = False
                for f in facets:
                    if type(f) is not str:
                        ok = False
            if not ok:
                # The helpers name the first fault: a later entry of the
                # level that is no JSON object comes before this one's.
                _list(level, dict, "strata.levels[{}]", r)
                ident, idx = _get(s, "id", str, at, r, k), _get(s, "indices", [int], at, r, k)
                facets = _list(s.get("facets", []), str, at + "facets", r, k)
            strata.append((ident, tuple(idx), facets))
        levels.append(strata)
    return build_dual_complex(levels)


def parse_group(data, path: str) -> CoefficientGroup:
    return CoefficientGroup(rank=_one(data.get("rank", 0), int, "{}.rank", path),
                            torsion=_list(data.get("torsion", []), int, "{}.torsion", path))


def _edge(e, path: str, *args) -> tuple:
    """A curve-fiber edge: a JSON list of two component indices."""
    e = _list(e, int, path, *args)
    if len(e) != 2:
        raise ValueError(f"{path.format(*args)} must list two components, got {list(e)!r}")
    return e


def parse_curve_fiber(data, path: str = "curve_fiber") -> CurveFiber:
    """A curve fiber; ``path`` names the section in errors (``curve_fibers.<label>``)."""
    edges = _list(data.get("edges", []), list, "{}.edges", path)
    return CurveFiber(
        genera=_get(data, "genera", [int], "{}.", path),
        edges=tuple([_edge(e, "{}.edges[{}]", path, i) for i, e in enumerate(edges)]),
        nodal=_one(data.get("nodal", True), bool, "{}.nodal", path),
    )


def parse_obstruction(data) -> ObstructionScenario:
    group = parse_group(_get(data, "group", dict, "obstruction."), "obstruction.group")
    at = "obstruction.points[{}]."
    points = []
    for j, p in enumerate(_get(data, "points", [dict], "obstruction.")):
        label = _get(p, "label", str, at, j)
        t, a = _get(p, "torus_rank", int, at, j), _get(p, "abelian_dim", int, at, j)
        points.append(SamplePoint(label, SemiAbelianType(t, a), _get(p, "value", [int], at, j)))
    proper = _get(data, "proper", bool, "obstruction.")
    try:
        return ObstructionScenario(proper_base=proper, group=group, points=tuple(points))
    except ValueError as exc:
        if str(exc) != f"element must have {group.width} coordinates":
            raise
        # The first value of the wrong width is the one group.reduce refused.
        j = next(j for j, p in enumerate(points) if len(p.value) != group.width)
        raise ValueError(f"{at.format(j)}value: {exc}") from None


def parse_cochain(data, complex: DeltaComplex | None) -> Cochain:
    """A gluing 1-cochain on ``complex``, the scenario's dual complex."""
    if complex is None:
        raise _lacks("strata")
    group = parse_group(_get(data, "group", dict, "cochain."), "cochain.group")
    # The containers are checked here, since group.reduce alone would take
    # {} or "" as an element of a width-0 group; Cochain checks every
    # coordinate and every width.
    values = _get(data, "edge_values", [list], "cochain.")
    try:
        return Cochain(complex, group, 1, values)
    except (TypeError, ValueError) as exc:
        # Name the value Cochain refused: the first non-integer, else the
        # first value of the wrong width; a wrong count Cochain names itself.
        for e, v in enumerate(values):
            _list(v, int, "cochain.edge_values[{}]", e)
        for e, v in enumerate(values):
            if len(v) != group.width:
                raise ValueError(f"cochain.edge_values[{e}]: {exc}") from None
        raise


@dataclass(frozen=True)
class Scenario:
    """One machine-readable worked example with its expected outputs."""

    name: str
    citation: str = ""
    lattice: FiberLattice | None = None
    trace: DivisorTrace | None = None
    strata: DeltaComplex | None = None
    h1_structure: int | None = None
    curve_fibers: dict = field(default_factory=dict)
    cochain: Cochain | None = None
    obstruction: ObstructionScenario | None = None
    expect: tuple = ()

    def need(self, section: str):
        """The named section; a ValueError if the file lacks it or it is empty."""
        value = getattr(self, section)
        if value in (None, {}, ()):
            raise _lacks(section)
        return value


def parse_scenario(data) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError(f"a scenario must be a JSON object, not a {type(data).__name__}")

    def section(key, parse, kind=dict, default=None):
        """``parse`` of ``data[key]``, which must be of JSON type ``kind``
        unless that is None."""
        if key not in data:
            return default
        value = data[key]
        try:
            return parse(value if kind is None else _one(value, kind, key))
        except TypeError as exc:
            raise ValueError(f"malformed {key!r} section: {exc}") from None

    def curve_fiber_table(fibers):
        return {label: parse_curve_fiber(_one(f, dict, "curve_fibers.{}", label), f"curve_fibers.{label}")
                for label, f in fibers.items()}

    curve_fibers = {}
    if "curve_fiber" in data:
        curve_fibers["default"] = section("curve_fiber", parse_curve_fiber)
    fibers = section("curve_fibers", curve_fiber_table, dict, {})
    if "default" in fibers and curve_fibers:
        raise ValueError("curve_fibers.default: the label 'default' names the 'curve_fiber' section")
    curve_fibers.update(fibers)
    strata = section("strata", parse_strata)
    if "name" not in data:
        raise ValueError("name is missing")
    return Scenario(
        name=section("name", str, str),
        citation=section("citation", str, str, ""),
        lattice=section("lattice", parse_lattice),
        trace=section("trace", parse_trace),
        strata=strata,
        h1_structure=section("h1_structure", lambda x: x if x is None else _one(x, int, "h1_structure"), None),
        curve_fibers=curve_fibers,
        cochain=section("cochain", lambda d: parse_cochain(d, strata)),
        obstruction=section("obstruction", parse_obstruction),
        expect=section("expect", lambda x: _list(x, dict, "expect"), None, ()),
    )


def load_scenario_file(path) -> Scenario:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text, parse_float=_reject_float)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None
    except ValueError as exc:
        if type(exc) is not ValueError:  # a JSONDecodeError names its position
            raise
        # A float literal, or an integer literal longer than
        # sys.get_int_max_str_digits(): decoding again with a checking
        # parse_int meets the same first fault and names it without echoing
        # the digits.  Valid files never come here.
        json.loads(text, parse_float=_reject_float, parse_int=_int_literal)
        raise
    return parse_scenario(data)


def _reject_float(s):
    raise ValueError(f"floating point literal {s!r} is not allowed in scenario files")


def _int_literal(s):
    """``int(s)`` of a JSON integer literal; one over the digit limit is
    named by its length, not echoed."""
    digits, limit = len(s.lstrip("-")), sys.get_int_max_str_digits()
    if digits > limit > 0:
        raise ValueError(f"JSON integer literal of {digits} digits exceeds the limit of {limit} digits")
    return int(s)
