"""Parsing of JSON scenario files.

Rationals are written as integers or strings "p/q"; floating point values
are rejected outright so no inexact number can leak into a computation.

JSON integers in lattice matrices and traces stay Python ints, passed
through after one ``type(x) is int`` test; only other values go through
``parse_rational``.  ``FiberLattice`` and ``DivisorTrace`` keep the ints
as their integer form and build their public ``Fraction`` tuples from a
shared table of small values.  Flags (``connected``, ``nodal``, ``proper``)
must be JSON booleans, and lattice labels a list of strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .cochain import Cochain, CoefficientGroup
from .dual_complex import SncStrata, Stratum, build_dual_complex
from .lattice import DivisorTrace, FiberLattice
from .pic0 import (
    CurveFiber,
    ObstructionScenario,
    SamplePoint,
    SemiAbelianType,
    _semi_abelian_type,
)


def parse_rational(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"not an exact rational: {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {x!r}") from None


def _rationals(values) -> list:
    return [x if type(x) is int else parse_rational(x) for x in values]


def _flag(data, key: str, path: str, default=None) -> bool:
    """``data[key]``, which must be a JSON boolean; ``default`` if absent and given."""
    x = data[key] if default is None else data.get(key, default)
    if type(x) is not bool:
        raise ValueError(f"{path} must be true or false, got {x!r}")
    return x


def _labels(x) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise TypeError(f"labels must be a list of strings, got {x!r}")
    return tuple(x)


def parse_lattice(data) -> FiberLattice:
    return FiberLattice(
        labels=_labels(data["labels"]),
        matrix=[_rationals(row) for row in data["matrix"]],
        multiplicities=tuple(data["multiplicities"]),
        connected=_flag(data, "connected", "lattice.connected", True),
    )


def parse_trace(data) -> DivisorTrace:
    return DivisorTrace(values=_rationals(data["values"]))


def _stratum_name(x, path) -> str:
    if not isinstance(x, str):
        raise ValueError(f"{path} must be a string, got {x!r}")
    return x


def parse_strata(data) -> SncStrata:
    """Stratum ids and facet references must be strings: they are looked up
    by value when the dual complex is built."""
    levels = []
    for r, level in enumerate(data["levels"]):
        strata = []
        for k, s in enumerate(level):
            path = f"strata.levels[{r}][{k}]"
            facets = [_stratum_name(f, f"{path}.facets[{i}]")
                      for i, f in enumerate(s.get("facets", ()))]
            strata.append(Stratum(_stratum_name(s["id"], f"{path}.id"), tuple(s["indices"]), tuple(facets)))
        levels.append(tuple(strata))
    return SncStrata(tuple(levels))


def parse_group(data) -> CoefficientGroup:
    return CoefficientGroup(rank=int(data.get("rank", 0)), torsion=tuple(data.get("torsion", ())))


def parse_curve_fiber(data, path: str = "curve_fiber") -> CurveFiber:
    return CurveFiber(
        genera=tuple(data["genera"]),
        edges=tuple(tuple(e) for e in data.get("edges", ())),
        nodal=_flag(data, "nodal", f"{path}.nodal", True),
    )


def parse_obstruction(data) -> ObstructionScenario:
    group = parse_group(data["group"])
    points = tuple(
        SamplePoint(
            label=p["label"],
            fiber_type=_semi_abelian_type(int(p["torus_rank"]), int(p["abelian_dim"])),
            value=tuple(p["value"]),
        )
        for p in data["points"]
    )
    return ObstructionScenario(proper_base=_flag(data, "proper", "obstruction.proper"), group=group, points=points)


@dataclass(frozen=True)
class CochainData:
    group: CoefficientGroup
    edge_values: tuple[tuple[int, ...], ...]

    def bind(self, strata: SncStrata) -> Cochain:
        complex = build_dual_complex(strata)
        return Cochain(complex, self.group, 1, self.edge_values)


def parse_cochain(data) -> CochainData:
    return CochainData(
        group=parse_group(data["group"]),
        edge_values=tuple(tuple([int(x) for x in v]) for v in data["edge_values"]),
    )


@dataclass(frozen=True)
class Scenario:
    """One machine-readable worked example with its expected outputs."""

    name: str
    citation: str = ""
    lattice: FiberLattice | None = None
    trace: DivisorTrace | None = None
    strata: SncStrata | None = None
    h1_structure: int | None = None
    curve_fibers: dict = field(default_factory=dict)
    cochain: CochainData | None = None
    obstruction: ObstructionScenario | None = None
    expect: tuple = ()

    def need(self, section: str):
        """The named section; a ValueError if the file lacks it or it is empty."""
        value = getattr(self, section)
        if value in (None, {}, ()):
            raise ValueError(f"scenario file lacks a {section!r} section")
        return value


def parse_optional_int(x) -> int | None:
    if x is not None and (isinstance(x, bool) or not isinstance(x, int)):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def parse_scenario(data) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError(f"a scenario must be a JSON object, not a {type(data).__name__}")

    def section(key, parse, default=None):
        if key not in data:
            return default
        try:
            return parse(data[key])
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed {key!r} section: {exc}") from None

    curve_fibers = {}
    if "curve_fiber" in data:
        curve_fibers["default"] = section("curve_fiber", parse_curve_fiber)
    curve_fibers.update(section(
        "curve_fibers", lambda d: {label: parse_curve_fiber(f, f"curve_fibers.{label}") for label, f in d.items()}, {}))
    return Scenario(
        name=data["name"],
        citation=data.get("citation", ""),
        lattice=section("lattice", parse_lattice),
        trace=section("trace", parse_trace),
        strata=section("strata", parse_strata),
        h1_structure=section("h1_structure", parse_optional_int),
        curve_fibers=curve_fibers,
        cochain=section("cochain", parse_cochain),
        obstruction=section("obstruction", parse_obstruction),
        expect=section("expect", tuple, ()),
    )


def load_scenario_file(path) -> Scenario:
    with open(path) as fh:
        data = json.load(fh, parse_float=_reject_float)
    return parse_scenario(data)


def _reject_float(s):
    raise ValueError(f"floating point literal {s!r} is not allowed in scenario files")
