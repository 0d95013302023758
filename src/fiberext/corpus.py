"""Bundled scenario corpus: worked examples as golden regression tests.

Every scenario file records its inputs together with expected outputs and
a provenance note (paper-reported value, trivial identity, or derived by a
stated independent oracle).  ``run_scenario`` replays the referenced
operations and compares exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from importlib import resources

from . import cochain as cochain_mod
from . import lattice as lattice_mod
from .dual_complex import homology, torus_rank
from .errors import NotSemistable
from .pic0 import (
    ObstructionCertificate,
    classify_curve_fiber,
    classify_snc_fiber,
    extension_obstruction,
    numerical_triviality_on_fiber,
)
from .scenario import Scenario, _one, load_scenario_file


@cache
def _scenario_dir():
    """The bundled scenario directory, resolved once per process."""
    return resources.files(__package__) / "scenarios"


def scenario_names() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _scenario_dir().iterdir()
                  if p.name.endswith(".json"))


def load_scenario(name: str) -> Scenario:
    """A bundled scenario by name; a name with a path separator is none."""
    path = _scenario_dir() / f"{name}.json"
    if os.path.basename(name) != name or not path.is_file():
        raise ValueError(f"unknown scenario {name!r}")
    return load_scenario_file(path)


def list_scenarios() -> list[tuple[str, str]]:
    """Catalog of bundled scenarios with their citation tags."""
    return [(name, load_scenario(name).citation) for name in scenario_names()]


@dataclass(frozen=True)
class CheckResult:
    op: str
    passed: bool
    expected: str
    actual: str
    provenance: str


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_scenario(name: str) -> ScenarioReport:
    scenario = load_scenario(name)
    checks = tuple(_run_check(scenario, entry, i) for i, entry in enumerate(scenario.expect))
    return ScenarioReport(name=name, checks=checks)


def run_all() -> list[ScenarioReport]:
    return [run_scenario(name) for name in scenario_names()]


# The JSON type of each expected value; a value of another type fails the
# check instead of being coerced (``abelian_dim`` may be null).
_KINDS = {"op": str, "valid": bool, "obstructed": bool, "trivial": bool, "closed": bool, "exact": bool,
          "denominator": int, "denominator_divides": int, "torus_rank": int, "abelian_dim": int, "value": int,
          "fiber": str,
          **dict.fromkeys(("coefficients", "achieved", "targets", "invariant_factors", "betti", "torsion",
                           "degrees", "witnesses"), list)}


class _Entry(dict):
    """An ``expect`` entry; reading a key it lacks raises an error naming its path."""

    def __init__(self, entry, i: int):
        super().__init__(entry)
        self.at = f"expect[{i}]."

    def __missing__(self, key):
        raise ValueError(f"{self.at}{key} is missing")


def _run_check(sc: Scenario, entry, i: int) -> CheckResult:
    entry = _Entry(entry, i)
    op = str(entry.get("op", ""))
    provenance = entry.get("provenance", "")
    try:
        for key, kind in _KINDS.items():
            if key in entry and not (key == "abelian_dim" and entry[key] is None):
                _one(entry[key], kind, entry.at + key)
        handler = _HANDLERS.get(entry["op"])
        if handler is None:
            return CheckResult(op, False, "known operation", f"unknown op {op!r}", provenance)
        passed, expected, actual = handler(sc, entry)
    except Exception as exc:  # a crash is a failed check, not a failed run
        return CheckResult(op, False, "no exception", f"{type(exc).__name__}: {exc}", provenance)
    return CheckResult(op, passed, expected, actual, provenance)


def _equal(want, got, show=str):
    """A check that one computed value equals the expected one."""
    return got == want, show(want), show(got)


def _check_validate(sc, entry):
    report = lattice_mod.validate_lattice(sc.need("lattice"))
    want = entry["valid"]
    return report.valid == want, f"valid={want}", f"valid={report.valid}, failed={report.failed()}"


def _check_extension(sc, entry):
    lattice, trace = sc.need("lattice"), sc.need("trace")
    result = (lattice_mod.extend_trivial(lattice, trace) if entry["op"] == "extend_trivial"
              else lattice_mod.extend_nef(lattice, trace, entry.get("targets")))
    if entry.get("obstructed"):
        ok = isinstance(result, lattice_mod.Obstructed)
        return ok, "obstructed", type(result).__name__
    if isinstance(result, lattice_mod.Obstructed):
        return False, "an extension", f"obstructed: {result.reason}"
    ok = True
    wants = []
    if "coefficients" in entry:
        want = tuple(lattice_mod.parse_rational(x) for x in entry["coefficients"])
        ok &= result.coefficients == want
        wants.append(f"coefficients={[str(x) for x in want]}")
    if "denominator" in entry:
        ok &= result.denominator == entry["denominator"]
        wants.append(f"denominator={entry['denominator']}")
    if "denominator_divides" in entry:
        ok &= entry["denominator_divides"] % result.denominator == 0
        wants.append(f"denominator | {entry['denominator_divides']}")
    if "achieved" in entry:
        want = tuple(lattice_mod.parse_rational(x) for x in entry["achieved"])
        ok &= result.achieved_trace == want
        wants.append(f"achieved={[str(x) for x in want]}")
    actual = (f"coefficients={[str(x) for x in result.coefficients]}, "
              f"denominator={result.denominator}")
    return ok, "; ".join(wants), actual


def _check_homology(sc, entry):
    profile = homology(sc.need("strata"))
    want_betti = tuple(entry["betti"])
    want_torsion = tuple(tuple(t) for t in entry.get("torsion", [[]] * len(want_betti)))
    ok = profile.betti == want_betti and profile.torsion == want_torsion
    return ok, f"betti={list(want_betti)}", f"betti={list(profile.betti)}, torsion={profile.torsion}"


def _classification_matches(entry, kind):
    ok = True
    wants = []
    if "torus_rank" in entry:
        ok &= kind.torus_rank == entry["torus_rank"]
        wants.append(f"t={entry['torus_rank']}")
    if "abelian_dim" in entry:
        ok &= kind.abelian_dim == entry["abelian_dim"]
        wants.append(f"a={entry['abelian_dim']}")
    if "label" in entry:
        ok &= kind.label == entry["label"]
        wants.append(f"label={entry['label']}")
    actual = f"t={kind.torus_rank}, a={kind.abelian_dim}, label={kind.label}, proper={kind.proper}"
    return ok, "; ".join(wants), actual


def _curve_fiber(sc, entry):
    """The curve fiber the entry names by its ``fiber`` label, else ``default``."""
    fibers, label = sc.need("curve_fibers"), entry.get("fiber", "default")
    if label not in fibers:
        raise ValueError(f"{entry.at}fiber: the scenario has no curve fiber {label!r}")
    return fibers[label]


def _check_classify_curve(sc, entry):
    fiber = _curve_fiber(sc, entry)
    if "error" in entry:
        try:
            got = classify_curve_fiber(fiber)
        except NotSemistable:
            return entry["error"] == "NotSemistable", entry["error"], "NotSemistable"
        return False, entry["error"], f"classified {got.label}"
    return _classification_matches(entry, classify_curve_fiber(fiber))


def _check_numerical_triviality(sc, entry):
    fiber = _curve_fiber(sc, entry)
    got = numerical_triviality_on_fiber(fiber, [lattice_mod.parse_rational(d) for d in entry["degrees"]])
    return _equal(entry["trivial"], got, "trivial={}".format)


def _check_is_closed(sc, entry):
    result = cochain_mod.is_closed(sc.need("cochain"))
    ok = result.closed == entry["closed"]
    if "witness" in entry:
        ok &= result.witness == entry["witness"]
    return ok, f"closed={entry['closed']}", f"closed={result.closed}, witness={result.witness}"


def _check_is_exact(sc, entry):
    got = cochain_mod.is_exact(sc.need("cochain")) is not None
    return _equal(entry["exact"], got, "exact={}".format)


def _check_h1_class(sc, entry):
    cls = cochain_mod.h1_class(sc.need("cochain"))
    want = entry["trivial"]
    return cls.is_trivial == want, f"trivial={want}", f"trivial={cls.is_trivial}, H1={cls.group_profile}"


def _check_obstruction(sc, entry):
    result = extension_obstruction(sc.need("obstruction"))
    got = isinstance(result, ObstructionCertificate)
    want = entry["obstructed"]
    ok = got == want
    if ok and got and "witnesses" in entry:
        ok = set(result.witnesses) == set(entry["witnesses"])
    actual = (f"obstructed, witnesses={result.witnesses}" if got
              else f"unobstructed: {result}")
    return ok, f"obstructed={want}", actual


# op -> check(scenario, entry) returning (passed, expected, actual).
_HANDLERS = {
    "validate_lattice": _check_validate,
    "extend_trivial": _check_extension,
    "extend_nef": _check_extension,
    "denominator_bound": lambda sc, e: _equal(e["value"], lattice_mod.denominator_bound(sc.need("lattice"))),
    "component_group": lambda sc, e: _equal(
        list(e["invariant_factors"]), list(lattice_mod.component_group(sc.need("lattice")).torsion)),
    "homology": _check_homology,
    "torus_rank": lambda sc, e: _equal(e["value"], torus_rank(sc.need("strata"))),
    "classify_curve_fiber": _check_classify_curve,
    "classify_snc_fiber": lambda sc, e: _classification_matches(
        e, classify_snc_fiber(sc.need("strata"), sc.h1_structure)),
    "numerical_triviality": _check_numerical_triviality,
    "is_closed": _check_is_closed,
    "is_exact": _check_is_exact,
    "h1_class": _check_h1_class,
    "extension_obstruction": _check_obstruction,
}
