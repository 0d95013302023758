import dataclasses
import json

import pytest

from fiberext import corpus
from fiberext.scenario import Scenario

REQUIRED = {
    "example-1.1-irreducible-fiber",
    "example-3.7-cubic-curves",
    "example-4.1-cusp-degeneration",
    "example-4.2-stable-genus-one",
    "example-5.1-m12-types",
    "example-5.1-obstruction",
    "example-5.1-type-iii-dual-complex",
    "nef-extension-two-component",
} | {f"kodaira-I{n}-family" for n in range(2, 10)}


def test_catalog_contains_every_worked_example():
    names = set(corpus.scenario_names())
    missing = REQUIRED - names
    assert not missing, f"missing scenarios: {sorted(missing)}"


def test_every_scenario_cites_its_source():
    for name, citation in corpus.list_scenarios():
        assert citation, f"scenario {name} lacks a citation"


def test_every_expected_value_records_provenance():
    for name in corpus.scenario_names():
        sc = corpus.load_scenario(name)
        assert sc.expect, f"scenario {name} asserts nothing"
        for entry in sc.expect:
            assert entry.get("provenance"), \
                f"scenario {name}, op {entry.get('op')}: no provenance recorded"


@pytest.mark.parametrize("name", corpus.scenario_names())
def test_scenario_passes(name):
    report = corpus.run_scenario(name)
    failures = [c for c in report.checks if not c.passed]
    assert not failures, "\n".join(
        f"{c.op}: expected {c.expected}; got {c.actual}" for c in failures
    )


def test_run_all_matches_individual_runs():
    reports = corpus.run_all()
    assert [r.name for r in reports] == corpus.scenario_names()
    assert all(r.passed for r in reports)


def test_scenario_directory_is_resolved_once(monkeypatch):
    calls = []
    monkeypatch.setattr(corpus.resources, "files", lambda package, files=corpus.resources.files:
                        calls.append(package) or files(package))
    corpus._scenario_dir.cache_clear()
    try:
        corpus.load_scenario("kodaira-I2-family")
        corpus.run_scenario("example-3.7-cubic-curves")
        assert calls == ["fiberext"]
    finally:
        corpus._scenario_dir.cache_clear()


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario 'no-such-scenario'"):
        corpus.load_scenario("no-such-scenario")
    with pytest.raises(ValueError, match="unknown scenario 'no-such-scenario'"):
        corpus.run_scenario("no-such-scenario")


MISSING = object()


def probe_checks(tmp_path, monkeypatch, name, index, key, value):
    """The checks of bundled scenario ``name`` with ``expect[index][key]``
    set to ``value``, or deleted if it is ``MISSING``."""
    data = json.loads((corpus._scenario_dir() / f"{name}.json").read_text())
    if value is MISSING:
        del data["expect"][index][key]
    else:
        data["expect"][index][key] = value
    (tmp_path / "probe.json").write_text(json.dumps(data))
    monkeypatch.setattr(corpus, "_scenario_dir", lambda: tmp_path)
    checks = corpus.run_scenario("probe").checks
    assert [c.passed for c in checks] == [k != index for k in range(len(checks))]
    return checks[index]


@pytest.mark.parametrize("index, key, value", [(2, "value", "2"), (3, "denominator_divides", True),
                                               (3, "denominator", "1"), (2, "value", None)])
def test_non_integer_expectation_fails_naming_its_path(tmp_path, monkeypatch, index, key, value):
    check = probe_checks(tmp_path, monkeypatch, "kodaira-I2-family", index, key, value)
    assert check.actual == f"TypeError: expect[{index}].{key} must be an integer, got {value!r}"


@pytest.mark.parametrize("name, index, key, value, actual", [
    # A string "false" was once read by bool() as true, and passed.
    ("kodaira-I2-family", 0, "valid", "false", "TypeError: expect[0].valid must be true or false, got 'false'"),
    ("kodaira-I2-family", 0, "valid", 1, "TypeError: expect[0].valid must be true or false, got 1"),
    ("kodaira-I2-family", 3, "obstructed", "no", "TypeError: expect[3].obstructed must be true or false, got 'no'"),
    ("cochain-triangle-closed", 0, "closed", 1, "TypeError: expect[0].closed must be true or false, got 1"),
    ("kodaira-I2-family", 1, "op", ["component_group"],
     "TypeError: expect[1].op must be a string, got ['component_group']"),
    ("kodaira-I2-family", 1, "op", MISSING, "ValueError: expect[1].op is missing"),
    ("kodaira-I2-family", 2, "value", MISSING, "ValueError: expect[2].value is missing"),
    ("kodaira-I2-family", 1, "invariant_factors", MISSING, "ValueError: expect[1].invariant_factors is missing"),
    ("example-3.7-cubic-curves", 0, "fiber", "no-such-fiber",
     "ValueError: expect[0].fiber: the scenario has no curve fiber 'no-such-fiber'"),
    # A string was once compared as the set of its characters.
    ("example-5.1-obstruction", 0, "witnesses", "type-II-point",
     "TypeError: expect[0].witnesses must be a list, got 'type-II-point'"),
])
def test_malformed_expectation_is_a_failed_check_naming_its_path(tmp_path, monkeypatch, name, index, key, value,
                                                                 actual):
    assert probe_checks(tmp_path, monkeypatch, name, index, key, value).actual == actual


@pytest.mark.parametrize("name, index, key, value, expected, actual", [
    ("kodaira-I2-family", 1, "op", "no_such_op", "known operation", "unknown op 'no_such_op'"),
    ("kodaira-I2-family", 3, "obstructed", True, "obstructed", "ExtensionResult"),
    ("nef-extension-two-component", 0, "targets", [1, 0], "an extension",
     "obstructed: target sum mismatch: sum c_i d_i must equal the total"),
    ("example-3.7-cubic-curves", 0, "error", "NotSemistable", "NotSemistable", "classified abelian variety"),
])
def test_wrong_expectation_is_a_failed_check(tmp_path, monkeypatch, name, index, key, value, expected, actual):
    check = probe_checks(tmp_path, monkeypatch, name, index, key, value)
    assert (check.expected, check.actual) == (expected, actual)


@pytest.mark.parametrize("op", ["classify_curve_fiber", "numerical_triviality"])
@pytest.mark.parametrize("fiber, actual", [
    ("nope", "ValueError: expect[4].fiber: the scenario has no curve fiber 'nope'"),
    (MISSING, "ValueError: expect[4].fiber: the scenario has no curve fiber 'default'"),
    (3, "TypeError: expect[4].fiber must be a string, got 3"),
    (["elliptic"], "TypeError: expect[4].fiber must be a string, got ['elliptic']"),
])
def test_unknown_curve_fiber_is_named_by_its_path(op, fiber, actual):
    """Both curve-fiber checks once failed as ``KeyError: 'nope'``, and a
    list label as an unhashable ``TypeError``."""
    sc = corpus.load_scenario("example-3.7-cubic-curves")
    entry = {"op": op, "torus_rank": 0, "degrees": [], "trivial": True}
    if fiber is not MISSING:
        entry["fiber"] = fiber
    check = corpus._run_check(sc, entry, 4)
    assert (check.passed, check.actual) == (False, actual)
    assert corpus._run_check(sc, {**entry, "fiber": "elliptic"}, 4).actual != actual


def test_expected_obstruction_passes():
    sc = corpus.load_scenario("nef-extension-two-component")
    check = corpus._run_check(sc, {"op": "extend_nef", "targets": ["1", 0], "obstructed": True}, 0)
    assert (check.passed, check.expected, check.actual) == (True, "obstructed", "Obstructed")


# op -> the section its check reads first.  The curve-fiber ops then look
# their fiber up by label (see test_unknown_curve_fiber_is_named_by_its_path).
SECTION_OPS = {
    "validate_lattice": "lattice", "extend_trivial": "lattice", "extend_nef": "lattice",
    "denominator_bound": "lattice", "component_group": "lattice", "homology": "strata",
    "torus_rank": "strata", "classify_snc_fiber": "strata", "is_closed": "cochain", "is_exact": "cochain",
    "h1_class": "cochain", "extension_obstruction": "obstruction", "classify_curve_fiber": "curve_fibers",
    "numerical_triviality": "curve_fibers",
}
# Every expected value an op reads, well typed, so only the section is missing.
EVERY_VALUE = {"valid": True, "value": 0, "invariant_factors": [], "betti": [1], "closed": True, "exact": True,
               "trivial": True, "obstructed": False, "degrees": []}


def test_every_op_that_reads_a_section_is_covered():
    assert set(corpus._HANDLERS) - set(SECTION_OPS) == set()


@pytest.mark.parametrize("op, section", sorted(SECTION_OPS.items()))
def test_missing_section_is_named_as_the_cli_names_it(op, section):
    """A check once crashed on the absent section, reporting an
    ``AttributeError`` of ``None``, or, for a curve-fiber op, ``KeyError:
    'default'``."""
    check = corpus._run_check(Scenario(name="probe"), {"op": op, **EVERY_VALUE}, 0)
    assert not check.passed
    assert check.actual == f"ValueError: scenario file lacks a {section!r} section"


@pytest.mark.parametrize("op", ["extend_trivial", "extend_nef"])
def test_extension_without_a_trace_names_the_trace(op):
    sc = dataclasses.replace(corpus.load_scenario("kodaira-I2-family"), trace=None)
    check = corpus._run_check(sc, {"op": op, **EVERY_VALUE}, 0)
    assert check.actual == "ValueError: scenario file lacks a 'trace' section"
