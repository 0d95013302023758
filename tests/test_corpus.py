import json

import pytest

from fiberext import corpus

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


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        corpus.load_scenario("no-such-scenario")
    with pytest.raises(KeyError):
        corpus.run_scenario("no-such-scenario")


@pytest.mark.parametrize("index, key, value", [(2, "value", "2"), (3, "denominator_divides", True),
                                               (3, "denominator", "1"), (2, "value", None)])
def test_non_integer_expectation_fails_naming_its_path(tmp_path, monkeypatch, index, key, value):
    data = json.loads((corpus._scenario_dir() / "kodaira-I2-family.json").read_text())
    data["expect"][index][key] = value
    (tmp_path / "probe.json").write_text(json.dumps(data))
    monkeypatch.setattr(corpus, "_scenario_dir", lambda: tmp_path)
    checks = corpus.run_scenario("probe").checks
    assert [c.passed for c in checks] == [k != index for k in range(4)]
    assert checks[index].actual == f"TypeError: expect[{index}].{key} must be an integer, got {value!r}"
