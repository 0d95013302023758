"""Differential tests of the integer lattice path.

Scenario files hold lattice and trace entries as JSON ints, "p/q" strings
(reduced or not) and non-integral values.  What they load to must equal
the lattices and traces built from ``Fraction``s, and every invariant and
extension must match the ``Fraction`` reference path in ``oracles``.
"""

import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import random_fiber_lattice, random_nonorthogonal_trace, random_orthogonal_trace
from fiberext import linalg
from fiberext.lattice import (
    DivisorTrace,
    FiberLattice,
    Obstructed,
    component_group,
    denominator_bound,
    extend_nef,
    extend_trivial,
    kodaira_cycle,
    parse_rational,
    validate_lattice,
)
from fiberext.scenario import load_scenario_file
from oracles import (
    cokernel_exponent_oracle,
    component_group_reference,
    extend_reference,
    integer_matrix_reference,
    validation_checks_reference,
)


def json_rational(rng, x: Fraction):
    """``x`` as a JSON int when it is one (mostly), else as a "p/q" string."""
    if x.denominator == 1 and rng.random() < 0.7:
        return x.numerator
    k = rng.choice((1, 1, 2, 3))
    return f"{k * x.numerator}/{k * x.denominator}"


def write_scenario(path, rng, lat, trace):
    path.write_text(json.dumps({
        "name": "differential",
        "lattice": {"labels": list(lat.labels),
                    "matrix": [[json_rational(rng, x) for x in row] for row in lat.matrix],
                    "multiplicities": list(lat.multiplicities),
                    "connected": lat.connected},
        "trace": {"values": [json_rational(rng, x) for x in trace.values]},
    }))
    return load_scenario_file(path)


def random_case(rng):
    """A random valid lattice, non-integral one time in four, and a trace
    that is orthogonal, non-orthogonal or non-integral."""
    lat = random_fiber_lattice(rng, 10)
    if rng.random() < 0.25:
        s = Fraction(rng.choice((1, 2, 5)), rng.choice((3, 4, 7)))
        lat = FiberLattice(lat.labels, [[s * x for x in row] for row in lat.matrix], lat.multiplicities)
    trace = rng.choice((random_orthogonal_trace, random_nonorthogonal_trace))(rng, lat)
    if rng.random() < 0.25:
        q = rng.randint(2, 5)
        trace = DivisorTrace([x / q for x in trace.values])
    return lat, trace


def assert_same_public_data(loaded, built):
    assert loaded == built and hash(loaded) == hash(built) and repr(loaded) == repr(built)


def assert_fraction_tuples(rows):
    assert type(rows) is tuple
    for row in rows:
        assert type(row) is tuple and all(type(x) is Fraction for x in row)


def extensions(rng, lat, trace):
    """(name, result, reference or obstruction value) for each extension mode."""
    c = lat.multiplicities
    total = sum(Fraction(ci) * v for ci, v in zip(c, trace.values))
    i0 = next(i for i, ci in enumerate(c) if ci)
    zeros = [Fraction(0)] * lat.size
    out = [("trivial", extend_trivial(lat, trace),
            extend_reference(lat, trace, zeros) if total == 0 else total)]
    default = zeros[:]
    default[i0] = total / c[i0]
    out.append(("nef", extend_nef(lat, trace), extend_reference(lat, trace, default) if total >= 0 else total))
    if total > 0:
        weights = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(lat.size)]
        w = sum(ci * t for ci, t in zip(c, weights))
        targets = [t * total / w for t in weights]
        out.append(("nef-targets", extend_nef(lat, trace, targets), extend_reference(lat, trace, targets)))
    return out


def test_loaded_lattices_match_fraction_built_and_reference(tmp_path):
    rng = random.Random(20261018)
    for k in range(150):
        lat, trace = random_case(rng)
        loaded = write_scenario(tmp_path / f"s{k}.json", rng, lat, trace)
        assert_same_public_data(loaded.lattice, lat)
        assert_same_public_data(loaded.trace, trace)
        assert_fraction_tuples(loaded.lattice.matrix)
        assert_fraction_tuples((loaded.trace.values,))
        expected = integer_matrix_reference(lat)
        assert loaded.lattice._integer_matrix == (expected[0], linalg.sparse(expected[1])) == lat._integer_matrix
        assert loaded.lattice.is_integral() == (expected[0] == 1)
        checks = validation_checks_reference(lat)
        assert validate_lattice(loaded.lattice).checks == validate_lattice(lat).checks == checks
        for name, result, want in extensions(rng, loaded.lattice, loaded.trace):
            if isinstance(want, Fraction):
                assert isinstance(result, Obstructed) and result.value == want, name
            else:
                assert (result.coefficients, result.denominator, result.achieved_trace) == want, name
                assert_fraction_tuples((result.coefficients, result.achieved_trace))
        if lat.is_integral():
            i0 = next(i for i, c in enumerate(lat.multiplicities) if c)
            idx = [i for i in range(lat.size) if i != i0]
            reduced = [[int(lat.matrix[i][j]) for j in idx] for i in idx]
            assert denominator_bound(loaded.lattice) == (cokernel_exponent_oracle(reduced) if reduced else 1)
            assert component_group(loaded.lattice).torsion == component_group_reference(lat)


def test_ints_outside_the_shared_table_load_as_fractions(tmp_path):
    """Ints outside -64..64 miss the table of shared small Fractions; they
    load as ``Fraction``s equal to them all the same."""
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "name": "large",
        "lattice": {"labels": ["A", "B"], "matrix": [[-100, 100], [100, -100]], "multiplicities": [1, 1]},
        "trace": {"values": [65, -65]},
    }))
    loaded = load_scenario_file(path)
    built = FiberLattice(("A", "B"), [[Fraction(-100), Fraction(100)], [Fraction(100), Fraction(-100)]], (1, 1))
    assert_same_public_data(loaded.lattice, built)
    assert_same_public_data(loaded.trace, DivisorTrace((Fraction(65), Fraction(-65))))
    assert_fraction_tuples(loaded.lattice.matrix)
    assert_fraction_tuples((loaded.trace.values,))
    assert loaded.lattice.matrix == ((-100, 100), (100, -100)) and loaded.trace.values == (65, -65)


# Strings go through the "p/q" grammar before any arithmetic: Fraction()
# reads most of the strings below, and builds a 10^8-digit integer from
# "1e100000000".
@pytest.mark.parametrize("bad", [True, None, "1e100000000", "2.5", " 1/2", "1_0", "\u0663", "1/-2"])
@pytest.mark.parametrize("section", ["matrix", "values"])
def test_non_rational_entries_are_rejected(tmp_path, bad, section):
    data = {"name": "bad",
            "lattice": {"labels": ["A", "B"], "matrix": [[-2, 2], [2, -2]], "multiplicities": [1, 1]},
            "trace": {"values": [1, -1]}}
    if section == "matrix":
        data["lattice"]["matrix"][0][1] = bad
    else:
        data["trace"]["values"][1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"not an exact rational: {bad!r}"):
        load_scenario_file(path)


@pytest.mark.parametrize("build", [
    lambda: DivisorTrace([True, 0]),
    lambda: DivisorTrace([Decimal(1), 0]),
    lambda: FiberLattice(("A", "B"), ((-2, 2), (2, "2.5")), (1, 1)),
    lambda: extend_nef(kodaira_cycle(2), DivisorTrace((1, -1)), targets=[True, False]),
], ids=["bool trace", "Decimal trace", "decimal string entry", "bool targets"])
def test_library_constructors_share_the_parser(build):
    """The library reads rationals with the scenario files' parser: bools,
    ``Decimal``s and strings outside "p/q" are refused, not coerced."""
    with pytest.raises(ValueError, match="not an exact rational"):
        build()


def test_parser_keeps_exact_values():
    assert [parse_rational(x) for x in (3, Fraction(1, 3), "-4/6", "+7", "0/5")] \
        == [3, Fraction(1, 3), Fraction(-2, 3), 7, 0]
    with pytest.raises(TypeError, match="floating point"):
        parse_rational(0.5)
    with pytest.raises(ValueError, match="zero denominator in rational '3/00'"):
        parse_rational("3/00")


def count_fractions(monkeypatch, run) -> int:
    """How many ``Fraction`` objects ``run()`` creates."""
    calls = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counting))
        run()
    return calls


def test_fraction_count_is_linear_in_the_cycle_length(tmp_path, monkeypatch):
    """Loading and extending ``I_n`` makes O(n) Fractions, not one per matrix entry."""
    for n in (6, 12, 18):
        cycle = kodaira_cycle(n)
        path = tmp_path / f"i{n}.json"
        path.write_text(json.dumps({
            "name": f"I_{n}",
            "lattice": {"labels": list(cycle.labels),
                        "matrix": [[int(x) for x in row] for row in cycle.matrix],
                        "multiplicities": list(cycle.multiplicities)},
            "trace": {"values": [1, -1] + [0] * (n - 2)},
        }))

        def run():
            scenario = load_scenario_file(path)
            assert validate_lattice(scenario.lattice).valid
            extend_trivial(scenario.lattice, scenario.trace)
            extend_nef(scenario.lattice, scenario.trace)

        count = count_fractions(monkeypatch, run)
        assert count <= 5 * n, (n, count)
