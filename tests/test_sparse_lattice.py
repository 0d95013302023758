"""Fiber lattices stored as sparse integer rows, and the indexed echelon.

``FiberLattice`` stores ``(d, rows)`` and builds its ``Fraction`` matrix on
first read; however it is built (dense ``Fraction`` tuples, JSON ints, "p/q"
strings, ``kodaira_cycle``'s sparse rows) the public data and the integer
form agree.  ``linalg.echelon`` with its column index must return exactly
what the scanning elimination in ``oracles`` returns.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import lcm

import pytest

from conftest import random_fiber_lattice
from fiberext import cli, linalg
from fiberext.lattice import (
    DivisorTrace,
    FiberLattice,
    component_group,
    denominator_bound,
    extend_nef,
    extend_trivial,
    kodaira_cycle,
    validate_lattice,
)
from fiberext.scenario import load_scenario_file, parse_lattice
from oracles import echelon_reference
from test_elimination import mutants, rational_lattice


def gauge_last(lat):
    """The rows ``FiberLattice._elimination`` eliminates: ``-A`` with the
    gauge index 0 moved last."""
    n, a = lat.size, lat._integer_matrix[1]
    return [{(j - 1) % n: -x for j, x in row.items()} for row in a[1:] + a[:1]]


def assert_same_echelon(rows, ncols):
    copies = [dict(row) for row in rows]
    got, want = linalg.echelon(rows, ncols), echelon_reference(rows, ncols)
    assert got == want
    assert rows == copies
    return got


def random_rows(rng):
    """Sparse integer rows of a random shape and density, with zero rows,
    duplicate rows and now and then entries at columns >= ncols."""
    m, n = rng.randint(0, 8), rng.randint(0, 9)
    density = rng.random()
    width = n + rng.choice((0, 0, 1, 2))
    rows = [{j: rng.choice((-4, -2, -1, 1, 1, 2, 3, 7)) for j in range(width) if rng.random() < density}
            for _ in range(m)]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), dict(rng.choice(rows)))
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), {})
    return rows, n


class TestIndexedEchelon:
    def test_random_sparse_matrices(self):
        rng = random.Random(28)
        for _ in range(3000):
            assert_same_echelon(*random_rows(rng))

    def test_degenerate_shapes(self):
        for rows, n in [([], 0), ([], 5), ([{}], 3), ([{}, {}], 0), ([{0: 2}, {0: 2}], 1),
                        ([{0: 1, 3: 5}, {0: 2, 3: 1}], 1), ([{2: 3}], 2)]:
            assert_same_echelon(rows, n)

    def test_augmented_column_as_in_solve_rational(self):
        """``solve_rational`` eliminates ``[A | b]`` over the columns of A."""
        rng = random.Random(6)
        for _ in range(500):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-5, 5) for _ in range(m)]
            pivots, rest = assert_same_echelon(linalg.sparse([[*row, b] for row, b in zip(mat, rhs)]), n)
            assert len(pivots) + len(rest) == m

    def test_gauge_last_rows_of_lattices_and_mutants(self):
        rng = random.Random(20261020)
        for _ in range(300):
            lat = random_fiber_lattice(rng, 10)
            for case in [lat, rational_lattice(rng), *mutants(rng, lat, random_fiber_lattice(rng, 4))]:
                pivots, _ = assert_same_echelon(gauge_last(case), case.size)
                assert pivots == case._elimination

    def test_pivot_is_the_first_live_row(self):
        """Column 0 pivots on row 1, the lesser of rows 1 and 2; column 1
        then pivots on row 0, not on the updated row 2."""
        pivots, rest = assert_same_echelon([{1: 1}, {0: 3, 1: 1}, {0: 1}], 2)
        assert [(i, c) for i, c, _ in pivots] == [(1, 0), (0, 1)]
        assert rest == [{}]


def json_entry(rng, x: Fraction, strings: bool):
    """``x`` as a JSON int, or as a "p/q" string (not always reduced)."""
    if not strings and x.denominator == 1:
        return x.numerator
    k = rng.choice((1, 2, 3))
    return f"{k * x.numerator}/{k * x.denominator}"


def builds(rng, labels, source, multiplicities):
    """``(lattice, its matrix read from the input)`` for the matrix
    ``source`` (rows of Fractions) built from dense ``Fraction`` tuples, from
    a ``lattice`` section of JSON ints (where integral) and from one of
    "p/q" strings."""
    section = {"labels": list(labels), "multiplicities": list(multiplicities)}
    fractions = tuple(tuple(Fraction(x) for x in row) for row in source)
    out = [(FiberLattice(labels, fractions, multiplicities), fractions)]
    for strings in (False, True):
        if strings or all(x.denominator == 1 for row in fractions for x in row):
            matrix = json.loads(json.dumps([[json_entry(rng, x, strings) for x in row] for row in fractions]))
            read = tuple(tuple(Fraction(x) for x in row) for row in matrix)
            out.append((parse_lattice({**section, "matrix": matrix}), read))
    return out


def assert_equivalent(built):
    first = built[0][0]
    for lat, read in built:
        assert type(lat.matrix) is tuple
        assert all(type(row) is tuple and all(type(x) is Fraction for x in row) for row in lat.matrix)
        assert lat.matrix == read
        assert lat == first and hash(lat) == hash(first) and repr(lat) == repr(first)
        d = lcm(*[x.denominator for row in read for x in row])
        assert lat._integer_matrix == (d, [{j: int(x * d) for j, x in enumerate(row) if x} for row in read])


def cycle_matrix(n):
    """The intersection matrix of ``I_n``, dense: ``I_2``'s off-diagonal entries are 2."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] -= 2
        mat[i][(i + 1) % n] += 1
        mat[(i + 1) % n][i] += 1
    return mat


class TestLatticeBuilds:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_kodaira_cycle_matches_every_dense_build(self, n):
        cycle = kodaira_cycle(n)
        built = builds(random.Random(n), cycle.labels, cycle_matrix(n), (1,) * n)
        assert_equivalent([*built, (cycle, built[0][1])])

    def test_generators_mutants_and_scaled_lattices(self):
        rng = random.Random(1020)
        for _ in range(150):
            lat = random_fiber_lattice(rng, 10)
            s = Fraction(rng.choice((1, 2, 5)), rng.choice((3, 4, 7)))
            scaled = (lat.labels, [[s * x for x in row] for row in lat.matrix], lat.multiplicities)
            for case in [lat, *mutants(rng, lat, random_fiber_lattice(rng, 4))]:
                assert_equivalent(builds(rng, case.labels, case.matrix, case.multiplicities))
            assert_equivalent(builds(rng, *scaled))

    def test_different_data_is_unequal(self):
        base = kodaira_cycle(3)
        others = [FiberLattice(base.labels, [[-2, 1, 1], [1, -2, 1], [1, 1, -3]], (1, 1, 1)),
                  FiberLattice(("A", "B", "C"), base.matrix, (1, 1, 1)),
                  FiberLattice(base.labels, base.matrix, (1, 1, 2)),
                  FiberLattice(base.labels, base.matrix, (1, 1, 1), connected=False),
                  FiberLattice(base.labels, [[Fraction(x, 2) for x in row] for row in base.matrix], (1, 1, 1))]
        for other in others:
            assert other != base and base != other
        assert base != base._integer_matrix and base != None  # noqa: E711

    def test_the_view_is_built_on_first_read_only(self, tmp_path):
        """Nothing on the ``extend`` path reads ``matrix``."""
        path = tmp_path / "i6.json"
        cycle = kodaira_cycle(6)
        path.write_text(json.dumps({
            "name": "I_6",
            "lattice": {"labels": list(cycle.labels), "matrix": [[int(x) for x in row] for row in cycle.matrix],
                        "multiplicities": list(cycle.multiplicities)},
            "trace": {"values": [1, -1, 0, 0, 0, 0]}}))
        scenario = load_scenario_file(path)
        lat = scenario.lattice
        extend_trivial(lat, scenario.trace)
        extend_nef(lat, scenario.trace)
        assert (denominator_bound(lat), component_group(lat).torsion) == (6, (6,))
        assert "matrix" not in vars(lat)
        assert lat.matrix is lat.matrix and "matrix" in vars(lat)

    def test_lattices_are_frozen(self):
        lat = kodaira_cycle(2)
        with pytest.raises(FrozenInstanceError):
            lat.labels = ("X", "Y")
        with pytest.raises(FrozenInstanceError):
            del lat.multiplicities

    @pytest.mark.parametrize("matrix", [((-2, 2), (2,)), ((-2, 2),), ((-2, 2), (2, -2, 0)),
                                        ((Fraction(-2), 2), ("2",))])
    def test_ragged_rows_are_refused(self, matrix):
        with pytest.raises(ValueError, match="intersection matrix must be square and match the labels"):
            FiberLattice(("A", "B"), matrix, (1, 1))

    def test_a_bool_entry_is_refused(self):
        with pytest.raises(ValueError, match="not an exact rational: True"):
            FiberLattice(("A", "B"), ((-2, 2), (2, True)), (1, 1))
        with pytest.raises(ValueError, match=r"^lattice.matrix\[1\]\[0\]: not an exact rational: False$"):
            parse_lattice({"labels": ["A", "B"], "matrix": [[-2, 2], [False, -2]], "multiplicities": [1, 1]})

    @pytest.mark.parametrize("build", [
        lambda: FiberLattice(("A", "B"), [{0: -2, 1: 2}, {0: 2, 1: -2}], (1, 1)),
        lambda: FiberLattice(("A", "B"), ["00", "00"], (1, 1)),
        lambda: FiberLattice(("A", "B"), [b"00", b"00"], (1, 1)),
        lambda: FiberLattice(("A", "B"), [{-2, 2}, {-2, 2}], (1, 1)),
        lambda: FiberLattice(("A", "B"), {0: (-2, 2), 1: (2, -2)}, (1, 1)),
        lambda: FiberLattice("AB", ((-2, 2), (2, -2)), (1, 1)),
        lambda: FiberLattice(("A", "B"), ((-2, 2), (2, -2)), {1: 1, 2: 1}),
        lambda: DivisorTrace("12"),
        lambda: DivisorTrace({3: 1, 4: 2}),
        lambda: extend_nef(kodaira_cycle(2), DivisorTrace((1, -1)), "00"),
    ], ids=["dict rows", "str rows", "bytes rows", "set rows", "dict matrix", "str labels",
            "dict multiplicities", "str trace", "dict trace", "str targets"])
    def test_a_non_sequence_is_refused(self, build):
        """Each of these iterates as characters, keys or in no fixed order,
        and used to give a lattice, trace or target vector silently."""
        with pytest.raises(TypeError, match="^expected a sequence of entries, got a "):
            build()

    def test_a_bad_entry_is_named_before_a_later_field(self):
        """A row-by-row read met the matrix before the multiplicities."""
        with pytest.raises(ValueError, match=r"^lattice.matrix\[0\]\[1\]: not an exact rational: 'x'$"):
            parse_lattice({"labels": ["A", "B"], "matrix": [[-2, "x"], [2, -2]], "multiplicities": [1, "1"]})
        with pytest.raises(ValueError, match=r"^lattice.matrix\[1\]\[1\]: not an exact rational: None$"):
            parse_lattice({"labels": ["A", "B"], "matrix": [[-2, 2], [2, None]]})


def cli_output(tmp_path, section, trace, *argv):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"name": "edge", "lattice": section, "trace": {"values": trace}}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["extend", str(path), *argv])
    return code, out.getvalue(), err.getvalue()


def test_empty_lattice_cli_output(tmp_path):
    section = {"labels": [], "matrix": [], "multiplicities": []}
    assert cli_output(tmp_path, section, []) == (
        1, "", "error: extend_trivial requires a valid lattice; failed: ['kernel_is_multiplicity_span']\n")


def test_one_zero_component_cli_output(tmp_path):
    section = {"labels": ["A"], "matrix": [[0]], "multiplicities": [1]}
    assert cli_output(tmp_path, section, [0]) == (0, "a = (0); m = 1\nachieved trace = (0)\n"
                                                     "normalization: a[0] = 0\n"
                                                     "denominator bound = 1; component group invariants = []\n", "")
    payload = {"coefficients": ["0"], "denominator": 1, "normalization": "a[0] = 0", "achieved_trace": ["0"],
               "denominator_bound": 1, "component_group": [], "exit_code": 0}
    assert cli_output(tmp_path, section, [0], "--format", "machine") == (0, json.dumps(payload, indent=2) + "\n", "")


def test_large_cycle_build_and_invariants_are_fast():
    """``I_2560``: build, validation, both Smith invariants and one
    extension.  Built through dense ``Fraction`` rows, as lattices once
    were, the same run took about 1 s on a shared 2-vCPU VM."""
    n = 2560
    start = time.perf_counter()
    cycle = kodaira_cycle(n)
    assert validate_lattice(cycle).valid
    assert component_group(cycle).torsion == (n,) and denominator_bound(cycle) == n
    result = extend_trivial(cycle, DivisorTrace([1, -1] + [0] * (n - 2)))
    elapsed = time.perf_counter() - start
    assert result.coefficients[1] == Fraction(1 - n, n)
    assert elapsed < 0.3, elapsed
