"""Differential tests of the fraction-free elimination against the
``Fraction`` Gauss-Jordan reference path kept in ``oracles``."""

import random
from fractions import Fraction

import pytest

from conftest import random_fiber_lattice, random_nonorthogonal_trace, random_orthogonal_trace
from fiberext import lattice as lattice_mod
from fiberext import linalg
from fiberext.lattice import DivisorTrace, FiberLattice, PreconditionError
from oracles import rational_kernel_reference, solve_rational_reference, validation_checks_reference


def with_matrix(lat, mat, mult=None):
    return FiberLattice(
        labels=tuple(f"C{k}" for k in range(len(mat))),
        matrix=tuple(tuple(Fraction(x) for x in row) for row in mat),
        multiplicities=tuple(lat.multiplicities if mult is None else mult),
    )


def mutants(rng, lat, other):
    """Invalid variants: a flipped diagonal sign, an asymmetric entry, and
    two blocks marked connected."""
    n = lat.size
    mat = [list(row) for row in lat.matrix]
    k = rng.randrange(n)
    flipped = [row[:] for row in mat]
    flipped[k][k] = -flipped[k][k]
    out = [with_matrix(lat, flipped)]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        asym = [row[:] for row in mat]
        asym[i][j] += rng.choice((-1, 1))
        out.append(with_matrix(lat, asym))
    m = other.size
    block = [row + [0] * m for row in mat] + [[0] * n + list(row) for row in other.matrix]
    out.append(with_matrix(lat, block, lat.multiplicities + other.multiplicities))
    return out


def first_multiplicity_above_one(rng):
    """A random lattice permuted so that component 0 has multiplicity > 1."""
    while True:
        lat = random_fiber_lattice(rng, 10)
        heavy = [i for i, c in enumerate(lat.multiplicities) if c > 1]
        if heavy:
            break
    k = rng.choice(heavy)
    order = [k] + [i for i in range(lat.size) if i != k]
    mat = [[lat.matrix[i][j] for j in order] for i in order]
    return with_matrix(lat, mat, [lat.multiplicities[i] for i in order])


def rational_lattice(rng):
    """A valid lattice with a non-integral intersection matrix."""
    lat = random_fiber_lattice(rng, 8)
    while lat.size < 2:
        lat = random_fiber_lattice(rng, 8)
    s = Fraction(rng.choice((1, 2, 5)), rng.choice((3, 4, 7)))
    return with_matrix(lat, [[s * x for x in row] for row in lat.matrix])


def reference_extend(lat, run, monkeypatch):
    """Run an extension with the reference solver."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "solve_rational", solve_rational_reference)
        return run(lat)


def check_against_reference(rng, lat, monkeypatch):
    assert lattice_mod.validate_lattice(lat).checks == validation_checks_reference(lat)
    if not lattice_mod.validate_lattice(lat).valid:
        # Singular and indefinite systems: compare the solvers directly.
        rows = [list(r) for r in lat.matrix]
        assert linalg.rational_kernel(rows, lat.size) == rational_kernel_reference(rows, lat.size)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(lat.size)]
        assert linalg.solve_rational(rows, rhs) == solve_rational_reference(rows, rhs)
        with pytest.raises(PreconditionError):
            lattice_mod.extend_trivial(lat, DivisorTrace((0,) * lat.size))
        return
    for trace in (random_orthogonal_trace(rng, lat), random_nonorthogonal_trace(rng, lat)):
        runs = [lambda x: lattice_mod.extend_trivial(x, trace), lambda x: lattice_mod.extend_nef(x, trace)]
        total = trace.total(lat)
        if total > 0:
            # Nonnegative targets rescaled so that sum c_i d_i hits the total.
            targets = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(lat.size)]
            w = sum(c * t for c, t in zip(lat.multiplicities, targets))
            scaled = [t * total / w for t in targets]
            runs.append(lambda x: lattice_mod.extend_nef(x, trace, scaled))
        for run in runs:
            assert run(lat) == reference_extend(lat, run, monkeypatch)


def test_random_lattices_and_mutants_match_reference(monkeypatch):
    rng = random.Random(20261017)
    for _ in range(500):
        lat = random_fiber_lattice(rng, 10)
        check_against_reference(rng, lat, monkeypatch)
        for bad in mutants(rng, lat, random_fiber_lattice(rng, 4)):
            check_against_reference(rng, bad, monkeypatch)


def test_rational_matrix_matches_reference(monkeypatch):
    rng = random.Random(7)
    for _ in range(40):
        lat = rational_lattice(rng)
        assert not lat.is_integral()
        assert lattice_mod.validate_lattice(lat).valid
        check_against_reference(rng, lat, monkeypatch)


def test_first_component_multiplicity_above_one_matches_reference(monkeypatch):
    rng = random.Random(11)
    for _ in range(40):
        lat = first_multiplicity_above_one(rng)
        assert lat.multiplicities[0] > 1
        check_against_reference(rng, lat, monkeypatch)


def test_rank_deficient_rational_systems_match_reference():
    rng = random.Random(3)
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        base = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, m))]
        mat = [[sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            zero = rng.randrange(n)
            for row in mat:
                row[zero] = Fraction(0)
        assert linalg.rational_kernel(mat, n) == rational_kernel_reference(mat, n)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        consistent = linalg.mat_vec(mat, x)
        assert linalg.solve_rational(mat, consistent) == solve_rational_reference(mat, consistent)
        noisy = [b + rng.randint(-1, 1) for b in consistent]
        assert linalg.solve_rational(mat, noisy) == solve_rational_reference(mat, noisy)


def test_invariants_are_cached_per_lattice():
    lat = lattice_mod.kodaira_cycle(6)
    report = lattice_mod.validate_lattice(lat)
    assert lattice_mod.validate_lattice(lat) is report
    group = lattice_mod.component_group(lat)
    assert lattice_mod.component_group(lat) is group
    assert lattice_mod.denominator_bound(lat) == 6
    twin = lattice_mod.kodaira_cycle(6)
    assert twin == lat and hash(twin) == hash(lat) and repr(twin) == repr(lat)
