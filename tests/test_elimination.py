"""Differential tests of the package's eliminations: the sparse symmetric
elimination behind validation and the extension solve, and the dense
fraction-free solvers in ``linalg``, against the ``Fraction`` references
and the dense sweep kept in ``oracles``."""

import random
from fractions import Fraction

import pytest

from conftest import random_fiber_lattice, random_nonorthogonal_trace, random_orthogonal_trace
from fiberext import lattice as lattice_mod
from fiberext import linalg
from fiberext.lattice import DivisorTrace, FiberLattice, Obstructed, PreconditionError
from oracles import (
    cokernel_order_oracle,
    component_group_reference,
    extend_reference,
    kernel_basis_reference,
    rational_kernel_dense_reference,
    rational_kernel_reference,
    rational_rank_oracle,
    semidefinite_rank_reference,
    solve_rational_dense_reference,
    solve_rational_reference,
    solve_reference,
    validation_checks_reference,
)


def with_matrix(lat, mat, mult=None):
    return FiberLattice(
        labels=tuple(f"C{k}" for k in range(len(mat))),
        matrix=tuple(tuple(Fraction(x) for x in row) for row in mat),
        multiplicities=tuple(lat.multiplicities if mult is None else mult),
    )


def mutants(rng, lat, other):
    """Invalid variants: a flipped diagonal sign, an asymmetric entry, a
    nonzero off-diagonal entry zeroed on one side only, and two blocks
    marked connected."""
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
    nonzero = [(i, j) for i in range(n) for j in range(n) if i != j and mat[i][j]]
    if nonzero:
        i, j = rng.choice(nonzero)
        one_sided = [row[:] for row in mat]
        one_sided[i][j] = 0
        out.append(with_matrix(lat, one_sided))
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


def dense_semidefinite(mat):
    return semidefinite_rank_reference([[int(x) for x in row] for row in mat])[0]


def check_extensions(rng, lat, solve):
    """Every extension of two random traces equals the reference solution of
    its targets (``solve`` solving the gauge-reduced system), or is
    obstructed exactly when no targets exist."""
    for trace in (random_orthogonal_trace(rng, lat), random_nonorthogonal_trace(rng, lat)):
        total = trace.total(lat)
        zero = [Fraction(0)] * lat.size
        gauge = [total / lat.multiplicities[0]] + zero[1:]
        cases = [(lattice_mod.extend_trivial(lat, trace), "a", zero if total == 0 else None),
                 (lattice_mod.extend_nef(lat, trace), "b", gauge if total >= 0 else None)]
        if total > 0:
            # Nonnegative targets rescaled so that sum c_i d_i hits the total.
            targets = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(lat.size)]
            w = sum(c * t for c, t in zip(lat.multiplicities, targets))
            scaled = [t * total / w for t in targets]
            cases.append((lattice_mod.extend_nef(lat, trace, scaled), "b", scaled))
        for got, symbol, targets in cases:
            if targets is None:
                assert isinstance(got, Obstructed)
                continue
            assert (got.coefficients, got.denominator, got.achieved_trace) == \
                extend_reference(lat, trace, targets, solve)
            assert got.normalization == f"{symbol}[0] = 0"


def check_against_reference(rng, lat, dense=False):
    """Validation and extensions against the Fraction references, or, with
    ``dense``, against the dense integer sweep and solvers the package ran
    before (for lattices too large for Fraction Gauss-Jordan)."""
    refs = {"semidefinite": dense_semidefinite, "kernel": rational_kernel_dense_reference} if dense else {}
    assert lattice_mod.validate_lattice(lat).checks == validation_checks_reference(lat, **refs)
    if not lattice_mod.validate_lattice(lat).valid:
        # Singular and indefinite systems: compare the solvers directly.
        rows = [list(r) for r in lat.matrix]
        assert linalg.rational_kernel(rows, lat.size) == rational_kernel_reference(rows, lat.size)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(lat.size)]
        assert linalg.solve_rational(rows, rhs) == solve_rational_reference(rows, rhs)
        with pytest.raises(PreconditionError):
            lattice_mod.extend_trivial(lat, DivisorTrace((0,) * lat.size))
        return
    check_extensions(rng, lat, solve_rational_dense_reference if dense else solve_rational_reference)


def test_random_lattices_and_mutants_match_reference():
    rng = random.Random(20261017)
    for _ in range(500):
        lat = random_fiber_lattice(rng, 10)
        check_against_reference(rng, lat)
        for bad in mutants(rng, lat, random_fiber_lattice(rng, 4)):
            check_against_reference(rng, bad)


def test_rational_matrix_matches_reference():
    rng = random.Random(7)
    for _ in range(40):
        lat = rational_lattice(rng)
        assert not lat.is_integral()
        assert lattice_mod.validate_lattice(lat).valid
        check_against_reference(rng, lat)


def test_first_component_multiplicity_above_one_matches_reference():
    rng = random.Random(11)
    for _ in range(40):
        lat = first_multiplicity_above_one(rng)
        assert lat.multiplicities[0] > 1
        check_against_reference(rng, lat)
        # The gauge multiplicity is above 1, so the group comes from the full matrix.
        assert lattice_mod.component_group(lat).torsion == component_group_reference(lat)


def test_gauge_multiplicity_one_component_group_matches_reference():
    """With multiplicity 1 at the gauge index the group is read off the
    gauge-reduced Smith diagonal that ``denominator_bound`` computes."""
    rng = random.Random(13)
    for _ in range(100):
        lat = random_fiber_lattice(rng, 12)
        assert lat.multiplicities[0] == 1
        group = lattice_mod.component_group(lat)
        assert group.torsion == component_group_reference(lat)
        assert max(group.torsion, default=1) == lattice_mod.denominator_bound(lat)


@pytest.mark.parametrize("n", [*range(2, 41), 160])
def test_kodaira_cycles_match_reference(n):
    rng = random.Random(n)
    lat = lattice_mod.kodaira_cycle(n)
    check_against_reference(rng, lat, dense=n > 40)
    assert lattice_mod.component_group(lat).torsion == (n,)


def test_large_blow_ups_match_reference():
    rng = random.Random(17)
    for size in (12, 16, 20, 24, 28, 32, 36, 40):
        lat = random_fiber_lattice(rng, size)
        check_against_reference(rng, lat)
        for bad in mutants(rng, lat, random_fiber_lattice(rng, 4)):
            check_against_reference(rng, bad)


def random_semidefinite(rng, n):
    """G^T G for a random integer G of random rank, now and then with a
    diagonal entry made negative."""
    g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
    mat = [[sum(r[i] * r[j] for r in g) for j in range(n)] for i in range(n)]
    if n and rng.random() < 0.3:
        k = rng.randrange(n)
        mat[k][k] = -mat[k][k] - 1
    return mat


def test_echelon_verdict_rank_and_solve_match_dense_sweep():
    """On random symmetric matrices: the semidefinite verdict of validation
    and the rank of ``linalg.echelon`` against the dense sweep and the
    rational rank, and ``solve_eliminated`` on each leading block against
    the Fraction solve; it returns ``None`` exactly when some leading
    principal minor of the block vanishes."""
    rng = random.Random(19)
    for _ in range(400):
        n = rng.randint(1, 8)
        mat = random_semidefinite(rng, n)
        lat = FiberLattice(tuple(f"C{k}" for k in range(n)), tuple(tuple(-x for x in row) for row in mat), (1,) * n)
        psd, rank = semidefinite_rank_reference([row[:] for row in mat])
        assert lattice_mod.validate_lattice(lat).checks[2][1] == psd
        rows = linalg.sparse(mat)
        pivots, _ = linalg.echelon(rows, n)
        assert rows == linalg.sparse(mat)
        assert len(pivots) == rational_rank_oracle(mat)
        assert not psd or len(pivots) == rank
        m = rng.randint(0, n)
        rhs = [rng.randint(-9, 9) for _ in range(m)]
        block = [row[:m] for row in mat[:m]]
        got = linalg.solve_eliminated(pivots, rhs)
        if all(cokernel_order_oracle([row[:k] for row in mat[:k]]) for k in range(1, m + 1)):
            det, y = got
            assert abs(det) == cokernel_order_oracle(block)
            assert [Fraction(x, det) for x in y] == solve_rational_reference(block, rhs)
        else:
            assert got is None


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
        assert linalg.rational_kernel(mat, n) == rational_kernel_reference(mat, n) \
            == rational_kernel_dense_reference(mat, n)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        consistent = linalg.mat_vec(mat, x)
        noisy = [b + rng.randint(-1, 1) for b in consistent]
        for rhs in (consistent, noisy):
            assert linalg.solve_rational(mat, rhs) == solve_rational_reference(mat, rhs) \
                == solve_rational_dense_reference(mat, rhs)


def test_invariants_are_cached_per_lattice():
    lat = lattice_mod.kodaira_cycle(6)
    report = lattice_mod.validate_lattice(lat)
    assert lattice_mod.validate_lattice(lat) is report
    group = lattice_mod.component_group(lat)
    assert lattice_mod.component_group(lat) is group
    assert lattice_mod.denominator_bound(lat) == 6
    twin = lattice_mod.kodaira_cycle(6)
    assert twin == lat and hash(twin) == hash(lat) and repr(twin) == repr(lat)


def test_smith_solvers_match_the_oracles():
    """``kernel_basis`` and the one diagonal solve behind ``solve_integer``
    and ``solve_mod`` against the oracles' Smith-form solve, on random
    integer systems whose right-hand side is or is not consistent; each
    solution found solves the system, and a consistent one is found."""
    rng = random.Random(31)
    for _ in range(400):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        mat = [[rng.choice((0, 0, 1, -1, rng.randint(-12, 12))) for _ in range(n)] for _ in range(m)]
        assert linalg.kernel_basis(mat, n) == kernel_basis_reference(mat, n)
        x = [rng.randint(-5, 5) for _ in range(n)]
        consistent = linalg.mat_vec(mat, x)
        noisy = [b + rng.randint(-2, 2) for b in consistent]
        for rhs in (consistent, noisy):
            got = linalg.solve_integer(mat, rhs, n)
            assert got == solve_reference(mat, rhs, n)
            assert got is not None or rhs is noisy
            assert got is None or linalg.mat_vec(mat, got) == rhs
            for mod in (1, 2, 6, 7, 12, 2**40 + 15):
                got = linalg.solve_mod(mat, rhs, mod, n)
                assert got == solve_reference(mat, rhs, n, mod)
                assert got is not None or rhs is noisy
                assert got is None or [(a - b) % mod for a, b in zip(linalg.mat_vec(mat, got), rhs)] == [0] * m


def test_solve_rational_of_no_equations():
    assert linalg.solve_rational([], []) == solve_rational_reference([], []) == []
