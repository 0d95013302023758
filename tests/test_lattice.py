from fractions import Fraction
from math import prod

import pytest

from fiberext.lattice import (
    DivisorTrace,
    FiberLattice,
    Obstructed,
    PreconditionError,
    component_group,
    denominator_bound,
    extend_nef,
    extend_trivial,
    kodaira_cycle,
    validate_lattice,
)
from fiberext import linalg

from conftest import random_fiber_lattice, random_nonorthogonal_trace, random_orthogonal_trace
from oracles import (
    cokernel_exponent_oracle,
    cokernel_order_oracle,
    generator_order_in_cokernel,
)


def two_component_elliptic():
    return FiberLattice(
        labels=("C1", "C2"),
        matrix=((Fraction(-2), Fraction(2)), (Fraction(2), Fraction(-2))),
        multiplicities=(1, 1),
    )


def mat_vec(lattice, vec):
    return linalg.mat_vec([list(r) for r in lattice.matrix], list(vec))


class TestValidation:
    def test_two_component_lattice_is_valid(self):
        assert validate_lattice(two_component_elliptic()).valid

    def test_asymmetric_rejected(self):
        lat = FiberLattice(("A", "B"), ((-2, 2), (1, -2)), (1, 1))
        report = validate_lattice(lat)
        assert not report.valid
        assert "symmetric" in report.failed()

    def test_nonzero_fiber_class_rejected(self):
        lat = FiberLattice(("A", "B"), ((-2, 1), (1, -2)), (1, 1))
        report = validate_lattice(lat)
        assert "fiber_class_trivial" in report.failed()

    def test_positive_definite_direction_rejected(self):
        lat = FiberLattice(("A", "B"), ((2, -2), (-2, 2)), (1, 1))
        assert "negative_semidefinite" in validate_lattice(lat).failed()

    def test_disconnected_kernel_detected(self):
        # block diagonal: two independent (0)-components -> 2-dim kernel
        lat = FiberLattice(("A", "B"), ((0, 0), (0, 0)), (1, 1))
        assert "kernel_is_multiplicity_span" in validate_lattice(lat).failed()

    def test_float_matrix_rejected(self):
        with pytest.raises(TypeError):
            FiberLattice(("A",), ((0.0,),), (1,))

    def test_float_trace_rejected(self):
        with pytest.raises(TypeError):
            DivisorTrace((0.5,))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            FiberLattice(("A",), ((0,),), (0,))

    @pytest.mark.parametrize("mult", [(Fraction(3, 2), 1), (1.9, 1), (True, 1), ("1", 1)])
    def test_non_integer_multiplicity_rejected(self, mult):
        with pytest.raises(ValueError, match="multiplicities must be positive integers"):
            FiberLattice(("A", "B"), ((-2, 2), (2, -2)), mult)

    def test_integral_fraction_multiplicity_is_an_int(self):
        lat = FiberLattice(("A", "B"), ((-2, 2), (2, -2)), (Fraction(2), 2))
        assert lat.multiplicities == (2, 2) and type(lat.multiplicities[0]) is int

    def test_random_blowup_lattices_are_valid(self, rng):
        for _ in range(60):
            lat = random_fiber_lattice(rng)
            report = validate_lattice(lat)
            assert report.valid, report.checks


class TestExtendTrivial:
    def test_two_component_half_coefficient(self):
        lat = two_component_elliptic()
        result = extend_trivial(lat, DivisorTrace((-1, 1)))
        assert result.coefficients == (Fraction(0), Fraction(1, 2))
        assert result.denominator == 2
        assert all(x == 0 for x in result.achieved_trace)

    def test_irreducible_fiber(self):
        lat = FiberLattice(("C",), ((0,),), (1,))
        result = extend_trivial(lat, DivisorTrace((0,)))
        assert result.coefficients == (Fraction(0),)
        assert result.denominator == 1

    def test_obstructed_when_pairing_nonzero(self):
        lat = two_component_elliptic()
        result = extend_trivial(lat, DivisorTrace((1, 1)))
        assert isinstance(result, Obstructed)
        assert result.value == 2

    def test_cycle_of_five(self):
        lat = kodaira_cycle(5)
        result = extend_trivial(lat, DivisorTrace((1, -1, 0, 0, 0)))
        residual = [v + x for v, x in zip((1, -1, 0, 0, 0), mat_vec(lat, result.coefficients))]
        assert all(x == 0 for x in residual)
        assert 5 % result.denominator == 0

    def test_solution_unique_modulo_fiber_class(self, rng):
        lat = random_fiber_lattice(rng)
        trace = random_orthogonal_trace(rng, lat)
        result = extend_trivial(lat, trace)
        # any other solution differs by a rational multiple of the
        # multiplicity vector; shifting by it preserves the residual
        shifted = [a + Fraction(3, 7) * c
                   for a, c in zip(result.coefficients, lat.multiplicities)]
        residual = [v + x for v, x in zip(trace.values, mat_vec(lat, shifted))]
        assert all(x == 0 for x in residual)
        assert result.coefficients[0] == 0  # gauge: first component

    def test_solvability_iff_orthogonal(self, rng):
        for _ in range(50):
            lat = random_fiber_lattice(rng)
            good = extend_trivial(lat, random_orthogonal_trace(rng, lat))
            assert not isinstance(good, Obstructed)
            bad = extend_trivial(lat, random_nonorthogonal_trace(rng, lat))
            assert isinstance(bad, Obstructed)

    def test_invalid_lattice_raises(self):
        lat = FiberLattice(("A", "B"), ((-2, 1), (1, -2)), (1, 1))
        with pytest.raises(PreconditionError):
            extend_trivial(lat, DivisorTrace((0, 0)))

    def test_disconnected_flag_raises(self):
        lat = FiberLattice(("A",), ((0,),), (1,), connected=False)
        with pytest.raises(PreconditionError):
            extend_trivial(lat, DivisorTrace((0,)))


class TestExtendNef:
    def test_explicit_targets(self):
        lat = two_component_elliptic()
        result = extend_nef(lat, DivisorTrace((0, 2)), targets=(2, 0))
        assert result.coefficients == (Fraction(0), Fraction(1))
        assert result.achieved_trace == (Fraction(2), Fraction(0))

    def test_default_targets_concentrate_on_first_component(self):
        lat = two_component_elliptic()
        result = extend_nef(lat, DivisorTrace((0, 2)))
        assert result.achieved_trace == (Fraction(2), Fraction(0))

    def test_negative_total_obstructed(self):
        lat = two_component_elliptic()
        assert isinstance(extend_nef(lat, DivisorTrace((-1, -1))), Obstructed)

    def test_target_sum_mismatch_obstructed(self):
        lat = two_component_elliptic()
        assert isinstance(extend_nef(lat, DivisorTrace((0, 2)), targets=(1, 0)), Obstructed)

    def test_negative_target_rejected(self):
        lat = two_component_elliptic()
        with pytest.raises(PreconditionError):
            extend_nef(lat, DivisorTrace((0, 2)), targets=(3, -1))

    def test_random_nef_residuals(self, rng):
        for _ in range(25):
            lat = random_fiber_lattice(rng)
            trace = random_orthogonal_trace(rng, lat)
            result = extend_nef(lat, trace)
            assert not isinstance(result, Obstructed)
            assert all(x >= 0 for x in result.achieved_trace)


class TestDenominatorBoundAndComponentGroup:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_cycle_invariants(self, n):
        lat = kodaira_cycle(n)
        assert denominator_bound(lat) == n
        assert component_group(lat).torsion == (n,)
        # bench/test_bench.py's closed-form oracle reads the older name
        assert component_group(lat).invariant_factors == (n,)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cycle_against_cokernel_enumeration(self, n):
        lat = kodaira_cycle(n)
        i0 = 0
        reduced = [[int(lat.matrix[i][j]) for j in range(1, n)] for i in range(1, n)]
        assert cokernel_order_oracle(reduced) == n
        assert cokernel_exponent_oracle(reduced) == n
        # cyclic of order n: some standard generator already has full order
        assert max(generator_order_in_cokernel(reduced, k) for k in range(n - 1)) == n
        torsion = component_group(lat).torsion
        assert prod(torsion) == n == torsion[-1]

    def test_bound_soundness_on_corpus_lattices(self, rng, corpus_lattices):
        for _, lat in corpus_lattices:
            bound = denominator_bound(lat)
            for _ in range(200):
                trace = random_orthogonal_trace(rng, lat)
                result = extend_trivial(lat, trace)
                assert bound % result.denominator == 0

    def test_bound_matches_exponent_oracle(self, rng):
        for _ in range(20):
            lat = random_fiber_lattice(rng, max_size=6)
            i0 = next(i for i, c in enumerate(lat.multiplicities) if c)
            idx = [i for i in range(lat.size) if i != i0]
            reduced = [[int(lat.matrix[i][j]) for j in idx] for i in idx]
            if not reduced:
                assert denominator_bound(lat) == 1
                continue
            assert denominator_bound(lat) == cokernel_exponent_oracle(reduced)

    def test_rational_matrix_rejected(self):
        lat = FiberLattice(("A", "B"),
                           ((Fraction(-1, 2), Fraction(1, 2)),
                            (Fraction(1, 2), Fraction(-1, 2))), (1, 1))
        with pytest.raises(ValueError):
            denominator_bound(lat)
        with pytest.raises(ValueError):
            component_group(lat)


def test_kodaira_cycle_requires_two_components():
    with pytest.raises(ValueError):
        kodaira_cycle(1)
