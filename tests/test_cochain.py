from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fiberext.cochain import (
    Cochain,
    CoefficientGroup,
    LineBundleClass,
    NotClosed,
    NotExact,
    PreconditionError,
    coboundary,
    cohomology_group,
    glue_check,
    h1_class,
    hom_from_h1,
    invariant_factor_chain,
    is_closed,
    is_exact,
    restrict,
)
from fiberext.dual_complex import build_dual_complex, simplex_strata

from conftest import random_strata
from test_dual_complex import circle_complex

GROUPS = (
    CoefficientGroup(rank=1),                 # Z
    CoefficientGroup(rank=0, torsion=(2,)),   # Z/2
    CoefficientGroup(rank=0, torsion=(6,)),   # Z/6
    CoefficientGroup(rank=2),                 # Z^2
)


def triangle_complex():
    return build_dual_complex(simplex_strata((0, 1, 2)))


class TestCoefficientGroup:
    def test_reduce_and_arithmetic(self):
        g = CoefficientGroup(rank=1, torsion=(4,))
        assert g.reduce((3, 7)) == (3, 3)
        assert g.add((1, 3), (2, 2)) == (3, 1)
        assert g.scale(-1, (2, 1)) == (-2, 3)
        assert g.has_infinite_order((1, 0))
        assert not g.has_infinite_order((0, 3))

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError):
            CoefficientGroup(rank=-1)
        with pytest.raises(ValueError):
            CoefficientGroup(torsion=(1,))
        with pytest.raises(ValueError):
            CoefficientGroup(torsion=(4, 6))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            CoefficientGroup(rank=2).reduce((1,))

    @pytest.mark.parametrize("bad", [1.5, 6.7, True, "6", None])
    def test_non_integers_rejected_not_truncated(self, bad):
        with pytest.raises(TypeError):
            CoefficientGroup(rank=bad)
        with pytest.raises(TypeError):
            CoefficientGroup(torsion=(bad,))
        with pytest.raises(TypeError):
            CoefficientGroup(rank=1, torsion=(6,)).reduce((0, bad))

    def test_fractional_cochain_values_rejected(self):
        """``(1.5,), (1.9,)`` was once read as ``(1,), (1,)`` and reported exact."""
        cx = build_dual_complex(simplex_strata((0, 1)))
        assert cx.count(0) == 2 and cx.count(1) == 1
        with pytest.raises(TypeError):
            Cochain(cx, CoefficientGroup(rank=1), 0, ((1.5,), (1.9,)))
        assert CoefficientGroup(torsion=[6]).torsion == (6,)


class TestClosedness:
    def test_walked_once_per_cochain(self, monkeypatch):
        """``is_closed``, ``is_exact`` and ``h1_class`` share one walk over
        the triangles; the cached result is not a field."""
        cx = build_dual_complex(simplex_strata(tuple(range(6)), full=False))
        group = CoefficientGroup(rank=1, torsion=(4,))
        phi = coboundary(Cochain(cx, group, 0, tuple((v, 3 * v) for v in range(cx.count(0)))))
        twin = Cochain(cx, group, 1, phi.values)
        checks = []
        monkeypatch.setattr(CoefficientGroup, "is_zero",
                            lambda self, a, original=CoefficientGroup.is_zero: checks.append(a) or original(self, a))
        assert is_closed(phi) and is_closed(phi) is is_closed(phi)
        assert not isinstance(is_exact(phi), NotExact)
        assert h1_class(phi).is_trivial
        assert len(checks) == cx.count(2)
        assert phi == twin and hash(phi) == hash(twin) and repr(phi) == repr(twin)
        with pytest.raises(PreconditionError):
            is_closed(Cochain(cx, group, 0, ((0, 0),) * cx.count(0)))

    def test_triangle_closed_cochain(self):
        cx = triangle_complex()
        g = CoefficientGroup(rank=1)
        # edges in build order: Z01, Z02, Z12
        phi = Cochain(cx, g, 1, ((1,), (2,), (1,)))
        assert is_closed(phi)

    def test_triangle_witness(self):
        cx = triangle_complex()
        g = CoefficientGroup(rank=1)
        phi = Cochain(cx, g, 1, ((1,), (1,), (1,)))
        result = is_closed(phi)
        assert not result and result.witness == "Z012"

    def test_degree_checked(self):
        cx = triangle_complex()
        g = CoefficientGroup(rank=1)
        beta = Cochain(cx, g, 0, ((0,), (0,), (0,)))
        with pytest.raises(PreconditionError):
            is_closed(beta)
        with pytest.raises(PreconditionError):
            coboundary(Cochain(cx, g, 1, ((0,), (0,), (0,))))

    def test_exact_implies_closed_random(self, rng, corpus_complexes):
        for _ in range(300):
            _, cx = corpus_complexes[rng.randrange(len(corpus_complexes))]
            g = GROUPS[rng.randrange(len(GROUPS))]
            beta = Cochain(cx, g, 0, tuple(
                tuple(rng.randint(-9, 9) for _ in range(g.width))
                for _ in range(cx.count(0))
            ))
            assert is_closed(coboundary(beta))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exact_implies_closed_hypothesis(self, data):
        cx = triangle_complex()
        g = data.draw(st.sampled_from(GROUPS))
        vals = data.draw(st.lists(
            st.tuples(*([st.integers(-50, 50)] * g.width)),
            min_size=cx.count(0), max_size=cx.count(0),
        ))
        assert is_closed(coboundary(Cochain(cx, g, 0, tuple(vals))))


class TestExactness:
    def test_solver_returns_genuine_potential(self, rng, corpus_complexes):
        for _ in range(80):
            _, cx = corpus_complexes[rng.randrange(len(corpus_complexes))]
            g = GROUPS[rng.randrange(len(GROUPS))]
            beta = Cochain(cx, g, 0, tuple(
                tuple(rng.randint(-9, 9) for _ in range(g.width))
                for _ in range(cx.count(0))
            ))
            phi = coboundary(beta)
            found = is_exact(phi)
            assert not isinstance(found, NotExact)
            assert (coboundary(found) - phi).is_zero()

    def test_circle_generator_is_not_exact(self):
        cx = circle_complex()
        g = CoefficientGroup(rank=1)
        phi = Cochain(cx, g, 1, ((1,), (0,)))
        assert isinstance(is_exact(phi), NotExact)

    def test_circle_difference_of_parallel_edges(self):
        # equal values on both parallel edges: coboundary of a 0-cochain
        cx = circle_complex()
        g = CoefficientGroup(rank=1)
        phi = Cochain(cx, g, 1, ((3,), (3,)))
        found = is_exact(phi)
        assert not isinstance(found, NotExact)
        assert (coboundary(found) - phi).is_zero()

    def test_torsion_coefficients(self):
        cx = circle_complex()
        g = CoefficientGroup(torsion=(2,))
        odd = Cochain(cx, g, 1, ((1,), (0,)))
        assert isinstance(is_exact(odd), NotExact)
        even = Cochain(cx, g, 1, ((1,), (1,)))
        assert not isinstance(is_exact(even), NotExact)

    def test_not_closed_rejected(self):
        cx = triangle_complex()
        g = CoefficientGroup(rank=1)
        phi = Cochain(cx, g, 1, ((1,), (1,), (1,)))
        with pytest.raises(PreconditionError):
            is_exact(phi)


class TestH1:
    def test_invariant_factor_chain(self):
        assert invariant_factor_chain([2, 3]) == (6,)
        assert invariant_factor_chain([2, 2, 3]) == (2, 6)
        assert invariant_factor_chain([4, 6]) == (2, 12)
        assert invariant_factor_chain([]) == ()

    @pytest.mark.parametrize("orders", [[6.7, True], [True], [6.0], ["6"], [2, Fraction(4)]])
    def test_invariant_factor_chain_rejects_non_integers(self, orders):
        with pytest.raises(TypeError, match="orders must be integers"):
            invariant_factor_chain(orders)

    def test_universal_coefficients_on_corpus(self, corpus_complexes):
        for _, cx in corpus_complexes:
            for g in GROUPS:
                assert cohomology_group(cx, g) == hom_from_h1(cx, g)

    def test_universal_coefficients_on_random(self, rng):
        for _ in range(25):
            cx = build_dual_complex(random_strata(rng))
            for g in GROUPS:
                assert cohomology_group(cx, g) == hom_from_h1(cx, g)

    def test_circle_profiles(self):
        cx = circle_complex()
        assert cohomology_group(cx, CoefficientGroup(rank=1)).rank == 1
        assert cohomology_group(cx, CoefficientGroup(torsion=(6,))).torsion == (6,)

    def test_class_well_defined_modulo_coboundaries(self, rng):
        cx = circle_complex()
        g = CoefficientGroup(rank=1)
        phi = Cochain(cx, g, 1, ((1,), (0,)))
        beta = Cochain(cx, g, 0, ((rng.randint(-9, 9),), (rng.randint(-9, 9),)))
        shifted = phi + coboundary(beta)
        assert h1_class(phi).same_class(h1_class(shifted))
        assert not h1_class(phi).is_trivial

    def test_scaling_preserves_nontriviality_over_z(self):
        cx = circle_complex()
        g = CoefficientGroup(rank=1)
        for m in range(1, 21):
            phi = Cochain(cx, g, 1, ((m,), (0,)))
            assert not h1_class(phi).is_trivial

    def test_torsion_kills_classes(self):
        cx = circle_complex()
        g = CoefficientGroup(torsion=(2,))
        assert not h1_class(Cochain(cx, g, 1, ((1,), (0,)))).is_trivial
        assert h1_class(Cochain(cx, g, 1, ((2,), (0,)))).is_trivial

    def test_glue_check(self):
        cx = circle_complex()
        g = CoefficientGroup(rank=1)
        result = glue_check(Cochain(cx, g, 1, ((1,), (0,))))
        assert isinstance(result, LineBundleClass) and not result.trivial
        tri = triangle_complex()
        bad = glue_check(Cochain(tri, g, 1, ((1,), (1,), (1,))))
        assert isinstance(bad, NotClosed) and bad.witness == "Z012"


class TestRestriction:
    def test_restriction_to_contractible_closure_is_exact(self):
        cx = build_dual_complex(simplex_strata((0, 1, 2, 3), full=False))
        g = CoefficientGroup(rank=1)
        # a closed 1-cochain on the sphere (H^1 = 0 here, so globally exact,
        # but the point is locality: restrict to one triangle's closure)
        phi_vals = tuple((v,) for v in (1, 2, 3, 1, 2, 1))
        phi = Cochain(cx, g, 1, phi_vals)
        if not is_closed(phi):
            beta = Cochain(cx, g, 0, tuple((k * k,) for k in range(cx.count(0))))
            phi = coboundary(beta)
        sub, maps = cx.closure(2, 0)
        local = restrict(phi, sub, maps)
        assert is_closed(local)
        assert not isinstance(is_exact(local), NotExact)

    def test_restriction_degree_bounds(self):
        cx = build_dual_complex(simplex_strata((0, 1, 2)))
        g = CoefficientGroup(rank=1)
        sub, maps = cx.closure(1, 0)
        phi2 = Cochain(cx, g, 2, ((0,),))
        with pytest.raises(ValueError):
            restrict(phi2, sub, maps)
