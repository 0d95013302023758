from fractions import Fraction

import pytest

from fiberext import corpus
from fiberext.cochain import CoefficientGroup
from fiberext.dual_complex import build_dual_complex, strata_from_multigraph, torus_rank
from fiberext.pic0 import (
    CurveFiber,
    NotSemistable,
    ObstructionCertificate,
    ObstructionScenario,
    SamplePoint,
    classify_curve_fiber,
    classify_snc_fiber,
    extension_obstruction,
    numerical_triviality_on_fiber,
)
from oracles import curve_fiber_type_reference


def torus_type():
    return classify_curve_fiber(CurveFiber(genera=(0,), edges=((0, 0),)))


class TestCurveClassification:
    def test_smooth_elliptic(self):
        t = classify_curve_fiber(CurveFiber(genera=(1,)))
        assert (t.torus_rank, t.abelian_dim) == (0, 1)
        assert t.proper and t.label == "abelian variety"

    def test_nodal_cubic(self):
        t = torus_type()
        assert (t.torus_rank, t.abelian_dim) == (1, 0)
        assert not t.proper and t.label == "torus"

    def test_two_rational_curves_meeting_twice(self):
        t = classify_curve_fiber(CurveFiber(genera=(0, 0), edges=((0, 1), (0, 1))))
        assert (t.torus_rank, t.abelian_dim) == (1, 0)

    def test_banana_with_genus(self):
        t = classify_curve_fiber(CurveFiber(genera=(1, 0), edges=((0, 1), (0, 1))))
        assert (t.torus_rank, t.abelian_dim) == (1, 1)
        assert t.label == "semi-abelian" and not t.proper

    def test_cusp_rejected(self):
        with pytest.raises(NotSemistable):
            classify_curve_fiber(CurveFiber(genera=(0,), nodal=False))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            classify_curve_fiber(CurveFiber(genera=(0, 0)))

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            CurveFiber(genera=(0,), edges=((0, 1),))

    def test_fractional_genus_rejected(self):
        """``genera=(0.5,)`` once classified as ``abelian_dim=0.5``."""
        for genera in ((0.5,), (1.0,), (True,), ("1",)):
            with pytest.raises(TypeError, match="must be integers"):
                CurveFiber(genera=genera)

    def test_fractional_endpoint_rejected(self):
        """``(0, 1.0)`` once failed deep in the graph walk with an index error."""
        for edge in ((0, 1.0), (0.0, 1), (False, 1), (0, "1")):
            with pytest.raises(TypeError, match="must be integers"):
                CurveFiber(genera=(0, 0), edges=(edge,))

    def test_edge_needs_two_endpoints(self):
        """A three-endpoint edge once failed with an unpacking error."""
        for edge in ((0, 1, 1), (0,), ()):
            with pytest.raises(ValueError, match="two endpoints"):
                CurveFiber(genera=(0, 0), edges=(edge,))

    def test_list_input_is_stored_as_tuples(self):
        """List-valued genera and edges once made the frozen dataclass unhashable."""
        fiber = CurveFiber(genera=[1, 0], edges=[[0, 1], [1, 0]])
        same = CurveFiber(genera=(1, 0), edges=((0, 1), (1, 0)))
        assert fiber == same and hash(fiber) == hash(same)
        assert fiber.genera == (1, 0) and fiber.edges == ((0, 1), (1, 0))
        assert classify_curve_fiber(fiber) == classify_curve_fiber(same)

    def test_proper_iff_no_torus_part(self):
        cases = [
            CurveFiber(genera=(1,)),
            CurveFiber(genera=(0,), edges=((0, 0),)),
            CurveFiber(genera=(0, 0), edges=((0, 1),)),
            CurveFiber(genera=(2, 1), edges=((0, 1), (0, 1), (0, 1))),
        ]
        for fiber in cases:
            t = classify_curve_fiber(fiber)
            assert t.proper == (t.torus_rank == 0)


class TestSncClassification:
    def test_matches_curve_classification_on_loop_free_graphs(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            edges = [(0, k) for k in range(1, n)]  # spanning star
            for _ in range(rng.randint(0, 4)):
                a, b = rng.sample(range(n), 2)
                edges.append((a, b))
            genera = tuple(rng.randint(0, 2) for _ in range(n))
            fiber = CurveFiber(genera=genera, edges=tuple(edges))
            curve_type = classify_curve_fiber(fiber)
            strata = strata_from_multigraph(n, edges)
            h1 = sum(genera) + curve_type.torus_rank
            snc_type = classify_snc_fiber(build_dual_complex(strata), h1_structure=h1)
            assert (snc_type.torus_rank, snc_type.abelian_dim) == \
                (curve_type.torus_rank, curve_type.abelian_dim)
            assert snc_type.label == curve_type.label

    def test_unknown_structure_leaves_abelian_part_open(self):
        strata = strata_from_multigraph(2, [(0, 1), (0, 1)])
        t = classify_snc_fiber(build_dual_complex(strata))
        assert t.torus_rank == 1 and t.abelian_dim is None

    def test_h1_below_torus_rank_rejected(self):
        strata = strata_from_multigraph(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            classify_snc_fiber(build_dual_complex(strata), h1_structure=0)

    @pytest.mark.parametrize("strata", [(), strata_from_multigraph(0, [])])
    @pytest.mark.parametrize("h1", [None, 0])
    def test_complex_without_components_rejected(self, strata, h1):
        """A fiber has a component; the empty complex once classified as
        an abelian variety of torus rank 0."""
        with pytest.raises(ValueError, match="at least one component"):
            classify_snc_fiber(build_dual_complex(strata), h1_structure=h1)

    def test_disconnected_complex_still_classified(self):
        """Two disjoint circles: Pic^0 is still semi-abelian, with t = b_1."""
        cx = build_dual_complex(strata_from_multigraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)]))
        t = classify_snc_fiber(cx, h1_structure=2)
        assert (t.torus_rank, t.abelian_dim, t.label) == (2, 0, "torus")

    def test_h1_structure_must_be_an_integer(self):
        """``h1_structure=True`` once computed ``True - t``."""
        cx = build_dual_complex(strata_from_multigraph(2, [(0, 1), (0, 1)]))
        for bad in (True, 1.0, "1", Fraction(1)):
            with pytest.raises(TypeError, match="must be an integer"):
                classify_snc_fiber(cx, h1_structure=bad)
        assert classify_snc_fiber(cx, h1_structure=1).abelian_dim == 0

    def test_torus_rank_is_first_betti(self):
        strata = strata_from_multigraph(3, [(0, 1), (1, 2), (0, 2), (0, 2)])
        assert torus_rank(build_dual_complex(strata)) == 2


def curve_outcome(classify, fiber):
    """``(torus_rank, abelian_dim, proper, label)``, or the error raised."""
    try:
        t = classify(fiber)
    except ValueError as exc:  # NotSemistable is a ValueError
        return type(exc), str(exc)
    return t if isinstance(t, tuple) else (t.torus_rank, t.abelian_dim, t.proper, t.label)


def random_curve_fiber(rng):
    """Zero to six components, sometimes on a spanning tree, with loops,
    parallel edges, isolated components and now and then a cusp."""
    n = rng.choice((0, 1, 1, 2, 3, 4, 5, 6))
    edges = []
    if n and rng.random() < 0.7:
        edges += [(rng.randrange(k), k) for k in range(1, n)]
    for _ in range(rng.randint(0, 4) if n else 0):
        a = rng.randrange(n)
        edges.append((a, a) if rng.random() < 0.3 else (a, rng.randrange(n)))
    if edges and rng.random() < 0.3:
        edges.append(rng.choice(edges)[::-1])
    rng.shuffle(edges)
    genera = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
    return CurveFiber(genera=genera, edges=tuple(edges), nodal=rng.random() < 0.95)


class TestDualComplexClassification:
    """``classify_curve_fiber`` reads the torus rank off the fiber's dual
    complex; the graph walk it replaced must give the same answers."""

    def test_random_multigraphs_match_the_graph_walk(self, rng):
        seen = {"ok": 0, "disconnected": 0, "not nodal": 0, "loop": 0, "empty": 0}
        for _ in range(3000):
            fiber = random_curve_fiber(rng)
            got = curve_outcome(classify_curve_fiber, fiber)
            assert got == curve_outcome(curve_fiber_type_reference, fiber), fiber
            if got[0] is NotSemistable:
                seen["not nodal"] += 1
            elif got[0] is ValueError:
                seen["disconnected"] += 1
            else:
                seen["ok"] += 1
            seen["loop"] += any(a == b for a, b in fiber.edges)
            seen["empty"] += not fiber.components
        assert min(seen.values()) >= 50, seen

    def test_corpus_curve_fibers_match_the_graph_walk(self):
        fibers = [f for name in corpus.scenario_names()
                  for f in corpus.load_scenario(name).curve_fibers.values()]
        assert len(fibers) >= 5
        for fiber in fibers:
            assert curve_outcome(classify_curve_fiber, fiber) == curve_outcome(curve_fiber_type_reference, fiber)


class TestNumericalTriviality:
    def test_zero_degrees(self):
        fiber = CurveFiber(genera=(0, 0), edges=((0, 1), (0, 1)))
        assert numerical_triviality_on_fiber(fiber, (0, 0))
        assert not numerical_triviality_on_fiber(fiber, (1, -1))

    def test_length_checked(self):
        fiber = CurveFiber(genera=(0,), edges=((0, 0),))
        with pytest.raises(ValueError):
            numerical_triviality_on_fiber(fiber, (0, 0))

    def test_exact_rationals_only(self):
        """Degrees are never truncated: ``[0.5, -0.5]`` once read as trivial."""
        fiber = CurveFiber(genera=(0, 0), edges=((0, 1), (0, 1)))
        assert not numerical_triviality_on_fiber(fiber, (Fraction(1, 2), Fraction(-1, 2)))
        assert numerical_triviality_on_fiber(fiber, (Fraction(0), 0))
        for bad in ((0.5, -0.5), (0.0, 0), (False, 0), ("0", 0)):
            with pytest.raises(TypeError):
                numerical_triviality_on_fiber(fiber, bad)


class TestObstruction:
    def scenario(self, values, proper=True, group=CoefficientGroup(rank=1)):
        points = tuple(
            SamplePoint(label=f"p{i}", fiber_type=torus_type(), value=v)
            for i, v in enumerate(values)
        )
        return ObstructionScenario(proper_base=proper, group=group, points=points)

    def test_infinite_order_difference_is_obstructed(self):
        result = extension_obstruction(self.scenario([(1,), (0,)]))
        assert isinstance(result, ObstructionCertificate)
        assert set(result.witnesses) == {"p0", "p1"}

    def test_scaling_stays_obstructed(self):
        for m in range(1, 21):
            result = extension_obstruction(self.scenario([(m,), (0,)]))
            assert isinstance(result, ObstructionCertificate)
            result = extension_obstruction(self.scenario([(-m,), (0,)]))
            assert isinstance(result, ObstructionCertificate)

    def test_equal_values_unobstructed(self):
        result = extension_obstruction(self.scenario([(2,), (2,)]))
        assert isinstance(result, str)
        assert "agree" in result

    def test_torsion_difference_inconclusive(self):
        g = CoefficientGroup(rank=1, torsion=(4,))
        result = extension_obstruction(self.scenario([(0, 1), (0, 3)], group=g))
        assert isinstance(result, str)
        assert "torsion" in result

    def test_non_proper_base_unobstructed(self):
        result = extension_obstruction(self.scenario([(1,), (0,)], proper=False))
        assert isinstance(result, str)
        assert "proper" in result

    def test_scenario_needs_two_points(self):
        with pytest.raises(ValueError):
            self.scenario([(1,)])

    def test_scenario_needs_torus_fibers(self):
        abelian = classify_curve_fiber(CurveFiber(genera=(1,)))
        with pytest.raises(ValueError):
            ObstructionScenario(
                proper_base=True,
                group=CoefficientGroup(rank=1),
                points=(
                    SamplePoint("p0", abelian, (1,)),
                    SamplePoint("p1", torus_type(), (0,)),
                ),
            )
