"""Acceptance gate: every top-level criterion, with its runtime budget.

Each test prints a single PASS line directly to the terminal (bypassing
capture) once its assertions hold; a failing assertion prints nothing and
fails the test instead.
"""

import random
import time
from fractions import Fraction

import pytest

from fiberext.cochain import Cochain, CoefficientGroup, coboundary, cohomology_group, hom_from_h1, is_closed
from fiberext.dual_complex import boundary_matrix, build_dual_complex, homology, homology_degree, torus_rank
from fiberext.lattice import (
    DivisorTrace,
    FiberLattice,
    Obstructed,
    component_group,
    denominator_bound,
    extend_trivial,
    kodaira_cycle,
)
from fiberext.pic0 import (
    ObstructionCertificate,
    ObstructionScenario,
    SamplePoint,
    classify_curve_fiber,
    classify_snc_fiber,
    extension_obstruction,
    numerical_triviality_on_fiber,
)
from fiberext import corpus

from conftest import (
    random_fiber_lattice,
    random_nonorthogonal_trace,
    random_orthogonal_trace,
    random_strata,
)
from oracles import brute_homology, cokernel_exponent_oracle, cokernel_order_oracle

# complexes built while checking the homology criterion, re-checked for
# boundary-squares-to-zero afterwards
_BUILT_COMPLEXES = []


@pytest.fixture
def report(capsys):
    def _report(line: str):
        with capsys.disabled():
            print(f"\n{line}", flush=True)
    return _report


def test_acceptance_two_component_extension(report):
    lat = FiberLattice(("C1", "C2"),
                       ((Fraction(-2), Fraction(2)), (Fraction(2), Fraction(-2))),
                       (1, 1))
    trace = DivisorTrace((-1, 1))
    extend_trivial(lat, trace)  # warm-up outside the timed window
    start = time.perf_counter()
    result = extend_trivial(lat, trace)
    elapsed = time.perf_counter() - start
    assert result.coefficients == (Fraction(0), Fraction(1, 2))
    assert result.normalization == "a[0] = 0"
    assert result.denominator == 2
    assert all(x == 0 for x in result.achieved_trace)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    report(f"PASS two-component extension: a=(0,1/2), m=2, {elapsed * 1e6:.0f} us")


def test_acceptance_solvability_law(report):
    rng = random.Random(11)
    start = time.perf_counter()
    checked = 0
    while checked < 500:
        lat = random_fiber_lattice(rng)
        good = extend_trivial(lat, random_orthogonal_trace(rng, lat))
        assert not isinstance(good, Obstructed)
        assert all(x == 0 for x in good.achieved_trace)
        bad = extend_trivial(lat, random_nonorthogonal_trace(rng, lat))
        assert isinstance(bad, Obstructed)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"took {elapsed:.1f} s"
    report(f"PASS solvability law: {checked} random lattices, both directions, {elapsed:.2f} s")


def test_acceptance_cycle_invariants(report):
    start = time.perf_counter()
    for n in range(2, 10):
        lat = kodaira_cycle(n)
        group = component_group(lat)
        assert group.torsion == (n,)
        assert denominator_bound(lat) == n
        reduced = [[int(lat.matrix[i][j]) for j in range(1, n)] for i in range(1, n)]
        assert cokernel_order_oracle(reduced) == n
        assert cokernel_exponent_oracle(reduced) == n
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"took {elapsed:.2f} s"
    report(f"PASS cycle invariants: Z/n component group and bound n for n=2..9, {elapsed:.2f} s")


def test_acceptance_homology_oracle_equivalence(corpus_complexes, report):
    rng = random.Random(13)
    complexes = [cx for _, cx in corpus_complexes]
    while len(complexes) < len(corpus_complexes) + 200:
        complexes.append(build_dual_complex(random_strata(rng)))
    start = time.perf_counter()
    for cx in complexes:
        assert sum(cx.counts) <= 30
        boundaries = {r: boundary_matrix(cx, r) for r in range(1, cx.dimension + 1)}
        betti, torsion = brute_homology(list(cx.counts), boundaries)
        profile = homology(cx)
        assert list(profile.betti) == betti
        assert list(profile.torsion) == list(torsion)
        _BUILT_COMPLEXES.append((cx, boundaries))
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    report(f"PASS homology oracle equivalence: {len(complexes)} complexes, {elapsed:.2f} s")


def test_acceptance_boundary_squares_to_zero(report):
    assert _BUILT_COMPLEXES, "homology criterion must run first"
    for cx, boundaries in _BUILT_COMPLEXES:
        for r in range(2, cx.dimension + 1):
            outer, inner = boundaries[r - 1], boundaries[r]
            prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*inner)]
                    for row in outer]
            assert all(x == 0 for row in prod for x in row)
    report(f"PASS boundary composition vanishes entrywise on all {len(_BUILT_COMPLEXES)} complexes")


def test_acceptance_two_edge_circle_fiber(report):
    sc = corpus.load_scenario("example-5.1-type-iii-dual-complex")
    cx = sc.strata
    assert homology_degree(cx, 1) == (1, ())
    assert torus_rank(cx) == 1
    kind = classify_snc_fiber(sc.strata, sc.h1_structure)
    assert (kind.torus_rank, kind.abelian_dim, kind.label) == (1, 0, "torus")
    report("PASS two-edge circle fiber: H1 = Z, torus rank 1, multiplicative type (1,0)")


def test_acceptance_five_fiber_table(report):
    sc = corpus.load_scenario("example-5.1-m12-types")
    expected = {"I": (0, 1), "II": (1, 0), "III": (1, 0), "IV": (0, 1), "V": (1, 0)}
    degrees = {"I": (0,), "II": (0,), "III": (1, -1), "IV": (0, 0), "V": (0, 0)}
    trivial_on = {"I", "II", "IV", "V"}
    for label, want in expected.items():
        kind = classify_curve_fiber(sc.curve_fibers[label])
        assert (kind.torus_rank, kind.abelian_dim) == want, label
        is_trivial = numerical_triviality_on_fiber(sc.curve_fibers[label], degrees[label])
        assert is_trivial == (label in trivial_on), label
    report("PASS five-fiber table: types classify to (0,1),(1,0),(1,0),(0,1),(1,0); "
           "section difference trivial exactly off the third type")


def test_acceptance_universal_coefficients(corpus_complexes, report):
    groups = (CoefficientGroup(rank=1), CoefficientGroup(torsion=(2,)),
              CoefficientGroup(torsion=(6,)), CoefficientGroup(rank=2))
    pairs = 0
    for _, cx in corpus_complexes:
        for g in groups:
            assert cohomology_group(cx, g) == hom_from_h1(cx, g)
            pairs += 1
    report(f"PASS universal coefficients: H^1(D, A) = Hom(H_1, A) on {pairs} (complex, group) pairs")


def test_acceptance_exact_implies_closed(corpus_complexes, report):
    rng = random.Random(17)
    groups = (CoefficientGroup(rank=1), CoefficientGroup(torsion=(2,)),
              CoefficientGroup(torsion=(6,)), CoefficientGroup(rank=2))
    for trial in range(1000):
        _, cx = corpus_complexes[trial % len(corpus_complexes)]
        g = groups[trial % len(groups)]
        beta = Cochain(cx, g, 0, tuple(
            tuple(rng.randint(-99, 99) for _ in range(g.width))
            for _ in range(cx.count(0))
        ))
        assert is_closed(coboundary(beta)), f"trial {trial}"
    report("PASS exact implies closed: 1000 random 0-cochains, zero failures")


def test_acceptance_obstruction_certificate(report):
    sc = corpus.load_scenario("example-5.1-obstruction")
    base = sc.obstruction
    assert isinstance(extension_obstruction(base), ObstructionCertificate)
    for m in range(1, 21):
        scaled = ObstructionScenario(
            proper_base=base.proper_base,
            group=base.group,
            points=tuple(
                SamplePoint(p.label, p.fiber_type, base.group.scale(m, p.value))
                for p in base.points
            ),
        )
        assert isinstance(extension_obstruction(scaled), ObstructionCertificate), f"m={m}"
    report("PASS obstruction certificate: obstructed, and stays obstructed for every m in 1..20")
