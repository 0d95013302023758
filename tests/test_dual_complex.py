import signal
import time

import pytest

from fiberext.dual_complex import (
    Stratum,
    boundary_matrix,
    build_dual_complex,
    homology,
    simplex_strata,
    strata_from_multigraph,
    torus_rank,
)
from fiberext.dual_complex import StrataError

from conftest import random_strata
from oracles import brute_homology


def circle_complex():
    """Two components meeting along two disjoint double curves."""
    strata = (
        (Stratum("W0", (0,)), Stratum("W1", (1,))),
        (Stratum("E0", (0, 1), ("W1", "W0")), Stratum("E1", (0, 1), ("W1", "W0"))),
    )
    return build_dual_complex(strata)


def all_boundaries(complex):
    return {r: boundary_matrix(complex, r) for r in range(1, complex.dimension + 1)}


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestBuild:
    def test_circle_counts(self):
        cx = circle_complex()
        assert cx.counts == (2, 2)
        assert cx.euler_characteristic() == 0

    def test_duplicate_id_rejected(self):
        strata = ((Stratum("W0", (0,)), Stratum("W0", (1,))),)
        with pytest.raises(StrataError):
            build_dual_complex(strata)

    def test_wrong_index_count_rejected(self):
        strata = ((Stratum("W0", (0, 1)),),)
        with pytest.raises(StrataError):
            build_dual_complex(strata)

    def test_facet_index_mismatch_rejected(self):
        strata = (
            (Stratum("W0", (0,)), Stratum("W1", (1,)), Stratum("W2", (2,))),
            (Stratum("E0", (0, 1), ("W2", "W0")),),
        )
        with pytest.raises(StrataError):
            build_dual_complex(strata)

    def test_codim_two_consistency_enforced(self):
        # two parallel edges on {0,1}; the triangle's facets mix them
        # inconsistently with the third edge's facets
        strata = (
            (Stratum("W0", (0,)), Stratum("W1", (1,)), Stratum("W2", (2,))),
            (
                Stratum("E01", (0, 1), ("W1", "W0")),
                Stratum("E01b", (0, 1), ("W1", "W0")),
                Stratum("E02", (0, 2), ("W2", "W0")),
                Stratum("E12", (1, 2), ("W2", "W1")),
            ),
            (Stratum("T", (0, 1, 2), ("E12", "E02", "E01")),),
        )
        build_dual_complex(strata)  # consistent choice passes
        bad = (
            strata[0],
            strata[1],
            (Stratum("T", (0, 1, 2), ("E12", "E02", "E01b")),),
        )
        # still consistent: both parallel edges have identical facets, so
        # swapping them cannot be detected at codimension two
        build_dual_complex(bad)
        worse = (
            strata[0],
            (
                Stratum("E01", (0, 1), ("W1", "W0")),
                Stratum("E02", (0, 2), ("W2", "W0")),
                Stratum("E12", (1, 2), ("W2", "W1")),
                Stratum("E12b", (1, 2), ("W2", "W1")),
            ),
            (Stratum("T", (0, 1, 2), ("E12", "E02", "E01")),
             Stratum("T2", (0, 1, 2), ("E12b", "E02", "E01")),),
        )
        build_dual_complex(worse)

    def test_loops_rejected_in_multigraph(self):
        with pytest.raises(StrataError):
            strata_from_multigraph(2, [(0, 0)])

    def test_boundary_degree_out_of_range(self):
        cx = circle_complex()
        with pytest.raises(ValueError):
            boundary_matrix(cx, 0)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 2)


class TestHomology:
    def test_circle(self):
        cx = circle_complex()
        profile = homology(cx)
        assert profile.betti == (1, 1)
        assert profile.torsion == ((), ())
        assert torus_rank(cx) == 1
        b1 = boundary_matrix(cx, 1)
        cols = [tuple(row[j] for row in b1) for j in range(2)]
        assert all(c in ((1, -1), (-1, 1)) for c in cols)

    def test_full_tetrahedron_is_contractible(self):
        cx = build_dual_complex(simplex_strata((0, 1, 2, 3)))
        assert cx.counts == (4, 6, 4, 1)
        profile = homology(cx)
        assert profile.betti == (1, 0, 0, 0)
        assert all(t == () for t in profile.torsion)

    def test_tetrahedron_boundary_is_a_sphere(self):
        cx = build_dual_complex(simplex_strata((0, 1, 2, 3), full=False))
        profile = homology(cx)
        assert profile.betti == (1, 0, 1)
        assert all(t == () for t in profile.torsion)

    def test_theta_graph(self):
        cx = build_dual_complex(strata_from_multigraph(2, [(0, 1)] * 3))
        assert homology(cx).betti == (1, 2)
        assert torus_rank(cx) == 2

    def test_boundary_squares_to_zero_random(self, rng):
        for _ in range(40):
            cx = build_dual_complex(random_strata(rng))
            bs = all_boundaries(cx)
            for r in range(2, cx.dimension + 1):
                prod = matmul(bs[r - 1], bs[r])
                assert all(x == 0 for row in prod for x in row)

    def test_boundary_squares_to_zero_corpus(self, corpus_complexes):
        for _, cx in corpus_complexes:
            bs = all_boundaries(cx)
            for r in range(2, cx.dimension + 1):
                prod = matmul(bs[r - 1], bs[r])
                assert all(x == 0 for row in prod for x in row)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(60):
            cx = build_dual_complex(random_strata(rng))
            profile = homology(cx)
            bs = all_boundaries(cx)
            betti, torsion = brute_homology(list(cx.counts), {**bs})
            assert list(profile.betti) == betti
            assert list(profile.torsion) == list(torsion)

    def test_euler_characteristic_equals_alternating_betti(self, rng):
        for _ in range(30):
            cx = build_dual_complex(random_strata(rng))
            profile = homology(cx)
            alt = sum((-1) ** k * b for k, b in enumerate(profile.betti))
            assert cx.euler_characteristic() == alt

    def test_invariance_under_stratum_reordering(self, rng):
        for _ in range(15):
            strata = random_strata(rng)
            shuffled = tuple(
                tuple(sorted(level, key=lambda s: rng.random()))
                for level in strata
            )
            a = homology(build_dual_complex(strata))
            b = homology(build_dual_complex(shuffled))
            assert a == b


class TestClosure:
    def test_closure_of_top_simplex(self):
        cx = build_dual_complex(simplex_strata((0, 1, 2, 3)))
        sub, maps = cx.closure(3, 0)
        assert sub.counts == (4, 6, 4, 1)
        assert homology(sub).betti == (1, 0, 0, 0)
        for k, m in enumerate(maps):
            assert all(sub.simplex_ids[k][new] == cx.simplex_ids[k][old]
                       for new, old in enumerate(m))

    def test_closure_of_triangle_in_boundary(self):
        cx = build_dual_complex(simplex_strata((0, 1, 2, 3), full=False))
        sub, maps = cx.closure(2, 0)
        assert sub.counts == (3, 3, 1)
        assert homology(sub).betti == (1, 0, 0)


def test_simplex_strata_ids_with_indices_of_two_digits():
    """Ids run one-digit indices together, as they always did, and join
    longer ones with ``_``: vertex 12 and edge {1, 2} no longer share the
    id ``Z12``."""
    assert [s.ident for level in simplex_strata((0, 1, 2)) for s in level] == \
        ["Z0", "Z1", "Z2", "Z01", "Z02", "Z12", "Z012"]
    strata = simplex_strata((1, 2, 12))
    assert [s.ident for level in strata for s in level] == \
        ["Z1", "Z2", "Z12", "Z1_2", "Z1_12", "Z2_12", "Z1_2_12"]
    assert strata[2][0].facets == ("Z2_12", "Z1_12", "Z1_2")
    assert homology(build_dual_complex(strata)).betti == (1, 0, 0)


@pytest.mark.parametrize("k", [13, 14])
def test_boundary_of_a_simplex_on_13_or_14_components(k):
    """The boundary of the simplex on k components is a (k-2)-sphere.  Its
    8190 (k = 13) or 16382 (k = 14) strata are made, built and their
    homology computed within 10 s; a hang is cut by ``signal.alarm``.
    About 0.13 s and 0.32 s were measured on a shared 2-vCPU machine."""
    def timeout(signum, frame):
        raise TimeoutError(f"simplex boundary on {k} components took over 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        start = time.perf_counter()
        cx = build_dual_complex(simplex_strata(range(k), full=False))
        betti = homology(cx).betti
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert cx.counts[0] == k and sum(cx.counts) == 2 ** k - 2
    assert betti == (1,) + (0,) * (k - 3) + (1,)
    assert elapsed < 10
