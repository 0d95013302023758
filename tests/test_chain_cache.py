"""The per-complex factorization cache and the algorithm swaps that ride
with it, checked against the reference paths kept in ``oracles``: the
Smith routine with a full pivot scan, invariant factors by trial division
and the component group through ``c-perp`` coordinates."""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_fiber_lattice, random_strata
from fiberext import linalg
from fiberext.cochain import Cochain, CoefficientGroup, NotExact, coboundary, invariant_factor_chain, is_exact
from fiberext.dual_complex import (
    boundary_matrix,
    build_dual_complex,
    homology,
    simplex_strata,
    strata_from_multigraph,
)
from fiberext.lattice import component_group, validate_lattice
from oracles import component_group_reference, invariant_factor_chain_reference, smith_normal_form_reference


def chain_matrices(cx):
    """(matrix, ncols) for every boundary matrix and the coboundary -B_1^T."""
    out = [(boundary_matrix(cx, r), cx.count(r)) for r in range(1, cx.dimension + 1)]
    out.append((cx._vertex_incidence[0], cx.count(0)))
    return out


def assert_same_smith_form(mat, ncols):
    assert linalg.smith_normal_form(mat, ncols) == smith_normal_form_reference(mat, ncols)


class TestUnitPivotScan:
    def test_random_strata(self, rng):
        for _ in range(200):
            for mat, n in chain_matrices(build_dual_complex(random_strata(rng))):
                assert_same_smith_form(mat, n)

    def test_corpus_complexes(self, corpus_complexes):
        for _, cx in corpus_complexes:
            for mat, n in chain_matrices(cx):
                assert_same_smith_form(mat, n)

    @pytest.mark.parametrize("entries", [range(-50, 51), (-1, 0, 0, 0, 1, 1, 2, -3, 50)])
    def test_random_integer_matrices(self, rng, entries):
        entries = list(entries)
        for _ in range(300):
            m, n = rng.randint(0, 7), rng.randint(0, 7)
            mat = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
            if m and rng.random() < 0.3:
                mat[rng.randrange(m)] = [0] * n
            if n and rng.random() < 0.3:
                j = rng.randrange(n)
                for row in mat:
                    row[j] = 0
            assert_same_smith_form(mat, n)


@pytest.fixture
def factored(monkeypatch):
    """Every matrix handed to ``linalg.smith_normal_form``, in call order."""
    calls = []
    original = linalg.smith_normal_form

    def counting(mat, ncols=None):
        calls.append([list(row) for row in mat])
        return original(mat, ncols)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    return calls


class TestOneFactorizationPerComplex:
    def test_homology_factors_each_boundary_matrix_once(self, factored):
        cx = build_dual_complex(simplex_strata(tuple(range(5)), full=False))
        profiles = [homology(cx) for _ in range(3)]
        assert profiles[0] == profiles[1] == profiles[2]
        assert profiles[0].betti == (1, 0, 0, 1)
        assert factored == [boundary_matrix(cx, r) for r in range(1, cx.dimension + 1)]

    def test_is_exact_factors_the_incidence_matrix_once(self, factored):
        cx = build_dual_complex(strata_from_multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        group = CoefficientGroup(rank=1, torsion=(4, 8))
        phi = coboundary(Cochain(cx, group, 0, ((5, 1, 7), (-2, 3, 0), (0, 2, 6), (9, 0, 1))))
        beta = is_exact(phi)
        assert not isinstance(beta, NotExact)
        assert coboundary(beta) == phi
        assert factored == [cx._vertex_incidence[0]]

    def test_cache_is_not_a_field(self):
        a = build_dual_complex(simplex_strata((0, 1, 2)))
        b = build_dual_complex(simplex_strata((0, 1, 2)))
        homology(a)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


ORDERS = st.lists(
    st.one_of(st.integers(0, 10**6),
              st.sampled_from([0, 1, 2, 3, 4, 8, 9, 12, 25, 72, 7**7, 999983, 2 * 499979])),
    max_size=10)


@given(ORDERS)
@example([0, 1, 4, 6, 8, 8, 999983, 999983, 1])
@settings(max_examples=300, deadline=None)
def test_invariant_factor_chain_matches_factoring(orders):
    assert invariant_factor_chain(orders) == invariant_factor_chain_reference(orders)


def test_component_group_matches_c_perp_path(rng, corpus_lattices):
    lattices = [random_fiber_lattice(rng) for _ in range(500)]
    corpus = [lat for _, lat in corpus_lattices
              if lat.connected and lat.is_integral() and validate_lattice(lat).valid]
    assert corpus
    for lat in lattices + corpus:
        assert component_group(lat).invariant_factors == component_group_reference(lat)
