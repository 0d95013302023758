"""The per-complex factorization cache and the algorithm swaps that ride
with it, checked against the reference paths kept in ``oracles``: the
Smith routine with a full pivot scan, the transform-free invariant factors
against two Smith diagonals, invariant factors of cyclic sums by trial
division and the component group through ``c-perp`` coordinates."""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_fiber_lattice, random_strata
from fiberext import linalg
from fiberext.cochain import (
    Cochain,
    CoefficientGroup,
    NotExact,
    coboundary,
    cohomology_group,
    invariant_factor_chain,
    is_exact,
)
from fiberext.dual_complex import (
    boundary_matrix,
    build_dual_complex,
    homology,
    simplex_strata,
    strata_from_multigraph,
)
from fiberext.lattice import component_group, validate_lattice
from oracles import (
    component_group_reference,
    invariant_factor_chain_reference,
    naive_invariant_factors,
    smith_normal_form_reference,
    vertex_coboundary,
)


def chain_matrices(cx):
    """(matrix, ncols) for every boundary matrix and the coboundary -B_1^T."""
    out = [(boundary_matrix(cx, r), cx.count(r)) for r in range(1, cx.dimension + 1)]
    out.append((vertex_coboundary(cx), cx.count(0)))
    return out


def assert_same_smith_form(mat, ncols):
    assert linalg.smith_normal_form(mat, ncols) == smith_normal_form_reference(mat, ncols)


def random_matrices(rng, entries, count):
    """``count`` random ``(matrix, ncols)`` with up to 7 rows and columns,
    shapes down to 0, and a zeroed row or column in about a third of them."""
    entries = list(entries)
    for _ in range(count):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        mat = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        if m and rng.random() < 0.3:
            mat[rng.randrange(m)] = [0] * n
        if n and rng.random() < 0.3:
            j = rng.randrange(n)
            for row in mat:
                row[j] = 0
        yield mat, n


ENTRIES = [range(-50, 51), (-1, 0, 0, 0, 1, 1, 2, -3, 50)]


class TestUnitPivotScan:
    def test_random_strata(self, rng):
        for _ in range(200):
            for mat, n in chain_matrices(build_dual_complex(random_strata(rng))):
                assert_same_smith_form(mat, n)

    def test_corpus_complexes(self, corpus_complexes):
        for _, cx in corpus_complexes:
            for mat, n in chain_matrices(cx):
                assert_same_smith_form(mat, n)

    @pytest.mark.parametrize("entries", ENTRIES)
    def test_random_integer_matrices(self, rng, entries):
        for mat, n in random_matrices(rng, entries, 300):
            assert_same_smith_form(mat, n)


def assert_same_invariant_factors(mat, ncols):
    """``snf_diagonal`` against the reference Smith diagonal and plain Euclid."""
    _, s, _ = smith_normal_form_reference(mat, ncols)
    diagonal = [s[t][t] for t in range(min(len(mat), ncols)) if s[t][t]]
    assert linalg.snf_diagonal(mat) == diagonal == naive_invariant_factors(mat)


def relation_block(mat, ncols, n):
    """``[mat | n I]``: the relations of ``Z^rows / (im mat + n Z^rows)``."""
    return [list(row) + [n if k == i else 0 for k in range(len(mat))]
            for i, row in enumerate(mat)], ncols + len(mat)


@pytest.fixture
def quotients(monkeypatch):
    """Every ``(rels, n)`` that ``cohomology_group`` hands to
    ``linalg.lattice_quotient``, in call order."""
    calls = []

    def recording(rels, n, original=linalg.lattice_quotient):
        calls.append((rels, n))
        return original(rels, n)

    monkeypatch.setattr(linalg, "lattice_quotient", recording)
    return calls


class TestTransformFreeInvariantFactors:
    def test_random_strata(self, rng):
        for _ in range(200):
            for mat, n in chain_matrices(build_dual_complex(random_strata(rng))):
                assert_same_invariant_factors(mat, n)

    def test_corpus_complexes(self, corpus_complexes):
        for _, cx in corpus_complexes:
            for mat, n in chain_matrices(cx):
                assert_same_invariant_factors(mat, n)

    @pytest.mark.parametrize("entries", ENTRIES)
    @pytest.mark.parametrize("factor", [1, 2, 6, 10**11 + 3])
    def test_random_integer_matrices(self, rng, entries, factor):
        """The same 600 matrices at every factor: the content step divides
        the common factor out and must multiply it back into the scale."""
        for mat, n in random_matrices(rng, entries, 300):
            assert_same_invariant_factors([[factor * x for x in row] for row in mat], n)

    @pytest.mark.parametrize("order", [2, 6, 12, 10**11 + 3])
    def test_cohomology_relation_blocks(self, rng, order, quotients):
        """``[A | n I]`` blocks, and the mapping cones of ``n`` on complexes
        with 2-simplices exactly as ``cohomology_group`` factors them."""
        for _ in range(60):
            cx = build_dual_complex(random_strata(rng))
            assert_same_invariant_factors(*relation_block(vertex_coboundary(cx), cx.count(0), order))
        for mat, n in random_matrices(rng, (-1, 0, 0, 1), 100):
            assert_same_invariant_factors(*relation_block(mat, n, order))
        while len(quotients) < 60:
            cx = build_dual_complex(random_strata(rng))
            if cx.count(2):
                cohomology_group(cx, CoefficientGroup(torsion=(order,)))
        for rels, n in quotients:
            assert_same_invariant_factors(rels, n)


SMALL_MATRICES = st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-30, 30)),
                      min_size=n, max_size=n), max_size=5),
    st.just(n),
    st.sampled_from([1, 1, 2, 3, 6, 2**40])))


@given(SMALL_MATRICES)
@settings(max_examples=300, deadline=None)
def test_invariant_factors_property(case):
    mat, n, factor = case
    assert_same_invariant_factors([[factor * x for x in row] for row in mat], n)


@pytest.fixture
def factored(monkeypatch):
    """Every matrix handed to either factorization entry point,
    ``linalg.smith_normal_form`` or ``linalg.snf_diagonal``, in call order."""
    calls = []

    def counting(original):
        def wrapper(mat, *ncols):
            calls.append([list(row) for row in mat])
            return original(mat, *ncols)
        return wrapper

    for name in ("smith_normal_form", "snf_diagonal"):
        monkeypatch.setattr(linalg, name, counting(getattr(linalg, name)))
    return calls


class TestOneFactorizationPerComplex:
    def test_homology_factors_each_boundary_matrix_once(self, factored):
        cx = build_dual_complex(simplex_strata(tuple(range(5)), full=False))
        profiles = [homology(cx) for _ in range(3)]
        assert profiles[0] == profiles[1] == profiles[2]
        assert profiles[0].betti == (1, 0, 0, 1)
        assert factored == [boundary_matrix(cx, r) for r in range(1, cx.dimension + 1)]

    def test_is_exact_factors_the_incidence_matrix_once(self, factored):
        """At most once, and in fact never: the spanning-forest solve hands
        no matrix to either factorization entry point."""
        cx = build_dual_complex(strata_from_multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        group = CoefficientGroup(rank=1, torsion=(4, 8))
        phi = coboundary(Cochain(cx, group, 0, ((5, 1, 7), (-2, 3, 0), (0, 2, 6), (9, 0, 1))))
        beta = is_exact(phi)
        assert not isinstance(beta, NotExact)
        assert coboundary(beta) == phi
        assert factored == []

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
@example([6] * 1000)
@example([4] * 50 + [2])
@example([2] * 50 + [4, 1, 4])
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
