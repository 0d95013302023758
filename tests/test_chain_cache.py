"""The per-complex factorization cache and the algorithm swaps that ride
with it, checked against the reference paths kept in ``oracles``: the
Smith routine with a full pivot scan, the transform-free invariant factors
against two Smith diagonals, invariant factors of cyclic sums by trial
division and the component group through ``c-perp`` coordinates; the
cached sparse boundary rows against the dense matrices built entry by
entry; and the mapping cones gauged by the spanning forest against the full
cone on every vertex and edge."""

import random
import sys
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import complete_graph_lattice, random_fiber_lattice, random_multigraph, random_strata
from fiberext import dual_complex, linalg
from fiberext.cochain import (
    Cochain,
    CoefficientGroup,
    GroupInvariants,
    coboundary,
    cohomology_group,
    h1_class,
    hom_from_h1,
    invariant_factor_chain,
    is_exact,
)
from fiberext.dual_complex import (
    boundary_matrix,
    boundary_rows,
    build_dual_complex,
    homology,
    invariant_factors,
    simplex_strata,
    strata_from_multigraph,
)
from fiberext.lattice import component_group, denominator_bound, validate_lattice
from test_exactness import one_vertex_complex
from oracles import (
    boundary_matrix_reference,
    component_group_reference,
    invariant_factor_chain_reference,
    mapping_cone_reference,
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
    assert linalg.snf_diagonal(linalg.sparse(mat)) == diagonal == naive_invariant_factors(mat)


def relation_block(mat, ncols, n):
    """``[mat | n I]``: the relations of ``Z^rows / (im mat + n Z^rows)``."""
    return [list(row) + [n if k == i else 0 for k in range(len(mat))]
            for i, row in enumerate(mat)], ncols + len(mat)


@pytest.fixture
def quotients(monkeypatch):
    """Every ``(rels, n, (free, torsion))`` that ``cohomology_group`` hands
    to and gets back from ``linalg.lattice_quotient``, in call order."""
    calls = []

    def recording(rels, n, original=linalg.lattice_quotient):
        calls.append((rels, n, original(rels, n)))
        return calls[-1][2]

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

    @pytest.mark.parametrize("order", [2, 6, 10**11 + 3])
    def test_one_entry_rows(self, rng, order):
        """One-entry rows beside a matrix, as the ``n e_e`` rows of a
        graph's mapping cone, whether or not they divide its entries:
        folded into one gcd per column, they join the rows that reach their
        column and stand as diagonal blocks elsewhere, and the factors must
        match both references."""
        tried = 0
        for mat, n in random_matrices(rng, (-1, 0, 0, 1, 1, 2, order), 400):
            if n:
                extra = [[0] * n for _ in range(rng.randint(1, 2 * n))]
                for row in extra:
                    row[rng.randrange(n)] = order * rng.choice((1, -1, 2, 3)) // rng.choice((1, 1, order))
                assert_same_invariant_factors(mat + extra, n)
                tried += 1
        assert tried > 300

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
        for rels, n, _ in quotients:
            assert_same_invariant_factors(linalg.dense(rels, n), n)


def assert_forest_factors(cx):
    """B_1's invariant factors, read off the spanning forest, against both
    Smith diagonals of its rows; and each forest step reaches a new vertex
    along one of its edges from a root or an earlier step."""
    steps = cx.spanning_forest
    new = [v for _, _, v in steps]
    reached = set(range(cx.count(0))) - set(new)
    assert len(new) == len(set(new))
    for e, known, v in steps:
        assert known in reached and sorted(cx.facets[0][e]) == sorted((known, v))
        reached.add(v)
    if cx.dimension < 1:
        assert invariant_factors(cx, 1) == [] and steps == ()
        return
    rows = boundary_rows(cx, 1)
    assert invariant_factors(cx, 1) == [1] * len(steps) == linalg.snf_diagonal(rows) \
        == naive_invariant_factors(boundary_matrix_reference(cx, 1))


class TestSpanningForestFactors:
    def test_random_strata_and_corpus(self, rng, corpus_complexes):
        for _ in range(500):
            assert_forest_factors(build_dual_complex(random_strata(rng)))
        for _, cx in corpus_complexes:
            assert_forest_factors(cx)

    def test_disconnected_multigraphs(self, rng):
        assert_forest_factors(build_dual_complex(strata_from_multigraph(7, [(0, 3), (3, 1), (0, 1), (2, 4), (4, 2)])))
        for _ in range(300):
            assert_forest_factors(random_multigraph(rng))

    def test_loop_edges_and_no_edges(self):
        loops = dual_complex.DeltaComplex((("v",), ("a", "b"), ("t",)), (((0, 0), (0, 0)), ((1, 0, 1),)))
        assert_forest_factors(loops)
        assert loops.spanning_forest == ()
        points = build_dual_complex(strata_from_multigraph(3, []))
        assert points.dimension == 0
        assert_forest_factors(points)
        assert homology(points).betti == (3,)


def suspension(cx):
    """The suspension of a Delta-complex: two new vertices after the old
    ones and, in each dimension k >= 1, the old k-simplices and then the
    cones from each new vertex on the (k-1)-simplices.  The new vertex is
    last in each cone, so facet i of a cone on s is the cone on facet i of
    s, and its last facet is s: ``B_(r-1) B_r = 0`` holds again."""
    counts = cx.counts + (0,)
    ids = [cx.simplex_ids[0] + ("a", "b")]
    facets = []
    for k in range(1, len(counts)):
        old = cx.simplex_ids[k] if k < len(counts) - 1 else ()
        ids.append(old + tuple(f"{s}*{t}" for t in "ab" for s in cx.simplex_ids[k - 1]))
        rows = list(cx.facets[k - 1]) if k < len(counts) - 1 else []
        for t in range(2):
            if k == 1:
                rows += [(counts[0] + t, v) for v in range(counts[0])]
            else:
                shift = counts[k - 1] + t * counts[k - 2]
                rows += [tuple(shift + f for f in fs) + (j,) for j, fs in enumerate(cx.facets[k - 2])]
        facets.append(tuple(rows))
    return dual_complex.DeltaComplex(tuple(ids), tuple(facets))


def assert_compression_keeps_factors(cx):
    """In every degree, the invariant factors the cache computes from the
    rows of B_r less the unit columns of B_(r-1) equal the Smith diagonal
    of all of B_r, by ``snf_diagonal`` and by plain Euclid; and the unit
    columns of B_r are ones the rows of B_r project onto all of Z^units,
    which is what makes deleting them from B_(r+1) exact."""
    for r in range(1, cx.dimension + 1):
        mat = boundary_matrix_reference(cx, r)
        if r >= 2:
            below = boundary_matrix_reference(cx, r - 1)
            assert not any(sum(a * b for a, b in zip(row, col)) for row in below for col in zip(*mat))
        factors, units = dual_complex._factored(cx, r)
        assert invariant_factors(cx, r) == factors == linalg.snf_diagonal(boundary_rows(cx, r)) \
            == naive_invariant_factors(mat)
        assert naive_invariant_factors([[row[j] for j in sorted(units)] for row in mat]) == [1] * len(units)


class TestCompression:
    def test_random_strata(self, rng):
        for _ in range(200):
            assert_compression_keeps_factors(build_dual_complex(random_strata(rng)))

    @pytest.mark.parametrize("k", range(2, 10))
    def test_simplex_boundaries(self, k):
        assert_compression_keeps_factors(build_dual_complex(simplex_strata(tuple(range(k)), full=False)))

    def test_corpus_complexes(self, corpus_complexes):
        for _, cx in corpus_complexes:
            assert_compression_keeps_factors(cx)

    def test_double_suspensions_of_one_vertex_complexes(self, rng):
        """Torsion of ``H_1`` moves to ``H_3``, below the compressed B_4."""
        torsion = 0
        for _ in range(150):
            cx = suspension(suspension(one_vertex_complex(rng)))
            assert_compression_keeps_factors(cx)
            torsion += any(d > 1 for d in invariant_factors(cx, 4))
        assert torsion >= 15


CONE_ORDERS = (2, 4, 6, 12, 35)


def assert_gauged_cones_match(cx, quotients):
    """For each order n, the one cone ``cohomology_group`` factors, on the
    edges off the spanning forest, has the ``(free, torsion)`` of the full
    cone on every vertex and edge.  A complex without edges has no cone."""
    for n in CONE_ORDERS:
        quotients.clear()
        cohomology_group(cx, CoefficientGroup(torsion=(n,)))
        assert [q for _, _, q in quotients] == ([mapping_cone_reference(cx, n)] if cx.count(1) else [])


class TestGaugedMappingCone:
    def test_random_strata(self, rng, quotients):
        for _ in range(500):
            assert_gauged_cones_match(build_dual_complex(random_strata(rng)), quotients)

    def test_random_multigraphs(self, rng, quotients):
        for _ in range(300):
            assert_gauged_cones_match(random_multigraph(rng), quotients)

    def test_one_vertex_complexes(self, rng, quotients):
        for _ in range(300):
            assert_gauged_cones_match(one_vertex_complex(rng), quotients)

    def test_double_suspensions_of_one_vertex_complexes(self, rng, quotients):
        for _ in range(150):
            assert_gauged_cones_match(suspension(suspension(one_vertex_complex(rng))), quotients)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_simplex_boundaries(self, k, quotients):
        assert_gauged_cones_match(build_dual_complex(simplex_strata(tuple(range(k)), full=False)), quotients)


SMALL_MATRICES = st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-30, 30)),
                      min_size=n, max_size=n), max_size=5),
    st.just(n),
    st.sampled_from([1, 1, 2, 3, 6, 2**40])))


@given(SMALL_MATRICES)
# One-entry rows 2 e_0 and 3 e_0 fold to the gcd 1; other rows reach
# column 0, so e_0 joins them as a row and is the first unit pivot.
@example(([[2, 0, 0], [3, 0, 0], [0, 4, 0], [5, 2, 6], [0, 2, 2]], 3, 1))
# The one-entry row -e_1 joins the rows reaching column 1 and clears it
# with no fill-in; after the content 2 is divided out, pivoting column 0
# leaves -3 e_2 and -5 e_2, ordinary rows without a unit, of content 1,
# for the dense fallback.
@example(([[0, -1, 0], [2, 3, 4], [4, 5, 2], [6, 0, 2]], 3, 1))
# Row 1 shrinks to 2 e_2 when column 0 is pivoted and stays a row beside
# the joined 3 e_1, for the dense fallback.  At factor 6 the content 6 is
# divided out before that pivot, so column 0 is no unit.
@example(([[1, 1, 0], [1, 1, 2], [0, 3, 0]], 3, 1))
@example(([[1, 1, 0], [1, 1, 2], [0, 3, 0]], 3, 6))
# 3 e_0 and 2 e_1 join the rows; pivoting the sparsest column, 2, leaves
# them as a diagonal residue for the dense fallback.
@example(([[1, 1, 1], [3, 0, 0], [0, 2, 0]], 3, 1))
# The mapping cone of 2 on a triangle: two unit pivots empty the third
# incidence row, which is deleted, and turn each 2 e_e into 2 e_2; after
# the content 2 is divided out, one e_2 is pivoted and empties the others.
@example(([[1, -1, 0], [0, 1, -1], [-1, 0, 1], [2, 0, 0], [0, 2, 0], [0, 0, 2]], 3, 1))
# Content 2 in the two-entry rows, but 1 with the joined row 3 e_0: all
# three rows go to the dense fallback.
@example(([[2, 4], [4, 2], [3, 0]], 2, 1))
# Row 1 shrinks to 2 e_2 and stays a row; with 3 e_1 + 3 e_2 and the
# joined 6 e_1 it is a residue of content 1 for the dense fallback.
@example(([[1, 1, 0], [1, 1, 2], [0, 3, 3], [0, 6, 0]], 3, 1))
# The one-entry row -e_1 alone in column 1 is a diagonal block of its own,
# merged into the diagonal at the end and reported as a unit.
@example(([[0, -1, 0], [2, 0, 4], [4, 0, 2]], 3, 1))
@settings(max_examples=300, deadline=None)
def test_invariant_factors_property(case):
    """``_smith_diagonal`` itself: the diagonal against both references;
    the units a set of columns the rows project onto, so that their Smith
    diagonal is all ones; and among them every column whose entries all lie
    in one-entry rows of gcd 1."""
    mat, n, factor = case
    mat = [[factor * x for x in row] for row in mat]
    assert_same_invariant_factors(mat, n)
    diag, units = linalg._smith_diagonal(linalg.sparse(mat))
    assert diag == naive_invariant_factors(mat)
    assert naive_invariant_factors([[row[j] for j in sorted(units)] for row in mat]) == [1] * len(units)
    for j in range(n):
        hits = [row for row in mat if row[j]]
        if hits and all(sum(map(bool, row)) == 1 for row in hits) and gcd(*[row[j] for row in hits]) == 1:
            assert j in units


@pytest.fixture
def factored(monkeypatch):
    """Every matrix handed to either factorization routine, in call order:
    dense rows for ``linalg.smith_normal_form``, copies of the sparse rows
    for ``linalg._smith_diagonal``, which ``snf_diagonal`` and the
    boundary-matrix cache call."""
    calls = []

    def counting(original, copy):
        def wrapper(mat, *ncols):
            calls.append([copy(row) for row in mat])
            return original(mat, *ncols)
        return wrapper

    for name, copy in (("smith_normal_form", list), ("_smith_diagonal", dict)):
        monkeypatch.setattr(linalg, name, counting(getattr(linalg, name), copy))
    return calls


def compressed(cx, r):
    """B_r built entry by entry, as sparse rows, less the rows of the unit
    columns of B_(r-1): what the homology cache factors."""
    units = dual_complex._factored(cx, r - 1)[1]
    return [row for f, row in enumerate(linalg.sparse(boundary_matrix_reference(cx, r))) if f not in units]


class TestOneFactorizationPerComplex:
    def test_homology_factors_each_boundary_matrix_once(self, factored):
        """Once each, and B_1 never: its factors come from the spanning forest."""
        cx = build_dual_complex(simplex_strata(tuple(range(5)), full=False))
        profiles = [homology(cx) for _ in range(3)]
        assert profiles[0] == profiles[1] == profiles[2]
        assert profiles[0].betti == (1, 0, 0, 1)
        assert factored == [compressed(cx, r) for r in range(2, cx.dimension + 1)]
        assert [len(rows) for rows in factored] == [6, 4]

    def test_is_exact_factors_the_incidence_matrix_once(self, factored):
        """At most once, and in fact never: the spanning-forest solve hands
        no matrix to either factorization entry point."""
        cx = build_dual_complex(strata_from_multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        group = CoefficientGroup(rank=1, torsion=(4, 8))
        phi = coboundary(Cochain(cx, group, 0, ((5, 1, 7), (-2, 3, 0), (0, 2, 6), (9, 0, 1))))
        beta = is_exact(phi)
        assert beta is not None
        assert coboundary(beta) == phi
        assert factored == []

    def test_h1_class_factors_each_boundary_matrix_once(self, factored):
        """The free part of ``H^1`` and the ``Hom(H_1, A)`` cross-check read
        the same cached invariant factors of B_1 and B_2, B_1's from the
        spanning forest, B_2's on the 6 rows that are no forest edge; the one
        other factorization is the mapping cone of 6, gauged by the same
        forest: those 6 rows, each with 6 in its own column past the 10
        triangles, and no vertex relation."""
        cx = build_dual_complex(simplex_strata(tuple(range(5)), full=False))
        group = CoefficientGroup(rank=1, torsion=(6,))
        cls = h1_class(Cochain(cx, group, 1, (group.zero(),) * cx.count(1)))
        assert cls.group_profile.rank == 0 and cls.group_profile.torsion == ()
        assert [len(m) for m in factored] == [6, 6]
        forest = {e for e, _, _ in cx.spanning_forest}
        assert factored[:1] == [[dict(row) for f, row in enumerate(boundary_rows(cx, 2)) if f not in forest]]
        assert factored[1] == [{**row, 10 + c: 6} for c, row in enumerate(factored[0])]

    def test_cache_is_not_a_field(self):
        a = build_dual_complex(simplex_strata((0, 1, 2)))
        b = build_dual_complex(simplex_strata((0, 1, 2)))
        homology(a)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def rows_of(cx):
    """Copies of every cached boundary row of ``cx``, by degree."""
    return {r: [dict(row) for row in boundary_rows(cx, r)] for r in range(1, cx.dimension + 1)}


class TestSparseBoundaryRows:
    def test_rows_match_the_dense_matrices(self, rng, corpus_complexes):
        """500 random complexes and the corpus: the cached rows, and the
        dense view of them, equal B_r built entry by entry."""
        complexes = [build_dual_complex(random_strata(rng)) for _ in range(500)]
        complexes += [cx for _, cx in corpus_complexes]
        for cx in complexes:
            for r in range(1, cx.dimension + 1):
                dense = boundary_matrix_reference(cx, r)
                assert list(boundary_rows(cx, r)) == linalg.sparse(dense)
                assert boundary_matrix(cx, r) == dense
                assert boundary_rows(cx, r) is boundary_rows(cx, r)

    def test_recurring_facets_sum_and_cancel(self):
        """A Delta-complex may repeat a facet: a loop edge has a zero
        column, a triangle on one edge twice keeps the sum of its signs."""
        cx = dual_complex.DeltaComplex((("v",), ("a", "b"), ("t",)), (((0, 0), (0, 0)), ((1, 0, 1),)))
        assert boundary_rows(cx, 1) == ({},)
        assert boundary_rows(cx, 2) == ({0: -1}, {0: 2})
        assert boundary_matrix(cx, 2) == boundary_matrix_reference(cx, 2) == [[-1], [2]]

    def test_degree_out_of_range(self):
        cx = build_dual_complex(simplex_strata((0, 1, 2)))
        for r in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                boundary_rows(cx, r)

    def test_chain_operations_never_build_dense_matrices(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("boundary_matrix called")

        for name, module in list(sys.modules.items()):
            if name.startswith("fiberext") and getattr(module, "boundary_matrix", None) is boundary_matrix:
                monkeypatch.setattr(module, "boundary_matrix", refuse)
        group = CoefficientGroup(rank=1, torsion=(2, 4))
        for _ in range(50):
            cx = build_dual_complex(random_strata(rng))
            homology(cx)
            cohomology_group(cx, group)
            hom_from_h1(cx, group)

    def test_hom_from_h1_factors_degrees_one_and_two_only(self, factored):
        cx = build_dual_complex(simplex_strata(tuple(range(7)), full=False))
        assert cx.dimension == 5
        assert hom_from_h1(cx, CoefficientGroup(rank=1, torsion=(6,))) == GroupInvariants(0, ())
        assert factored == [compressed(cx, 2)]
        assert sorted(cx._invariant_factors) == [1, 2]

    def test_rows_are_unchanged_by_their_readers(self, rng, corpus_complexes):
        complexes = [build_dual_complex(random_strata(rng)) for _ in range(100)]
        complexes += [cx for _, cx in corpus_complexes]
        for cx in complexes:
            before = rows_of(cx)
            cohomology_group(cx, CoefficientGroup(rank=1, torsion=(4,)))
            homology(cx)
            assert rows_of(cx) == before


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
        assert component_group(lat).torsion == component_group_reference(lat)


def dense_calls(factored):
    """The matrices in ``factored`` handed to ``smith_normal_form``: lists
    of dense rows, where ``_smith_diagonal`` gets dicts."""
    return [mat for mat in factored if mat and isinstance(mat[0], list)]


@pytest.mark.parametrize("seed", range(3))
def test_complete_graph_lattices_match_plain_euclid(seed, factored):
    """Gauge-reduced matrices with no unit and content 1, which reach the
    dense fallback: the component group and the denominator bound against
    the Smith diagonal by plain Euclid."""
    rng = random.Random(seed)
    for n in range(3, 12):
        lattice = complete_graph_lattice(rng, n)
        diag = naive_invariant_factors([[int(x) for x in row[1:]] for row in lattice.matrix[1:]])
        assert component_group(lattice).torsion == tuple(d for d in diag if d > 1)
        assert denominator_bound(lattice) == diag[-1]
    assert len(dense_calls(factored)) >= 5


def test_complexes_and_cones_never_reach_the_dense_fallback(rng, factored):
    """Homology of random complexes and their mapping cones for every order
    leave no residue for ``smith_normal_form``."""
    for _ in range(150):
        for cx in (build_dual_complex(random_strata(rng)), random_multigraph(rng)):
            homology(cx)
            for n in CONE_ORDERS:
                cohomology_group(cx, CoefficientGroup(torsion=(n,)))
    assert len(factored) > 1000
    assert dense_calls(factored) == []
