"""Spanning-forest exactness and the mapping-cone ``H^1``, checked against
the paths kept in ``oracles``.  Exactness: the same verdict as the Smith
solves, a potential whose coboundary is the cochain, and 0 at the largest
vertex of every connected component.  ``H^1``: the same group as the
kernel-basis path and as ``Hom(H_1, A)``."""

import time

import pytest

from conftest import random_multigraph, random_strata, torus_strata
from fiberext import cochain, lattice, linalg
from fiberext.cochain import Cochain, CoefficientGroup, coboundary, is_closed, is_exact
from fiberext.dual_complex import DeltaComplex, build_dual_complex, homology_degree, simplex_strata, strata_from_multigraph
from oracles import cohomology_group_reference, is_exact_reference, lattice_quotient_reference

GROUPS = (
    CoefficientGroup(rank=1),                        # Z
    CoefficientGroup(rank=2),                        # Z^2
    CoefficientGroup(torsion=(6,)),                  # Z/6
    CoefficientGroup(rank=1, torsion=(4,)),          # Z + Z/4
    CoefficientGroup(torsion=(10**11 + 3,)),         # Z/(10^11 + 3)
)


def random_element(rng, group):
    free = [rng.randint(-20, 20) for _ in range(group.rank)]
    return group.reduce(free + [rng.randrange(n) for n in group.torsion])


def random_nonzero(rng, group):
    while True:
        a = random_element(rng, group)
        if not group.is_zero(a):
            return a


def components(cx):
    """Vertex sets of the connected components of the 1-skeleton."""
    parent = list(range(cx.count(0)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in (cx.facets[0] if cx.dimension >= 1 else ()):
        parent[find(a)] = find(b)
    comps = {}
    for v in range(cx.count(0)):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def free_edges(cx):
    """Edges that are no face of a 2-simplex: bumping one keeps a cochain closed."""
    bound = {f for facets in cx.facets[1] for f in facets} if cx.dimension >= 2 else set()
    return [e for e in range(cx.count(1)) if e not in bound]


def check_verdict(phi):
    """Assert agreement with the reference; return True when ``phi`` is exact."""
    beta, ref = is_exact(phi), is_exact_reference(phi)
    assert (beta is None) == (ref is None)
    if beta is None:
        return False
    assert coboundary(ref) == phi
    assert coboundary(beta) == phi
    for comp in components(phi.complex):
        assert phi.group.is_zero(beta.values[max(comp)])
        # The oracle's potential, moved to 0 at the same root, is beta.
        root = ref.values[max(comp)]
        assert [beta.values[v] for v in comp] == [phi.group.sub(ref.values[v], root) for v in comp]
    return True


def check_complex(rng, cx):
    """Exact cochains and one-edge bumps over every group; the verdict counts."""
    verdicts = []
    for group in GROUPS:
        beta = Cochain(cx, group, 0, [random_element(rng, group) for _ in range(cx.count(0))])
        phi = coboundary(beta)
        assert check_verdict(phi)
        verdicts.append(True)
        edges = free_edges(cx)
        if edges:
            values = list(phi.values)
            e = rng.choice(edges)
            values[e] = group.add(values[e], random_nonzero(rng, group))
            bumped = Cochain(cx, group, 1, values)
            assert is_closed(bumped)
            verdicts.append(check_verdict(bumped))
    return verdicts


class TestSpanningForestExactness:
    def test_random_strata(self, rng):
        verdicts = []
        for _ in range(500):
            verdicts += check_complex(rng, build_dual_complex(random_strata(rng)))
        assert False in verdicts

    def test_random_multigraphs(self, rng):
        verdicts = []
        for _ in range(300):
            verdicts += check_complex(rng, random_multigraph(rng))
        assert False in verdicts

    @pytest.mark.parametrize("n_vertices", [0, 1, 4])
    def test_complex_without_edges(self, n_vertices):
        cx = build_dual_complex(strata_from_multigraph(n_vertices, []))
        for group in GROUPS:
            phi = Cochain(cx, group, 1, ())
            assert check_verdict(phi)
            assert is_exact(phi).values == (group.zero(),) * n_vertices

    def test_potential_spreads_from_the_largest_vertex(self):
        """Two components and an isolated vertex: each root is the largest
        vertex of its component and takes the value 0."""
        cx = build_dual_complex(strata_from_multigraph(6, [(0, 3), (3, 1), (0, 1), (2, 4)]))
        group = CoefficientGroup(rank=1, torsion=(4,))
        beta = Cochain(cx, group, 0, [(1, 1), (2, 2), (3, 3), (4, 0), (5, 1), (6, 2)])
        found = is_exact(coboundary(beta))
        assert found.values == ((-3, 1), (-2, 2), (-2, 2), (0, 0), (0, 0), (0, 0))

    def test_bumped_cycle_edge_is_not_exact(self):
        cx = build_dual_complex(strata_from_multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)]))
        for group in GROUPS:
            phi = coboundary(Cochain(cx, group, 0, [group.zero()] * 3))
            for e in range(cx.count(1)):
                values = list(phi.values)
                values[e] = group.add(values[e], group.reduce([1] * group.width))
                assert not check_verdict(Cochain(cx, group, 1, values))


def one_vertex_complex(rng):
    """One vertex, loops for edges and triangles on random triples of them:
    a Delta-complex whose ``H_1`` often has torsion."""
    n_e, n_t = rng.randint(1, 6), rng.randint(0, 5)
    triangles = tuple(tuple(rng.randrange(n_e) for _ in range(3)) for _ in range(n_t))
    ids = (("V",), tuple(f"E{e}" for e in range(n_e)), tuple(f"T{t}" for t in range(n_t)))
    return DeltaComplex(ids, (((0, 0),) * n_e, triangles))


# The groups above, a torsion-only chain and a free part beside a three-step chain.
COHOMOLOGY_GROUPS = GROUPS + (
    CoefficientGroup(torsion=(2, 4)),                # Z/2 + Z/4
    CoefficientGroup(rank=1, torsion=(3, 6, 12)),    # Z + Z/3 + Z/6 + Z/12
)


def check_cohomology(cx):
    """The same ``H^1`` three ways over every group; returns the torsion of ``H_1``."""
    for group in COHOMOLOGY_GROUPS:
        assert cochain.cohomology_group(cx, group) == cohomology_group_reference(cx, group) \
            == cochain.hom_from_h1(cx, group)
    return homology_degree(cx, 1)[1]


class TestMappingConeCohomology:
    def test_random_strata(self, rng):
        for _ in range(500):
            check_cohomology(build_dual_complex(random_strata(rng)))

    def test_random_multigraphs(self, rng):
        for _ in range(300):
            assert check_cohomology(random_multigraph(rng)) == ()

    def test_one_vertex_complexes(self, rng):
        torsion = [check_cohomology(one_vertex_complex(rng)) for _ in range(300)]
        assert sum(map(bool, torsion)) >= 30

    @pytest.mark.parametrize("k", range(3, 10))
    def test_simplex_boundaries(self, k):
        check_cohomology(build_dual_complex(simplex_strata(tuple(range(k)), full=False)))


def test_h1_class_on_the_60_by_60_torus_is_fast():
    """The mapping cone of 6 on the torus is gauged by the spanning forest:
    7,201 relations instead of 14,400.  On a shared 2-vCPU machine this
    call took 1.3 s with the full cone and under 0.1 s with the gauged one;
    the bound sits between."""
    cx = build_dual_complex(torus_strata(60))
    group = CoefficientGroup(rank=1, torsion=(6,))
    phi = Cochain(cx, group, 1, (group.zero(),) * cx.count(1))
    start = time.perf_counter()
    cls = cochain.h1_class(phi)
    assert time.perf_counter() - start < 0.5
    assert cls.group_profile == cochain.GroupInvariants(rank=2, torsion=(6, 6))


def test_quotient_of_all_of_z_n_matches_the_identity_basis(rng):
    for _ in range(400):
        n = rng.randint(0, 7)
        rels = [[rng.choice((-3, -1, 0, 0, 0, 1, 1, 2, 6)) for _ in range(n)]
                for _ in range(rng.randint(0, 8))]
        assert linalg.lattice_quotient(linalg.sparse(rels), n) == lattice_quotient_reference(linalg.identity(n), rels, n)


def test_precondition_error_is_defined_once():
    assert lattice.PreconditionError is cochain.PreconditionError
