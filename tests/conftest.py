"""Shared fixtures and randomized generators for the test suite."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from fiberext import corpus
from fiberext.dual_complex import Stratum, build_dual_complex, strata_from_multigraph
from fiberext.lattice import DivisorTrace, FiberLattice, kodaira_cycle


# ---------------------------------------------------------------------------
# Random fiber lattices: start from a cycle of (-2)-curves (or a single
# elliptic component) and apply random blow-up moves, which preserve all
# Zariski-lemma invariants by construction.
# ---------------------------------------------------------------------------

def _blow_up_general(mat, mult, i):
    n = len(mat)
    mat[i][i] -= 1
    for row in mat:
        row.append(0)
    new = [0] * (n + 1)
    new[n] = -1
    new[i] += 1
    mat[i][n] += 1
    mat.append(new)
    mult.append(mult[i])


def _blow_up_intersection(mat, mult, i, j):
    n = len(mat)
    mat[i][i] -= 1
    mat[j][j] -= 1
    mat[i][j] -= 1
    mat[j][i] -= 1
    for row in mat:
        row.append(0)
    new = [0] * (n + 1)
    new[n] = -1
    new[i] += 1
    new[j] += 1
    mat[i][n] += 1
    mat[j][n] += 1
    mat.append(new)
    mult.append(mult[i] + mult[j])


def random_fiber_lattice(rng: random.Random, max_size: int = 10) -> FiberLattice:
    if rng.random() < 0.25:
        mat = [[0]]
        mult = [1]
    else:
        base = kodaira_cycle(rng.randint(2, min(5, max_size)))
        mat = [[int(x) for x in row] for row in base.matrix]
        mult = list(base.multiplicities)
    target = rng.randint(len(mult), max_size)
    while len(mult) < target:
        pairs = [(i, j) for i in range(len(mult)) for j in range(i + 1, len(mult))
                 if mat[i][j] >= 1]
        if pairs and rng.random() < 0.5:
            _blow_up_intersection(mat, mult, *rng.choice(pairs))
        else:
            _blow_up_general(mat, mult, rng.randrange(len(mult)))
    return FiberLattice(
        labels=tuple(f"C{k}" for k in range(len(mult))),
        matrix=tuple(tuple(Fraction(x) for x in row) for row in mat),
        multiplicities=tuple(mult),
        connected=True,
    )


def complete_graph_lattice(rng: random.Random, n: int) -> FiberLattice:
    """The complete graph on n components with multiplicities 1: each
    intersection number off the diagonal drawn from {2, 3}, each diagonal
    entry the negated sum of its row (a negated weighted Laplacian).  Its
    gauge-reduced matrix has no +-1 entry and content 1."""
    mat = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        mat[i][j] = mat[j][i] = rng.choice((2, 3))
    for i, row in enumerate(mat):
        row[i] = -sum(row)
    return FiberLattice(tuple(f"C{k}" for k in range(n)), mat, (1,) * n)


def random_orthogonal_trace(rng: random.Random, lattice: FiberLattice) -> DivisorTrace:
    """Random integer trace with zero pairing against the fiber class."""
    n = lattice.size
    c = lattice.multiplicities
    vals = [0] * n
    if n >= 2:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-5, 5)
            vals[i] += k * c[j]
            vals[j] -= k * c[i]
    return DivisorTrace(tuple(vals))


def random_nonorthogonal_trace(rng: random.Random, lattice: FiberLattice) -> DivisorTrace:
    n = lattice.size
    vals = [rng.randint(-5, 5) for _ in range(n)]
    if sum(c * v for c, v in zip(lattice.multiplicities, vals)) == 0:
        vals[0] += 1
    return DivisorTrace(tuple(vals))


# ---------------------------------------------------------------------------
# Random Delta-complexes: a downward-closed family of index sets gives a
# simplicial complex; duplicating simplices of positive dimension (same
# facets, fresh id) exercises the Delta-complex generality.
# ---------------------------------------------------------------------------

def _base_ident(subset) -> str:
    return "Z" + "".join(str(i) for i in subset)


def random_strata(rng: random.Random, max_total: int = 30) -> tuple[tuple[Stratum, ...], ...]:
    n_verts = rng.randint(2, 5)
    subsets = {(i,) for i in range(n_verts)}
    for _ in range(rng.randint(0, 5)):
        size = rng.randint(2, min(4, n_verts))
        gen = tuple(sorted(rng.sample(range(n_verts), size)))
        for r in range(1, len(gen) + 1):
            subsets.update(combinations(gen, r))

    copies = {s: 1 for s in subsets}
    total = len(subsets)
    for s in sorted(subsets):
        if len(s) >= 2 and total < max_total and rng.random() < 0.3:
            copies[s] += 1
            total += 1

    top = max(len(s) for s in subsets) - 1
    levels = []
    for r in range(top + 1):
        level = []
        for s in sorted(x for x in subsets if len(x) == r + 1):
            facs = tuple(_base_ident(s[:k] + s[k + 1:]) for k in range(r + 1)) if r else ()
            level.append(Stratum(_base_ident(s), s, facs))
            for extra in range(1, copies[s]):
                level.append(Stratum(f"{_base_ident(s)}x{extra}", s, facs))
        levels.append(tuple(level))
    return tuple(levels)


def torus_strata(n: int) -> tuple[tuple[Stratum, ...], ...]:
    """Strata of the n x n torus (n >= 3): vertex ``(i, j)`` is component
    ``n i + j``, indices mod n, and each square is cut along its diagonal,
    so there are n^2 vertices, 3 n^2 edges and 2 n^2 triangles."""
    def v(i, j):
        return i % n * n + j % n

    def ident(s):
        return "Z" + "-".join(map(str, s))

    squares = [(v(i, j), v(i, j + 1), v(i + 1, j), v(i + 1, j + 1)) for i in range(n) for j in range(n)]
    triangles = sorted(tuple(sorted(t)) for a, b, c, d in squares for t in ((a, b, d), (a, c, d)))
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    return tuple(tuple(Stratum(ident(s), s, tuple(ident(s[:k] + s[k + 1:]) for k in range(len(s))) if s[1:] else ())
                       for s in level)
                 for level in ([(k,) for k in range(n * n)], edges, triangles))


def random_multigraph(rng):
    """Several components on shuffled vertex labels, isolated vertices,
    spanning trees plus extra and parallel edges."""
    sizes = [rng.choice((1, 1, 2, 3, 4, 5)) for _ in range(rng.randint(1, 4))]
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    edges = []
    start = 0
    for size in sizes:
        comp = labels[start:start + size]
        start += size
        for k in range(1, size):
            edges.append((comp[rng.randrange(k)], comp[k]))
        for _ in range(rng.randint(0, 2 * size) if size > 1 else 0):
            edges.append(tuple(rng.sample(comp, 2)))
    for _ in range(rng.randint(0, 3)):
        if edges:
            edges.append(rng.choice(edges)[::-1])
    rng.shuffle(edges)
    return build_dual_complex(strata_from_multigraph(len(labels), edges))


# ---------------------------------------------------------------------------
# Corpus fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus_complexes():
    """(name, DeltaComplex) for every bundled scenario with strata."""
    out = []
    for name in corpus.scenario_names():
        sc = corpus.load_scenario(name)
        if sc.strata is not None:
            out.append((name, sc.strata))
    assert out, "the corpus must bundle complexes"
    return out


@pytest.fixture(scope="session")
def corpus_lattices():
    """(name, FiberLattice) for every bundled scenario with a lattice."""
    out = []
    for name in corpus.scenario_names():
        sc = corpus.load_scenario(name)
        if sc.lattice is not None:
            out.append((name, sc.lattice))
    assert out, "the corpus must bundle lattices"
    return out


@pytest.fixture
def rng():
    return random.Random(20260823)
