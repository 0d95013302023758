"""Dual complexes of simple normal crossing varieties.

The combinatorics of an snc variety are recorded stratum by stratum: a
level-r stratum is an irreducible component of an (r+1)-fold intersection
of components, and knows which stratum contains it when one index is
dropped.  From this we build an ordered Delta-complex, in one checking
walk, and compute its integer homology from the invariant factors of its
boundary matrices.  A scenario file's ``strata`` section loads as one
``DeltaComplex``.

Each ``DeltaComplex`` caches one sparse form of its chain complex: row
``f`` of ``B_r`` is ``{j: +-1}`` over the r-simplices ``j`` that have the
(r-1)-simplex ``f`` as a facet, built in one pass over ``facets[r-1]`` the
first time degree r is asked for (``boundary_rows``).  Homology and the
``H^1`` relations of ``cochain`` read these rows and never write them.
The invariant factors of each ``B_r`` are computed at most once, when a
degree that needs them is first asked for (``homology_degree``), so
``H_1`` needs ``B_1`` and ``B_2`` only.  ``B_1`` is never factored: it is
the incidence matrix of a directed graph, so its invariant factors are a 1
per edge of a spanning forest of the 1-skeleton, which each complex also
caches (``DeltaComplex.spanning_forest``) and ``cochain.is_exact``
propagates potentials along.  ``boundary_matrix`` is a dense view of the
rows, for display.  The caches are not fields and are never shared between
complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import ge
from typing import NamedTuple

from . import linalg
from .errors import StrataError


class Stratum(NamedTuple):
    """A level-r stratum: r + 1 increasing indices; facet k drops index k."""

    ident: str
    indices: tuple[int, ...]
    facets: tuple[str, ...] = ()


@dataclass(frozen=True)
class DeltaComplex:
    """Ordered Delta-complex: simplex ids per dimension plus facet maps.

    ``facets[r][i]`` (r >= 1) lists, for the i-th r-simplex, the indices of
    its r+1 facets in dimension r-1; position k corresponds to dropping the
    k-th vertex in the global component order.  Boundary rows and their
    invariant factors are computed at most once per instance and degree,
    and the spanning forest once per instance, and cached on it; the caches
    are not fields, so equality, hashing and repr ignore them.
    """

    simplex_ids: tuple[tuple[str, ...], ...]
    facets: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.simplex_ids) - 1

    def count(self, r: int) -> int:
        return len(self.simplex_ids[r]) if 0 <= r <= self.dimension else 0

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self.simplex_ids)

    def euler_characteristic(self) -> int:
        return sum((-1) ** r * c for r, c in enumerate(self.counts))

    @cached_property
    def _rows(self) -> dict:
        """Degree r -> the sparse rows of B_r (see ``boundary_rows``)."""
        return {}

    @cached_property
    def _invariant_factors(self) -> dict:
        """Degree r -> the invariant factors of B_r."""
        return {}

    @cached_property
    def spanning_forest(self) -> tuple[tuple[int, int, int], ...]:
        """A spanning forest of the 1-skeleton, as ``(edge, known, new)``
        steps.  Each connected component is rooted at its largest vertex;
        a step reaches vertex ``new`` along ``edge`` from ``known``, which
        is a root or was reached by an earlier step.  A loop edge is never
        a step, so there are ``count(0)`` minus the number of components."""
        edges = self.facets[0] if self.dimension >= 1 else ()
        adjacent = [[] for _ in range(self.count(0))]
        for e, (a, b) in enumerate(edges):
            adjacent[a].append(e)
            adjacent[b].append(e)
        reached = [False] * len(adjacent)
        steps = []
        for root in reversed(range(len(adjacent))):
            if reached[root]:
                continue
            reached[root] = True
            stack = [root]
            while stack:
                v = stack.pop()
                for e in adjacent[v]:
                    a, b = edges[e]
                    w = b if a == v else a
                    if not reached[w]:
                        reached[w] = True
                        steps.append((e, v, w))
                        stack.append(w)
        return tuple(steps)

    def closure(self, r: int, index: int):
        """Subcomplex generated by one simplex, with index maps back.

        Returns ``(sub, maps)`` where ``maps[k]`` lists, per new k-simplex,
        its index in this complex.
        """
        keep = [set() for _ in range(r + 1)]
        keep[r].add(index)
        for k in range(r, 0, -1):
            for i in keep[k]:
                keep[k - 1].update(self.facets[k - 1][i])
        maps = [sorted(keep[k]) for k in range(r + 1)]
        new_index = [{old: new for new, old in enumerate(maps[k])} for k in range(r + 1)]
        ids = tuple(tuple(self.simplex_ids[k][i] for i in maps[k]) for k in range(r + 1))
        facets = tuple(
            tuple(tuple(new_index[k - 1][f] for f in self.facets[k - 1][i]) for i in maps[k])
            for k in range(1, r + 1)
        )
        return DeltaComplex(ids, facets), maps


def build_dual_complex(levels) -> DeltaComplex:
    """Assemble the ordered Delta-complex of an snc stratum description.

    ``levels[r]`` holds the level-r strata (r = |J| - 1) as ``Stratum``s or
    plain ``(id, indices, facets)`` tuples.  One r-simplex per level-r
    stratum; several simplices may share a vertex set (a Delta-complex, not
    a simplicial complex).  Facet references must be consistent: the two
    ways around any codimension-2 face agree.  One walk, level by level,
    checks each stratum and resolves its facets to positions one level
    down; of several faults it reports the first met.
    """
    seen = set()
    ids, facets = [], []
    below, below_indices, below_facets = {}, [], []  # the level under the current one
    for r, level in enumerate(levels):
        position, indices, rows = {}, [], []
        n_facets = r + 1 if r else 0
        for ident, idx, fids in level:
            if ident in seen:
                raise StrataError(f"duplicate stratum id {ident!r}")
            seen.add(ident)
            if len(idx) != r + 1:
                raise StrataError(f"stratum {ident!r} at level {r} must have {r + 1} indices")
            if r and any(map(ge, idx, idx[1:])):
                raise StrataError(f"index set of {ident!r} must be strictly increasing")
            if len(fids) != n_facets:
                raise StrataError(f"stratum {ident!r} must list {r + 1} facets")
            position[ident] = len(indices)
            indices.append(idx)
            row = tuple(map(below.get, fids))
            for i, p in enumerate(row):
                if p is None:
                    raise StrataError(f"facet {fids[i]!r} of {ident!r} is not a level-{r - 1} stratum")
                expected = idx[:i] + idx[i + 1:]
                if below_indices[p] != expected:
                    raise StrataError(
                        f"facet {fids[i]!r} of {ident!r} has index set "
                        f"{below_indices[p]}, expected {expected}"
                    )
            if r >= 2:
                for i in range(r + 1):
                    fi = below_facets[row[i]]
                    for j in range(i + 1, r + 1):
                        if fi[j - 1] != below_facets[row[j]][i]:
                            raise StrataError(
                                f"inconsistent facets of {ident!r}: dropping indices "
                                f"{idx[i]} and {idx[j]} in either order must "
                                "reach the same stratum"
                            )
            rows.append(row)
        if not r and len({idx[0] for idx in indices}) != len(indices):
            raise StrataError("component indices at level 0 must be distinct")
        ids.append(tuple(position))
        facets.append(tuple(rows))
        below, below_indices, below_facets = position, indices, rows
    return DeltaComplex(tuple(ids), tuple(facets[1:]))


def boundary_rows(complex: DeltaComplex, r: int) -> tuple[dict[int, int], ...]:
    """Sparse rows of the integer boundary matrix B_r, cached on the complex.

    Row ``f`` maps each r-simplex ``j`` with ``f`` among its facets to the
    sign ``(-1)^k`` of that facet's position ``k`` (summed, should ``f``
    recur among the facets of ``j``; a zero sum is dropped).  The rows are
    shared by every caller and must not be written.
    """
    rows = complex._rows.get(r)
    if rows is not None:
        return rows
    if not 1 <= r <= complex.dimension:
        raise ValueError(f"degree {r} out of range 1..{complex.dimension}")
    rows = [{} for _ in range(complex.count(r - 1))]
    recurs = False
    for j, facets in enumerate(complex.facets[r - 1]):
        sign = 1
        for f in facets:
            row = rows[f]
            if j in row:
                row[j] += sign
                recurs = True
            else:
                row[j] = sign
            sign = -sign
    if recurs:
        rows = [{j: x for j, x in row.items() if x} for row in rows]
    rows = complex._rows[r] = tuple(rows)
    return rows


def boundary_matrix(complex: DeltaComplex, r: int):
    """Integer boundary matrix B_r mapping r-chains to (r-1)-chains, as a
    dense list of rows: the column of an r-simplex is the alternating sum of
    its facets.  A view of ``boundary_rows``, for display."""
    return linalg.dense(boundary_rows(complex, r), complex.count(r))


def _factor(complex: DeltaComplex, r: int) -> list[int]:
    """Invariant factors of B_r, r >= 2, computed from its rows (a cache miss)."""
    return linalg.snf_diagonal(boundary_rows(complex, r))


def invariant_factors(complex: DeltaComplex, r: int) -> list[int]:
    """Invariant factors of B_r (none outside 1..dimension), computed at
    most once per complex and degree.

    B_1 is never factored.  Its column of an edge is the difference of the
    edge's two vertices, zero for a loop, so B_1 is the incidence matrix of
    a directed graph and totally unimodular (Schrijver, *Theory of Linear
    and Integer Programming*, 19.3): its invariant factors are a 1 per step
    of the spanning forest."""
    cache = complex._invariant_factors
    if r not in cache:
        if not 1 <= r <= complex.dimension:
            cache[r] = []
        elif r == 1:
            cache[r] = [1] * len(complex.spanning_forest)
        else:
            cache[r] = _factor(complex, r)
    return cache[r]


def homology_degree(complex: DeltaComplex, k: int) -> tuple[int, tuple[int, ...]]:
    """``(betti, torsion)`` of ``H_k``, from the invariant factors of B_k
    and B_(k+1) only."""
    if not 0 <= k <= complex.dimension:
        return 0, ()
    below, above = invariant_factors(complex, k), invariant_factors(complex, k + 1)
    return complex.count(k) - len(below) - len(above), tuple(d for d in above if d > 1)


@dataclass(frozen=True)
class HomologyProfile:
    """Betti rank and torsion invariant factors per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]


def homology(complex: DeltaComplex) -> HomologyProfile:
    """Integral homology of the complex in every degree; each boundary
    matrix is factored at most once per complex."""
    degrees = [homology_degree(complex, k) for k in range(complex.dimension + 1)]
    return HomologyProfile(tuple(b for b, _ in degrees), tuple(t for _, t in degrees))


def torus_rank(complex: DeltaComplex) -> int:
    """First Betti number: the torus rank of Pic^0 of the snc variety."""
    return homology_degree(complex, 1)[0]


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def strata_from_multigraph(n_vertices: int, edges) -> tuple[tuple[Stratum, ...], ...]:
    """Strata levels of a loop-free multigraph: one component per vertex,
    one double curve per edge.  Loops are rejected (not snc)."""
    verts = tuple(Stratum(f"W{i}", (i,)) for i in range(n_vertices))
    level1 = []
    for k, (a, b) in enumerate(edges):
        if a == b:
            raise StrataError("loop edges are not simple normal crossing")
        i, j = sorted((a, b))
        level1.append(Stratum(f"E{k}", (i, j), (f"W{j}", f"W{i}")))
    levels = [verts]
    if level1:
        levels.append(tuple(level1))
    return tuple(levels)


def simplex_strata(indices: tuple[int, ...], full: bool = True) -> tuple[tuple[Stratum, ...], ...]:
    """Strata levels of components in general position over the indices.

    With ``full`` false the top stratum is omitted (boundary-of-simplex
    pattern).
    """
    from itertools import combinations

    indices = tuple(sorted(indices))
    n = len(indices)
    top = n if full else n - 1
    levels = []
    for r in range(top):
        level = []
        for sub in combinations(indices, r + 1):
            name = "Z" + "".join(str(i) for i in sub)
            facs = tuple("Z" + "".join(str(i) for i in sub[:k] + sub[k + 1:]) for k in range(r + 1)) if r else ()
            level.append(Stratum(name, sub, facs))
        levels.append(tuple(level))
    return tuple(levels)
