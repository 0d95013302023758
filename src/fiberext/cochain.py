"""Cochain calculus on dual complexes with finitely generated coefficients.

Line bundles that are trivial on every component of an snc variety are
classified by H^1 of the dual complex with values in the multiplicative
group of the base field.  Here the value group is replaced by a finitely
generated abelian group (written additively), which turns closedness,
exactness and class computations into decidable integer linear algebra.

Coboundaries are the transposed boundary maps of the complex (``d0 =
-B_1^T``, ``d1 = B_2^T``), so there is one sign convention.  Exactness
needs no matrix at all: a potential is propagated along a spanning forest
of the 1-skeleton in the coefficient group and then checked on every edge.
Closedness is walked at most once per cochain and cached on it.  ``H^1``
needs no lattice basis: each coefficient factor gives one sparse integer
relation matrix (``d0`` for ``Z``, the mapping cone of ``n`` for ``Z/n``),
built straight from the boundary rows the complex caches, and the group is
read from its invariant factors (see ``cohomology_group``).

Group elements are tuples of Python ints; ``CoefficientGroup`` rejects
bools, floats and strings instead of truncating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .dual_complex import DeltaComplex, boundary_rows, homology_degree
from .errors import PreconditionError


@dataclass(frozen=True)
class CoefficientGroup:
    """Z^rank plus cyclic factors of the given orders (a divisibility chain)."""

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        torsion = tuple(self.torsion)
        for x in (self.rank, *torsion):
            if type(x) is not int:
                raise TypeError(f"rank and torsion orders must be integers, got {x!r}")
        object.__setattr__(self, "torsion", torsion)
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if any(n <= 1 for n in self.torsion):
            raise ValueError("torsion orders must be > 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain")

    @property
    def width(self) -> int:
        return self.rank + len(self.torsion)

    def reduce(self, vec):
        """``vec``, a sequence of ints, as a tuple with its torsion
        coordinates reduced."""
        vec = tuple(vec)
        for x in vec:
            if type(x) is not int:
                raise TypeError(f"group elements must have integer coordinates, got {x!r}")
        if len(vec) != self.width:
            raise ValueError(f"element must have {self.width} coordinates")
        if not self.torsion:
            return vec
        free = vec[: self.rank]
        return free + tuple(x % n for x, n in zip(vec[self.rank:], self.torsion))

    def zero(self):
        return (0,) * self.width

    def add(self, a, b):
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def sub(self, a, b):
        return self.reduce(tuple(x - y for x, y in zip(a, b)))

    def neg(self, a):
        return self.reduce(tuple(-x for x in a))

    def scale(self, m, a):
        return self.reduce(tuple(m * x for x in a))

    def is_zero(self, a) -> bool:
        return self.reduce(a) == self.zero()

    def has_infinite_order(self, a) -> bool:
        return any(x != 0 for x in self.reduce(a)[: self.rank])


@dataclass(frozen=True)
class Cochain:
    """Total assignment of coefficient-group elements to the r-simplices.

    The closedness walk of a 1-cochain runs at most once per instance; its
    result is cached on it, not in a field, so equality, hashing and repr
    ignore it.
    """

    complex: DeltaComplex
    group: CoefficientGroup
    degree: int
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        expected = self.complex.count(self.degree)
        vals = tuple(self.group.reduce(v) for v in self.values)
        if len(vals) != expected:
            raise ValueError(
                f"cochain of degree {self.degree} needs {expected} values, got {len(vals)}"
            )
        object.__setattr__(self, "values", vals)

    def __sub__(self, other: "Cochain") -> "Cochain":
        if (self.complex, self.group, self.degree) != (other.complex, other.group, other.degree):
            raise ValueError("cochains live on different complexes or groups")
        vals = tuple(self.group.sub(a, b) for a, b in zip(self.values, other.values))
        return Cochain(self.complex, self.group, self.degree, vals)

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.complex, self.group, self.degree) != (other.complex, other.group, other.degree):
            raise ValueError("cochains live on different complexes or groups")
        vals = tuple(self.group.add(a, b) for a, b in zip(self.values, other.values))
        return Cochain(self.complex, self.group, self.degree, vals)

    def is_zero(self) -> bool:
        return all(self.group.is_zero(v) for v in self.values)

    @cached_property
    def _closedness(self) -> "ClosednessResult":
        """``is_closed(self)`` of a 1-cochain: the first 2-simplex on which
        phi(ij) + phi(jk) - phi(ik) does not vanish is the witness."""
        cx, group, values = self.complex, self.group, self.values
        if cx.dimension < 2:
            return ClosednessResult(True)
        for t, (f_jk, f_ik, f_ij) in enumerate(cx.facets[1]):
            if not group.is_zero(group.sub(group.add(values[f_ij], values[f_jk]), values[f_ik])):
                return ClosednessResult(False, cx.simplex_ids[2][t])
        return ClosednessResult(True)


@dataclass(frozen=True)
class ClosednessResult:
    closed: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.closed


@dataclass(frozen=True)
class NotExact:
    reason: str = "no 0-cochain has this coboundary"


@dataclass(frozen=True)
class NotClosed:
    witness: str


@dataclass(frozen=True)
class GroupInvariants:
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


@dataclass(frozen=True)
class H1Class:
    """A cohomology class: closed representative plus the full H^1 profile.

    The exactness solve runs at most once per instance; its result is
    cached on it, not in a field, so equality and hashing ignore it.
    """

    representative: Cochain
    group_profile: GroupInvariants

    @cached_property
    def potential(self):
        """``is_exact(representative)``: a 0-cochain or ``NotExact``."""
        return is_exact(self.representative)

    @cached_property
    def is_trivial(self) -> bool:
        return not isinstance(self.potential, NotExact)

    def same_class(self, other: "H1Class") -> bool:
        return not isinstance(is_exact(self.representative - other.representative), NotExact)


@dataclass(frozen=True)
class LineBundleClass:
    """Certified gluing datum of a bundle trivial on every component."""

    h1: H1Class
    trivial: bool


# ---------------------------------------------------------------------------
# Coboundary, closedness, exactness
# ---------------------------------------------------------------------------

def coboundary(beta: Cochain) -> Cochain:
    """Degree-raising map: the edge between components l < j receives
    beta(l) - beta(j)."""
    if beta.degree != 0:
        raise PreconditionError("coboundary is implemented for 0-cochains")
    group = beta.group
    values = []
    for e in range(beta.complex.count(1)):
        larger, smaller = beta.complex.facets[0][e]
        values.append(group.sub(beta.values[smaller], beta.values[larger]))
    return Cochain(beta.complex, group, 1, tuple(values))


def is_closed(phi: Cochain) -> ClosednessResult:
    """A 1-cochain is closed iff phi(ij) + phi(jk) - phi(ik) vanishes on
    every 2-simplex Z_ijk; the first offending simplex is the witness.  The
    walk runs once per cochain."""
    if phi.degree != 1:
        raise PreconditionError("is_closed expects a 1-cochain")
    return phi._closedness


def is_exact(phi: Cochain):
    """Solve coboundary(beta) = phi over the coefficient group.

    Returns the 0-cochain beta or NotExact.  beta is 0 at the largest
    vertex index of each connected component and spreads from there along a
    spanning forest, using ``beta(l) - beta(j) = phi(e)`` for the edge e
    between components l < j; every edge is then checked.  Two solutions
    differ by a constant on each component, so a failed check means no
    solution exists, over any coefficient group.
    """
    if phi.degree != 1:
        raise PreconditionError("is_exact expects a 1-cochain")
    if not is_closed(phi):
        raise PreconditionError("is_exact expects a closed 1-cochain")
    cx, group = phi.complex, phi.group
    edges = cx.facets[0] if cx.dimension >= 1 else ()
    adjacent = [[] for _ in range(cx.count(0))]
    for e, (larger, smaller) in enumerate(edges):
        adjacent[larger].append(e)
        adjacent[smaller].append(e)
    beta = [None] * cx.count(0)
    for root in reversed(range(cx.count(0))):
        if beta[root] is not None:
            continue
        beta[root] = group.zero()
        stack = [root]
        while stack:
            v = stack.pop()
            for e in adjacent[v]:
                larger, smaller = edges[e]
                if v == larger and beta[smaller] is None:
                    beta[smaller] = group.add(beta[larger], phi.values[e])
                    stack.append(smaller)
                elif v == smaller and beta[larger] is None:
                    beta[larger] = group.sub(beta[smaller], phi.values[e])
                    stack.append(larger)
    for e, (larger, smaller) in enumerate(edges):
        if group.sub(beta[smaller], beta[larger]) != phi.values[e]:
            return NotExact()
    return Cochain(cx, group, 0, tuple(beta))


# ---------------------------------------------------------------------------
# H^1 with finitely generated coefficients
# ---------------------------------------------------------------------------

def invariant_factor_chain(orders) -> tuple[int, ...]:
    """Canonical invariant factors of a direct sum of cyclic groups.

    Each order merges into a divisibility chain by ``Z/a + Z/b = Z/lcm +
    Z/gcd``, largest factor first, so nothing is factored.  Orders below 2
    contribute nothing; an order that is not an ``int`` (a bool is none)
    raises ``TypeError``.  An order dividing the smallest factor passes
    through every merge unchanged, so it is appended at once: equal orders
    cost linear time.
    """
    chain = []  # descending: each factor divides the one before it
    for a in orders:
        if type(a) is not int:
            raise TypeError(f"orders must be integers, got {a!r}")
        if a < 2:
            continue
        if chain and chain[-1] % a == 0:
            chain.append(a)
            continue
        for k, d in enumerate(chain):
            chain[k], a = lcm(d, a), gcd(d, a)
            if a == 1:
                break
        else:
            chain.append(a)
    return tuple(reversed(chain))


def cohomology_group(complex: DeltaComplex, group: CoefficientGroup) -> GroupInvariants:
    """H^1 of the complex with the given coefficients, computed directly
    from the cochain complex (not via universal coefficients).

    ``ker d1`` is saturated in ``Z^E``, so ``H^1(Z)`` has free rank
    ``E - rk d0 - rk d1`` and the torsion of ``Z^E / im d0``.  For ``Z/n``,
    ``C (x) Z/n`` of the free complex C is quasi-isomorphic to the mapping
    cone of multiplication by n on C (Weibel, *An Introduction to
    Homological Algebra*, 1.5), and ``H^1(Z/n)`` is the torsion of
    ``(Z^T + Z^E) / span{(0, d0 e_v), (-d1 e_e, n e_e)}``.  The cone is
    acyclic over Q, so that quotient has free rank exactly T.
    """
    n_e, n_t = complex.count(1), complex.count(2)
    if n_e == 0:
        return GroupInvariants(0, ())
    # The relations are read off the cached boundary rows, never written:
    # column v of d0 = -B_1^T is row v of B_1 negated, column e of d1 =
    # B_2^T is row e of B_2.  Signs of whole rows do not change a span, so
    # the rows of B_1 span im d0 as they are.
    b1 = boundary_rows(complex, 1)
    b2 = boundary_rows(complex, 2) if n_t else ({},) * n_e

    orders, rank = [], 0
    if group.rank:
        free, torsion = linalg.lattice_quotient(b1, n_e)
        rank = group.rank * (free - len(linalg.snf_diagonal(b2)))
        orders = torsion * group.rank

    for n in group.torsion:
        # (0, d0 e_v), then (-d1 e_e, n e_e): Z^T first, Z^E shifted by T.
        rels = [{n_t + e: -x for e, x in row.items()} for row in b1]
        for e, row in enumerate(b2):
            rel = {t: -x for t, x in row.items()}
            rel[n_t + e] = n
            rels.append(rel)
        free, torsion = linalg.lattice_quotient(rels, n_t + n_e)
        if free != n_t:
            raise ArithmeticError(f"certificate failure: the mapping cone of {n} has free rank {free}, not {n_t}")
        orders.extend(torsion)

    return GroupInvariants(rank, invariant_factor_chain(orders))


def hom_from_h1(complex: DeltaComplex, group: CoefficientGroup) -> GroupInvariants:
    """Hom(H_1(complex, Z), group), from the integral homology in degree 1
    (the invariant factors of B_1 and B_2 only)."""
    b1, divisors = homology_degree(complex, 1)
    rank = b1 * group.rank
    orders = list(group.torsion) * b1
    for d in divisors:
        for n in group.torsion:
            g = gcd(d, n)
            if g > 1:
                orders.append(g)
    return GroupInvariants(rank, invariant_factor_chain(orders))


def h1_class(phi: Cochain) -> H1Class:
    """Class of a closed 1-cochain in H^1, with the computed group profile.

    The profile is cross-checked against Hom(H_1, A); since H_0 is free
    there is no Ext correction and the two must coincide.
    """
    if not is_closed(phi):
        raise PreconditionError("h1_class expects a closed 1-cochain")
    profile = cohomology_group(phi.complex, phi.group)
    expected = hom_from_h1(phi.complex, phi.group)
    if profile != expected:
        raise ArithmeticError(
            f"H^1 computation disagrees with Hom(H_1, A): {profile} vs {expected}"
        )
    return H1Class(phi, profile)


def glue_check(phi: Cochain):
    """Certify a 1-cochain as the gluing datum of a line bundle trivial on
    every component, or reject it with the offending triple overlap."""
    closed = is_closed(phi)
    if not closed:
        return NotClosed(closed.witness)
    cls = h1_class(phi)
    return LineBundleClass(h1=cls, trivial=cls.is_trivial)


def restrict(phi: Cochain, subcomplex: DeltaComplex, maps) -> Cochain:
    """Restriction of a cochain along a closure subcomplex inclusion."""
    if phi.degree >= len(maps):
        raise ValueError("subcomplex has no simplices in this degree")
    values = tuple(phi.values[old] for old in maps[phi.degree])
    return Cochain(subcomplex, phi.group, phi.degree, values)
