"""Cochain calculus on dual complexes with finitely generated coefficients.

Line bundles that are trivial on every component of an snc variety are
classified by H^1 of the dual complex with values in the multiplicative
group of the base field.  Here the value group is replaced by a finitely
generated abelian group (written additively), which turns closedness,
exactness and class computations into decidable integer linear algebra.

Coboundaries are the transposed boundary maps of the complex (``d0 =
-B_1^T``, ``d1 = B_2^T``), so there is one sign convention.  Exactness
needs no matrix at all: a potential is propagated along a spanning forest
of the 1-skeleton and then checked on every edge.  Closedness is walked at
most once per cochain and cached on it.  Cochain arithmetic, closedness and
exactness run one coordinate at a time over plain ints: the coordinate's
column of the values, a free coordinate as is, a torsion coordinate of
order n reduced with ``% n``, with no ``CoefficientGroup`` call per
element; the cochains they return are built with their fields set
directly, as their values are already reduced.  ``H^1`` needs no lattice
basis: the ``Z`` part reads the invariant factors of B_1 and B_2 the
complex caches, and each ``Z/n`` gives one sparse integer relation matrix,
the mapping cone of ``n`` on the complex reduced along its spanning
forest, with no vertex relation (see ``cohomology_group``).

Group elements are tuples of Python ints; ``CoefficientGroup`` rejects
bools, floats and strings instead of truncating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from operator import add, sub

from . import linalg
from .dual_complex import DeltaComplex, compressed_rows, homology_degree
from .errors import CertificateError, PreconditionError
from .linalg import invariant_factor_chain  # read by name as ``cochain.invariant_factor_chain``


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

    def _pairs(self, a, b):
        if len(a) != len(b):  # ``zip`` would drop the surplus coordinates
            raise ValueError(f"element must have {self.width} coordinates")
        return zip(a, b)

    def add(self, a, b):
        return self.reduce(tuple(x + y for x, y in self._pairs(a, b)))

    def sub(self, a, b):
        return self.reduce(tuple(x - y for x, y in self._pairs(a, b)))

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
        vals = _reduced(self.group, self.values)
        if len(vals) != expected:
            raise ValueError(
                f"cochain of degree {self.degree} needs {expected} values, got {len(vals)}"
            )
        object.__setattr__(self, "values", vals)

    def _combine(self, other: "Cochain", op) -> "Cochain":
        if (self.complex, self.group, self.degree) != (other.complex, other.group, other.degree):
            raise ValueError("cochains live on different complexes or groups")
        width = self.group.width
        columns = [list(map(op, a, b))
                   for a, b in zip(_columns(self.values, width), _columns(other.values, width))]
        return _cochain(self.complex, self.group, self.degree, _reduce_columns(self.group, columns),
                        len(self.values))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, sub)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, add)

    def is_zero(self) -> bool:
        return not any(map(any, self.values))  # the values are reduced

    @cached_property
    def _closedness(self) -> "ClosednessResult":
        """``is_closed(self)`` of a 1-cochain: the first 2-simplex on which
        phi(ij) + phi(jk) - phi(ik) does not vanish is the witness."""
        cx = self.complex
        t = _open_triangle(cx.facets[1], self.group, self.values) if cx.dimension >= 2 else None
        return ClosednessResult(True) if t is None else ClosednessResult(False, cx.simplex_ids[2][t])


@dataclass(frozen=True)
class ClosednessResult:
    closed: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.closed


class GroupInvariants(CoefficientGroup):
    """A computed group: an ``H^1`` profile, or the component group of a
    fiber lattice (rank 0, its invariant factors in ``torsion``).  It is a
    ``CoefficientGroup``, checked on construction.

    It keeps its own name because the corpus prints its repr, as
    ``GroupInvariants(rank=1, torsion=(2,))``, in ``h1_class`` checks.
    """

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        # The benchmark's closed-form oracle (bench/test_bench.py) reads this
        # name; drop it once that oracle reads ``torsion``.
        return self.torsion


@dataclass(frozen=True)
class H1Class:
    """A cohomology class: closed representative, full H^1 profile, and
    ``potential = is_exact(representative)``, None when nontrivial."""

    representative: Cochain
    group_profile: GroupInvariants
    potential: Cochain | None

    @property
    def is_trivial(self) -> bool:
        return self.potential is not None

    def same_class(self, other: "H1Class") -> bool:
        return is_exact(self.representative - other.representative) is not None


# ---------------------------------------------------------------------------
# Per-coordinate kernels, coboundary, closedness, exactness
# ---------------------------------------------------------------------------

def _columns(values, width: int) -> list:
    """Coordinate p of every value, for each p < ``width``."""
    return list(zip(*values)) if values else [()] * width


def _rows(columns, count: int) -> tuple:
    """The ``count`` values whose coordinates are ``columns``."""
    return tuple(zip(*columns)) if columns else ((),) * count


def _moduli(group: CoefficientGroup) -> tuple[int, ...]:
    """The order of each coordinate of ``group``, 0 for a free one."""
    return (0,) * group.rank + group.torsion


def _reduced(group: CoefficientGroup, values) -> tuple:
    """``group.reduce`` of every value, in bulk: one pass each over the
    element types, the widths and the coordinate types, then one ``% n``
    pass per torsion coordinate.  When a bulk check fails, ``group.reduce``
    runs value by value, so the first fault is named with its own error."""
    values = tuple(values)
    try:
        vals = tuple(map(tuple, values))
    except TypeError:
        vals = None
    if (vals is None or not set(map(len, vals)) <= {group.width}
            or not set(map(type, chain.from_iterable(vals))) <= {int}):
        return tuple(map(group.reduce, values))
    if not group.torsion:
        return vals
    return _rows(_reduce_columns(group, _columns(vals, group.width)), len(vals))


def _reduce_columns(group: CoefficientGroup, columns: list) -> list:
    """``columns``, coordinate columns of ints, with each torsion column
    reduced ``% n`` in place."""
    for p, n in enumerate(group.torsion, group.rank):
        columns[p] = [x % n for x in columns[p]]
    return columns


def _cochain(complex: DeltaComplex, group: CoefficientGroup, degree: int, columns, count: int) -> Cochain:
    """The cochain of ``count`` values whose coordinate columns are
    ``columns``, reduced ints, with its fields set directly: the kernels'
    results skip ``Cochain.__post_init__``, which would check and reduce
    them again."""
    phi = object.__new__(Cochain)
    phi.__dict__.update(complex=complex, group=group, degree=degree, values=_rows(columns, count))
    return phi


def _open_triangle(triangles, group: CoefficientGroup, values) -> int | None:
    """The first of the ``(jk, ik, ij)`` edge triples on which phi(ij) +
    phi(jk) - phi(ik) is nonzero in some coordinate, or None.  Each
    coordinate is checked up to the first failure found so far."""
    first = len(triangles)
    for col, n in zip(_columns(values, group.width), _moduli(group)):
        for t, (jk, ik, ij) in enumerate(triangles[:first]):
            d = col[ij] + col[jk] - col[ik]
            if d % n if n else d:
                first = t
                break
    return first if first < len(triangles) else None


def coboundary(beta: Cochain) -> Cochain:
    """Degree-raising map: the edge between components l < j receives
    beta(l) - beta(j)."""
    if beta.degree != 0:
        raise PreconditionError("coboundary is implemented for 0-cochains")
    cx, group = beta.complex, beta.group
    edges = cx.facets[0] if cx.dimension >= 1 else ()
    columns = [[col[smaller] - col[larger] for larger, smaller in edges]
               for col in _columns(beta.values, group.width)]
    return _cochain(cx, group, 1, _reduce_columns(group, columns), len(edges))


def is_closed(phi: Cochain) -> ClosednessResult:
    """A 1-cochain is closed iff phi(ij) + phi(jk) - phi(ik) vanishes on
    every 2-simplex Z_ijk; the first offending simplex is the witness.  The
    walk runs once per cochain."""
    if phi.degree != 1:
        raise PreconditionError("is_closed expects a 1-cochain")
    return phi._closedness


def is_exact(phi: Cochain):
    """Solve coboundary(beta) = phi over the coefficient group.

    Returns the 0-cochain beta or None.  In each coordinate, beta is 0 at
    the largest vertex index of each connected component and spreads from
    there along the complex's cached spanning forest, using ``beta(l) -
    beta(j) = phi(e)`` for the edge e between components l < j; every edge
    is then checked.  Two solutions differ by a constant on each component,
    so a failed check means no solution exists, over any coefficient group.
    """
    if phi.degree != 1:
        raise PreconditionError("is_exact expects a 1-cochain")
    if not is_closed(phi):
        raise PreconditionError("is_exact expects a closed 1-cochain")
    cx, group = phi.complex, phi.group
    edges = cx.facets[0] if cx.dimension >= 1 else ()
    forest, n_v = cx.spanning_forest, cx.count(0)
    columns = []
    for col, n in zip(_columns(phi.values, group.width), _moduli(group)):
        beta = [0] * n_v
        for e, known, new in forest:
            beta[new] = beta[known] + col[e] if new == edges[e][1] else beta[known] - col[e]
        if n:
            beta = [b % n for b in beta]
        for (larger, smaller), x in zip(edges, col):
            d = beta[smaller] - beta[larger] - x
            if d % n if n else d:
                return None
        columns.append(beta)
    return _cochain(cx, group, 0, columns, n_v)


# ---------------------------------------------------------------------------
# H^1 with finitely generated coefficients
# ---------------------------------------------------------------------------

def cohomology_group(complex: DeltaComplex, group: CoefficientGroup) -> GroupInvariants:
    """H^1 of the complex with the given coefficients, computed directly
    from the cochain complex (not via universal coefficients).

    ``ker d1`` is saturated in ``Z^E``, so ``H^1(Z)`` has free rank
    ``E - rk d0 - rk d1``, the first Betti number ``homology_degree`` reads
    off the invariant factors the complex caches, as ``hom_from_h1`` does.
    Its torsion is that of ``Z^E / im d0``, none: B_1 is totally unimodular
    (see ``invariant_factors``).
    For ``Z/n``, reducing the cochain complex by the pairs (vertex, forest
    edge) is a chain homotopy equivalence over Z (Kaczynski, Mrozek and
    Slusarek 1998).  It leaves ``d0 = 0`` and, as ``d1``, the rows of B_2
    of the E - F edges off the forest (``compressed_rows``), numbered ``c =
    0, 1, ...``.  So ``H^1(Z/n) = ker(d1 mod n)`` is the torsion of the
    mapping cone of ``n`` (Weibel, *An Introduction to Homological
    Algebra*, 1.5), ``(Z^T + Z^(E - F)) / span{(B_2 e_e, n e_c)}``.  Each
    relation holds ``n`` alone in column ``T + c``: free rank T, no check.
    """
    n_e, n_t = complex.count(1), complex.count(2)
    if n_e == 0:
        return GroupInvariants(0, ())
    rank = group.rank * homology_degree(complex, 1)[0] if group.rank else 0
    if not group.torsion:
        return GroupInvariants(rank, ())
    b2 = compressed_rows(complex, 2) if n_t else ({},) * (n_e - len(complex.spanning_forest))
    orders = []
    for n in group.torsion:
        orders += linalg.lattice_quotient([{**row, n_t + c: n} for c, row in enumerate(b2)], n_t + len(b2))[1]
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
    """Class of a closed 1-cochain in H^1, with its profile and potential.

    The profile is cross-checked against Hom(H_1, A); since H_0 is free
    there is no Ext correction and the two must coincide.  The check
    certifies the ``Z/n`` parts, which ``cohomology_group`` reads off the
    mapping cones of ``n`` and ``hom_from_h1`` off ``H_1``.  Both read the
    free rank from the same cached invariant factors of B_1 and B_2, so
    that part is not checked independently.  Both also trust
    ``DeltaComplex.spanning_forest``, whose rank nothing here checks
    independently (an open item of ROADMAP.md).  A profile that the
    ``GroupInvariants`` checks refuse, or a mismatch, is a ``CertificateError``.
    """
    if not is_closed(phi):
        raise PreconditionError("h1_class expects a closed 1-cochain")
    try:
        profile = cohomology_group(phi.complex, phi.group)
        expected = hom_from_h1(phi.complex, phi.group)
    except ValueError as exc:
        raise CertificateError(f"certificate failure: a computed H^1 profile is refused: {exc}") from exc
    if profile != expected:
        raise CertificateError(f"H^1 from the mapping cones of the torsion orders disagrees with "
                               f"Hom(H_1, A): {profile} vs {expected}")
    return H1Class(phi, profile, is_exact(phi))


def glue_check(phi: Cochain):
    """Certify a 1-cochain as the gluing datum of a line bundle trivial on
    every component: its ``H1Class``, or, when it is not closed, the falsy
    ``ClosednessResult`` that names the offending triple overlap."""
    closed = is_closed(phi)
    return h1_class(phi) if closed else closed


def restrict(phi: Cochain, subcomplex: DeltaComplex, maps) -> Cochain:
    """Restriction of a cochain along a closure subcomplex inclusion."""
    if phi.degree >= len(maps):
        raise ValueError("subcomplex has no simplices in this degree")
    values = tuple(phi.values[old] for old in maps[phi.degree])
    return Cochain(subcomplex, phi.group, phi.degree, values)
