"""Fiber intersection lattices and exact divisor-extension solvers.

A fiber of a projective family over a curve is recorded by the symmetric
matrix of pairwise intersection numbers of its irreducible components
together with their multiplicities in the scheme fiber.  The solvers adjust
a divisor by vertical components so that the result is numerically trivial
(or nef) on the fiber, working in exact rational arithmetic throughout.

Solutions are unique up to multiples of the multiplicity vector, which is
positive everywhere, so they are normalized to 0 at the gauge index 0, the
first component.  Each lattice is eliminated once
(``linalg.echelon`` of ``-d * matrix``, the gauge index last): the pivots
decide semidefiniteness and the kernel dimension, and every extension
solves with the first n - 1 pivot rows.  ``denominator_bound`` and, at
gauge multiplicity 1, ``component_group`` read one Smith diagonal of the
gauge-reduced matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import PreconditionError


class _IntFractions(dict):
    """``Fraction(k)`` by int key: a lookup for the keys stored, built otherwise."""

    def __missing__(self, k: int) -> Fraction:
        return Fraction(k)


# Intersection numbers and traces are small integers, and Fractions are
# immutable, so one shared Fraction per small int serves every entry.
_FRACTION = _IntFractions({k: Fraction(k) for k in range(-64, 65)})


def _to_fraction(x) -> Fraction:
    if type(x) is int:
        return _FRACTION[x]
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point input is not accepted; use Fraction, int, or 'p/q'")
    return Fraction(x)


def _exact(values) -> tuple[tuple[Fraction, ...], int, list[int]]:
    """``values`` as Fractions, and as integers over the lcm of their denominators.

    Ints stay ints: an all-int vector is its own integer form.  Tuples are
    made from lists, not generators: a tuple grown from a generator bypasses
    the interpreter's tuple free list but is freed onto it.
    """
    values = list(values)
    if set(map(type, values)) <= {int}:
        return tuple(list(map(_FRACTION.__getitem__, values))), 1, values
    fracs = tuple([_to_fraction(x) for x in values])
    return (fracs, *linalg.common_denominator(fracs))


def _multiplicity(c) -> int:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)) or c.denominator != 1:
        raise ValueError(f"multiplicities must be positive integers, got {c!r}")
    return int(c)


@dataclass(frozen=True)
class FiberLattice:
    """Intersection data of the components of a connected fiber.

    ``matrix[i][j]`` is the intersection number of components i and j;
    ``multiplicities`` are their coefficients in the scheme-theoretic fiber.
    The integer form ``(d, d * matrix)`` is built with the Fraction tuples,
    and invariants are computed at most once per instance and cached on it;
    neither is a field, so equality, hashing and repr ignore them.
    """

    labels: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    multiplicities: tuple[int, ...]
    connected: bool = True

    def __post_init__(self):
        n = len(self.labels)
        object.__setattr__(self, "labels", tuple(self.labels))
        rows = [_exact(row) for row in self.matrix]
        mat = tuple([row for row, _, _ in rows])
        d = lcm(*[m for _, m, _ in rows])
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_integer_matrix",
                           (d, [a if m == d else [x * (d // m) for x in a] for _, m, a in rows]))
        object.__setattr__(self, "multiplicities", tuple([_multiplicity(c) for c in self.multiplicities]))
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError("intersection matrix must be square and match the labels")
        if len(self.multiplicities) != n:
            raise ValueError("multiplicity vector length must match the matrix")
        if any(c <= 0 for c in self.multiplicities):
            raise ValueError("multiplicities must be positive integers")

    @property
    def size(self) -> int:
        return len(self.labels)

    def is_integral(self) -> bool:
        return self._integer_matrix[0] == 1

    @cached_property
    def _elimination(self) -> list:
        """The ``linalg.echelon`` pivots of ``-A`` (``A = d * matrix``) with
        the gauge index last: on a valid lattice the first n - 1 are the
        diagonal pivots of the positive-definite gauge-reduced block."""
        order = [*range(1, self.size), 0]
        a = self._integer_matrix[1]
        return linalg.echelon([{k: -a[i][j] for k, j in enumerate(order) if a[i][j]} for i in order],
                              self.size)[0]

    @cached_property
    def _validation(self) -> ValidationReport:
        n = self.size
        checks = []

        d, a = self._integer_matrix
        symmetric = all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))
        checks.append(("symmetric", symmetric, "" if symmetric else "matrix is not symmetric"))

        mc = [sum(map(mul, row, self.multiplicities)) for row in a]
        trivial = not any(mc)
        checks.append((
            "fiber_class_trivial",
            trivial,
            "" if trivial else f"matrix * multiplicities = {[Fraction(x, d) for x in mc]}",
        ))

        # -A is semidefinite iff every pivot is positive and on the diagonal:
        # diagonal pivots are principal minors, and where a semidefinite
        # Schur complement has a zero diagonal entry its row and column are 0.
        pivots = self._elimination
        nsd = symmetric and all(i == c and row[c] > 0 for i, c, row in pivots)
        checks.append((
            "negative_semidefinite",
            nsd,
            "" if nsd else "a pivot of the negated matrix is negative or a zero pivot has a nonzero row",
        ))

        if self.connected:
            kernel_dim = n - len(pivots)
            # M c = 0 with c != 0 puts c in the kernel, so c spans it iff it is a line.
            ok = trivial and kernel_dim == 1
            checks.append((
                "kernel_is_multiplicity_span",
                ok,
                "" if ok else f"rational kernel has dimension {kernel_dim} or is not spanned by the multiplicities",
            ))

        return ValidationReport(tuple(checks))

    @cached_property
    def _reduced_diagonal(self) -> list[int]:
        """Smith diagonal of the integer matrix with the gauge row and column
        deleted (``snf_diagonal`` needs no contiguous column labels)."""
        rows = self._integer_matrix[1][1:]
        return linalg.snf_diagonal([{j: x for j, x in enumerate(row) if j > 0 and x} for row in rows])

    @cached_property
    def _component_group(self) -> FiniteAbelianGroup:
        # M c = 0 puts im M inside c-perp, and Z^n / c-perp is free, so
        # Z^n / im M = c-perp / im M + Z: the torsion is that of coker M.
        # If c is 1 at the gauge index 0, deleting that coordinate maps c-perp
        # onto Z^(n-1), and im M onto im M' (M e_0 is a combination of the
        # other columns), so the group is coker M' of the gauge-reduced M'.
        if self.multiplicities[0] == 1:
            diag = self._reduced_diagonal
        else:
            diag = linalg.snf_diagonal(linalg.sparse(self._integer_matrix[1]))
        return FiniteAbelianGroup(tuple([d for d in diag if d > 1]))


@dataclass(frozen=True)
class DivisorTrace:
    """Intersection numbers of a divisor with the fiber components."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values, m, nums = _exact(self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_integer_values", (m, nums))

    def total(self, lattice: FiberLattice) -> Fraction:
        if len(self.values) != lattice.size:
            raise ValueError("trace length does not match the lattice")
        m, nums = self._integer_values
        return Fraction(sum(map(mul, lattice.multiplicities, nums)), m)


@dataclass(frozen=True)
class ExtensionResult:
    coefficients: tuple[Fraction, ...]
    denominator: int
    normalization: str
    achieved_trace: tuple[Fraction, ...]


@dataclass(frozen=True)
class Obstructed:
    reason: str
    value: Fraction | None = None


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group given by its invariant factor chain."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(self.invariant_factors)
        for d in factors:
            if type(d) is not int:
                raise TypeError(f"invariant factors must be integers, got {d!r}")
        object.__setattr__(self, "invariant_factors", factors)
        if any(d <= 1 for d in factors):
            raise ValueError("invariant factors must be > 1")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        p = 1
        for d in self.invariant_factors:
            p *= d
        return p

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def valid(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failed(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]


def validate_lattice(lattice: FiberLattice) -> ValidationReport:
    """Check the Zariski-lemma invariants of a fiber lattice."""
    return lattice._validation


def _require_valid_connected(lattice: FiberLattice, op: str) -> None:
    if not lattice.connected:
        raise PreconditionError(f"{op} requires a connected fiber")
    report = validate_lattice(lattice)
    if not report.valid:
        raise PreconditionError(f"{op} requires a valid lattice; failed: {report.failed()}")


def _extend(lattice: FiberLattice, trace: DivisorTrace, targets, symbol: str) -> ExtensionResult:
    """Solve matrix @ x = targets - trace with x fixed to 0 at the gauge index.

    ``targets`` is an ``_exact`` triple.  The reduced matrix (gauge row and
    column deleted) is negative definite, hence invertible; solvability of
    the full system is the caller's burden.  It runs in integers: with
    ``A = d * matrix`` and ``targets - trace = w / m``, the lattice's cached
    elimination of ``-A`` solves ``-A y = -d e w`` on the rows off the gauge
    index (e the determinant of their block), and ``x = y / (e m)``.
    """
    d, a = lattice._integer_matrix
    goal, mt, t = targets
    mv, v = trace._integer_values
    m = lcm(mt, mv)
    w = [x * (m // mt) - y * (m // mv) for x, y in zip(t, v)]
    sub = linalg.solve_eliminated(lattice._elimination, [-d * x for x in w[1:]])
    if sub is None:
        raise ArithmeticError("certificate failure: the gauge-reduced matrix is singular")
    e, y = sub
    y = [0] + y
    # x = y / (e m) meets the targets iff A y = d e w, on every row.
    ay = [sum(map(mul, row, y)) for row in a]
    if ay != [d * e * x for x in w]:
        achieved = [x + Fraction(r, d * e * m) for x, r in zip(trace.values, ay)]
        raise ArithmeticError(f"certificate failure: achieved trace {achieved} differs from {list(goal)}")
    den = e * m
    sol = tuple([Fraction(k, den) for k in y])
    return ExtensionResult(sol, den // gcd(den, *y), f"{symbol}[0] = 0", goal)


def extend_trivial(lattice: FiberLattice, trace: DivisorTrace):
    """Coefficients a with (L + sum a_i C_i) numerically trivial on the fiber.

    Solvable exactly when the trace pairs to zero against the fiber class;
    the solution is normalized by a = 0 at the first component and is unique
    up to rational multiples of the multiplicity vector.
    """
    _require_valid_connected(lattice, "extend_trivial")
    total = trace.total(lattice)
    if total != 0:
        return Obstructed("trace pairs nonzero against the fiber class", total)
    return _extend(lattice, trace, _exact([0] * lattice.size), "a")


def extend_nef(lattice: FiberLattice, trace: DivisorTrace, targets=None):
    """Coefficients b with (L + sum b_i C_i) . C_j equal to nonnegative targets.

    When targets are omitted, the whole total is placed on the first
    component with nonzero multiplicity.
    """
    _require_valid_connected(lattice, "extend_nef")
    total = trace.total(lattice)
    if targets is None:
        if total < 0:
            return Obstructed("negative total: no nonnegative targets exist", total)
        d = [0] * lattice.size
        d[0] = total / lattice.multiplicities[0]
        d = _exact(d)
    else:
        d = _exact(targets)
        _, m, nums = d
        if len(nums) != lattice.size:
            raise ValueError("target vector length does not match the lattice")
        if any(x < 0 for x in nums):
            raise PreconditionError("targets must be nonnegative")
        weighted = Fraction(sum(map(mul, lattice.multiplicities, nums)), m)
        if weighted != total:
            return Obstructed("target sum mismatch: sum c_i d_i must equal the total", weighted - total)
    return _extend(lattice, trace, d, "b")


def denominator_bound(lattice: FiberLattice) -> int:
    """Exponent of the cokernel torsion of the gauge-reduced lattice.

    For every integer trace orthogonal to the multiplicities, the
    denominator of the extend_trivial solution divides this bound.
    """
    _require_valid_connected(lattice, "denominator_bound")
    if not lattice.is_integral():
        raise ValueError("denominator_bound requires an integer intersection matrix")
    diag = lattice._reduced_diagonal
    return diag[-1] if diag else 1


def component_group(lattice: FiberLattice) -> FiniteAbelianGroup:
    """Torsion of coker(matrix : Z^n -> {w : w . c = 0}).

    This is the lattice-level analogue of the group of connected components
    of the special fiber of the Neron model.
    """
    _require_valid_connected(lattice, "component_group")
    if not lattice.is_integral():
        raise ValueError("component_group requires an integer intersection matrix")
    return lattice._component_group


def kodaira_cycle(n: int) -> FiberLattice:
    """Cycle of n rational (-2)-curves (Kodaira type I_n), n >= 2."""
    if n < 2:
        raise ValueError("a cycle needs at least two components")
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = -2
        j = (i + 1) % n
        mat[i][j] += 1
        mat[j][i] += 1
    return FiberLattice(
        labels=tuple(f"C{i + 1}" for i in range(n)),
        matrix=mat,
        multiplicities=(1,) * n,
        connected=True,
    )
