"""Fiber intersection lattices and exact divisor-extension solvers.

A fiber of a projective family over a curve is recorded by the symmetric
matrix of pairwise intersection numbers of its irreducible components
together with their multiplicities in the scheme fiber.  The solvers adjust
a divisor by vertical components so that the result is numerically trivial
(or nef) on the fiber, working in exact rational arithmetic throughout.
``parse_rational``, the package's one parser, reads every entry and target.

Solutions are unique up to multiples of the multiplicity vector, which is
positive everywhere, so they are normalized to 0 at the gauge index 0, the
first component.  A lattice stores one integer form, the sparse rows of
``d * matrix`` (``kodaira_cycle`` builds them sparsely), and every check,
elimination, Smith diagonal and certificate reads it; the ``Fraction``
matrix is a view built on first read, which nothing here does.  The form
is eliminated once (``linalg.echelon`` of ``-d * matrix``, the gauge index
last): the pivots decide semidefiniteness and the kernel dimension, and
every extension solves with the first n - 1 pivot rows.
``denominator_bound`` and, at gauge multiplicity 1, ``component_group``
read one Smith diagonal of the gauge-reduced matrix.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from . import linalg
from .cochain import GroupInvariants
from .errors import CertificateError, PreconditionError


class _IntFractions(dict):
    """``Fraction(k)`` by int key: a lookup for the keys stored, built otherwise."""

    def __missing__(self, k: int) -> Fraction:
        return Fraction(k)


# Intersection numbers and traces are small integers, and Fractions are
# immutable, so one shared Fraction per small int serves every entry.
_FRACTION = _IntFractions({k: Fraction(k) for k in range(-64, 65)})


def parse_rational(x) -> Fraction:
    """The package's one reader of exact rationals: an int (not a bool), a
    ``Fraction``, or a string ``p`` or ``p/q`` in ASCII digits, whose digits
    go to ``int`` (no decimals, exponents, spaces or underscores)."""
    if type(x) is int:
        return _FRACTION[x]
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point input is not accepted; use Fraction, int, or 'p/q'")
    match = type(x) is str and re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", x)
    if not match:
        raise ValueError(f"not an exact rational: {x!r}")
    try:
        p, q = int(match[1]), int(match[2] or 1)
    except ValueError:
        # Only a part longer than sys.get_int_max_str_digits() fails here.
        digits = max(len(match[1].lstrip("+-")), len(match[2] or ""))
        raise ValueError(f"integer of {digits} digits exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if not q:
        raise ValueError(f"zero denominator in rational {x!r}")
    return Fraction(p, q)


def _sequence(values) -> list:
    """``values`` as a list.  A str, bytes, dict or (frozen) set raises
    ``TypeError``: it iterates as characters, keys or in no fixed order,
    not as entries."""
    if isinstance(values, (str, bytes, dict, set, frozenset)):
        raise TypeError(f"expected a sequence of entries, got a {type(values).__name__}")
    return list(values)


def _exact(values) -> tuple[tuple[Fraction, ...], int, list[int]]:
    """``values`` as Fractions, and as integers over the lcm of their denominators.

    Ints stay ints: an all-int vector is its own integer form.  Tuples are
    made from lists, not generators: a tuple grown from a generator bypasses
    the interpreter's tuple free list but is freed onto it.
    """
    values = _sequence(values)
    if set(map(type, values)) <= {int}:
        return tuple(list(map(_FRACTION.__getitem__, values))), 1, values
    fracs = tuple([parse_rational(x) for x in values])
    return (fracs, *linalg.common_denominator(fracs))


def _multiplicity(c) -> int:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)) or c.denominator != 1:
        raise ValueError(f"multiplicities must be positive integers, got {c!r}")
    return int(c)


@dataclass(frozen=True, init=False)
class FiberLattice:
    """Intersection data of the components of a connected fiber.

    ``matrix[i][j]`` is the intersection number of components i and j;
    ``multiplicities`` are their coefficients in the scheme-theoretic fiber.
    What is stored is the integer form ``(d, rows)``: d the lcm of the
    denominators, row i the ``{j: d * matrix[i][j]}`` dict of nonzero
    entries.  An all-int matrix is type-checked once and made into rows in
    one pass; any other goes through ``parse_rational``.  Equality, hashing
    and repr follow the four fields, so they read ``matrix``, the tuple of
    ``Fraction`` tuples built from the rows on first read.  Invariants are
    computed at most once per instance and cached on it.
    """

    labels: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    multiplicities: tuple[int, ...]
    connected: bool = True

    def __init__(self, labels, matrix, multiplicities, connected: bool = True):
        labels, matrix = _sequence(labels), _sequence(matrix)
        if not {*map(type, matrix)} <= {list, tuple}:
            matrix = [_sequence(row) for row in matrix]
        n = len(labels)
        if {*map(type, chain.from_iterable(matrix))} <= {int}:
            d, rows = 1, [{j: x for j, x in enumerate(row) if x} for row in matrix]
        else:
            rows = [_exact(row) for row in matrix]
            d = lcm(*[m for _, m, _ in rows])
            rows = [{j: x * (d // m) for j, x in enumerate(a) if x} for _, m, a in rows]
        multiplicities = tuple([_multiplicity(c) for c in _sequence(multiplicities)])
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("intersection matrix must be square and match the labels")
        if len(multiplicities) != n:
            raise ValueError("multiplicity vector length must match the matrix")
        if any(c <= 0 for c in multiplicities):
            raise ValueError("multiplicities must be positive integers")
        vars(self).update(labels=tuple(labels), _integer_matrix=(d, rows),
                          multiplicities=multiplicities, connected=connected)

    @classmethod
    def _from_rows(cls, labels, rows, multiplicities) -> FiberLattice:
        """The connected lattice of the int rows ``rows`` (d = 1), unchecked."""
        lattice = cls.__new__(cls)
        vars(lattice).update(labels=labels, _integer_matrix=(1, rows), multiplicities=multiplicities, connected=True)
        return lattice

    # Declared above as a field, so that equality, hashing and repr read it;
    # defined here as a cached property, so that it is built on first read.
    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        d, rows = self._integer_matrix
        view = [[_FRACTION[0]] * self.size for _ in rows]
        for out, row in zip(view, rows):
            for j, x in row.items():
                out[j] = _FRACTION[x] if d == 1 else Fraction(x, d)
        return tuple(map(tuple, view))

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
        n, a = self.size, self._integer_matrix[1]
        return linalg.echelon([{(j - 1) % n: -x for j, x in row.items()} for row in a[1:] + a[:1]], n)[0]

    @cached_property
    def _validation(self) -> ValidationReport:
        n = self.size
        checks = []

        d, a = self._integer_matrix
        symmetric = all(a[j].get(i) == x for i, row in enumerate(a) for j, x in row.items())
        checks.append(("symmetric", symmetric, "" if symmetric else "matrix is not symmetric"))

        mc = [sum([x * self.multiplicities[j] for j, x in row.items()]) for row in a]
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
        return linalg.snf_diagonal([{j: x for j, x in row.items() if j} for row in self._integer_matrix[1][1:]])

    @cached_property
    def _component_group(self) -> GroupInvariants:
        # M c = 0 puts im M inside c-perp, and Z^n / c-perp is free, so
        # Z^n / im M = c-perp / im M + Z: the torsion is that of coker M.
        # If c is 1 at the gauge index 0, deleting that coordinate maps c-perp
        # onto Z^(n-1), and im M onto im M' (M e_0 is a combination of the
        # other columns), so the group is coker M' of the gauge-reduced M'.
        if self.multiplicities[0] == 1:
            diag = self._reduced_diagonal
        else:
            diag = linalg.snf_diagonal(self._integer_matrix[1])
        return GroupInvariants(0, tuple([d for d in diag if d > 1]))


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
    value: Fraction


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
        raise CertificateError("certificate failure: the gauge-reduced matrix is singular")
    e, y = sub
    y = [0] + y
    # x = y / (e m) meets the targets iff A y = d e w, on every row.
    ay = [sum([x * y[j] for j, x in row.items()]) for row in a]
    if ay != [d * e * x for x in w]:
        achieved = [x + Fraction(r, d * e * m) for x, r in zip(trace.values, ay)]
        raise CertificateError(f"certificate failure: achieved trace {achieved} differs from {list(goal)}")
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

    Targets are read by ``parse_rational``.  When they are omitted, the
    whole total is placed on the first component with nonzero multiplicity.
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


def component_group(lattice: FiberLattice) -> GroupInvariants:
    """Torsion of coker(matrix : Z^n -> {w : w . c = 0}), a rank-0
    ``GroupInvariants`` whose ``torsion`` is its invariant factor chain.

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
    rows = [{i: -2} for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        rows[i][j] = rows[i].get(j, 0) + 1
        rows[j][i] = rows[j].get(i, 0) + 1
    return FiberLattice._from_rows(tuple([f"C{i + 1}" for i in range(n)]), rows, (1,) * n)
