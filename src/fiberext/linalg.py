"""Exact integer and rational linear algebra.

All routines operate on plain lists of Python ints or ``fractions.Fraction``
values.  Nothing here ever touches floating point.  Matrices are lists of
rows; an empty matrix must be accompanied by an explicit column count where
the shape is ambiguous.

Rational systems are solved in integers by ``echelon``, a sparse
fraction-free (Bareiss) elimination of rows scaled to integers, with
``Fraction`` values made only in the back-substitution; a column -> live
rows index names the rows each pivot updates.  A fiber lattice is
eliminated once, and ``solve_eliminated`` reuses its pivot rows for every
right-hand side.  ``solve_rational`` and ``rational_kernel`` wrap
``echelon`` for general systems; the package no longer calls them, but the
benchmark's tracer wraps both by name, so they stay.

Invariant factors (``snf_diagonal``) and quotients (``lattice_quotient``)
take sparse rows only: one ``{column: int}`` dict per row (a 0 is no entry),
read and never written, so a caller may hand in rows it shares (the boundary
rows a ``DeltaComplex`` caches, the integer rows of a ``FiberLattice``).
``sparse`` and ``dense`` convert for the general rational solvers and the
dense boundary matrices.  The elimination is transform-free: the one-entry
rows of a column are folded into their gcd, which is a diagonal block of its
own unless another row reaches the column; then unit pivots come first, and
whenever no +-1 entry is left the rows are divided by their content, so
boundary matrices and the mapping-cone relations of cohomology (``n`` at one
entry beside +-1 incidences) rarely reach a dense Smith form.  The columns
pivoted at +-1 before any content division, and those whose own block is 1,
are reported to ``dual_complex``, which deletes them from the rows of the
next boundary matrix.  ``lattice_quotient`` reads a quotient
``Z^n / span(rels)`` straight from the invariant factors, with no lattice
basis.

``smith_normal_form`` is kept for ``kernel_basis`` and the integer and
modular solvers (one diagonal solve), which need ``(u, s, v)`` and which
the package itself no longer calls.  It picks as pivot the first entry of
least absolute value in row-major order; the scan stops at the first unit
entry, and a unit pivot needs no divisibility sweep.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm


def common_denominator(values) -> tuple[int, list[int]]:
    """``(m, m * values)`` in integers, m the lcm of the denominators of the
    ints and Fractions in ``values``."""
    m = lcm(*[x.denominator for x in values])
    return m, [x.numerator * (m // x.denominator) for x in values]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def sparse(mat) -> list[dict[int, int]]:
    """The rows of a dense integer matrix as ``{column: entry}`` dicts of
    their nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def dense(rows, ncols: int) -> list[list[int]]:
    """The dense ``len(rows) x ncols`` matrix of sparse rows."""
    mat = [[0] * ncols for _ in rows]
    for out, row in zip(mat, rows):
        for j, x in row.items():
            out[j] = x
    return mat


def mat_vec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(mat, ncols=None):
    """Return ``(u, s, v)`` with ``u @ mat @ v == s`` in Smith normal form.

    ``u`` and ``v`` are unimodular; the diagonal of ``s`` is nonnegative and
    forms a divisibility chain.  Pivots are chosen by minimal absolute value
    to limit coefficient growth; ties go to the first entry in row-major
    order, so the scan may stop at the first unit.
    """
    m = len(mat)
    n = len(mat[0]) if mat else (ncols or 0)
    s = [[int(x) for x in row] for row in mat]
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            if row[src]:
                row[dst] += q * row[src]
        for row in v:
            if row[src]:
                row[dst] += q * row[src]

    for t in range(min(m, n)):
        while True:
            piv, least = None, 0
            for i in range(t, m):
                row = s[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (piv is None or abs(x) < least):
                        piv, least = (i, j), abs(x)
                        if least == 1:
                            break
                if least == 1:
                    break
            if piv is None:
                return _fix_signs(s, u, v, m, n)
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])

            # Clear row/column t; a nonzero remainder is strictly smaller in
            # absolute value than the pivot, so swapping it up terminates.
            clean = True
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    add_row(i, t, -(s[i][t] // s[t][t]))
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        clean = False
            if not clean:
                continue
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    add_col(j, t, -(s[t][j] // s[t][t]))
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        clean = False
            if not clean:
                continue

            if abs(s[t][t]) == 1:
                break
            # Enforce divisibility of the remaining block by the pivot.
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
    return _fix_signs(s, u, v, m, n)


def _fix_signs(s, u, v, m, n):
    for t in range(min(m, n)):
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
    return u, s, v


def snf_diagonal(mat):
    """Invariant factors of the matrix with the given sparse rows, which are
    never written: the nonzero Smith diagonal, ascending.  No column count
    is needed, as empty columns add nothing, and an explicit 0 counts as no
    entry.  The elimination is ``_smith_diagonal``'s."""
    return _smith_diagonal(mat)[0]


def _smith_diagonal(mat):
    """``(snf_diagonal(mat), units)``: the invariant factors, and a set of
    columns onto which the rows project as all of ``Z^units``.

    No transforms are built.  In one pass over the rows, the one-entry rows
    of each column ``j`` are folded into ``m_j e_j``, ``m_j`` the gcd of
    their values, and every other row is copied (the input is never
    written) and indexed by a column -> rows map.  Where an indexed row
    reaches column ``j``, ``{j: m_j}`` joins the indexed rows.  Elsewhere
    ``m_j`` is a diagonal block of its own, merged into the diagonal at the
    end by ``_merged``.

    The indexed rows are eliminated by unit pivots first: columns are
    walked sparsest first, each pivoting on its shortest row with a +-1
    entry, and each pivot contributes the current scale to the diagonal.
    When no unit is left, the rows are divided by their content ``g`` (as
    ``SNF(g A) = g SNF(A)``) and the scale multiplied by ``g``.  Only rows
    of content 1 without units go to ``smith_normal_form``.

    The units are the columns pivoted at +-1 while the scale is still 1,
    and the columns whose own block ``m_j`` is 1.  Their pivot rows are
    integer combinations of the rows, unit triangular on the unit columns.
    A unit taken after a content division is not recorded: its pivot row
    is a combination divided by the scale.
    """
    rows, cols, m = {}, {}, {}
    for i, row in enumerate(mat):
        if len(row) > 1:
            rows[i] = dict(row)
            for j in row:
                if j in cols:
                    cols[j].add(i)
                else:
                    cols[j] = {i}
        elif row:
            ((j, x),) = row.items()
            m[j] = gcd(m.get(j, 0), x)
    blocks, units = [], set()
    for j, x in m.items():
        if j in cols:
            rows[~j] = {j: x}  # negative keys never meet an input row's index
            cols[j].add(~j)
        elif x:  # an explicit 0 is no entry
            blocks.append(x)
            if x == 1:
                units.add(j)
    diag, scale = [], 1
    while True:
        pivoted = bool(rows)
        while pivoted:
            pivoted = False
            for c in sorted(cols, key=lambda j: len(cols[j])):
                best = None
                for i in cols.get(c, ()):
                    if rows[i][c] in (1, -1) and (best is None or len(rows[i]) < len(rows[best])):
                        best = i
                if best is not None:
                    _pivot(rows, cols, best, c)
                    diag.append(scale)
                    if scale == 1:
                        units.add(c)
                    pivoted = True
        if not rows:
            break
        g = 0
        for row in rows.values():
            g = gcd(g, *row.values())
            if g == 1:
                break
        if g < 2:  # 0: only explicit zeros are left
            break
        scale *= g
        for row in rows.values():
            for j in row:
                row[j] //= g
    if rows:
        keep = sorted(cols)
        residue = [[row.get(j, 0) for j in keep] for row in rows.values()]
        _, s, _ = smith_normal_form(residue, len(keep))
        diag += [scale * s[t][t] for t in range(min(len(residue), len(keep))) if s[t][t]]
    if blocks:
        chain = _merged([*reversed(diag), *blocks])
        diag = [1] * (len(diag) + len(blocks) - len(chain)) + chain[::-1]
    return diag, units


def _pivot(rows, cols, p, c):
    """Clear column ``c`` with the unit in row ``p``, then drop row ``p``
    and column ``c``: column operations would clear the rest of row ``p``
    and touch no other row.  A row left empty is deleted."""
    prow = rows.pop(p)
    a = prow.pop(c)
    for j in prow:
        cols[j].discard(p)
    for i in cols.pop(c):
        if i == p:
            continue
        row = rows[i]
        q = row.pop(c) * a
        for j, x in prow.items():
            y = row.get(j, 0) - q * x
            if y:
                row[j] = y
                cols[j].add(i)
            elif j in row:
                del row[j]
                cols[j].discard(i)
        if not row:
            del rows[i]
    for j in prow:
        if not cols[j]:
            del cols[j]


def kernel_basis(mat, ncols=None):
    """Basis of the integer kernel lattice ``{x : mat @ x == 0}``."""
    n = len(mat[0]) if mat else (ncols or 0)
    _, s, v = smith_normal_form(mat, n)
    rank = sum(1 for i in range(min(len(s), n)) if s[i][i] != 0)
    return [[row[j] for row in v] for j in range(rank, n)]


def solve_integer(mat, rhs, ncols=None):
    """One integer solution of ``mat @ x == rhs``, or ``None``."""
    return _solve_diagonal(mat, rhs, ncols, 0)


def solve_mod(mat, rhs, mod, ncols=None):
    """One solution of ``mat @ x == rhs (mod mod)``, or ``None``."""
    return _solve_diagonal(mat, rhs, ncols, mod)


def _solve_diagonal(mat, rhs, ncols, mod):
    """One solution of ``mat @ x == rhs`` over ``Z/mod``, over Z for mod 0,
    or ``None``: with ``u @ mat @ v = s`` in Smith form, solve the diagonal
    system ``s @ y == u @ rhs`` entry by entry and take ``v @ y``.  Entry
    ``d y_i = c_i`` is solvable iff ``g = gcd(d, mod)`` divides ``c_i`` (for
    mod 0, g = d, and d = 0 needs c_i = 0)."""
    n = len(mat[0]) if mat else (ncols or 0)
    u, s, v = smith_normal_form(mat, n)
    y = [0] * n
    for i, c in enumerate(mat_vec(u, rhs)):
        d = s[i][i] if i < n else 0
        g = gcd(d, mod)
        if c % g if g else c:
            return None
        if d:
            y[i] = c // g * pow(d // g, -1, mod // g) % (mod // g) if mod else c // d
    x = mat_vec(v, y)
    return [e % mod for e in x] if mod else x


# ---------------------------------------------------------------------------
# Lattices and quotients
# ---------------------------------------------------------------------------

def lattice_quotient(rels, n):
    """Invariants of ``Z^n / span(rels)``, ``rels`` sparse rows:
    ``(free_rank, torsion)``, torsion a divisibility chain of ints > 1.  In
    the identity basis of ``Z^n`` each relation is its own coordinate
    vector, so its rows are factored as they are (invariant factors do not
    change under transposition)."""
    diag = snf_diagonal(rels)
    return n - len(diag), [d for d in diag if d > 1]


def invariant_factor_chain(orders) -> tuple[int, ...]:
    """Canonical invariant factors of a direct sum of cyclic groups.

    Each order merges into a divisibility chain by ``Z/a + Z/b = Z/lcm +
    Z/gcd``, so nothing is factored (``_merged``, which also merges the
    one-entry blocks of ``_smith_diagonal`` into its diagonal).  Orders
    below 2 contribute nothing; an order that is not an ``int`` (a bool is
    none) raises ``TypeError``."""
    orders = list(orders)
    for a in orders:
        if type(a) is not int:
            raise TypeError(f"orders must be integers, got {a!r}")
    return tuple(reversed(_merged(orders)))


def _merged(orders) -> list[int]:
    """The invariant factors of the sum of ``Z/a`` over the int ``orders``,
    largest first.  An order dividing the smallest factor so far passes
    through every merge unchanged, so it is appended at once: equal orders
    cost linear time."""
    chain = []  # descending: each factor divides the one before it
    for a in orders:
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
    return chain


# ---------------------------------------------------------------------------
# Rational elimination, sparse and fraction-free
# ---------------------------------------------------------------------------

def echelon(rows, ncols):
    """Fraction-free echelon form (Bareiss 1968) of the integer matrix with
    the given sparse rows of nonzero entries, which are never written.

    In each of the first ``ncols`` columns the first row not yet pivoted on
    with an entry there is pivoted on.  Returns ``(pivots, rest)``: per pivot
    ``(i, col, row)``, row i as pivoted on (entries are minors, the last
    pivot the determinant of the pivot block), and the other rows, exact in
    their nonzero pattern only.  A column -> live rows index names the rows
    with an entry in the pivot column, the least of them the pivot row; each
    other is updated in one pass.  A row without an entry there is not
    touched: one left after s pivots is brought to level t as
    ``x * q[t] // q[s]`` (``q`` the pivots after a leading 1), exact since
    each skipped step was ``x * q[k] // q[k - 1]``.
    """
    rows, level, q, pivots, cols = list(rows), [0] * len(rows), [1], [], defaultdict(set)
    for i, row in enumerate(rows):
        for c in row:
            cols[c].add(i)
    for col in range(ncols):
        hits = cols.pop(col, None)
        if not hits:
            continue
        r, i = len(pivots), min(hits)
        g, s = q[-1], q[level[i]]
        prow = rows[i] if s == g else {c: x * g // s for c, x in rows[i].items()}
        p = prow[col]
        for c in prow:
            if c != col:
                cols[c].discard(i)
        for j in hits:
            if j == i:
                continue
            row, s = rows[j], q[level[j]]
            f, new = row[col] * g // s, {}
            for c, x in row.items():
                x = p * (x * g // s) - f * prow.get(c, 0)
                if x:
                    new[c] = x // g
                elif c != col:
                    cols[c].discard(j)
            for c, y in prow.items():
                if c not in row:
                    new[c] = -f * y // g
                    cols[c].add(j)
            rows[j], level[j] = new, r + 1
        rows[i] = None
        pivots.append((i, col, prow))
        q.append(p)
    return pivots, [row for row in rows if row is not None]


def _back_substitute(pivots, b):
    """``(d, d * x)``, d the last pivot, for x on the pivot columns (a dict)
    with each pivot row times x equal to its entry of ``b``; every division
    is exact, as ``d * x`` is integral by Cramer's rule."""
    d, y = (pivots[-1][2][pivots[-1][1]] if pivots else 1), {}
    for (_, c, row), bk in zip(reversed(pivots), reversed(b)):
        y[c] = (d * bk - sum([x * y[j] for j, x in row.items() if j in y])) // row[c]
    return d, y


def solve_eliminated(pivots, rhs):
    """``(det, det * x)`` with ``B x = rhs``, B the leading m x m block
    (m = ``len(rhs)``) of a symmetric matrix whose first m ``echelon``
    pivots are its first m diagonal entries, else ``None``.  Nothing is
    factored: by symmetry the multiplier of row j at pivot k is entry j of
    pivot row k, so ``rhs`` is eliminated with the pivot rows alone.
    """
    m = len(rhs)
    if [(i, c) for i, c, _ in pivots[:m]] != [(k, k) for k in range(m)]:
        return None
    q = [1] + [row[k] for _, k, row in pivots[:m]]
    b, level = list(rhs), [0] * m
    for k, (_, _, row) in enumerate(pivots[:m]):
        bk = b[k] = b[k] * q[k] // q[level[k]]
        for j, f in row.items():
            if k < j < m:
                b[j], level[j] = (q[k + 1] * (b[j] * q[k] // q[level[j]]) - f * bk) // q[k], k + 1
    det, y = _back_substitute(pivots[:m], b)
    return det, [y[k] for k in range(m)]


def rational_kernel(mat, ncols=None):
    """Basis of the rational nullspace ``{x : mat @ x == 0}``: per non-pivot
    column j, the vector that is 1 at j and 0 at the other non-pivot columns."""
    n = len(mat[0]) if mat else (ncols or 0)
    pivots, _ = echelon(sparse([common_denominator(row)[1] for row in mat]), n)
    basis, pcols = [], {c for _, c, _ in pivots}
    for fcol in (j for j in range(n) if j not in pcols):
        d, y = _back_substitute(pivots, [row.get(fcol, 0) for _, _, row in pivots])
        basis.append([Fraction(1) if j == fcol else Fraction(-y.get(j, 0), d) for j in range(n)])
    return basis


def solve_rational(mat, rhs):
    """One rational solution of ``mat @ x == rhs`` (0 off the pivot columns), or ``None``."""
    if not mat:
        return []
    n = len(mat[0])
    pivots, rest = echelon(sparse([common_denominator([*row, b])[1] for row, b in zip(mat, rhs)]), n)
    if any(n in row for row in rest):
        return None
    d, y = _back_substitute(pivots, [row.get(n, 0) for _, _, row in pivots])
    return [Fraction(y.get(j, 0), d) for j in range(n)]
