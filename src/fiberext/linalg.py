"""Exact integer and rational linear algebra.

All routines operate on plain lists of Python ints or ``fractions.Fraction``
values.  Nothing here ever touches floating point.  Matrices are lists of
rows; an empty matrix must be accompanied by an explicit column count where
the shape is ambiguous.

Rational systems are solved in integers by ``echelon``, a sparse
fraction-free (Bareiss) elimination of rows scaled to integers, with
``Fraction`` values made only in the back-substitution.  A fiber lattice is
eliminated once, and ``solve_eliminated`` reuses its pivot rows for every
right-hand side.  ``solve_rational`` and ``rational_kernel`` wrap
``echelon`` for general systems; the package no longer calls them, but the
benchmark's tracer wraps both by name, so they stay.

Invariant factors (``snf_diagonal``) and quotients (``lattice_quotient``)
take sparse rows only: one ``{column: nonzero int}`` dict per row, read and
never written, so a caller may hand in rows it shares (the boundary rows a
``DeltaComplex`` caches).  ``sparse`` and ``dense`` convert at the call
sites that hold dense matrices.  The elimination is transform-free: unit
pivots first, and whenever no +-1 entry is left the residue is divided by
its content, so boundary matrices and the mapping-cone relations of
cohomology (``n`` at one entry beside +-1 incidences) never reach a dense
Smith form.  ``lattice_quotient`` reads a quotient ``Z^n / span(rels)``
straight from them, with no lattice basis.

``smith_normal_form`` is kept for callers that need ``(u, s, v)``: the
integer and modular solvers and ``kernel_basis``, which the package itself
no longer calls.  It picks as pivot the first entry of least absolute value
in row-major order; the scan stops at the first unit entry, and a unit
pivot needs no divisibility sweep.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def common_denominator(values) -> tuple[int, list[int]]:
    """``(m, m * values)`` in integers, m the lcm of the denominators of the
    ints and Fractions in ``values``.  An all-int list is returned as it is."""
    if set(map(type, values)) <= {int}:
        return 1, values
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
    """Invariant factors of the matrix with the given sparse rows: the
    nonzero Smith diagonal, ascending.

    No transforms are built.  Each row is copied (the input is never
    written) and indexed by a column -> rows map, and every +-1 entry is
    eliminated first: columns are walked sparsest first, each pivoting on
    its shortest row with a unit entry, and each pivot contributes the
    current scale to the diagonal.  When no unit is left, the residue is
    divided by its content ``g`` (as ``SNF(g A) = g SNF(A)``) and the scale
    multiplied by ``g``.  Only a residue of content 1 without units goes to
    ``smith_normal_form``.  Empty columns add nothing, so no column count is
    needed.

    Rows with one entry (the ``n e_e`` rows of a mapping cone) span
    ``m_j e_j`` for each column ``j`` they sit in, ``m_j`` the gcd of their
    values.  Such a row is touched only when its own column is eliminated,
    and then becomes a multiple of the pivot row; when every entry of that
    multiple is divisible by the ``m_j`` of its column, it lies in the span
    of the others and is dropped instead of filled in.
    """
    rows, cols, single = {}, {}, {}
    for i, row in enumerate(mat):
        if row:
            rows[i] = dict(row)
            for j, x in row.items():
                cols.setdefault(j, set()).add(i)
            if len(row) == 1 and x:
                single[j] = gcd(single.get(j, 0), x)
    diag, scale = [], 1
    while rows:
        pivoted = True
        while pivoted:
            pivoted = False
            for c in sorted(cols, key=lambda j: len(cols[j])):
                best = None
                for i in cols.get(c, ()):
                    if rows[i][c] in (1, -1) and (best is None or len(rows[i]) < len(rows[best])):
                        best = i
                if best is not None:
                    _eliminate_unit(rows, cols, single, best, c)
                    diag.append(scale)
                    pivoted = True
        if not rows:
            break
        g = 0
        for row in rows.values():
            for x in row.values():
                g = gcd(g, x)
        if g == 1:
            break
        scale *= g
        for row in rows.values():
            for j in row:
                row[j] //= g
        for j in single:
            single[j] //= g
    if rows:
        keep = sorted(cols)
        _, s, _ = smith_normal_form([[row.get(j, 0) for j in keep] for row in rows.values()], len(keep))
        diag += [scale * s[t][t] for t in range(min(len(rows), len(keep))) if s[t][t]]
    return diag


def _eliminate_unit(rows, cols, single, p, c):
    """Clear column ``c`` with the unit pivot in row ``p``, then drop row
    ``p`` and column ``c``; column operations would clear the rest of row
    ``p`` without touching any other row.  ``single`` maps a column to the
    gcd ``m_j`` of its one-entry rows; a row with no entry but ``c`` becomes
    ``-q`` times the rest of row ``p`` and is dropped when ``m_j`` divides
    each of its entries."""
    prow = rows.pop(p)
    a = prow.pop(c)
    single.pop(c, None)
    for j in prow:
        cols[j].discard(p)
    for i in cols.pop(c):
        if i == p:
            continue
        row = rows[i]
        q = row.pop(c) * a
        if not row and all(j in single and q * x % single[j] == 0 for j, x in prow.items()):
            del rows[i]
            continue
        for j, x in prow.items():
            y = row.get(j, 0) - q * x
            if y:
                row[j] = y
                cols[j].add(i)
            else:
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
    m = len(mat)
    n = len(mat[0]) if mat else (ncols or 0)
    u, s, v = smith_normal_form(mat, n)
    c = mat_vec(u, rhs)
    y = [0] * n
    for i in range(m):
        d = s[i][i] if i < n else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return mat_vec(v, y)


def solve_mod(mat, rhs, mod, ncols=None):
    """One solution of ``mat @ x == rhs (mod mod)``, or ``None``."""
    m = len(mat)
    n = len(mat[0]) if mat else (ncols or 0)
    u, s, v = smith_normal_form(mat, n)
    c = [x % mod for x in mat_vec(u, rhs)]
    y = [0] * n
    for i in range(m):
        d = s[i][i] if i < n else 0
        g = gcd(d, mod)
        if c[i] % g:
            return None
        if d:
            dg, mg = d // g, mod // g
            y[i] = (c[i] // g) * pow(dg, -1, mg) % mg if mg > 1 else 0
    return [x % mod for x in mat_vec(v, y)]


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
    their nonzero pattern only.  Rows without an entry in the pivot column
    are not touched: one left after s pivots is brought to level t as
    ``x * q[t] // q[s]`` (``q`` the pivots after a leading 1), exact since
    each skipped step was ``x * q[k] // q[k - 1]``.
    """
    rows, level, q, pivots = list(rows), [0] * len(rows), [1], []
    live = list(range(len(rows)))
    for col in range(ncols):
        hits = [i for i in live if col in rows[i]]
        if not hits:
            continue
        r, i = len(pivots), hits[0]
        prow = _at_level(rows[i], level[i], r, q)
        p = prow[col]
        for j in hits[1:]:
            row = _at_level(rows[j], level[j], r, q)
            f, new = row[col], {c: p * x for c, x in row.items()}
            for c, y in prow.items():
                new[c] = new.get(c, 0) - f * y
            rows[j], level[j] = {c: x // q[r] for c, x in new.items() if x}, r + 1
        live.remove(i)
        pivots.append((i, col, prow))
        q.append(p)
    return pivots, [rows[i] for i in live]


def _at_level(row, s, t, q):
    return row if s == t else {c: x * q[t] // q[s] for c, x in row.items()}


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
