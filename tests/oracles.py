"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's linear-algebra routines, and never
import ``fiberext.linalg`` or ``cochain.invariant_factor_chain``
(``test_guards.py`` checks): ranks come from a
plain rational Gaussian elimination, invariant factors from a naive
Euclidean diagonalization with first-nonzero pivoting or from the Smith
form with transforms below, kernels and solutions from that Smith form,
and cokernel orders from direct scanning.  They exist so that the fast
paths in the package are checked against something that cannot share
their bugs.
"""

from fractions import Fraction
from math import gcd, lcm


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def rational_rank_oracle(mat):
    work = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def naive_invariant_factors(mat):
    """Diagonal of a Smith form by plain Euclid, first-nonzero pivoting."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(m, n):
        # find any nonzero entry
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            moved = False
            for i in range(t + 1, m):
                while a[i][t] != 0:
                    if abs(a[i][t]) < abs(a[t][t]):
                        a[t], a[i] = a[i], a[t]
                        moved = True
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                while a[t][j] != 0:
                    if abs(a[t][j]) < abs(a[t][t]):
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        moved = True
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
            if not moved and all(a[i][t] == 0 for i in range(t + 1, m)) \
                    and all(a[t][j] == 0 for j in range(t + 1, n)):
                break
        diag.append(abs(a[t][t]))
        t += 1
    diag = [d for d in diag if d != 0]
    # repair the divisibility chain pairwise with gcd/lcm
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return diag


def boundary_matrix_reference(cx, r):
    """Dense B_r built entry by entry from the facet maps, the way the
    package built it before it cached sparse boundary rows: the column of
    an r-simplex is the alternating sum of its facets."""
    mat = [[0] * cx.count(r) for _ in range(cx.count(r - 1))]
    for j, facets in enumerate(cx.facets[r - 1]):
        for i, f in enumerate(facets):
            mat[f][j] += (-1) ** i
    return mat


def brute_homology(counts, boundaries):
    """Betti and torsion per degree from ranks and naive diagonalization.

    ``boundaries[r]`` is B_r for 1 <= r <= top (index 0 unused).
    """
    top = len(counts) - 1
    betti = []
    torsion = []
    for k in range(top + 1):
        rank_k = rational_rank_oracle(boundaries[k]) if k >= 1 else 0
        rank_next = rational_rank_oracle(boundaries[k + 1]) if k + 1 <= top else 0
        betti.append(counts[k] - rank_k - rank_next)
        if k + 1 <= top:
            torsion.append(tuple(d for d in naive_invariant_factors(boundaries[k + 1]) if d > 1))
        else:
            torsion.append(())
    return betti, torsion


def _inverse_columns(mat):
    """Columns of the inverse of a nonsingular rational matrix."""
    n = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return [[work[i][n + j] for i in range(n)] for j in range(n)]


def generator_order_in_cokernel(mat, index):
    """Order of the standard generator e_index in Z^n / im(mat).

    ``mat`` must be square and nonsingular, so the cokernel is finite: the
    order is the least m with m * e_index in the image, found by scanning.
    """
    col = _inverse_columns(mat)[index]
    m = 1
    while True:
        if all((m * x).denominator == 1 for x in col):
            return m
        m += 1


def cokernel_exponent_oracle(mat):
    """Exponent of the finite cokernel of a nonsingular integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    return lcm(*[generator_order_in_cokernel(mat, i) for i in range(n)])


def cokernel_order_oracle(mat):
    """Order of the finite cokernel: |det| via fraction-free elimination."""
    n = len(mat)
    work = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for i in range(col + 1, n):
            f = work[i][col] / work[col][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    assert det.denominator == 1
    return abs(int(det))


# ---------------------------------------------------------------------------
# Reference path for the fraction-free elimination: the Fraction
# Gauss-Jordan solvers and the symmetric PSD test that the package used
# before, kept verbatim so differential tests can compare against them.
# ---------------------------------------------------------------------------

def rational_kernel_reference(mat, ncols=None):
    """Basis of the rational nullspace ``{x : mat @ x == 0}``."""
    n = len(mat[0]) if mat else (ncols or 0)
    work = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        work[rank] = [x / prow[col] for x in prow]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(col)
        rank += 1
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * n
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -work[r][fcol]
        basis.append(vec)
    return basis


def solve_rational_reference(mat, rhs):
    """One rational solution of ``mat @ x == rhs``, or ``None``."""
    if not mat:
        return []
    n = len(mat[0])
    work = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        work[rank] = [x / prow[col] for x in prow]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(work)):
        if work[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, pcol in enumerate(pivots):
        sol[pcol] = work[r][n]
    return sol


def integer_matrix_reference(lattice) -> tuple[int, list[list[int]]]:
    """``(d, d * matrix)``, d the lcm of the denominators, read back from the
    public ``Fraction`` matrix as the lattice once did on first use."""
    d = lcm(*[x.denominator for row in lattice.matrix for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in lattice.matrix]


def extend_reference(lattice, trace, targets, solve=solve_rational_reference):
    """``(coefficients, denominator, achieved trace)`` of the solution of
    ``matrix @ x = targets - trace`` with x = 0 at the first component of
    nonzero multiplicity, all in ``Fraction`` arithmetic.  ``solve`` solves
    the gauge-reduced system; large lattices pass
    ``solve_rational_dense_reference``, the path the extension took before."""
    n = lattice.size
    mat = lattice.matrix
    i0 = next(i for i, c in enumerate(lattice.multiplicities) if c)
    idx = [i for i in range(n) if i != i0]
    rhs = [Fraction(targets[i]) - trace.values[i] for i in idx]
    sub = solve([[mat[i][j] for j in idx] for i in idx], rhs)
    sol = sub[:i0] + [Fraction(0)] + sub[i0:]
    achieved = [v + sum(mat[i][j] * sol[j] for j in range(n)) for i, v in enumerate(trace.values)]
    return tuple(sol), lcm(*[x.denominator for x in sol]), tuple(achieved)


def positive_semidefinite_reference(mat) -> bool:
    """Exact PSD test by symmetric Gaussian elimination.

    All pivots must be >= 0, and a zero pivot forces the whole remaining
    row to vanish.
    """
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    for k in range(n):
        p = a[k][k]
        if p < 0:
            return False
        if p == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / p
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


def semidefinite_rank_reference(a) -> tuple[bool, int]:
    """Exact PSD test and rank of a symmetric integer matrix, in place, as
    the package computed them before its sparse elimination.

    A dense fraction-free symmetric sweep (Bareiss 1968) over the upper
    triangle, with diagonal pivots in order.  Each pivot is a principal
    minor, so it has the sign of the rational pivot while the earlier ones
    are positive.
    """
    prev, rank = 1, 0
    for k, prow in enumerate(a):
        p = prow[k]
        if p < 0 or (p == 0 and any(prow[k + 1:])):
            return False, rank
        if p:
            for i in range(k + 1, len(a)):
                row, f = a[i], prow[i]
                row[i:] = [(p * x - f * y) // prev for x, y in zip(row[i:], prow[i:])]
            prev, rank = p, rank + 1
    return True, rank


def validation_checks_reference(lattice, semidefinite=positive_semidefinite_reference,
                                kernel=rational_kernel_reference):
    """``ValidationReport.checks`` of a fiber lattice, by the reference path.

    ``semidefinite`` tests the negated matrix and ``kernel`` gives a basis of
    the rational nullspace; large lattices pass dense integer routines."""
    n = lattice.size
    mat = lattice.matrix
    checks = []

    symmetric = all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n))
    checks.append(("symmetric", symmetric, "" if symmetric else "matrix is not symmetric"))

    mc = [sum(row[j] * lattice.multiplicities[j] for j in range(n)) for row in mat]
    trivial = all(x == 0 for x in mc)
    checks.append((
        "fiber_class_trivial",
        trivial,
        "" if trivial else f"matrix * multiplicities = {mc}",
    ))

    nsd = symmetric and semidefinite([[-x for x in row] for row in mat])
    checks.append((
        "negative_semidefinite",
        nsd,
        "" if nsd else "a pivot of the negated matrix is negative or a zero pivot has a nonzero row",
    ))

    if lattice.connected:
        kernel = kernel([list(r) for r in mat], n)
        ok = len(kernel) == 1 and trivial
        if ok:
            vec = kernel[0]
            c = lattice.multiplicities
            i0 = next(j for j, x in enumerate(vec) if x != 0)
            ratio = Fraction(c[i0]) / vec[i0]
            ok = all(ratio * x == Fraction(ci) for x, ci in zip(vec, c))
        checks.append((
            "kernel_is_multiplicity_span",
            ok,
            "" if ok else f"rational kernel has dimension {len(kernel)} or is not spanned by the multiplicities",
        ))

    return tuple(checks)


# ---------------------------------------------------------------------------
# Reference path for the per-complex cache: the Smith routine with a full
# pivot scan on every pass, invariant factors by trial division, and the
# component group through c-perp coordinates, kept verbatim so differential
# tests can compare against them.
# ---------------------------------------------------------------------------

def smith_normal_form_reference(mat, ncols=None):
    """``(u, s, v)`` with ``u @ mat @ v == s`` in Smith normal form."""
    m = len(mat)
    n = len(mat[0]) if mat else (ncols or 0)
    s = [[int(x) for x in row] for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def fix_signs():
        for t in range(min(m, n)):
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
        return u, s, v

    for t in range(min(m, n)):
        while True:
            piv = None
            for i in range(t, m):
                for j in range(t, n):
                    if s[i][j] != 0 and (piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                return fix_signs()
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
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
    return fix_signs()


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factor_chain_reference(orders) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups, via primary parts."""
    primary = {}
    for o in orders:
        for p, e in _factorize(int(o)).items():
            primary.setdefault(p, []).append(e)
    slots = max((len(v) for v in primary.values()), default=0)
    chain = []
    for k in range(slots):
        f = 1
        for p, exps in primary.items():
            exps = sorted(exps, reverse=True)
            if k < len(exps):
                f *= p ** exps[k]
        chain.append(f)
    return tuple(sorted(chain))


def invariant_factors_of_orders_reference(orders) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups: the entries
    above 1 of the Smith diagonal of ``diag(orders)``.  The Smith form is
    gcd-based, so large prime orders cost no factoring."""
    diag = [[o if i == j else 0 for j in range(len(orders))] for i, o in enumerate(orders)]
    return tuple(d for d in smith_diagonal_reference(diag, len(orders)) if d > 1)


def smith_diagonal_reference(mat, ncols=None) -> list[int]:
    """The nonzero invariant factors of ``mat``, off its Smith form."""
    n = len(mat[0]) if mat else (ncols or 0)
    _, s, _ = smith_normal_form_reference(mat, n)
    return [s[t][t] for t in range(min(len(s), n)) if s[t][t]]


def kernel_basis_reference(mat, ncols=None):
    """A basis of the integer kernel lattice ``{x : mat @ x == 0}``: the
    columns of ``v`` past the rank, where ``u @ mat @ v`` is the Smith form."""
    n = len(mat[0]) if mat else (ncols or 0)
    _, s, v = smith_normal_form_reference(mat, n)
    rank = sum(1 for t in range(min(len(s), n)) if s[t][t])
    return [[row[j] for row in v] for j in range(rank, n)]


def solve_reference(mat, rhs, ncols=None, mod=None):
    """One solution of ``mat @ x == rhs`` over Z, or over Z/mod when ``mod``
    is given, or ``None``: with ``u @ mat @ v = s`` in Smith form, solve the
    diagonal system ``s @ y == u @ rhs`` entry by entry and take ``v @ y``."""
    n = len(mat[0]) if mat else (ncols or 0)
    u, s, v = smith_normal_form_reference(mat, n)
    y = [0] * n
    for i, urow in enumerate(u):
        c = sum(a * b for a, b in zip(urow, rhs))
        d = s[i][i] if i < n else 0
        if mod is None:
            if c % d if d else c:
                return None
            if d:
                y[i] = c // d
        else:
            g = gcd(d, mod)
            if c % g:
                return None
            if d and mod > g:
                y[i] = (c // g) * pow(d // g, -1, mod // g) % (mod // g)
    x = [sum(a * b for a, b in zip(vrow, y)) for vrow in v]
    return x if mod is None else [e % mod for e in x]


def component_group_reference(lattice) -> tuple[int, ...]:
    """Torsion of ``c-perp / im M``: an echelon basis of ``c-perp`` and the
    coordinates of the columns of the (integer) matrix in it."""
    n = lattice.size
    mat = [[int(x) for x in row] for row in lattice.matrix]
    gens = kernel_basis_reference([list(lattice.multiplicities)], n)
    _, torsion = lattice_quotient_reference(gens, _transpose(mat), n)
    return tuple(torsion)


# ---------------------------------------------------------------------------
# Reference path for H^1: kernel bases of the cocycle conditions, an echelon
# basis of each and the coordinates of the relations in it, as the package
# computed it before the mapping cone.
# ---------------------------------------------------------------------------

def _row_lattice_basis(rows, n):
    """Echelon basis of the lattice spanned (over Z) by the given rows."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(n):
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            reduced = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                r2 = [a - q * b for a, b in zip(r, p)]
                (reduced if r2[col] != 0 else rest).append(r2)
            live = reduced
        if live:
            basis.append(live[0])
        work = [r for r in rest if any(r)]
    return basis


def _coordinates_in_basis(vec, basis):
    """Coordinates of ``vec`` in an echelon lattice basis, or ``None``."""
    r = list(vec)
    coords = []
    for b in basis:
        p = next(j for j, x in enumerate(b) if x)
        q, rem = divmod(r[p], b[p])
        if rem:
            return None
        coords.append(q)
        r = [x - q * y for x, y in zip(r, b)]
    return coords if not any(r) else None


def lattice_quotient_reference(gens, rels, n):
    """``(free_rank, torsion)`` of ``span(gens) / span(rels)`` inside Z^n;
    ``rels`` must lie in the lattice spanned by ``gens``."""
    basis = _row_lattice_basis(gens, n)
    rows = []
    for rel in rels:
        coords = _coordinates_in_basis(rel, basis)
        if coords is None:
            raise ValueError("relation outside the generated lattice")
        rows.append(coords)
    diag = smith_diagonal_reference(rows, len(basis))
    return len(basis) - len(diag), [d for d in diag if d > 1]


def cohomology_group_reference(complex, group):
    """H^1 as ``ker d1 / im d0`` over Z and ``{x : d1 x = 0 mod n} /
    (im d0 + n Z^E)`` for each ``Z/n``, each cocycle lattice a kernel basis."""
    from fiberext.cochain import GroupInvariants

    n_e = complex.count(1)
    if n_e == 0:
        return GroupInvariants(0, ())
    d0_cols = [[-x for x in row] for row in boundary_matrix_reference(complex, 1)]
    d1 = _transpose(boundary_matrix_reference(complex, 2)) if complex.dimension >= 2 else []
    orders, rank = [], 0
    if group.rank:
        free, torsion = lattice_quotient_reference(kernel_basis_reference(d1, n_e), d0_cols, n_e)
        orders, rank = list(torsion) * group.rank, free * group.rank
    for n in group.torsion:
        block = [row + [-n if col == t else 0 for col in range(len(d1))] for t, row in enumerate(d1)]
        cocycles = [vec[:n_e] for vec in kernel_basis_reference(block, n_e + len(d1))]
        rels = d0_cols + [[n if j == i else 0 for j in range(n_e)] for i in range(n_e)]
        free, torsion = lattice_quotient_reference(cocycles, rels, n_e)
        if free:
            raise ArithmeticError(f"H^1 with Z/{n} coefficients has free rank {free}")
        orders.extend(torsion)
    return GroupInvariants(rank, invariant_factors_of_orders_reference(orders))


def mapping_cone_reference(complex, n):
    """``(free, torsion)`` of the full mapping cone of ``n``, as the package
    factored it before the spanning-forest gauge: ``(Z^T + Z^E) / span{(0,
    B_1 e_v), (B_2 e_e, n e_e)}`` over every vertex v and every edge e, from
    dense boundary matrices and the reference Smith diagonal."""
    n_e, n_t = complex.count(1), complex.count(2)
    b2 = boundary_matrix_reference(complex, 2) if n_t else [[]] * n_e
    rels = [[0] * n_t + row for row in boundary_matrix_reference(complex, 1)]
    rels += [row + [n if j == e else 0 for j in range(n_e)] for e, row in enumerate(b2)]
    diag = smith_diagonal_reference(rels, n_t + n_e)
    return n_t + n_e - len(diag), [d for d in diag if d > 1]


# ---------------------------------------------------------------------------
# Reference path for exactness: the Smith-based solves the package used
# before the spanning-forest propagation, kept so differential tests can
# compare verdicts against them.
# ---------------------------------------------------------------------------

def vertex_coboundary(cx):
    """The edge-by-vertex coboundary ``d0 = -B_1^T`` (no rows without edges)."""
    b1 = boundary_matrix_reference(cx, 1) if cx.dimension >= 1 else []
    return [[-x for x in col] for col in _transpose(b1)]


def is_exact_reference(phi):
    """``coboundary(beta) = phi`` solved against ``d0 = -B_1^T``: an integer
    solve per free coordinate and a modular solve per cyclic factor of the
    coefficient group.  Returns the 0-cochain, or ``None`` when there is none."""
    from fiberext.cochain import Cochain

    cx, group = phi.complex, phi.group
    n_v = cx.count(0)
    mat = vertex_coboundary(cx)
    per_vertex = [[0] * group.width for _ in range(n_v)]
    for p in range(group.width):
        rhs = [value[p] for value in phi.values]
        mod = group.torsion[p - group.rank] if p >= group.rank else None
        sol = solve_reference(mat, rhs, n_v, mod)
        if sol is None:
            return None
        for v in range(n_v):
            per_vertex[v][p] = sol[v]
    return Cochain(cx, group, 0, tuple(tuple(v) for v in per_vertex))


# ---------------------------------------------------------------------------
# Per-element cochain arithmetic: the walks the package made before it
# worked one coordinate at a time, each step a ``CoefficientGroup`` call.
# ---------------------------------------------------------------------------

def cochain_values_reference(complex, group, degree, values):
    """The values a ``Cochain`` keeps: each value through ``group.reduce``,
    which names the first bad element, then the count checked."""
    vals = tuple(group.reduce(v) for v in values)
    expected = complex.count(degree)
    if len(vals) != expected:
        raise ValueError(f"cochain of degree {degree} needs {expected} values, got {len(vals)}")
    return vals


def coboundary_reference(beta):
    """The values of ``coboundary(beta)``: beta(l) - beta(j) on the edge
    between components l < j, whose facets are ``(j, l)``."""
    cx, group = beta.complex, beta.group
    edges = cx.facets[0] if cx.dimension >= 1 else ()
    return tuple(group.sub(beta.values[smaller], beta.values[larger]) for larger, smaller in edges)


def is_closed_reference(phi):
    """``(closed, witness)`` of a 1-cochain: the first 2-simplex, facets
    ``(jk, ik, ij)``, on which phi(ij) + phi(jk) - phi(ik) is not zero in the
    group is the witness."""
    cx, group, values = phi.complex, phi.group, phi.values
    if cx.dimension < 2:
        return True, None
    for t, (f_jk, f_ik, f_ij) in enumerate(cx.facets[1]):
        if not group.is_zero(group.sub(group.add(values[f_ij], values[f_jk]), values[f_ik])):
            return False, cx.simplex_ids[2][t]
    return True, None


# ---------------------------------------------------------------------------
# Reference builds of the dual complex: the three-walk and the one-walk
# ``build_dual_complex`` the package ran before, for differential tests.
# ---------------------------------------------------------------------------

def build_dual_complex_reference(levels):
    """The three-walk ``build_dual_complex`` over levels of ``Stratum``s:
    every shape check on every stratum first, then facet references looked
    up by id, then positions."""
    from fiberext.dual_complex import DeltaComplex, StrataError

    seen = {}
    by_level = []
    for r, level in enumerate(levels):
        table = {}
        for s in level:
            if s.ident in seen:
                raise StrataError(f"duplicate stratum id {s.ident!r}")
            seen[s.ident] = (r, s)
            if len(s.indices) != r + 1:
                raise StrataError(f"stratum {s.ident!r} at level {r} must have {r + 1} indices")
            if any(a >= b for a, b in zip(s.indices, s.indices[1:])):
                raise StrataError(f"index set of {s.ident!r} must be strictly increasing")
            if len(s.facets) != (r + 1 if r > 0 else 0):
                raise StrataError(f"stratum {s.ident!r} must list {r + 1 if r > 0 else 0} facets")
            table[s.ident] = s
        by_level.append(table)
    if levels:
        vertex_indices = [s.indices[0] for s in levels[0]]
        if len(set(vertex_indices)) != len(vertex_indices):
            raise StrataError("component indices at level 0 must be distinct")
    for r in range(1, len(levels)):
        for s in levels[r]:
            for i, fid in enumerate(s.facets):
                if fid not in by_level[r - 1]:
                    raise StrataError(f"facet {fid!r} of {s.ident!r} is not a level-{r - 1} stratum")
                expected = s.indices[:i] + s.indices[i + 1:]
                if by_level[r - 1][fid].indices != expected:
                    raise StrataError(
                        f"facet {fid!r} of {s.ident!r} has index set "
                        f"{by_level[r - 1][fid].indices}, expected {expected}"
                    )
            if r >= 2:
                for i in range(r + 1):
                    for j in range(i + 1, r + 1):
                        fi = by_level[r - 1][s.facets[i]]
                        fj = by_level[r - 1][s.facets[j]]
                        if fi.facets[j - 1] != fj.facets[i]:
                            raise StrataError(
                                f"inconsistent facets of {s.ident!r}: dropping indices "
                                f"{s.indices[i]} and {s.indices[j]} in either order must "
                                "reach the same stratum"
                            )
    ids = tuple(tuple(s.ident for s in level) for level in levels)
    position = [{s.ident: k for k, s in enumerate(level)} for level in levels]
    facets = tuple(
        tuple(tuple(position[r - 1][fid] for fid in s.facets) for s in levels[r])
        for r in range(1, len(levels))
    )
    return DeltaComplex(ids, facets)


def build_dual_complex_walk_reference(levels):
    """The one-walk ``build_dual_complex`` the package ran before it checked
    a level at a time: each stratum checked and resolved in turn, the
    codimension-2 check on every stratum of level r >= 2."""
    from operator import ge

    from fiberext.dual_complex import DeltaComplex, StrataError

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
                raise StrataError(f"stratum {ident!r} must list {n_facets} facets")
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


# ---------------------------------------------------------------------------
# The loader's walk of ``strata`` and ``cochain`` by the path-naming helpers
# alone: every leaf through ``_get``/``_list``, in the order faults must be
# reported.  The loader tests leaves inline and calls the helpers only to
# name a fault, so its messages must equal these.
# ---------------------------------------------------------------------------

def parse_strata_reference(data):
    """``scenario.parse_strata`` with every stratum read by the helpers."""
    from fiberext.dual_complex import build_dual_complex
    from fiberext.scenario import _get, _list

    at = "strata.levels[{}][{}]."
    levels = []
    for r, level in enumerate(_get(data, "levels", [list], "strata.")):
        levels.append([(_get(s, "id", str, at, r, k),
                        _get(s, "indices", [int], at, r, k),
                        _list(s.get("facets", []), str, at + "facets", r, k))
                       for k, s in enumerate(_list(level, dict, "strata.levels[{}]", r))])
    return build_dual_complex(levels)


def parse_cochain_reference(data, complex):
    """``scenario.parse_cochain`` with every value read by ``_list`` and its
    width checked before ``Cochain`` sees it."""
    from fiberext.cochain import Cochain
    from fiberext.scenario import _get, _lacks, _list, parse_group

    if complex is None:
        raise _lacks("strata")
    group = parse_group(_get(data, "group", dict, "cochain."), "cochain.group")
    values = [_list(v, int, "cochain.edge_values[{}]", e)
              for e, v in enumerate(_get(data, "edge_values", [list], "cochain."))]
    for e, v in enumerate(values):
        if len(v) != group.width:
            raise ValueError(f"cochain.edge_values[{e}]: element must have {group.width} coordinates")
    return Cochain(complex, group, 1, values)


# ---------------------------------------------------------------------------
# Reference path for the sparse echelon: the dense fraction-free Bareiss
# solvers the package ran before, kept verbatim apart from their names.
# Lattices such as I_160 are too large for the Fraction Gauss-Jordan above.
# ---------------------------------------------------------------------------

def _scaled(row):
    """``row`` times the lcm of its denominators, as ints."""
    m = lcm(*[Fraction(x).denominator for x in row])
    return [int(Fraction(x) * m) for x in row]


def _dense_echelon(rows, ncols):
    """Fraction-free row echelon form (Bareiss 1968) of an integer matrix,
    dense; returns ``(rows, pivots)``."""
    pivots, prev = [], 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, p = rows[r], rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [0] * col + [(p * a - f * b) // prev for a, b in zip(rows[i][col:], prow[col:])]
        pivots.append(col)
        prev = p
    return rows, pivots


def _dense_back_substitute(rows, pivots, col, n):
    """``x``, 0 off the pivots, with ``rows[:, pivots] @ x == rows[:, col]``."""
    r = len(pivots)
    d = rows[r - 1][pivots[-1]] if r else 1
    y = [0] * r
    for k in range(r - 1, -1, -1):
        row = rows[k]
        acc = d * row[col] - sum(row[pivots[j]] * y[j] for j in range(k + 1, r))
        y[k] = acc // row[pivots[k]]
    x = [Fraction(0)] * n
    for pcol, v in zip(pivots, y):
        x[pcol] = Fraction(v, d)
    return x


def rational_kernel_dense_reference(mat, ncols=None):
    """``rational_kernel_reference`` by the dense fraction-free path."""
    n = len(mat[0]) if mat else (ncols or 0)
    rows, pivots = _dense_echelon([_scaled(row) for row in mat], n)
    basis = []
    for fcol in (j for j in range(n) if j not in pivots):
        vec = [-x for x in _dense_back_substitute(rows, pivots, fcol, n)]
        vec[fcol] = Fraction(1)
        basis.append(vec)
    return basis


def solve_rational_dense_reference(mat, rhs):
    """``solve_rational_reference`` by the dense fraction-free path."""
    if not mat:
        return []
    n = len(mat[0])
    rows, pivots = _dense_echelon([_scaled([*row, b]) for row, b in zip(mat, rhs)], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    return _dense_back_substitute(rows, pivots, n, n)


# ---------------------------------------------------------------------------
# Reference path for curve fibers: the graph walk ``pic0`` ran before it
# classified a curve fiber on its dual complex, kept so differential tests
# can compare against it.
# ---------------------------------------------------------------------------

def curve_fiber_type_reference(fiber):
    """``(torus_rank, abelian_dim, proper, label)`` of ``Pic^0`` of a curve
    fiber: connectivity by a search from component 0 and the torus rank as
    ``E - V + 1``.  Raises what ``classify_curve_fiber`` must raise."""
    from fiberext.pic0 import NotSemistable

    if not fiber.nodal:
        raise NotSemistable("fiber has non-nodal singularities; Pic^0 may have additive parts")
    n = fiber.components
    adj = [set() for _ in range(n)]
    for a, b in fiber.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0} if n else set()
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if not n or len(seen) != n:
        raise ValueError("fiber graph must be connected and nonempty")
    t, a = len(fiber.edges) - n + 1, sum(fiber.genera)
    label = "abelian variety" if t == 0 else "torus" if a == 0 else "semi-abelian"
    return t, a, t == 0, label


# ---------------------------------------------------------------------------
# Reference for the indexed sparse echelon: ``linalg.echelon`` as it was
# before its column index, which scanned every live row for each column and
# updated a row in four passes.  Kept verbatim apart from its name.
# ---------------------------------------------------------------------------

def echelon_reference(rows, ncols):
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
